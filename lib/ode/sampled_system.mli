(** Sampled-data closed loops: plant x' = f(x,u), controller sampled every
    [delta] seconds with zero-order hold (the system model of Section 2). *)

type t = private {
  f : Dwv_expr.Expr.t array;
  n : int;
  m : int;
  delta : float;
  prog : Dwv_expr.Expr.program;  (** [f] compiled by {!make} *)
}

(** Build and compile [f] once; raises unless [|f| = n] and [delta > 0]. *)
val make : f:Dwv_expr.Expr.t array -> n:int -> m:int -> delta:float -> t

(** [stream sys ~controller ~x0 ~steps emit] runs the closed loop for
    [steps] periods ([substeps] RK4 steps per period, default 10) and
    calls [emit x] on every dense state as it is computed: each
    period's start state, then its [substeps] RK4 states — the order
    and the duplicates of {!simulate}'s [dense]. It allocates one RK4
    scratch and one state buffer per call, plus whatever [controller]
    and [emit] allocate.

    Both the controller's argument and [emit]'s [x] are that scratch
    state buffer: valid only during the call, and overwritten after it
    returns. Copy it to keep it. The controller's output is copied into
    the field's input slots before the period's first step, so it may
    be reused, or be the argument itself. Raises [Invalid_argument] on
    a wrong-length [x0] or controller output, [steps < 0] or
    [substeps < 1]. *)
val stream :
  ?substeps:int ->
  t ->
  controller:(float array -> float array) ->
  x0:float array ->
  steps:int ->
  (float array -> unit) ->
  unit

type trace = {
  states : float array array;  (** state at sample instants, length steps+1 *)
  inputs : float array array;  (** ZOH input per period, length steps *)
  dense : float array array;
      (** the RK4 states of every period in order, both endpoints
          included: length [steps * (substeps + 1)] *)
}

(** Closed-loop simulation: {!stream}, recording a copy of every dense
    state and of every input. The controller's argument is valid only
    during the call, as in {!stream}. Raises as {!stream} does. *)
val simulate :
  ?substeps:int ->
  t ->
  controller:(float array -> float array) ->
  x0:float array ->
  steps:int ->
  trace

(** One-period transition map under a constant input. *)
val step : ?substeps:int -> t -> u:float array -> float array -> float array

(** Max-abs bound on any component of f over the given boxes (for
    inter-sample flowpipe bloating). *)
val field_bound :
  t ->
  x:Dwv_interval.Interval.t array ->
  u:Dwv_interval.Interval.t array ->
  float
