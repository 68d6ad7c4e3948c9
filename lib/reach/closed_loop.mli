(** The zero-order-hold closed loop shared by every flowpipe backend:
    each period a controller abstraction encloses the control over the
    current state enclosure, the control is held through the period, and
    a validated kernel carries the state one period ahead. *)

(** One instance of the loop: the state representation ['x] (a
    Taylor-model vector or a box) with its [bound], and the period's
    [step]: given the 1-based period index and the state at the period
    start, the state at its end and the enclosure of the whole period
    (control abstraction + kernel). [backend] and [where] label every
    failure. *)
type 'x t = {
  backend : string;
  where : string;
  init : 'x;
  bound : 'x -> Dwv_interval.Box.t;
  step : int -> 'x -> ('x * Dwv_interval.Box.t, Dwv_robust.Dwv_error.t) result;
}

(** Run [steps] periods from the state [init] (whose bound is [x0]);
    total. The pipe stops at the first failure, marked diverged, with the
    cause attached: a step's [Error] (stamped with [backend], keeping its
    own [step] when it has one), an [Invalid_argument]/[Failure] raised
    by the step, a non-finite box, or a box wider than [blowup_width]
    (default 1e4). The failing period's boxes are not appended. *)
val run :
  ?blowup_width:float ->
  delta:float ->
  steps:int ->
  x0:Dwv_interval.Box.t ->
  'x t ->
  Flowpipe.outcome

(** The Taylor-model kernel of one held-control period, as a function of
    (state, control): [substeps] validated {!Taylor_reach.step}s of
    [delta /. substeps] each under the same control (sound, and shrinks
    the Lagrange remainder), returning the end state with the hulls of
    the sub-step segments and of their Picard enclosures. Sub-steps are
    numbered across all periods of the call: sub-step [k] seeds its
    Picard iteration with [warm]'s [k]-th enclosure and records its own
    into [warm_rec]. Create one per flowpipe. *)
val taylor_kernel :
  ?budget:Dwv_robust.Budget.t ->
  ?pool:Dwv_parallel.Pool.t ->
  ?warm:Warm.t ->
  ?warm_rec:Warm.recorder ->
  substeps:int ->
  f:Dwv_expr.Expr.t array ->
  lie:Taylor_reach.lie_table ->
  delta:float ->
  unit ->
  Dwv_taylor.Tm_vec.t ->
  Dwv_taylor.Tm_vec.t ->
  ( Dwv_taylor.Tm_vec.t * Dwv_interval.Box.t * Dwv_interval.Box.t,
    Dwv_robust.Dwv_error.t )
  result
