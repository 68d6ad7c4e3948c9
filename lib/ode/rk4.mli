(** Classical RK4 integration of x' = f(x, u) with u held constant
    (zero-order hold). Non-validated; used for simulation and RL training,
    never for formal guarantees.

    [f] is the field compiled by {!Dwv_expr.Expr.compile}; results are
    bit-identical to stepping with {!Dwv_expr.Expr.eval_vec}. Each call
    allocates its own scratch once, so calls are domain-safe. All three
    raise [Invalid_argument] when [x] does not have one component per
    output of [f]. *)

(** One RK4 step of size [h]. *)
val step :
  f:Dwv_expr.Expr.program -> u:float array -> h:float -> float array -> float array

(** Integrate over [0, duration] with [substeps] equal steps. *)
val integrate :
  f:Dwv_expr.Expr.program ->
  u:float array ->
  duration:float ->
  substeps:int ->
  float array ->
  float array

(** As {!integrate} but returning all substep states (index 0 = initial). *)
val integrate_dense :
  f:Dwv_expr.Expr.program ->
  u:float array ->
  duration:float ->
  substeps:int ->
  float array ->
  float array array
