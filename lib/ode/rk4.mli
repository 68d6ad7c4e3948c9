(** Classical RK4 integration of x' = f(x, u) with u held constant
    (zero-order hold). Non-validated; used for simulation and RL training,
    never for formal guarantees.

    [f] is the field compiled by {!Dwv_expr.Expr.compile}; results are
    bit-identical to stepping with {!Dwv_expr.Expr.eval_vec}. The stages
    run inside the program's register file ({!work}), so a step
    allocates nothing. {!step} and {!integrate} each make their own
    scratch, so calls are domain-safe. *)

(** Scratch for stepping one field with one step size: its register
    file with the constants loaded, and the four stage vectors. Not
    shareable across concurrent steps. *)
type work

(** [work f ~n ~h] for states of dimension [n] and steps of size [h].
    Raises [Invalid_argument] unless [f] has [n] outputs and reads no
    state component beyond [n]. *)
val work : Dwv_expr.Expr.program -> n:int -> h:float -> work

(** Hold [u] for the following steps: copies it into the input slots,
    so [u] may be reused (even be the state) afterwards. *)
val load_input : work -> float array -> unit

(** One RK4 step from [x] into [out] under the loaded input; [out] may
    be [x]. Allocates nothing. *)
val step_into : work -> float array -> float array -> unit

(** One RK4 step of size [h]. Raises [Invalid_argument] when [x] does
    not have one component per output of [f]. *)
val step :
  f:Dwv_expr.Expr.program -> u:float array -> h:float -> float array -> float array

(** Integrate over [0, duration] with [substeps] equal steps. Raises
    [Invalid_argument] as {!step} does, or when [substeps < 1]. *)
val integrate :
  f:Dwv_expr.Expr.program ->
  u:float array ->
  duration:float ->
  substeps:int ->
  float array ->
  float array
