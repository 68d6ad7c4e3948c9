(** Controllers as flat parameter vectors — the common interface that lets
    Algorithm 1 tune linear and neural controllers with the same code. *)

type t =
  | Linear of { gain : Dwv_la.Mat.t }                      (** u = K·x *)
  | Net of { net : Dwv_nn.Mlp.t; output_scale : float }    (** u = s·net(x) *)

val linear : Dwv_la.Mat.t -> t
val net : output_scale:float -> Dwv_nn.Mlp.t -> t
val num_params : t -> int

(** Flat θ (row-major gain / MLP layout). *)
val params : t -> float array

(** Replace the parameters; raises on wrong length. *)
val with_params : t -> float array -> t

(** Concrete control law for simulation. *)
val eval : t -> float array -> float array

(** The control law of a rollout whose linear gains carry a bias: a
    [Linear] gain acts on the homogeneous state [[x; 1]] (its last
    column is the bias), bit for bit as [eval] on the extended state,
    without building it; a [Net] takes [x] as it is. *)
val eval_affine : t -> float array -> float array

val n_outputs : t -> int
val pp : Format.formatter -> t -> unit

(** {1 Persistence} (plain text, exact float round-trips; readers raise
    [Failure] on malformed input) *)

val to_string : t -> string
val of_string : string -> t
val save : string -> t -> unit
val load : string -> t

