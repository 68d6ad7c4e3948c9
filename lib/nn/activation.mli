(** Activations for neural controllers (the paper's nets use ReLU hidden
    layers and a Tanh output layer). *)

type t = Relu | Tanh | Sigmoid | Linear

val apply : t -> float -> float

(** Derivative at a pre-activation value. *)
val derivative : t -> float -> float

(** Global Lipschitz constant of the activation. *)
val lipschitz : t -> float

val apply_vec : t -> float array -> float array

(** [apply_vec] in place, bit for bit. *)
val apply_in_place : t -> float array -> unit

val to_string : t -> string

(** Raises [Invalid_argument] on an unknown name. *)
val of_string : string -> t

val pp : Format.formatter -> t -> unit
