(** Fully-connected MLPs with exact parameter flattening (the learner of
    Algorithm 1 manipulates controllers as flat θ vectors). *)

type layer = {
  weights : Dwv_la.Mat.t;
  bias : float array;
  act : Activation.t;
}

type t

(** [create ~sizes ~acts rng]: [sizes] is [n_in; h1; ...; n_out], [acts]
    one activation per layer (so [List.length acts = List.length sizes - 1]).
    He init for ReLU layers, Xavier otherwise, zero biases. *)
val create : sizes:int list -> acts:Activation.t list -> Dwv_util.Rng.t -> t

(** Output width of each layer. *)
val layer_sizes : t -> int list

val n_in : t -> int
val n_out : t -> int
val layers : t -> layer array
val forward : t -> float array -> float array

(** One output buffer per layer, each of the layer's width. *)
val buffers : t -> float array array

(** [forward_into t bufs x] is [forward t x] bit for bit, computed in
    [bufs] (made by {!buffers} for a network of [t]'s shape) with no
    allocation. Returns the last buffer, which the next call with the
    same buffers overwrites. *)
val forward_into : t -> float array array -> float array -> float array

(** The calling domain's buffers for [t]'s shape, remade when the
    previous call on this domain used a network of another shape. Read
    {!forward_into}'s result before the domain's next evaluation. *)
val domain_buffers : t -> float array array

type cache

(** Forward pass retaining activations for {!backward}. *)
val forward_cached : t -> float array -> float array * cache

type grads = { d_weights : Dwv_la.Mat.t array; d_bias : float array array }

(** [backward t cache d_out] = (parameter gradients, d loss/d input). *)
val backward : t -> cache -> float array -> grads * float array

val num_params : t -> int

(** Deterministic layout: per layer, weights row-major then bias. *)
val flatten : t -> float array

(** Inverse of {!flatten}; raises on wrong length. *)
val unflatten : t -> float array -> t

(** Gradients in the same layout as {!flatten}. *)
val flatten_grads : t -> grads -> float array

val copy : t -> t

(** θ' = θ + α·g. *)
val add_scaled : t -> alpha:float -> grads -> t

(** Polyak averaging: target ← τ·src + (1−τ)·target. *)
val soft_update : tau:float -> src:t -> t -> t

val pp : Format.formatter -> t -> unit
