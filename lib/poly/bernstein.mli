(** Tensor-product Bernstein approximation over a box — the ReachNN-style
    polynomial abstraction of a neural-network controller. *)

(** Binomial coefficient as a float (0 outside the triangle). *)
val binomial : int -> int -> float

(** [basis ~degree ~k t] is B_{k,degree}(t) for t in [0,1]. *)
val basis : degree:int -> k:int -> float -> float

type approx = {
  box : Dwv_interval.Box.t;
  degrees : int array;
  coeffs : float array;  (** values of f on the Bernstein grid, mixed radix *)
}

(** [approximate ~f ~degrees box] samples [f] on the Bernstein grid of the
    given per-dimension degrees. [pool] splits the grid across domains
    (index-ordered recombination: the tensor is bit-identical to the
    sequential sampling; a nested call from inside a pool task degrades
    to the sequential loop). *)
val approximate :
  ?pool:Dwv_parallel.Pool.t ->
  f:(float array -> float) -> degrees:int array -> Dwv_interval.Box.t -> approx

(** Evaluate the Bernstein polynomial at a point of its box. *)
val eval : approx -> float array -> float

(** Hull of the coefficients — a sound enclosure of the Bernstein
    polynomial's range (convex-combination property). *)
val coeff_range : approx -> Dwv_interval.Interval.t

(** Power-basis expansion in the normalized coordinates t in [0,1]^n. *)
val to_poly : approx -> Poly.t

(** Sound remainder |B f − f| from a Lipschitz constant of f:
    (3/2)·Σᵢ L·wᵢ/√dᵢ. *)
val remainder_lipschitz : lipschitz:float -> approx -> float

(** ReachNN-style sampled remainder: max error on a finer grid plus a
    Lipschitz variation pad. Sound. [pool] sweeps contiguous index
    ranges of the sample grid on different domains; the range maxima
    combine to the same grid maximum for any split. *)
val remainder_sampled :
  ?pool:Dwv_parallel.Pool.t ->
  lipschitz:float -> f:(float array -> float) -> samples_per_dim:int -> approx -> float

(** Second-order remainder Σᵢ wᵢ²·Mᵢ/(8dᵢ) from per-axis bounds
    Mᵢ ≥ sup |∂²f/∂xᵢ²|; quadratic in the width, so it does not feed
    back into flowpipe growth. *)
val remainder_curvature : hessian_diag:float array -> approx -> float

(** Minimum of the applicable bounds above (still sound); [pool] is
    forwarded to {!remainder_sampled}. The sampled bound is never below
    its Lipschitz pad, so when the Lipschitz or curvature bound is
    already within the pad the grid is not swept and that bound is
    returned: the same bits as the full minimum. Each sweep counts one
    [bernstein_sample_sweeps]. *)
val remainder :
  ?pool:Dwv_parallel.Pool.t ->
  ?hessian_diag:float array ->
  lipschitz:float ->
  f:(float array -> float) ->
  samples_per_dim:int ->
  approx ->
  float
