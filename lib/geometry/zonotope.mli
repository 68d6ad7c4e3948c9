(** Zonotopes Z = \{ c + G·ζ | ζ ∈ [-1,1]^m \}: exact under linear maps
    and Minkowski sums; the set representation of the Flow*-style linear
    verifier. *)

type t

(** Build from a center and an n×m generator matrix. *)
val make : center:float array -> generators:Dwv_la.Mat.t -> t

val dim : t -> int
val num_generators : t -> int
val center : t -> float array

(** A box as a zonotope (one axis-aligned generator per dimension). *)
val of_box : Dwv_interval.Box.t -> t

(** Interval hull (tight per axis), each row widened outward. *)
val to_box : t -> Dwv_interval.Box.t

(** Exact image under a linear map. *)
val linear_map : Dwv_la.Mat.t -> t -> t

(** {2 Flat kernels}

    {!of_box}, {!to_box} and {!linear_map} on caller-owned float arrays,
    allocating nothing: a zonotope of dimension [n] with [p] generators
    is a center [c] ([n] floats) and a row-major generator matrix [g]
    ([n]×[p]). The boxed functions above run these same routines, so the
    two forms agree bit for bit. *)

(** [of_box_flat box ~c ~g]: center into [c], the radii on the diagonal
    of [g] (n×n, zero elsewhere). *)
val of_box_flat : Dwv_interval.Box.t -> c:float array -> g:float array -> unit

(** [to_box_flat ~n ~p ~c ~g ~raw_lo ~raw_hi ~lo ~hi]: row [i]'s hull
    bounds [c_i ∓ Σ_j |g_ij|] go to [raw_lo.(i)]/[raw_hi.(i)], are
    validated as [Interval.make] validates them (raising
    its [Invalid_argument] on the first bad row), and go widened as
    [Interval.widen] widens them to [lo.(i)]/[hi.(i)]. *)
val to_box_flat :
  n:int ->
  p:int ->
  c:float array ->
  g:float array ->
  raw_lo:float array ->
  raw_hi:float array ->
  lo:float array ->
  hi:float array ->
  unit

(** [linear_map_flat ~rows ~n ~p ~a ~c ~g ~c' ~g']: the image of (c, g)
    under [a] (rows×n) into [c'] (rows) and [g'] (rows×p). *)
val linear_map_flat :
  rows:int ->
  n:int ->
  p:int ->
  a:float array ->
  c:float array ->
  g:float array ->
  c':float array ->
  g':float array ->
  unit

val translate : float array -> t -> t

(** [affine_map a b z] = a·z + b (exact). *)
val affine_map : Dwv_la.Mat.t -> float array -> t -> t

(** Exact Minkowski sum (generator concatenation). *)
val minkowski_sum : t -> t -> t

(** Support function h(d) = ⟨c,d⟩ + Σⱼ |⟨gⱼ,d⟩|. *)
val support : t -> float array -> float

(** Girard reduction to at most [max_generators] generators (sound
    over-approximation; no-op if already small enough or the budget is
    below the dimension). *)
val reduce_order : max_generators:int -> t -> t

(** The point c + G·ζ. *)
val point : t -> float array -> float array

(** Uniform random point of the generator cube image. *)
val sample : Dwv_util.Rng.t -> t -> float array

val pp : Format.formatter -> t -> unit
