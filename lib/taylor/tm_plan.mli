(** Product plans: the monomial layout of a Taylor model's polynomial
    and the kernels over it.

    A plan for (nvars, order) ranks the monomials of total degree
    <= order in ascending packed-key order (4 bits per exponent, the
    highest variable most significant). A Taylor model's polynomial is
    a float array indexed by rank; ±0 means the monomial is absent, and
    ranks past the array's end are absent. *)

type t

(** [shape ~nvars ~order] = [Some n] when (nvars, order) has a plan of
    [n] monomials: [1 <= nvars <= 15], [0 <= order <= 7] and a product
    table of at most 2{^20} pairs (every arity up to order 3, and up to
    10 / 7 / 6 / 5 variables at orders 4 / 5 / 6 / 7). *)
val shape : nvars:int -> order:int -> int option

(** The plan of a shape, built once per process and shared by every
    domain. Raises [Invalid_argument] when the shape has none. *)
val find : nvars:int -> order:int -> t

val nvars : t -> int
val order : t -> int

(** Number of monomials (ranks). *)
val size : t -> int

(** [exponent pl r i] is variable [i]'s exponent in rank [r]'s
    monomial. *)
val exponent : t -> int -> int -> int

(** Rank of the monomial with the given exponents, [None] when its
    degree exceeds the order. Raises [Invalid_argument] on an arity
    mismatch or a negative exponent. *)
val rank : t -> int array -> int option

(** [graded pl c] = [| lo; hi; lo_0; hi_0; n_0; ...; lo_k; hi_k; n_k |]
    (k = order): the enclosure over [-1,1]ⁿ of the polynomial [c] and of
    each of its homogeneous parts, n_d counting the part's present
    terms. The termwise bounds are summed in ascending rank and moved
    outward by the summation error bound γ_{n−1}·Σ|c| (n present
    terms); the bounds may be infinite or NaN. *)
val graded : t -> float array -> float array

(** [tail pl ga gb] encloses over [-1,1]ⁿ the terms of degree > order
    of the product of two polynomials with graded bounds [ga] and [gb]:
    Σ_d B(a_d)·Σ_{e > order − d} B(b_e) in interval arithmetic that
    steps every rounded result one ulp outward. Raises
    [Invalid_argument] when a part entering the tail, or the tail, is
    not finite. *)
val tail : t -> float array -> float array -> Dwv_interval.Interval.t

(** [mul pl a b] = the terms of degree <= order of the product a·b,
    each coefficient summed in ascending rank of [a]'s contributing
    term. Counts the product's pairs in the [poly_pairs] and
    [poly_kept_pairs] work counters. *)
val mul : t -> float array -> float array -> float array
