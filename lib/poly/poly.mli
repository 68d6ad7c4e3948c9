(** Sparse multivariate polynomials (coefficient map over nibble-packed
    exponent keys: at most 15 variables, every exponent at most 15).
    Polynomial part of Taylor models; target of Bernstein approximation
    of NN controllers. *)

type t

(** The zero polynomial over [nvars] variables. *)
val zero : int -> t

(** Constant polynomial. *)
val const : int -> float -> t

(** [var nvars i] is the monomial zᵢ. *)
val var : int -> int -> t

(** Number of variables. *)
val nvars : t -> int

val is_zero : t -> bool

(** Number of stored monomials. *)
val num_terms : t -> int

(** Total degree (0 for the zero polynomial). *)
val degree : t -> int

(** Coefficient of the constant monomial. *)
val constant_term : t -> float

(** Add [c] times the monomial with the given exponents. *)
val add_term : t -> int array -> float -> t

(** Build from (exponents, coefficient) pairs. *)
val of_terms : int -> (int array * float) list -> t

(** All (exponents, coefficient) pairs. *)
val to_terms : t -> (int array * float) list

val neg : t -> t
val scale : float -> t -> t
val add : t -> t -> t
val sub : t -> t -> t

(** Product; raises [Invalid_argument] when some variable's exponent
    would exceed 15. *)
val mul : t -> t -> t

(** Integer power; raises [Invalid_argument] on a negative exponent or
    when some variable's exponent would exceed 15. *)
val pow : t -> int -> t

(** [truncate ~order p] = (low, high): monomials of total degree <= order,
    and the dropped remainder polynomial. *)
val truncate : order:int -> t -> t * t

(** [mul_trunc ~order a b] = (low, tail): the terms of [mul a b] of
    total degree <= order, and an enclosure over [-1,1]ⁿ of the dropped
    remainder. [low] is [truncate ~order (mul a b)]'s kept part, bit for
    bit, less its ±0 coefficients; no dropped pair is formed when both
    factors have degree <= order (the Taylor-model product). [tail] is
    Σ_d B(a_d)·Σ_{e > order − d} B(b_e) in interval arithmetic that
    steps every rounded result one ulp outward, where B(p_d) is the
    {!bound_unit} rule applied to the factor's terms of degree d.
    Raises [Invalid_argument] when a factor part entering the tail, or
    the tail, is not finite. *)
val mul_trunc : order:int -> t -> t -> t * Dwv_interval.Interval.t

(** [plan_shape ~nvars ~order] = [Some n_in] when [mul_trunc] builds a
    dense product plan for the pair: [n_in] monomials of degree
    <= order, whose ranks index the product table. [None] when the pair
    has no plan and its products take the generic path. *)
val plan_shape : nvars:int -> order:int -> int option

(** [split_var p i] = (terms without zᵢ, terms with zᵢ). *)
val split_var : t -> int -> t * t

(** [partition_coeffs ~cutoff p] = (terms whose coefficient has
    magnitude [> cutoff], the rest); both sides preserve term order. *)
val partition_coeffs : cutoff:float -> t -> t * t

(** Largest absolute coefficient (0 for the zero polynomial). *)
val max_abs_coeff : t -> float

(** Numeric evaluation. *)
val eval : t -> float array -> float

(** Evaluation in an arbitrary commutative algebra ([var_pow i k] is the
    k-th power of variable i, k >= 1). *)
val eval_gen :
  t ->
  const:(float -> 'a) ->
  var_pow:(int -> int -> 'a) ->
  add:('a -> 'a -> 'a) ->
  mul:('a -> 'a -> 'a) ->
  'a

(** Sound interval enclosure of the range over a box. *)
val ieval : t -> Dwv_interval.Box.t -> Dwv_interval.Interval.t

(** Enclosure over the canonical Taylor-model domain [-1,1]ⁿ: the
    termwise bounds summed in key order, moved outward by the summation
    error bound γ_{n−1}·Σ|c|. Raises [Invalid_argument] when a bound is
    not finite. *)
val bound_unit : t -> Dwv_interval.Interval.t

(** Partial derivative with respect to variable [i]. *)
val diff : t -> int -> t

(** Coefficientwise comparison with absolute tolerance. *)
val equal : ?eps:float -> t -> t -> bool

val pp : Format.formatter -> t -> unit
