(** Sparse multivariate polynomials (coefficient map over nibble-packed
    exponent keys: at most 15 variables, every exponent at most 15).
    Target of Bernstein approximation of NN controllers, and the
    activation-derivative polynomials of Taylor-model composition. *)

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

(** Partial derivative with respect to variable [i]. *)
val diff : t -> int -> t

(** Coefficientwise comparison with absolute tolerance. *)
val equal : ?eps:float -> t -> t -> bool

val pp : Format.formatter -> t -> unit
