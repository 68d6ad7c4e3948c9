(** Taylor models: polynomial over z in [-1,1]ⁿ plus rigorous interval
    remainder (Berz–Makino). Invariant: for every z in the domain the
    abstracted function satisfies f(z) ∈ poly(z) + rem.

    Used both to push reachable sets through the nonlinear dynamics and —
    POLAR-style — through neural-network layers.

    The polynomial is stored as one coefficient per rank of the
    (nvars, order) product plan ({!Tm_plan}); every shape needs a plan
    (order 1 to 7, at most 15 variables, see {!Tm_plan.shape}), and a
    constructor raises [Invalid_argument] on a shape without one. A
    binary operation raises [Invalid_argument] when its operands differ
    in arity or in order. *)

type t

(** Build from a sparse polynomial (a boundary conversion); monomials
    above [order] are soundly folded into the remainder, and ±0
    coefficients are absent monomials. Raises [Invalid_argument] if
    [order] is outside [1, 7] or the shape has no plan. *)
val make : poly:Dwv_poly.Poly.t -> rem:Dwv_interval.Interval.t -> order:int -> t

val nvars : t -> int

(** The polynomial as a sparse {!Dwv_poly.Poly.t} (a boundary
    conversion). *)
val poly : t -> Dwv_poly.Poly.t
val remainder : t -> Dwv_interval.Interval.t
val order : t -> int

(** Constant model. *)
val const : nvars:int -> order:int -> float -> t

(** The symbolic variable zᵢ. *)
val var : nvars:int -> order:int -> int -> t

(** Abstract an interval (no symbolic dependency). *)
val of_interval : nvars:int -> order:int -> Dwv_interval.Interval.t -> t

(** Sound range enclosure over the domain. *)
val bound : t -> Dwv_interval.Interval.t

(** Enclosure of the value at a concrete domain point z. *)
val eval : t -> float array -> Dwv_interval.Interval.t

val constant_term : t -> float
val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t

(** Add a constant. *)
val shift : float -> t -> t

(** [sum_scaled init s ms] = [init + Σⱼ s.(j)·ms.(j)]: the left fold of
    [add acc (scale s.(j) ms.(j))] from [init], bit for bit, accumulated
    in place in one fresh array ([init] is not modified). *)
val sum_scaled : t -> float array -> t array -> t

(** Enlarge the remainder by the given interval. *)
val add_remainder : Dwv_interval.Interval.t -> t -> t

(** Soundly prune monomials whose coefficient is below [tol] (relative to
    the largest coefficient, default 1e-10) into the remainder; keeps
    long-running flowpipes sparse. *)
val sweep : ?tol:float -> t -> t

(** Retire symbol [i]: soundly fold every monomial involving it into the
    interval remainder (disturbance-symbol recycling). Raises
    [Invalid_argument] if [i] is not a variable. *)
val absorb_var : int -> t -> t

(** Move the interval remainder onto the fresh symbol [slot] (raises if
    the slot still occurs in the polynomial): POLAR-style symbolic
    remainder, lets a contractive loop cancel past disturbances. *)
val symbolize_remainder : slot:int -> t -> t

(** Sound product with order truncation. *)
val mul : t -> t -> t

(** Integer power. *)
val pow : t -> int -> t

(** {1 Elementary functions} (Taylor expansion + Lagrange remainder) *)

val tanh_ : t -> t
val sigmoid_ : t -> t
val exp_ : t -> t
val sin_ : t -> t
val cos_ : t -> t

(** Reciprocal; raises [Failure] if the range contains zero. *)
val inv : t -> t

val div : t -> t -> t

(** ReLU: exact on sign-definite ranges, chord relaxation otherwise. *)
val relu : t -> t

(** Memo table for {!of_expr} over physically shared expression nodes. *)
type memo

val create_memo : unit -> memo

(** Evaluate a dynamics expression with models substituted for state [x]
    and input [u] variables. Pass one [memo] per evaluation context (same
    x, u) to share work across expressions with common subtrees. *)
val of_expr : ?memo:memo -> x:t array -> u:t array -> Dwv_expr.Expr.t -> t

val pp : Format.formatter -> t -> unit
