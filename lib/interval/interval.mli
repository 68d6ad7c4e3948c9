(** Interval arithmetic over IEEE doubles.

    Round-to-nearest with explicit outward widening after transcendental
    and compound operations (see DESIGN.md, "Reproduction caveats"). *)

type t = private { lo : float; hi : float }

(** [make lo hi]; raises [Invalid_argument] if [lo > hi] or non-finite. *)
val make : float -> float -> t

(** [check lo hi] raises what [make lo hi] raises, and returns [()]
    where [make] returns an interval. *)
val check : float -> float -> unit

(** Degenerate interval [x, x]. *)
val of_point : float -> t

val zero : t
val one : t
val lo : t -> float
val hi : t -> float

(** Midpoint. *)
val mid : t -> float

(** Radius (half-width). *)
val rad : t -> float

val width : t -> float
val is_point : t -> bool

(** Outward widening by a relative epsilon (default {!widen_eps}):
    [[lo, hi]] becomes [[lo -. s, hi +. s]] with
    [s = widen_slack eps lo hi]. *)
val widen : ?eps:float -> t -> t

(** [1e-14], the default relative epsilon of {!widen}. *)
val widen_eps : float

(** [widen_slack eps lo hi] is [eps *. max 1 (max |lo| |hi|)], the step
    {!widen} moves each bound outward by. Kernels that hold bounds in
    float arrays widen with it, so every outward step goes through this
    one function. *)
val widen_slack : float -> float -> float -> float

(** [checked_slack eps lo hi] is {!check} then {!widen_slack}: the step
    of [widen ~eps (make lo hi)], raising where that raises. *)
val checked_slack : float -> float -> float -> float

val contains : t -> float -> bool

(** [subset a b] iff a ⊆ b. *)
val subset : t -> t -> bool

(** Set intersection, [None] when disjoint. *)
val intersect : t -> t -> t option

val intersects : t -> t -> bool

(** Smallest interval containing both. *)
val hull : t -> t -> t

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t

(** Scalar multiple. *)
val scale : float -> t -> t

(** Translation by a scalar. *)
val shift : float -> t -> t

val mul : t -> t -> t

(** Reciprocal; raises [Failure] when the interval contains zero. *)
val inv : t -> t

(** Division; raises [Failure] when the divisor contains zero. *)
val div : t -> t -> t

(** Tight square (never negative). *)
val sqr : t -> t

(** Integer power (tight via repeated squaring). *)
val pow_int : t -> int -> t

val abs : t -> t

(** Square root; raises [Failure] on a negative lower bound. *)
val sqrt_ : t -> t

val exp_ : t -> t

(** Natural log; raises [Failure] on non-positive lower bound. *)
val log_ : t -> t

val tanh_ : t -> t
val sigmoid_ : t -> t
val arctan_ : t -> t
val sin_ : t -> t
val cos_ : t -> t
val max_ : t -> t -> t
val min_ : t -> t -> t

(** Pointwise max with zero. *)
val relu : t -> t

(** Hausdorff-style gap between intervals as sets; 0 when they overlap. *)
val distance : t -> t -> float

(** Length of the intersection; 0 when disjoint. *)
val overlap_length : t -> t -> float

(** [sample a ~t] interpolates: t=0 gives lo, t=1 gives hi. *)
val sample : t -> t:float -> float

(** Bound-wise equality with absolute tolerance (default exact). *)
val equal : ?eps:float -> t -> t -> bool

val pp : Format.formatter -> t -> unit
