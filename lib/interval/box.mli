(** Axis-aligned boxes (interval vectors): the set representation used for
    initial, unsafe and goal regions, and for flowpipe segments in the
    geometric metric of Eq. (2)/(3). *)

type t = Interval.t array

(** Defensive copy of an interval array; raises on empty input. *)
val of_intervals : Interval.t array -> t

(** [make ~lo ~hi] from corner coordinates; raises on mismatch/empty. *)
val make : lo:float array -> hi:float array -> t

(** Degenerate box at a point. *)
val of_point : float array -> t

val dim : t -> int
val get : t -> int -> Interval.t
val lo : t -> float array
val hi : t -> float array
val center : t -> float array
val widths : t -> float array
val radii : t -> float array
val max_width : t -> float

(** Every bound is finite (no infinity, no NaN). *)
val is_finite : t -> bool

(** Product of widths. *)
val volume : t -> float

val contains : t -> float array -> bool
val subset : t -> t -> bool
val intersects : t -> t -> bool

(** Set intersection, [None] when disjoint. *)
val intersect : t -> t -> t option

(** Volume of the overlap (the |X_r ∩ X_u| of the geometric metric). *)
val intersection_volume : t -> t -> float

(** Min squared Euclidean distance between the boxes as point sets. *)
val sq_distance : t -> t -> float

val distance : t -> t -> float

(** Componentwise interval hull. *)
val hull : t -> t -> t

(** Hull of a non-empty list. *)
val hull_list : t list -> t

val translate : float array -> t -> t

(** Uniform additive bloating (raises on negative epsilon). *)
val bloat : float -> t -> t

(** Per-dimension additive bloating. *)
val bloat_vec : float array -> t -> t

(** Multiplicative inflation about the center. *)
val scale_about_center : float -> t -> t

(** Split along the widest dimension. *)
val bisect : t -> t * t

(** Even grid partition with [parts.(i)] cells per dimension (Algorithm 2). *)
val partition : int array -> t -> t list

(** All 2^n corner points. *)
val corners : t -> float array list

(** Uniform random point inside the box. *)
val sample : Dwv_util.Rng.t -> t -> float array

(** Map normalized [-1,1]^n coordinates into the box. *)
val denormalize : t -> float array -> float array

(** Inverse of {!denormalize} (0 for zero-radius dimensions). *)
val normalize : t -> float array -> float array

val equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
