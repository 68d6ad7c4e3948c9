(** Flowpipes: per-sample-instant and per-period reachable-set enclosures
    produced by every verifier. *)

type t

(** Build; raises unless [delta > 0] and there is at least one step box. *)
val make :
  step_boxes:Dwv_interval.Box.t array ->
  segment_boxes:Dwv_interval.Box.t array ->
  delta:float ->
  diverged:bool ->
  t

(** Number of completed sampling periods. *)
val steps : t -> int

val delta : t -> float

(** True when the verification blew up before the horizon (the Fig. 8
    "NAN" failure mode). *)
val diverged : t -> bool

val initial_box : t -> Dwv_interval.Box.t

(** Enclosure at the last completed sample instant. *)
val final_box : t -> Dwv_interval.Box.t

(** Enclosures at sample instants t = i·delta. *)
val step_boxes : t -> Dwv_interval.Box.t list

(** Enclosures over each whole period [i·delta, (i+1)·delta]. *)
val segment_boxes : t -> Dwv_interval.Box.t list

(** Boxes to check continuous-time safety against (the segments; falls
    back to step boxes for a degenerate pipe). *)
val all_boxes : t -> Dwv_interval.Box.t list

(** [find_step ~from p t]: the first sample index [i >= from] whose
    step box satisfies [p], walking the boxes in place. *)
val find_step : from:int -> (Dwv_interval.Box.t -> bool) -> t -> int option

(** [List.exists p (all_boxes t)] without the list. *)
val exists_box : (Dwv_interval.Box.t -> bool) -> t -> bool

(** [List.for_all p (all_boxes t)] without the list. *)
val for_all_boxes : (Dwv_interval.Box.t -> bool) -> t -> bool

(** Max width of the final box (tightness proxy). *)
val final_width : t -> float

(** Project every box onto the given dimensions (e.g. drop the constant
    dimension of an augmented affine system). *)
val project : dims:int array -> t -> t

val pp : Format.formatter -> t -> unit

(** Total-verification outcome: the (possibly truncated, diverged)
    flowpipe plus the structured cause when the analysis failed. *)
type outcome = { pipe : t; error : Dwv_robust.Dwv_error.t option }
