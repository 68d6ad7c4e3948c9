(** Falsification: concrete counterexample search by robustness
    minimization (random multistart + coordinate hill climbing over X₀).
    A found counterexample definitively refutes the property — the
    complement of the verifier's sound-but-incomplete positive verdicts. *)

(** Signed distance from a point to a box: negative inside. *)
val signed_distance : Dwv_interval.Box.t -> float array -> float

type property =
  | Safety          (** falsified when some state enters the avoid set *)
  | Goal_reaching   (** falsified when no state ever enters the goal box *)

(** Signed distance to a union of boxes (min of per-box distances);
    negative inside any member. *)
val avoid_distance : Dwv_interval.Box.t list -> float array -> float

(** Trace robustness of one rollout; positive iff the property holds
    with margin. Computed on the dense states as
    {!Dwv_ode.Sampled_system.stream} produces them: the minimum over the
    same states, in the same order, as over [simulate]'s [dense]. Boxes
    are closed, so robustness 0 (touching) falsifies [Safety] but still
    satisfies [Goal_reaching] — {!search} applies the matching
    per-property threshold. [avoid] is the multi-box avoid set
    for [Safety] (default: the spec's single unsafe box). *)
val robustness :
  ?avoid:Dwv_interval.Box.t list ->
  sys:Dwv_ode.Sampled_system.t ->
  controller:(float array -> float array) ->
  spec:Spec.t ->
  property:property ->
  float array ->
  float

type counterexample = {
  x0 : float array;
  robustness : float;
  property : property;
}

(** Coordinate hill climbing within X₀ from a candidate initial state:
    [iters] sweeps with a geometrically shrinking step, clamped to the
    box. Returns the refined state and its (lower or equal) robustness —
    the counterexample-shrinking half of {!search}, exposed for direct
    testing. *)
val refine :
  ?avoid:Dwv_interval.Box.t list ->
  sys:Dwv_ode.Sampled_system.t ->
  controller:(float array -> float array) ->
  spec:Spec.t ->
  property:property ->
  iters:int ->
  float array ->
  float array * float

(** [search ~rng ~sys ~controller ~spec ~property ()] returns a concrete
    falsifying initial state, or [None] if none was found within
    [attempts] (default 50) starts and [refine_iters] (default 8)
    hill-climbing sweeps. [avoid] as in {!robustness}. *)
val search :
  ?attempts:int ->
  ?refine_iters:int ->
  ?avoid:Dwv_interval.Box.t list ->
  rng:Dwv_util.Rng.t ->
  sys:Dwv_ode.Sampled_system.t ->
  controller:(float array -> float array) ->
  spec:Spec.t ->
  property:property ->
  unit ->
  counterexample option

val pp_counterexample : Format.formatter -> counterexample -> unit
