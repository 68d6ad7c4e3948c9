(** Simulation-based evaluation (the SC / GR columns of Table 1): Monte
    Carlo rollouts of the discretized closed loop. *)

type rollout = {
  safe : bool;     (** no densely-sampled state entered the avoid set *)
  reached : bool;  (** some state entered the goal box within the horizon *)
}

(** One rollout from a concrete initial state, checked on the dense
    states as {!Dwv_ode.Sampled_system.stream} produces them (no trace
    is kept). [avoid] is the multi-box avoid set (default: the spec's
    single unsafe box); a non-finite trajectory is conservatively
    unsafe and never goal-reaching. *)
val rollout :
  ?substeps:int ->
  ?avoid:Dwv_interval.Box.t list ->
  sys:Dwv_ode.Sampled_system.t ->
  controller:(float array -> float array) ->
  spec:Spec.t ->
  float array ->
  rollout

type rates = { safe_percent : float; goal_percent : float; n : int }

(** Safe-control and goal-reaching percentages over [n] (default 500)
    uniformly sampled initial states. Each rollout draws its initial
    state from its own child stream ([Rng.split_n] of [rng]), so with
    [pool] the rollouts shard across domains and the rates stay
    bit-identical at any domain count. *)
val rates :
  ?n:int ->
  ?substeps:int ->
  ?avoid:Dwv_interval.Box.t list ->
  ?pool:Dwv_parallel.Pool.t ->
  rng:Dwv_util.Rng.t ->
  sys:Dwv_ode.Sampled_system.t ->
  controller:(float array -> float array) ->
  spec:Spec.t ->
  unit ->
  rates

(** First sampled initial state whose rollout violates safety, if any. *)
val find_unsafe_rollout :
  ?n:int ->
  ?substeps:int ->
  rng:Dwv_util.Rng.t ->
  sys:Dwv_ode.Sampled_system.t ->
  controller:(float array -> float array) ->
  spec:Spec.t ->
  unit ->
  float array option

val pp_rates : Format.formatter -> rates -> unit
