(** Seeded scenario fuzzer with a differential soundness oracle.

    Every scenario is a pure function of [(seed, index)] via
    [Rng.split_n] child streams, so a campaign is bit-identical at any
    domain count. Verdicts are cross-examined with independent evidence:
    [Reach_avoid] must survive Monte-Carlo rollouts and robustness
    -minimizing falsification, [Unsafe] must be corroborated by every
    sampled rollout, stored certificates must Full-replay under
    {!Dwv_cert.Cert_check}, and layer-1 model checks must report zero
    errors. Disagreements are shrunk to minimal DSL reproducers. *)

(** Deterministically sample one well-formed scenario (small polynomial /
    trigonometric dynamics, affine controller, goal seeded from the
    nominal rollout, 0-2 avoid boxes, 0-1 uncertain parameters). *)
val generate : Dwv_util.Rng.t -> int -> Dwv_systems.Scenario.t

type check_result = {
  verdict : Dwv_reach.Verifier.verdict;
  rung : string option;
  cert : string;  (** "valid", "absent", or the failed replay status *)
  oracle : string option;  (** [Some reason] on a soundness disagreement *)
}

(** Run the full pipeline on one scenario — layer-1 analysis, the robust
    verification ladder with an in-memory certificate cache, certificate
    replay, and the Monte-Carlo / falsification oracle. *)
val examine :
  ?budget:Dwv_robust.Budget.t ->
  ?rollouts:int ->
  rng:Dwv_util.Rng.t ->
  Dwv_systems.Scenario.t ->
  check_result

(** Greedily simplify a disagreeing scenario (halve steps, drop avoid
    boxes, freeze parameters to midpoints, tighten the initial box) while
    the disagreement persists under a deterministic probe seed. *)
val shrink :
  ?budget:Dwv_robust.Budget.t ->
  ?rollouts:int ->
  probe_seed:int ->
  Dwv_systems.Scenario.t ->
  Dwv_systems.Scenario.t

type record = {
  index : int;
  name : string;
  dim : int;
  n_params : int;
  n_avoid : int;
  steps : int;
  verdict : string;
  rung : string option;
  cert : string;
  oracle : string;
  violation : bool;
  latency_ms : float;  (** the only non-deterministic field *)
}

type reproducer = { rep_index : int; reason : string; dsl : string }

type result = {
  seed : int;
  count : int;
  records : record array;
  reproducers : reproducer list;
}

(** Everything a record asserts minus wall-clock time; equal key
    sequences at different domain counts certify deterministic replay. *)
val determinism_key : record -> string

(** Run a campaign of [count] scenarios (default 200) from [seed],
    optionally sharded over [pool]. *)
val run :
  ?budget:Dwv_robust.Budget.t ->
  ?pool:Dwv_parallel.Pool.t ->
  ?rollouts:int ->
  ?count:int ->
  seed:int ->
  unit ->
  result

(** Number of records with a soundness-oracle violation. *)
val violations : result -> int

(** Hand-rolled JSON payload of a campaign (the [SCENARIOS_report.json]
    format): seed, count, violation total, per-scenario records, shrunk
    reproducers. *)
val report_json : ?domains:int -> result -> string
