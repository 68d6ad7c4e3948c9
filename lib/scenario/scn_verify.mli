(** Verification driver for scenarios: closes the loop symbolically for
    affine controllers (validated Taylor rung + interval-only fallback
    under the {!Dwv_robust.Robust_verify} ladder, with certificate
    caching), routes net controllers through
    {!Dwv_reach.Verifier.nn_flowpipe_robust}, and judges flowpipes
    against the multi-box avoid set. *)

(** {!Dwv_reach.Verifier.check_avoid} against the scenario's augmented
    avoid set and goal. *)
val check : Dwv_systems.Scenario.t -> Dwv_reach.Flowpipe.t -> Dwv_reach.Verifier.verdict

(** Reshape a flat controller parameter vector into affine rows; raises
    [Invalid_argument] on a length mismatch. *)
val rows_of_params : Dwv_systems.Scenario.t -> float array -> float array array

(** Content address an affine-controller verification stores its
    certificate under; [None] for net controllers (their fingerprint is
    computed inside the NN ladder). *)
val fingerprint : Dwv_systems.Scenario.t -> Dwv_core.Controller.t -> int64 option

(** Single-method flowpipe, no ladder: for a net controller the NN
    flowpipe with the scenario's order and slots and the abstraction
    [method_] (default POLAR); for an affine one the first rung of the
    ladder below. Raises [Invalid_argument] for an affine controller
    under the zonotope method. *)
val flowpipe :
  ?method_:Dwv_reach.Verifier.nn_method ->
  Dwv_systems.Scenario.t ->
  Dwv_core.Controller.t ->
  Dwv_reach.Flowpipe.t

(** Robust flowpipe for the scenario under the given controller: the
    degradation ladder appropriate to the controller shape, with fault
    injection and certificate caching (affine law / NN recorder).
    [method_] picks a net controller's primary abstraction (default
    POLAR); affine controllers ignore it. *)
val flowpipe_robust :
  ?method_:Dwv_reach.Verifier.nn_method ->
  ?budget:Dwv_robust.Budget.t ->
  ?cache:Dwv_cert.Cert_cache.t ->
  Dwv_systems.Scenario.t ->
  Dwv_core.Controller.t ->
  Dwv_reach.Verifier.fallback_report

type report = {
  verdict : Dwv_reach.Verifier.verdict;
  fallback : Dwv_reach.Verifier.fallback_report;
}

(** [flowpipe_robust] plus the multi-box judgement. *)
val verify_robust :
  ?method_:Dwv_reach.Verifier.nn_method ->
  ?budget:Dwv_robust.Budget.t ->
  ?cache:Dwv_cert.Cert_cache.t ->
  Dwv_systems.Scenario.t ->
  Dwv_core.Controller.t ->
  report
