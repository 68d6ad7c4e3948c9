(** Verification driver for scenarios: closes the loop symbolically for
    affine controllers (validated Taylor rung + interval-only fallback
    under the {!Dwv_robust.Robust_verify} ladder, with certificate
    caching), routes net controllers through
    {!Dwv_reach.Verifier.nn_flowpipe_robust}, and judges flowpipes
    against the multi-box avoid set. *)

(** {!Dwv_reach.Verifier.check_avoid} against the scenario's augmented
    avoid set and goal. *)
val check : Scenario.t -> Dwv_reach.Flowpipe.t -> Dwv_reach.Verifier.verdict

(** Reshape a flat controller parameter vector into affine rows; raises
    [Invalid_argument] on a length mismatch. *)
val rows_of_params : Scenario.t -> float array -> float array array

(** Content address an affine-controller verification stores its
    certificate under; [None] for net controllers (their fingerprint is
    computed inside the NN ladder). *)
val fingerprint : Scenario.t -> Dwv_core.Controller.t -> int64 option

(** Robust flowpipe for the scenario under the given controller: the
    degradation ladder appropriate to the controller shape, with fault
    injection and certificate caching (affine law / NN recorder). *)
val flowpipe_robust :
  ?budget:Dwv_robust.Budget.t ->
  ?cache:Dwv_cert.Cert_cache.t ->
  Scenario.t ->
  Dwv_core.Controller.t ->
  Dwv_reach.Verifier.fallback_report

type report = {
  verdict : Dwv_reach.Verifier.verdict;
  fallback : Dwv_reach.Verifier.fallback_report;
}

(** [flowpipe_robust] plus the multi-box judgement. *)
val verify_robust :
  ?budget:Dwv_robust.Budget.t ->
  ?cache:Dwv_cert.Cert_cache.t ->
  Scenario.t ->
  Dwv_core.Controller.t ->
  report
