(** The verifier set shared by the neural-network studies ({!Oscillator},
    {!Threed}, {!Pendulum}): each module binds these functions to its own
    dynamics and specification and exports them as {!S}. *)

(** Taylor-model order of the flowpipe kernel. *)
val tm_order : int

(** Symbolic-remainder budgets: fast learning setting / tight
    certification setting (the paper's verification-tightness knob). *)
val fast_slots : int

val tight_slots : int

(** Verifier Ψ from an arbitrary initial cell (default method: POLAR,
    default slots: {!fast_slots}). [pool] parallelizes the per-dimension
    work inside each flowpipe step (bit-identical results at any domain
    count). Raises [Invalid_argument] on a linear controller. *)
type verify_from =
  ?method_:Dwv_reach.Verifier.nn_method ->
  ?slots:int ->
  ?pool:Dwv_parallel.Pool.t ->
  Dwv_interval.Box.t ->
  Dwv_core.Controller.t ->
  Dwv_reach.Flowpipe.t

(** {!verify_from} from X₀. *)
type verify =
  ?method_:Dwv_reach.Verifier.nn_method ->
  ?slots:int ->
  ?pool:Dwv_parallel.Pool.t ->
  Dwv_core.Controller.t ->
  Dwv_reach.Flowpipe.t

(** Fault-tolerant verifier: {!verify_from} settings as the primary rung
    of the degradation ladder, with budget enforcement. With [cache], a
    validated certificate hit replays the stored flowpipe bit-exactly
    (rung ["cache"]) and clean runs deposit certificates. [warm] seeds
    the Picard enclosures from a nearby verification's trace; the
    report's [warm] field returns this call's own trace (see
    {!Dwv_reach.Warm}). *)
type verify_robust_from =
  ?method_:Dwv_reach.Verifier.nn_method ->
  ?slots:int ->
  ?budget:Dwv_robust.Budget.t ->
  ?cache:Dwv_cert.Cert_cache.t ->
  ?pool:Dwv_parallel.Pool.t ->
  ?warm:Dwv_reach.Warm.t ->
  Dwv_interval.Box.t ->
  Dwv_core.Controller.t ->
  Dwv_reach.Verifier.fallback_report

(** {!verify_robust_from} from X₀. *)
type verify_robust =
  ?method_:Dwv_reach.Verifier.nn_method ->
  ?slots:int ->
  ?budget:Dwv_robust.Budget.t ->
  ?cache:Dwv_cert.Cert_cache.t ->
  ?pool:Dwv_parallel.Pool.t ->
  ?warm:Dwv_reach.Warm.t ->
  Dwv_core.Controller.t ->
  Dwv_reach.Verifier.fallback_report

(** The verifiers above for the closed loop x' = [f](x, u) under the
    specification; each NN study binds them to its own. *)
val verify_from : f:Dwv_expr.Expr.t array -> Dwv_core.Spec.t -> verify_from
val verify : f:Dwv_expr.Expr.t array -> Dwv_core.Spec.t -> verify
val verify_robust_from : f:Dwv_expr.Expr.t array -> Dwv_core.Spec.t -> verify_robust_from
val verify_robust : f:Dwv_expr.Expr.t array -> Dwv_core.Spec.t -> verify_robust

(** What each NN study exports. *)
module type S = sig
  val tm_order : int
  val fast_slots : int
  val tight_slots : int
  val verify_from : verify_from
  val verify : verify
  val verify_robust_from : verify_robust_from
  val verify_robust : verify_robust
end
