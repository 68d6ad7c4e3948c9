(** Linear adaptive cruise control (Section 4): affine plant
    s' = v_f − v, v' = kv + u with linear (biased) state feedback,
    verified by the Flow*-style zonotope engine on a constant-augmented
    LTI model. *)

(** The study in the scenario DSL: its only description. *)
val dsl : string

val scenario : Scenario.t

(** 2-D plant in specification coordinates (constant v_f folded in). *)
val dynamics : Dwv_expr.Expr.t array

val delta : float
val steps : int

(** X₀ = [122,124]×[48,52], X_u = {s ≤ 120} (as a deep box),
    X_g = [145,155]×[39.5,40.5]. *)
val spec : Dwv_core.Spec.t

val sampled : Dwv_ode.Sampled_system.t

(** Front-vehicle speed and drag coefficient, as {!lti_augmented}
    restates them. *)
val v_front : float

val k_drag : float

(** Constant-augmented 3-D LTI model used by the verifier. *)
val lti_augmented : Dwv_reach.Linear_reach.lti

(** θ = [θ_s; θ_v; bias] ↦ the linear controller u = θ_s s + θ_v v + b. *)
val controller_of_theta : float array -> Dwv_core.Controller.t

(** The DSL's stable but far-from-goal starting design. *)
val initial_controller : Dwv_core.Controller.t

(** Append the constant coordinate c = 1 to a 2-D box. *)
val augment_box : Dwv_interval.Box.t -> Dwv_interval.Box.t

(** Verifier Ψ from an arbitrary initial cell (for Algorithm 2). *)
val verify_from : Dwv_interval.Box.t -> Dwv_core.Controller.t -> Dwv_reach.Flowpipe.t

(** Verifier Ψ from X₀. *)
val verify : Dwv_core.Controller.t -> Dwv_reach.Flowpipe.t

(** Fault-tolerant verifier: the zonotope engine as a single ladder rung
    (it has no cheaper sound sibling), made total — NaN gains and blown
    budgets come back as structured failures with a diverged stub pipe.
    With [cache], a validated certificate hit replays the stored
    flowpipe bit-exactly (rung ["cache"]) and clean runs emit an
    affine-law certificate back to the cache. *)
val verify_robust_from :
  ?budget:Dwv_robust.Budget.t ->
  ?cache:Dwv_cert.Cert_cache.t ->
  Dwv_interval.Box.t ->
  Dwv_core.Controller.t ->
  Dwv_reach.Verifier.fallback_report

(** {!verify_robust_from} from X₀. *)
val verify_robust :
  ?budget:Dwv_robust.Budget.t ->
  ?cache:Dwv_cert.Cert_cache.t ->
  Dwv_core.Controller.t ->
  Dwv_reach.Verifier.fallback_report

(** Control law on the 2-D simulation state. *)
val sim_controller : Dwv_core.Controller.t -> float array -> float array
