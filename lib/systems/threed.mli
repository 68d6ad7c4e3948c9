(** The 3-D numerical example (Section 4): x1' = x3³ − x2, x2' = x3,
    x3' = u, under a neural controller. The paper's goal/unsafe sets leave
    x3 unconstrained; we encode that with a wide third axis. *)

val delta : float
val steps : int

(** The wide interval standing in for an unconstrained x3 axis. *)
val free_axis : Dwv_interval.Interval.t

val dynamics : Dwv_expr.Expr.t array
val sampled : Dwv_ode.Sampled_system.t
val spec : Dwv_core.Spec.t
val output_scale : float
val network_sizes : int list
val network_acts : Dwv_nn.Activation.t list
val initial_controller : Dwv_util.Rng.t -> Dwv_core.Controller.t

(** Backstepping-flavoured warm-start prior. *)
val prior_law : float array -> float array

val pretrain_region : Dwv_interval.Box.t

val pretrained_controller :
  ?config:Dwv_nn.Pretrain.config -> Dwv_util.Rng.t -> Dwv_core.Controller.t

(** Flowpipe settings and verifiers Ψ of this study, bound to
    {!dynamics} and {!spec} (see {!Nn_system}). *)
include Nn_system.S

val sim_controller : Dwv_core.Controller.t -> float array -> float array

(** The same study expressed in the scenario DSL (the scenario farm
    cross-checks this text against the module constants). *)
val dsl : string
