(** Damped pendulum — an extension benchmark with trigonometric dynamics,
    verified like the paper's NN systems. {!dsl} is the study's only
    description; the bindings down to {!sim_controller} are derived from
    it. *)

(** The study in the scenario DSL. *)
val dsl : string

val scenario : Scenario.t
val dynamics : Dwv_expr.Expr.t array
val delta : float
val steps : int
val spec : Dwv_core.Spec.t
val sampled : Dwv_ode.Sampled_system.t
val network_sizes : int list
val network_acts : Dwv_nn.Activation.t list
val output_scale : float
val initial_controller : Dwv_util.Rng.t -> Dwv_core.Controller.t

(** Flowpipe settings and verifiers Ψ of this study, bound to
    {!dynamics} and {!spec} (see {!Nn_system}). *)
include Nn_system.S

val sim_controller : Dwv_core.Controller.t -> float array -> float array

(** Feedback-linearizing warm-start prior. *)
val prior_law : float array -> float array

val pretrain_region : Dwv_interval.Box.t

val pretrained_controller :
  ?config:Dwv_nn.Pretrain.config -> Dwv_util.Rng.t -> Dwv_core.Controller.t
