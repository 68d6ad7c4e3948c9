(** Damped pendulum — an extension benchmark with trigonometric dynamics
    (built through the text parser), verified like the paper's NN
    systems. *)

val damping : float
val delta : float
val steps : int
val dynamics : Dwv_expr.Expr.t array
val sampled : Dwv_ode.Sampled_system.t
val spec : Dwv_core.Spec.t
val output_scale : float
val network_sizes : int list
val network_acts : Dwv_nn.Activation.t list
val initial_controller : Dwv_util.Rng.t -> Dwv_core.Controller.t

(** Feedback-linearizing warm-start prior. *)
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
