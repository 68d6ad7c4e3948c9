(** Van der Pol oscillator (Section 4): 2-D nonlinear plant under a neural
    controller, verified with the ReachNN- or POLAR-style abstraction.
    {!dsl} is the study's only description; the bindings down to
    {!sim_controller} are derived from it. *)

(** The study in the scenario DSL. *)
val dsl : string

val scenario : Scenario.t
val dynamics : Dwv_expr.Expr.t array
val delta : float
val steps : int
val spec : Dwv_core.Spec.t
val sampled : Dwv_ode.Sampled_system.t

(** Net shape: layer sizes, activations and the saturation scale of the
    Tanh output layer (control authority). *)
val network_sizes : int list

val network_acts : Dwv_nn.Activation.t list
val output_scale : float

(** Fresh randomly-initialized neural controller. *)
val initial_controller : Dwv_util.Rng.t -> Dwv_core.Controller.t

(** Flowpipe settings and verifiers Ψ of this study, bound to
    {!dynamics} and {!spec} (see {!Nn_system}). *)
include Nn_system.S

(** Control law on the simulation state. *)
val sim_controller : Dwv_core.Controller.t -> float array -> float array

(** Feedback-linearizing warm-start prior (grazes the unsafe corner, so
    the verification loop still has to learn the evasion). *)
val prior_law : float array -> float array

(** Sampling region of the warm start. *)
val pretrain_region : Dwv_interval.Box.t

(** Neural controller behavior-cloned from {!prior_law}. *)
val pretrained_controller :
  ?config:Dwv_nn.Pretrain.config -> Dwv_util.Rng.t -> Dwv_core.Controller.t
