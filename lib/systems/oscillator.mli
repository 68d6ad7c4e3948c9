(** Van der Pol oscillator (Section 4): 2-D nonlinear plant under a neural
    controller (ReLU hidden, Tanh output), verified with the ReachNN- or
    POLAR-style abstraction. *)

val gamma : float
val delta : float
val steps : int
val dynamics : Dwv_expr.Expr.t array
val sampled : Dwv_ode.Sampled_system.t
val spec : Dwv_core.Spec.t

(** Saturation scale of the Tanh output layer (control authority). *)
val output_scale : float

val network_sizes : int list
val network_acts : Dwv_nn.Activation.t list

(** Fresh randomly-initialized neural controller. *)
val initial_controller : Dwv_util.Rng.t -> Dwv_core.Controller.t

(** Feedback-linearizing warm-start prior (grazes the unsafe corner, so
    the verification loop still has to learn the evasion). *)
val prior_law : float array -> float array

(** Sampling region of the warm start. *)
val pretrain_region : Dwv_interval.Box.t

(** Neural controller behavior-cloned from {!prior_law}. *)
val pretrained_controller :
  ?config:Dwv_nn.Pretrain.config -> Dwv_util.Rng.t -> Dwv_core.Controller.t

(** Flowpipe settings and verifiers Ψ of this study, bound to
    {!dynamics} and {!spec} (see {!Nn_system}). *)
include Nn_system.S

(** Control law on the simulation state. *)
val sim_controller : Dwv_core.Controller.t -> float array -> float array

(** The same study expressed in the scenario DSL (the scenario farm
    cross-checks this text against the module constants). *)
val dsl : string
