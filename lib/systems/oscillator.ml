(* Van der Pol oscillator (Section 4, "Oscillator"): 2-D non-linear plant

     x1' = x2
     x2' = gamma (1 - x1^2) x2 - x1 + u,   gamma = 1, delta = 0.1

   X_0 = [-0.51,-0.49] x [0.49,0.51], X_g = [-0.05,0.05]^2,
   X_u = [-0.3,-0.25] x [0.2,0.35]. Controlled by a neural network
   verified with either the ReachNN-style Bernstein abstraction or the
   POLAR-style Taylor-model abstraction. The DSL text below is the only
   place the study is written down; every binding up to [sim_controller]
   is read off it.

   Control authority: u = 4 tanh(...), enough to dominate the vector field
   near the limit cycle. The paper's nets use ReLU hidden layers. Per-layer
   chord relaxation of ReLU (without POLAR's symbolic-remainder machinery)
   amplifies the control remainder exponentially through the feedback
   loop, so the VERIFIED controllers here use Tanh hidden layers —
   explicitly within the paper's framework ("all types of activation
   functions and their mixture"); ReLU remains supported and is exercised
   in the tests and the RL baselines. See DESIGN.md. *)

module Box = Dwv_interval.Box
module Controller = Dwv_core.Controller

let dsl =
  {|(scenario
  (name oscillator)
  (dim 2) (inputs 1)
  (delta 0.1) (steps 36)
  (dynamics "x1" "(1 - x0^2) * x1 - x0 + u0")
  (init (-0.51 -0.49) (0.49 0.51))
  (goal (-0.05 0.05) (-0.05 0.05))
  (avoid ((-0.3 -0.25) (0.2 0.35)))
  (controller (net (sizes 2 8 1) (acts tanh tanh) (scale 4)))
  (method (polar (order 3) (slots 6))))
|}

let scenario = Scenario.of_string dsl
let dynamics = scenario.Scenario.f
let delta = scenario.Scenario.delta
let steps = scenario.Scenario.steps (* T = 3.6 s *)
let spec = Scenario.spec scenario
let sampled = Scenario.sampled scenario
let network_sizes, network_acts, output_scale = Nn_system.net_shape scenario
let initial_controller = Scenario.make_controller scenario

let tm_order = Nn_system.tm_order
let fast_slots = Nn_system.fast_slots
let tight_slots = Nn_system.tight_slots
let verify_from = Nn_system.verify_from ~f:dynamics spec
let verify = Nn_system.verify ~f:dynamics spec
let verify_robust_from = Nn_system.verify_robust_from ~f:dynamics spec
let verify_robust = Nn_system.verify_robust ~f:dynamics spec

let sim_controller = Controller.eval

(* Feedback-linearizing prior used only as a warm start: choosing
   u = -gamma (1 - x1^2) x2 + x1 - a x1 - b x2 turns the loop into the
   linear system x1'' = -a x1 - b x1' (a = 6, b = 5: poles -2, -3). Its
   nominal trajectory clears the unsafe box by only ~0.04, well inside the
   flowpipe's over-approximation width, so the verification loop still has
   to learn the actual evasion; see Pretrain for why a warm start is
   needed at all. *)
let gamma = 1.0

let prior_law x =
  let x1 = x.(0) and x2 = x.(1) in
  [| (-.gamma *. (1.0 -. (x1 *. x1)) *. x2) -. (5.0 *. x1) -. (5.0 *. x2) |]

(* Covers the closed-loop trajectories from X_0 to the goal. *)
let pretrain_region = Box.make ~lo:[| -0.8; -0.5 |] ~hi:[| 0.4; 0.8 |]

let pretrained_controller ?config rng =
  Nn_system.pretrained scenario ~region:pretrain_region ~prior:prior_law ?config rng
