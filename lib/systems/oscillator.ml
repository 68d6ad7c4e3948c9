(* Van der Pol oscillator (Section 4, "Oscillator"): 2-D non-linear plant

     x1' = x2
     x2' = gamma (1 - x1^2) x2 - x1 + u,   gamma = 1, delta = 0.1

   X_0 = [-0.51,-0.49] x [0.49,0.51], X_g = [-0.05,0.05]^2,
   X_u = [-0.3,-0.25] x [0.2,0.35]. Controlled by a neural network (ReLU
   hidden, Tanh output) verified with either the ReachNN-style Bernstein
   abstraction or the POLAR-style Taylor-model abstraction. *)

module Expr = Dwv_expr.Expr
module Box = Dwv_interval.Box
module Spec = Dwv_core.Spec
module Controller = Dwv_core.Controller
module Mlp = Dwv_nn.Mlp
module Activation = Dwv_nn.Activation

let gamma = 1.0
let delta = 0.1
let steps = 36 (* T = 3.6 s *)

let dynamics =
  [|
    Expr.var 1;
    Expr.(
      add
        (sub (scale gamma (mul (sub (const 1.0) (pow (var 0) 2)) (var 1))) (var 0))
        (input 0));
  |]

let sampled = Dwv_ode.Sampled_system.make ~f:dynamics ~n:2 ~m:1 ~delta

let spec =
  Spec.make ~name:"oscillator"
    ~x0:(Box.make ~lo:[| -0.51; 0.49 |] ~hi:[| -0.49; 0.51 |])
    ~unsafe:(Box.make ~lo:[| -0.3; 0.2 |] ~hi:[| -0.25; 0.35 |])
    ~goal:(Box.make ~lo:[| -0.05; -0.05 |] ~hi:[| 0.05; 0.05 |])
    ~delta ~steps

(* Control authority: u = 4 tanh(...), enough to dominate the vector field
   near the limit cycle. *)
let output_scale = 4.0

(* The paper's nets use ReLU hidden layers. Per-layer chord relaxation of
   ReLU (without POLAR's symbolic-remainder machinery) amplifies the
   control remainder exponentially through the feedback loop, so the
   VERIFIED controllers here use Tanh hidden layers — explicitly within
   the paper's framework ("all types of activation functions and their
   mixture"); ReLU remains supported and is exercised in the tests and
   the RL baselines. See DESIGN.md. *)
let network_sizes = [ 2; 8; 1 ]
let network_acts = [ Activation.Tanh; Activation.Tanh ]

let initial_controller rng =
  Controller.net ~output_scale (Mlp.create ~sizes:network_sizes ~acts:network_acts rng)

(* Feedback-linearizing prior used only as a warm start: choosing
   u = -gamma (1 - x1^2) x2 + x1 - a x1 - b x2 turns the loop into the
   linear system x1'' = -a x1 - b x1' (a = 6, b = 5: poles -2, -3). Its
   nominal trajectory clears the unsafe box by only ~0.04, well inside the
   flowpipe's over-approximation width, so the verification loop still has
   to learn the actual evasion; see Pretrain for why a warm start is
   needed at all. *)
let prior_law x =
  let x1 = x.(0) and x2 = x.(1) in
  [| (-.gamma *. (1.0 -. (x1 *. x1)) *. x2) -. (5.0 *. x1) -. (5.0 *. x2) |]

(* Covers the closed-loop trajectories from X_0 to the goal. *)
let pretrain_region = Box.make ~lo:[| -0.8; -0.5 |] ~hi:[| 0.4; 0.8 |]

let pretrained_controller ?config rng =
  let net0 = Mlp.create ~sizes:network_sizes ~acts:network_acts rng in
  let trained =
    Dwv_nn.Pretrain.behavior_clone ?config ~rng ~region:pretrain_region ~target:prior_law
      ~output_scale net0
  in
  Controller.net ~output_scale trained

let tm_order = Nn_system.tm_order
let fast_slots = Nn_system.fast_slots
let tight_slots = Nn_system.tight_slots
let verify_from = Nn_system.verify_from ~f:dynamics spec
let verify = Nn_system.verify ~f:dynamics spec
let verify_robust_from = Nn_system.verify_robust_from ~f:dynamics spec
let verify_robust = Nn_system.verify_robust ~f:dynamics spec

let sim_controller = Controller.eval

(* Scenario-DSL registration, cross-checked against the constants above. *)
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
