(* Damped pendulum (an extension benchmark beyond the paper's three
   systems, exercising trigonometric dynamics through the verifier):

     x0' = x1
     x1' = -sin(x0) - 0.5 x1 + u     (delta = 0.1)

   Swing from around 1 rad down to the origin while avoiding a velocity
   band on the way. The DSL text below is the only place the study is
   written down. *)

module Box = Dwv_interval.Box
module Controller = Dwv_core.Controller

let dsl =
  {|(scenario
  (name pendulum)
  (dim 2) (inputs 1)
  (delta 0.1) (steps 30)
  (dynamics "x1" "-sin(x0) - 0.5 * x1 + u0")
  (init (0.9 1.1) (-0.05 0.05))
  (goal (-0.1 0.1) (-0.1 0.1))
  (avoid ((0.25 0.4) (-1.05 -0.85)))
  (controller (net (sizes 2 8 1) (acts tanh tanh) (scale 3)))
  (method (polar (order 3) (slots 6))))
|}

let scenario = Scenario.of_string dsl
let dynamics = scenario.Scenario.f
let delta = scenario.Scenario.delta
let steps = scenario.Scenario.steps
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

(* Feedback-linearizing warm-start prior:
   u = sin(x0) + damping x1 - 4 x0 - 3 x1 gives x0'' = -4 x0 - 3 x0'. *)
let damping = 0.5

let prior_law x =
  [| sin x.(0) +. (damping *. x.(1)) -. (4.0 *. x.(0)) -. (3.0 *. x.(1)) |]

let pretrain_region = Box.make ~lo:[| -0.3; -1.4 |] ~hi:[| 1.2; 0.3 |]

let pretrained_controller ?config rng =
  Nn_system.pretrained scenario ~region:pretrain_region ~prior:prior_law ?config rng
