(* The 3-D numerical example (Section 4, "3D system", after the ReachNN /
   Verisig benchmark suite):

     x1' = x3^3 - x2
     x2' = x3
     x3' = u            (delta = 0.2)

   X_0 = [0.38,0.4] x [0.45,0.47] x [0.25,0.27];
   X_g constrains x1 in [-0.5,-0.28] and x2 in [0,0.28];
   X_u constrains x1 in [-0.1,0.2] and x2 in [0.55,0.6].
   The paper leaves x3 free in both, which we encode with a wide third
   axis [-5,5] on the corresponding boxes; trajectories stay far inside
   it. The DSL text below is the only place the study is written down;
   the controller uses Tanh hidden layers (see the note in Oscillator on
   ReLU remainder amplification). *)

module Box = Dwv_interval.Box
module Controller = Dwv_core.Controller

let dsl =
  {|(scenario
  (name threed)
  (dim 3) (inputs 1)
  (delta 0.2) (steps 15)
  (dynamics "x2^3 - x1" "x2" "u0")
  (init (0.38 0.4) (0.45 0.47) (0.25 0.27))
  (goal (-0.5 -0.28) (0 0.28) (-5 5))
  (avoid ((-0.1 0.2) (0.55 0.6) (-5 5)))
  (controller (net (sizes 3 8 1) (acts tanh tanh) (scale 2)))
  (method (polar (order 3) (slots 6))))
|}

let scenario = Scenario.of_string dsl
let dynamics = scenario.Scenario.f
let delta = scenario.Scenario.delta
let steps = scenario.Scenario.steps (* T = 3 s *)
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

(* Backstepping-flavoured prior used only as a warm start: steer x3
   toward -(x2 - 0.14) so x2 settles at the goal band's center while
   x1' = x3^3 - x2 stays negative long enough to cross into the goal's
   x1 range. *)
let prior_law x =
  let x2 = x.(1) and x3 = x.(2) in
  [| -4.0 *. (x3 +. (x2 -. 0.14)) |]

let pretrain_region = Box.make ~lo:[| -0.7; -0.3; -1.0 |] ~hi:[| 0.6; 0.7; 1.0 |]

let pretrained_controller ?config rng =
  Nn_system.pretrained scenario ~region:pretrain_region ~prior:prior_law ?config rng
