(* The 3-D numerical example (Section 4, "3D system", after the ReachNN /
   Verisig benchmark suite):

     x1' = x3^3 - x2
     x2' = x3
     x3' = u            (delta = 0.2)

   X_0 = [0.38,0.4] x [0.45,0.47] x [0.25,0.27];
   X_g constrains x1 in [-0.5,-0.28] and x2 in [0,0.28];
   X_u constrains x1 in [-0.1,0.2] and x2 in [0.55,0.6].
   The paper leaves x3 free in both, which we encode with a wide third
   axis on the corresponding boxes. *)

module Expr = Dwv_expr.Expr
module Box = Dwv_interval.Box
module Spec = Dwv_core.Spec
module Controller = Dwv_core.Controller
module Mlp = Dwv_nn.Mlp
module Activation = Dwv_nn.Activation

let delta = 0.2
let steps = 15 (* T = 3 s *)

(* Range taken as "free" for the unconstrained x3 axis of the goal and
   unsafe sets; trajectories stay far inside it. *)
let free_axis = Dwv_interval.Interval.make (-5.0) 5.0

let dynamics =
  [|
    Expr.(sub (pow (var 2) 3) (var 1));
    Expr.var 2;
    Expr.input 0;
  |]

let sampled = Dwv_ode.Sampled_system.make ~f:dynamics ~n:3 ~m:1 ~delta

let spec =
  Spec.make ~name:"threed"
    ~x0:(Box.make ~lo:[| 0.38; 0.45; 0.25 |] ~hi:[| 0.4; 0.47; 0.27 |])
    ~unsafe:
      (Box.of_intervals
         [| Dwv_interval.Interval.make (-0.1) 0.2;
            Dwv_interval.Interval.make 0.55 0.6;
            free_axis |])
    ~goal:
      (Box.of_intervals
         [| Dwv_interval.Interval.make (-0.5) (-0.28);
            Dwv_interval.Interval.make 0.0 0.28;
            free_axis |])
    ~delta ~steps

let output_scale = 2.0

(* Tanh hidden layers for the verified controllers (see the note in
   Oscillator on ReLU remainder amplification). *)
let network_sizes = [ 3; 8; 1 ]
let network_acts = [ Activation.Tanh; Activation.Tanh ]

let initial_controller rng =
  Controller.net ~output_scale (Mlp.create ~sizes:network_sizes ~acts:network_acts rng)

(* Backstepping-flavoured prior used only as a warm start: steer x3
   toward -(x2 - 0.14) so x2 settles at the goal band's center while
   x1' = x3^3 - x2 stays negative long enough to cross into the goal's
   x1 range. *)
let prior_law x =
  let x2 = x.(1) and x3 = x.(2) in
  [| -4.0 *. (x3 +. (x2 -. 0.14)) |]

let pretrain_region = Box.make ~lo:[| -0.7; -0.3; -1.0 |] ~hi:[| 0.6; 0.7; 1.0 |]

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
