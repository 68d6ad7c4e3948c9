(* Damped pendulum (an extension benchmark beyond the paper's three
   systems, exercising trigonometric dynamics through the verifier):

     x0' = x1
     x1' = -sin(x0) - 0.5 x1 + u     (delta = 0.1)

   Swing from around 1 rad down to the origin while avoiding a velocity
   band on the way. The dynamics is built through the text parser - the
   same front end a user of the library would go through. *)

module Expr = Dwv_expr.Expr
module Box = Dwv_interval.Box
module Spec = Dwv_core.Spec
module Controller = Dwv_core.Controller
module Mlp = Dwv_nn.Mlp
module Activation = Dwv_nn.Activation

let damping = 0.5
let delta = 0.1
let steps = 30

let dynamics =
  match Dwv_expr.Parser.parse_system [ "x1"; "-sin(x0) - 0.5 * x1 + u0" ] with
  | Ok f -> f
  | Error msg -> invalid_arg ("Pendulum.dynamics: " ^ msg)

let sampled = Dwv_ode.Sampled_system.make ~f:dynamics ~n:2 ~m:1 ~delta

let spec =
  Spec.make ~name:"pendulum"
    ~x0:(Box.make ~lo:[| 0.9; -0.05 |] ~hi:[| 1.1; 0.05 |])
    ~unsafe:(Box.make ~lo:[| 0.25; -1.05 |] ~hi:[| 0.4; -0.85 |])
    ~goal:(Box.make ~lo:[| -0.1; -0.1 |] ~hi:[| 0.1; 0.1 |])
    ~delta ~steps

let output_scale = 3.0
let network_sizes = [ 2; 8; 1 ]
let network_acts = [ Activation.Tanh; Activation.Tanh ]

let initial_controller rng =
  Controller.net ~output_scale (Mlp.create ~sizes:network_sizes ~acts:network_acts rng)

(* Feedback-linearizing warm-start prior:
   u = sin(x0) + damping x1 - 4 x0 - 3 x1 gives x0'' = -4 x0 - 3 x0'. *)
let prior_law x =
  [| sin x.(0) +. (damping *. x.(1)) -. (4.0 *. x.(0)) -. (3.0 *. x.(1)) |]

let pretrain_region = Box.make ~lo:[| -0.3; -1.4 |] ~hi:[| 1.2; 0.3 |]

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
