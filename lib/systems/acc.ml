(* Linear adaptive cruise control (Section 4, "ACC").

   Two vehicles; the front one drives at v_f = 40, the ego vehicle
   controls the gap s and its own speed v:

       s' = v_f - v
       v' = k v + u          (k = -0.2, delta = 0.1)

   X_0 = [122,124] x [48,52], X_u = { s <= 120 }, X_g = [145,155] x
   [39.5,40.5]. The paper renders this scenario in Webots; the dynamics
   above (which the paper itself states) is what we simulate and verify.

   The plant is affine because of the constant v_f, so for the linear
   verifier we augment the state with a constant third coordinate c == 1:

       d/dt [s; v; c] = A3 [s; v; c] + B3 u,   u = theta . [s; v; c]

   which also gives the linear controller its bias term. The unsafe
   half-space { s <= 120 } is represented by a box reaching far below the
   operating range (substitution documented in DESIGN.md). *)

module Mat = Dwv_la.Mat
module Box = Dwv_interval.Box
module Spec = Dwv_core.Spec
module Controller = Dwv_core.Controller
module Linear_reach = Dwv_reach.Linear_reach
module Flowpipe = Dwv_reach.Flowpipe

(* The study in the scenario DSL: its only description. Dynamics, sets,
   delta, steps (T = 12 s) and the starting design below are read off
   it. *)
let dsl =
  {|(scenario
  (name acc)
  (dim 2) (inputs 1)
  (delta 0.1) (steps 120)
  (dynamics "40 - x1" "-0.2 * x1 + u0")
  (init (122 124) (48 52))
  (goal (145 155) (39.5 40.5))
  (avoid ((0 120) (-100 200)))
  (controller (affine (0.1 -0.5 0)))
  (method zonotope))
|}

let scenario = Scenario.of_string dsl
let dynamics = scenario.Scenario.f
let delta = scenario.Scenario.delta
let steps = scenario.Scenario.steps
let spec = Scenario.spec scenario
let sampled = Scenario.sampled scenario

(* The plant's constants, as the augmented LTI model below restates them
   (test_systems checks the two agree on the DSL dynamics). *)
let v_front = 40.0
let k_drag = -0.2

(* Constant-augmented LTI model for the Flow*-style verifier. *)
let lti_augmented =
  {
    Linear_reach.a =
      Mat.of_rows [ [| 0.0; -1.0; v_front |]; [| 0.0; k_drag; 0.0 |]; [| 0.0; 0.0; 0.0 |] ];
    b = Mat.of_rows [ [| 0.0 |]; [| 1.0 |]; [| 0.0 |] ];
  }

(* Its discretization for the verifier's period, done once: every
   verifier call shares it. *)
let plant = Linear_reach.prepare ~delta lti_augmented

(* theta = [theta_s; theta_v; bias]: u = theta_s s + theta_v v + bias. *)
let controller_of_theta theta =
  if Array.length theta <> 3 then invalid_arg "Acc.controller_of_theta: need 3 parameters";
  Controller.linear (Mat.of_rows [ theta ])

(* The DSL's starting design, theta = (0.1, -0.5, 0): mildly stabilising
   but far from the goal — the closed-loop poles are stable yet the
   equilibrium gap sits at s* = (8 - 40 theta_v - bias)/theta_s = 280,
   well past the goal band, so learning has real work to do. An affine
   shape draws nothing from the rng. *)
let initial_controller = Scenario.make_controller scenario (Dwv_util.Rng.create 0)

let augment_box box =
  Box.of_intervals
    (Array.append box [| Dwv_interval.Interval.of_point 1.0 |])

(* Verifier Psi: augmented zonotope flowpipe projected back onto (s, v). *)
let verify_from x0 controller =
  match controller with
  | Controller.Linear { gain } ->
    Linear_reach.flowpipe ~plant ~gain ~x0:(augment_box x0) ~steps:spec.Spec.steps ()
    |> Flowpipe.project ~dims:[| 0; 1 |]
  | Controller.Net _ -> invalid_arg "Acc.verify_from: the ACC study uses linear controllers"

let verify controller = verify_from spec.Spec.x0 controller

(* Certificate hook for the linear controller: the content address
   covers dynamics structure, θ, the cell, the spec boxes and the
   step grid; the law is recorded as affine feedback so the independent
   checker re-derives the control range from its own enclosure. *)
let cert_hook cache x0 controller =
  match controller with
  | Controller.Linear _ ->
    let theta = Controller.params controller in
    let site =
      {
        Dwv_reach.Verifier.cc_cache = cache;
        cc_unsafe = spec.Spec.unsafe;
        cc_goal = spec.Spec.goal;
      }
    in
    Some
      (Dwv_reach.Verifier.cert_hook site
         ~fingerprint:
           (Dwv_cert.Cert_key.fingerprint ~f:dynamics ~theta ~x0 ~unsafe:spec.Spec.unsafe
              ~goal:spec.Spec.goal ~delta ~steps:spec.Spec.steps ~tag:"acc zonotope")
         ~params:"acc zonotope" ~f:dynamics ~delta ~law:(Dwv_cert.Cert.Affine [| theta |])
         ~source:(fun () -> ("zonotope", None)))
  | Controller.Net _ -> None

(* Fault-tolerant verifier. The zonotope engine has no cheaper sound
   sibling, so the ladder has a single rung; what the robust wrapper adds
   is totality — an injected NaN gain or a blown budget comes back as a
   structured failure with a conservatively diverged stub pipe instead of
   poisoning downstream scores. *)
let verify_robust_from ?budget ?cache x0 controller =
  let rung =
    Dwv_robust.Robust_verify.rung ~name:"zonotope" (fun () ->
        let controller =
          if Dwv_robust.Fault.current () = Some Dwv_robust.Fault.Nan_theta then
            Dwv_core.Controller.with_params controller
              (Dwv_robust.Fault.nan_corrupt (Dwv_core.Controller.params controller))
          else controller
        in
        let pipe = verify_from x0 controller in
        if Flowpipe.diverged pipe then
          Error
            (Dwv_robust.Dwv_error.divergence ~backend:"zonotope"
               ~where:"Acc.verify_robust" ())
        else if not (Flowpipe.for_all_boxes Box.is_finite pipe) then
          Error
            (Dwv_robust.Dwv_error.non_finite ~backend:"zonotope"
               ~where:"Acc.verify_robust" "reach box")
        else Ok pipe)
  in
  let cache = Option.bind cache (fun c -> cert_hook c x0 controller) in
  let o = Dwv_robust.Robust_verify.run ?budget ?cache [ rung ] in
  Dwv_reach.Verifier.report_of_outcome ~x0 ~delta o

let verify_robust ?budget ?cache controller =
  verify_robust_from ?budget ?cache spec.Spec.x0 controller

(* Control law on the 2-D simulation state: the gain's last column is
   the bias, the constant third coordinate of the verifier's state. *)
let sim_controller = Controller.eval_affine

