(* Tests for dwv_systems: the built-in systems match the paper's stated
   dynamics, sets, delta and horizon (each study's DSL text is its only
   other description, so these literals are what pins it); the augmented
   ACC LTI model agrees with the 2-D expression dynamics; warm-start
   priors actually stabilize. *)

module Expr = Dwv_expr.Expr
module Box = Dwv_interval.Box
module I = Dwv_interval.Interval
module Mat = Dwv_la.Mat
module Spec = Dwv_core.Spec
module Controller = Dwv_core.Controller
module Flowpipe = Dwv_reach.Flowpipe
module Verifier = Dwv_reach.Verifier
module Acc = Dwv_systems.Acc
module Oscillator = Dwv_systems.Oscillator
module Threed = Dwv_systems.Threed
module Rng = Dwv_util.Rng

let check_float = Alcotest.(check (float 1e-12))

(* ---------------- ACC ---------------- *)

let test_acc_dynamics_values () =
  (* s' = 40 - v, v' = -0.2 v + u, from the paper *)
  let d = Expr.eval_vec Acc.dynamics ~x:[| 123.0; 50.0 |] ~u:[| 2.0 |] in
  check_float "s'" (-10.0) d.(0);
  check_float "v'" ((-0.2 *. 50.0) +. 2.0) d.(1)

let test_acc_spec_sets () =
  let s = Acc.spec in
  Alcotest.(check string) "name" "acc" s.Spec.name;
  Alcotest.(check bool) "X0" true
    (Box.equal s.Spec.x0 (Box.make ~lo:[| 122.0; 48.0 |] ~hi:[| 124.0; 52.0 |]));
  check_float "goal s low" 145.0 (I.lo (Box.get s.Spec.goal 0));
  check_float "unsafe s high" 120.0 (I.hi (Box.get s.Spec.unsafe 0));
  check_float "delta" 0.1 s.Spec.delta;
  Alcotest.(check int) "steps" 120 s.Spec.steps

let test_acc_augmented_consistency () =
  (* the 3-D augmented LTI model must reproduce the 2-D dynamics on the
     hyperplane c = 1 *)
  let x2 = [| 123.0; 50.0 |] and u = [| 2.0 |] in
  let x3 = [| 123.0; 50.0; 1.0 |] in
  let d2 = Expr.eval_vec Acc.dynamics ~x:x2 ~u in
  let d3 =
    Dwv_la.Vec.add
      (Mat.matvec Acc.lti_augmented.Dwv_reach.Linear_reach.a x3)
      (Mat.matvec Acc.lti_augmented.Dwv_reach.Linear_reach.b u)
  in
  check_float "s' agrees" d2.(0) d3.(0);
  check_float "v' agrees" d2.(1) d3.(1);
  check_float "constant stays" 0.0 d3.(2)

let test_acc_controller_bias () =
  let c = Acc.controller_of_theta [| 0.5; -1.0; 3.0 |] in
  (* u = 0.5 s - v + 3 on the augmented state *)
  check_float "sim controller" ((0.5 *. 10.0) -. 20.0 +. 3.0)
    (Acc.sim_controller c [| 10.0; 20.0 |]).(0)

let test_acc_verify_projects_to_2d () =
  let pipe = Acc.verify Acc.initial_controller in
  Alcotest.(check int) "2-D boxes" 2 (Box.dim (Flowpipe.final_box pipe));
  Alcotest.(check int) "full horizon" Acc.spec.Spec.steps (Flowpipe.steps pipe)

let test_acc_flowpipe_sound_vs_simulation () =
  let c = Acc.controller_of_theta [| 0.3; -1.5; 0.0 |] in
  let pipe = Acc.verify c in
  let segments = Array.of_list (Flowpipe.segment_boxes pipe) in
  let rng = Rng.create 11 in
  for _ = 1 to 10 do
    let x0 = Box.sample rng Acc.spec.Spec.x0 in
    let trace =
      Dwv_ode.Sampled_system.simulate ~substeps:8 Acc.sampled
        ~controller:(Acc.sim_controller c) ~x0 ~steps:Acc.spec.Spec.steps
    in
    Array.iteri
      (fun k x ->
        if k < Array.length segments then
          Alcotest.(check bool) "enclosed" true (Box.contains (Box.bloat 1e-6 segments.(k)) x))
      trace.Dwv_ode.Sampled_system.states
  done

let test_acc_rejects_nn_controller () =
  let net =
    Dwv_nn.Mlp.create ~sizes:[ 3; 2; 1 ]
      ~acts:[ Dwv_nn.Activation.Tanh; Dwv_nn.Activation.Tanh ] (Rng.create 0)
  in
  Alcotest.check_raises "nn rejected"
    (Invalid_argument "Acc.verify_from: the ACC study uses linear controllers") (fun () ->
      ignore (Acc.verify (Controller.net ~output_scale:1.0 net)))

(* ---------------- Oscillator ---------------- *)

let test_oscillator_dynamics_values () =
  (* x1' = x2; x2' = (1 - x1^2) x2 - x1 + u *)
  let d = Expr.eval_vec Oscillator.dynamics ~x:[| 0.5; -0.3 |] ~u:[| 0.2 |] in
  check_float "x1'" (-0.3) d.(0);
  check_float "x2'" ((0.75 *. -0.3) -. 0.5 +. 0.2) d.(1)

let test_oscillator_spec_sets () =
  let s = Oscillator.spec in
  Alcotest.(check bool) "X0" true
    (Box.equal s.Spec.x0 (Box.make ~lo:[| -0.51; 0.49 |] ~hi:[| -0.49; 0.51 |]));
  Alcotest.(check bool) "goal" true
    (Box.equal s.Spec.goal (Box.make ~lo:[| -0.05; -0.05 |] ~hi:[| 0.05; 0.05 |]));
  Alcotest.(check bool) "unsafe" true
    (Box.equal s.Spec.unsafe (Box.make ~lo:[| -0.3; 0.2 |] ~hi:[| -0.25; 0.35 |]));
  check_float "delta" 0.1 s.Spec.delta;
  Alcotest.(check int) "steps" 36 s.Spec.steps

let test_oscillator_prior_stabilizes () =
  (* nominal trajectory under the analytic prior reaches the goal *)
  let trace =
    Dwv_ode.Sampled_system.simulate Oscillator.sampled
      ~controller:Oscillator.prior_law
      ~x0:(Box.center Oscillator.spec.Spec.x0)
      ~steps:Oscillator.spec.Spec.steps
  in
  let final = trace.Dwv_ode.Sampled_system.states.(Oscillator.spec.Spec.steps) in
  Alcotest.(check bool) "in goal" true (Spec.point_in_goal Oscillator.spec final)

let test_oscillator_pretrained_close_to_prior () =
  let rng = Rng.create 7 in
  let c = Oscillator.pretrained_controller rng in
  (* check along the region the nominal trajectory actually visits (at
     the region's corners the prior exceeds the tanh saturation, which
     the clone legitimately cannot represent) *)
  let trajectory_region = Box.make ~lo:[| -0.55; -0.1 |] ~hi:[| 0.1; 0.55 |] in
  let worst = ref 0.0 in
  for _ = 1 to 100 do
    let x = Box.sample rng trajectory_region in
    let d = Float.abs ((Oscillator.sim_controller c x).(0) -. (Oscillator.prior_law x).(0)) in
    if d > !worst then worst := d
  done;
  Alcotest.(check bool) "clone error below 0.5" true (!worst < 0.5)

(* ---------------- 3-D system ---------------- *)

let test_threed_dynamics_values () =
  (* x1' = x3^3 - x2; x2' = x3; x3' = u *)
  let d = Expr.eval_vec Threed.dynamics ~x:[| 0.0; 0.4; 0.5 |] ~u:[| -1.0 |] in
  check_float "x1'" (0.125 -. 0.4) d.(0);
  check_float "x2'" 0.5 d.(1);
  check_float "x3'" (-1.0) d.(2)

let test_threed_spec_sets () =
  let s = Threed.spec in
  Alcotest.(check bool) "X0" true
    (Box.equal s.Spec.x0 (Box.make ~lo:[| 0.38; 0.45; 0.25 |] ~hi:[| 0.4; 0.47; 0.27 |]));
  Alcotest.(check bool) "goal" true
    (Box.equal s.Spec.goal
       (Box.make ~lo:[| -0.5; 0.0; -5.0 |] ~hi:[| -0.28; 0.28; 5.0 |]));
  Alcotest.(check bool) "unsafe" true
    (Box.equal s.Spec.unsafe
       (Box.make ~lo:[| -0.1; 0.55; -5.0 |] ~hi:[| 0.2; 0.6; 5.0 |]));
  (* x3 axis is free *)
  Alcotest.(check bool) "x3 free" true (I.width (Box.get s.Spec.goal 2) >= 10.0 -. 1e-9);
  check_float "delta" 0.2 s.Spec.delta;
  Alcotest.(check int) "steps" 15 s.Spec.steps

let test_threed_prior_reaches_goal () =
  let trace =
    Dwv_ode.Sampled_system.simulate Threed.sampled ~controller:Threed.prior_law
      ~x0:(Box.center Threed.spec.Spec.x0) ~steps:Threed.spec.Spec.steps
  in
  let reached =
    Array.exists (Spec.point_in_goal Threed.spec) trace.Dwv_ode.Sampled_system.dense
  in
  let safe = Array.for_all (Spec.point_safe Threed.spec) trace.Dwv_ode.Sampled_system.dense in
  Alcotest.(check bool) "reaches goal" true reached;
  Alcotest.(check bool) "stays safe" true safe

(* ---------------- Pendulum (extension system) ---------------- *)

module Pendulum = Dwv_systems.Pendulum

let test_pendulum_dynamics_values () =
  (* x0' = x1; x1' = -sin(x0) - 0.5 x1 + u *)
  let d = Expr.eval_vec Pendulum.dynamics ~x:[| 1.0; -0.4 |] ~u:[| 0.3 |] in
  check_float "x0'" (-0.4) d.(0);
  Alcotest.(check (float 1e-12)) "x1'" (-.sin 1.0 +. 0.2 +. 0.3) d.(1)

let test_pendulum_spec_sets () =
  let s = Pendulum.spec in
  Alcotest.(check string) "name" "pendulum" s.Spec.name;
  Alcotest.(check bool) "X0" true
    (Box.equal s.Spec.x0 (Box.make ~lo:[| 0.9; -0.05 |] ~hi:[| 1.1; 0.05 |]));
  Alcotest.(check bool) "goal" true
    (Box.equal s.Spec.goal (Box.make ~lo:[| -0.1; -0.1 |] ~hi:[| 0.1; 0.1 |]));
  Alcotest.(check bool) "unsafe" true
    (Box.equal s.Spec.unsafe (Box.make ~lo:[| 0.25; -1.05 |] ~hi:[| 0.4; -0.85 |]));
  check_float "delta" 0.1 s.Spec.delta;
  Alcotest.(check int) "steps" 30 s.Spec.steps

let test_pendulum_prior_reaches_goal_safely () =
  let trace =
    Dwv_ode.Sampled_system.simulate Pendulum.sampled ~controller:Pendulum.prior_law
      ~x0:(Box.center Pendulum.spec.Spec.x0) ~steps:Pendulum.spec.Spec.steps
  in
  Alcotest.(check bool) "reaches" true
    (Array.exists (Spec.point_in_goal Pendulum.spec) trace.Dwv_ode.Sampled_system.dense);
  Alcotest.(check bool) "safe" true
    (Array.for_all (Spec.point_safe Pendulum.spec) trace.Dwv_ode.Sampled_system.dense)

let test_pendulum_polar_flowpipe_completes () =
  let c = Pendulum.pretrained_controller (Rng.create 11) in
  let pipe = Pendulum.verify ~method_:Verifier.Polar c in
  Alcotest.(check bool) "no divergence" false (Flowpipe.diverged pipe);
  Alcotest.(check int) "full horizon" Pendulum.spec.Spec.steps (Flowpipe.steps pipe)

let test_threed_polar_flowpipe_completes () =
  let rng = Rng.create 7 in
  let c = Threed.pretrained_controller rng in
  let pipe = Threed.verify ~method_:Verifier.Polar c in
  Alcotest.(check bool) "no divergence" false (Flowpipe.diverged pipe);
  Alcotest.(check int) "full horizon" Threed.spec.Spec.steps (Flowpipe.steps pipe)

(* A taylor or polar method needs a Taylor-model product plan for its
   symbols (states and parameters, plus one per slot and input for
   polar): the oscillator's (polar (order 3) (slots 6)) has (8, 3), and
   the DSL refuses 14 slots (16 symbols) and order 8 with a message
   that says why. *)
let test_scenario_rejects_shapes_without_plan () =
  let module Scenario = Dwv_systems.Scenario in
  let find sub s =
    let rec go i =
      if i + String.length sub > String.length s then None
      else if String.sub s i (String.length sub) = sub then Some i
      else go (i + 1)
    in
    go 0
  in
  let with_method m =
    let dsl = Oscillator.dsl in
    String.sub dsl 0 (Option.get (find "(method" dsl)) ^ m ^ ")"
  in
  ignore (Scenario.of_string (with_method "(method (polar (order 3) (slots 6)))"));
  List.iter
    (fun m ->
      match Scenario.of_string (with_method m) with
      | _ -> Alcotest.failf "accepted %s" m
      | exception Failure msg ->
        Alcotest.(check bool) (m ^ ": " ^ msg) true
          (find "no product plan" msg <> None))
    [ "(method (polar (order 3) (slots 14)))"; "(method (taylor (order 8)))" ]

let suite =
  [
    Alcotest.test_case "scenario rejects shapes without a plan" `Quick
      test_scenario_rejects_shapes_without_plan;
    Alcotest.test_case "acc dynamics" `Quick test_acc_dynamics_values;
    Alcotest.test_case "acc spec" `Quick test_acc_spec_sets;
    Alcotest.test_case "acc augmentation" `Quick test_acc_augmented_consistency;
    Alcotest.test_case "acc controller bias" `Quick test_acc_controller_bias;
    Alcotest.test_case "acc verify projects" `Quick test_acc_verify_projects_to_2d;
    Alcotest.test_case "acc flowpipe sound" `Quick test_acc_flowpipe_sound_vs_simulation;
    Alcotest.test_case "acc rejects nn" `Quick test_acc_rejects_nn_controller;
    Alcotest.test_case "oscillator dynamics" `Quick test_oscillator_dynamics_values;
    Alcotest.test_case "oscillator spec" `Quick test_oscillator_spec_sets;
    Alcotest.test_case "oscillator prior" `Quick test_oscillator_prior_stabilizes;
    Alcotest.test_case "oscillator clone" `Quick test_oscillator_pretrained_close_to_prior;
    Alcotest.test_case "threed dynamics" `Quick test_threed_dynamics_values;
    Alcotest.test_case "threed spec" `Quick test_threed_spec_sets;
    Alcotest.test_case "threed prior" `Quick test_threed_prior_reaches_goal;
    Alcotest.test_case "threed polar flowpipe" `Slow test_threed_polar_flowpipe_completes;
    Alcotest.test_case "pendulum dynamics" `Quick test_pendulum_dynamics_values;
    Alcotest.test_case "pendulum spec" `Quick test_pendulum_spec_sets;
    Alcotest.test_case "pendulum prior" `Quick test_pendulum_prior_reaches_goal_safely;
    Alcotest.test_case "pendulum polar flowpipe" `Slow test_pendulum_polar_flowpipe_completes;
  ]
