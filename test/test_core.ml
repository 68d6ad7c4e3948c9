(* Tests for dwv_core: specs, controllers, both metrics, Algorithm 1 on a
   synthetic verifier (cheap and fully controlled), Algorithm 2, and the
   Monte-Carlo evaluation. *)

module Box = Dwv_interval.Box
module I = Dwv_interval.Interval
module Mat = Dwv_la.Mat
module Expr = Dwv_expr.Expr
module Flowpipe = Dwv_reach.Flowpipe
module Verifier = Dwv_reach.Verifier
module Spec = Dwv_core.Spec
module Controller = Dwv_core.Controller
module Metrics = Dwv_core.Metrics
module Learner = Dwv_core.Learner
module Initset = Dwv_core.Initset
module Evaluate = Dwv_core.Evaluate
module Mlp = Dwv_nn.Mlp
module Activation = Dwv_nn.Activation
module Rng = Dwv_util.Rng

let box2 lo0 hi0 lo1 hi1 = Box.make ~lo:[| lo0; lo1 |] ~hi:[| hi0; hi1 |]

(* ---------------- spec ---------------- *)

let spec_fixture () =
  Spec.make ~name:"toy" ~x0:(box2 0.0 0.2 0.0 0.2) ~unsafe:(box2 0.4 0.6 0.4 0.6)
    ~goal:(box2 0.8 1.2 0.0 0.4) ~delta:0.1 ~steps:10

let test_spec_accessors () =
  let s = spec_fixture () in
  Alcotest.(check (float 1e-12)) "horizon" 1.0 (Spec.horizon s);
  Alcotest.(check int) "dim" 2 (Spec.dim s);
  Alcotest.(check bool) "safe point" true (Spec.point_safe s [| 0.0; 0.0 |]);
  Alcotest.(check bool) "unsafe point" false (Spec.point_safe s [| 0.5; 0.5 |]);
  Alcotest.(check bool) "goal point" true (Spec.point_in_goal s [| 1.0; 0.2 |])

let test_spec_validation () =
  Alcotest.check_raises "dim mismatch"
    (Invalid_argument "Spec.make: all sets must share the state dimension") (fun () ->
      ignore
        (Spec.make ~name:"bad" ~x0:(box2 0.0 1.0 0.0 1.0)
           ~unsafe:(Box.make ~lo:[| 0.0 |] ~hi:[| 1.0 |])
           ~goal:(box2 0.0 1.0 0.0 1.0) ~delta:0.1 ~steps:1))

(* ---------------- controller ---------------- *)

let test_linear_controller_roundtrip () =
  let c = Controller.linear (Mat.of_rows [ [| 1.0; -2.0; 0.5 |] ]) in
  Alcotest.(check int) "params" 3 (Controller.num_params c);
  let theta = Controller.params c in
  Alcotest.(check (array (float 1e-15))) "flatten" [| 1.0; -2.0; 0.5 |] theta;
  let c2 = Controller.with_params c [| 0.0; 1.0; 0.0 |] in
  Alcotest.(check (array (float 1e-15))) "eval" [| 5.0 |] (Controller.eval c2 [| 9.0; 5.0; 1.0 |])

let test_net_controller_roundtrip () =
  let net = Mlp.create ~sizes:[ 2; 3; 1 ] ~acts:[ Activation.Tanh; Activation.Tanh ] (Rng.create 0) in
  let c = Controller.net ~output_scale:2.5 net in
  let theta = Controller.params c in
  let c2 = Controller.with_params c theta in
  let x = [| 0.2; -0.4 |] in
  Alcotest.(check (array (float 1e-15))) "same outputs" (Controller.eval c x) (Controller.eval c2 x);
  Alcotest.(check (float 1e-12)) "scaling applied"
    (2.5 *. (Mlp.forward net x).(0))
    (Controller.eval c x).(0)

let test_controller_wrong_length () =
  let c = Controller.linear (Mat.of_rows [ [| 1.0; 2.0 |] ]) in
  Alcotest.check_raises "length" (Invalid_argument "Controller.with_params: wrong length")
    (fun () -> ignore (Controller.with_params c [| 1.0 |]))

let test_controller_persistence_linear () =
  let c = Controller.linear (Mat.of_rows [ [| 0.673833; -2.43385; -0.015944 |] ]) in
  let restored = Controller.of_string (Controller.to_string c) in
  Alcotest.(check (array (float 0.0))) "exact params" (Controller.params c)
    (Controller.params restored)

let test_controller_persistence_net () =
  let net = Mlp.create ~sizes:[ 2; 4; 1 ] ~acts:[ Activation.Tanh; Activation.Tanh ] (Rng.create 1) in
  let c = Controller.net ~output_scale:4.0 net in
  let restored = Controller.of_string (Controller.to_string c) in
  let x = [| -0.4; 0.3 |] in
  Alcotest.(check (array (float 0.0))) "identical law" (Controller.eval c x)
    (Controller.eval restored x)

let test_controller_persistence_file () =
  let c = Controller.linear (Mat.of_rows [ [| 1.5; -0.25 |] ]) in
  let path = Filename.temp_file "dwv_ctrl" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Controller.save path c;
      Alcotest.(check (array (float 0.0))) "file roundtrip" (Controller.params c)
        (Controller.params (Controller.load path)))

let test_controller_of_string_garbage () =
  List.iter
    (fun text ->
      match Controller.of_string text with
      | _ -> Alcotest.failf "expected failure for %S" text
      | exception Failure _ -> ())
    [ ""; "controller tabular 1 1\n0\n"; "controller linear 2 2\n1 2 3\n" ]

(* ---------------- metrics ---------------- *)

let mk_pipe ?(diverged = false) boxes =
  Flowpipe.make ~step_boxes:(Array.of_list boxes)
    ~segment_boxes:(Array.of_list (List.tl boxes))
    ~delta:0.1 ~diverged

let test_geometric_d_u_branches () =
  let unsafe = box2 0.4 0.6 0.4 0.6 in
  (* clear pipe: positive distance branch *)
  let clear = mk_pipe [ box2 0.0 0.1 0.0 0.1; box2 0.1 0.2 0.0 0.1 ] in
  Alcotest.(check bool) "positive" true (Metrics.geometric_d_u ~unsafe clear > 0.0);
  (* penetrating pipe: negative volume branch *)
  let hit = mk_pipe [ box2 0.0 0.1 0.0 0.1; box2 0.45 0.55 0.45 0.55 ] in
  Alcotest.(check bool) "negative" true (Metrics.geometric_d_u ~unsafe hit < 0.0)

let test_geometric_d_u_value () =
  let unsafe = box2 2.0 3.0 0.0 1.0 in
  let pipe = mk_pipe [ box2 0.0 1.0 0.0 1.0; box2 0.5 1.0 0.0 1.0 ] in
  (* min gap = 1.0 along x, aligned in y: d = 1.0^2 *)
  Alcotest.(check (float 1e-12)) "squared distance" 1.0 (Metrics.geometric_d_u ~unsafe pipe)

let test_geometric_d_g_branches () =
  let goal = box2 0.8 1.2 0.0 0.4 in
  let hit = mk_pipe [ box2 0.0 0.1 0.0 0.1; box2 0.9 1.1 0.1 0.3 ] in
  Alcotest.(check (float 1e-12)) "overlap volume" (0.2 *. 0.2) (Metrics.geometric_d_g ~goal hit);
  let miss = mk_pipe [ box2 0.0 0.1 0.0 0.1; box2 0.2 0.3 0.0 0.1 ] in
  Alcotest.(check bool) "negative branch" true (Metrics.geometric_d_g ~goal miss < 0.0)

let test_wasserstein_scores () =
  let unsafe = box2 10.0 11.0 10.0 11.0 and goal = box2 0.9 1.1 0.9 1.1 in
  let pipe = mk_pipe [ box2 0.0 0.1 0.0 0.1; box2 0.95 1.05 0.95 1.05 ] in
  let s = Metrics.wasserstein ~unsafe ~goal pipe in
  (* final box inside the goal: containment gap exactly zero *)
  Alcotest.(check (float 1e-12)) "goal gap zero" 0.0 s.Metrics.goal;
  (* far from unsafe: saturated at the containment-gap cap *)
  let cap = Dwv_transport.Box_w2.w2_containment goal unsafe /. 2.0 in
  Alcotest.(check (float 1e-9)) "saturated" cap s.Metrics.safety

let test_wasserstein_safety_sees_giant_unsafe () =
  (* a huge unsafe region (the ACC half-space encoding): plain W2 to its
     uniform distribution is dominated by the radius mismatch and hides
     contact; the containment gap must be small for a touching segment
     and larger for a clear one *)
  let unsafe = box2 0.0 120.0 (-100.0) 200.0 and goal = box2 145.0 155.0 39.5 40.5 in
  let touching = mk_pipe [ box2 150.0 151.0 40.0 41.0; box2 119.5 120.5 40.0 41.0 ] in
  let clear = mk_pipe [ box2 150.0 151.0 40.0 41.0; box2 140.0 141.0 40.0 41.0 ] in
  let s_touch = Metrics.wasserstein ~unsafe ~goal touching in
  let s_clear = Metrics.wasserstein ~unsafe ~goal clear in
  Alcotest.(check bool) "touching scores low" true
    (s_touch.Metrics.safety < 0.2 *. s_clear.Metrics.safety)

let test_wasserstein_sees_midcourse_graze () =
  (* a pipe whose LAST box is far from X_u but which grazes it mid-course
     must score lower than a clear pipe *)
  let unsafe = box2 0.4 0.6 0.4 0.6 and goal = box2 2.0 2.2 2.0 2.2 in
  let graze = mk_pipe [ box2 0.0 0.1 0.0 0.1; box2 0.45 0.55 0.45 0.55; box2 2.0 2.2 2.0 2.2 ] in
  let clear = mk_pipe [ box2 0.0 0.1 0.0 0.1; box2 0.0 0.2 1.9 2.1; box2 2.0 2.2 2.0 2.2 ] in
  let s_graze = Metrics.wasserstein ~unsafe ~goal graze in
  let s_clear = Metrics.wasserstein ~unsafe ~goal clear in
  Alcotest.(check bool) "graze scores lower" true
    (s_graze.Metrics.safety < s_clear.Metrics.safety)

let test_diverged_scores_graded () =
  let unsafe = box2 10.0 11.0 10.0 11.0 and goal = box2 0.9 1.1 0.9 1.1 in
  let short = mk_pipe ~diverged:true [ box2 0.0 0.1 0.0 0.1; box2 0.1 0.2 0.0 0.1 ] in
  let longer =
    mk_pipe ~diverged:true
      [ box2 0.0 0.1 0.0 0.1; box2 0.1 0.2 0.0 0.1; box2 0.2 0.3 0.0 0.1 ]
  in
  let s_short = Metrics.scores Metrics.Geometric ~unsafe ~goal short in
  let s_long = Metrics.scores Metrics.Geometric ~unsafe ~goal longer in
  Alcotest.(check bool) "deep penalty" true (s_short.Metrics.safety < -1e5);
  Alcotest.(check bool) "progress rewarded" true
    (s_long.Metrics.safety > s_short.Metrics.safety)

let test_safety_cap_override () =
  let unsafe = box2 10.0 11.0 10.0 11.0 and goal = box2 0.9 1.1 0.9 1.1 in
  let pipe = mk_pipe [ box2 0.0 0.1 0.0 0.1; box2 0.95 1.05 0.95 1.05 ] in
  let s = Metrics.scores ~safety_cap:0.123 Metrics.Wasserstein ~unsafe ~goal pipe in
  Alcotest.(check (float 1e-12)) "explicit cap" 0.123 s.Metrics.safety

(* ---------------- learner on a synthetic verifier ---------------- *)

(* Synthetic problem: theta in R^2 places the endpoint of a straight-line
   "trajectory" of small boxes from the origin. Goal sits at (1.0, 0.2),
   the unsafe box at (0.5, 0.5); learning must move theta from near the
   origin into the goal. One verifier call is microseconds, so the
   learner's mechanics can be tested exhaustively. *)
let synthetic_spec =
  Spec.make ~name:"synthetic" ~x0:(box2 (-0.02) 0.02 (-0.02) 0.02)
    ~unsafe:(box2 0.4 0.6 0.4 0.6) ~goal:(box2 0.9 1.1 0.1 0.3) ~delta:0.1 ~steps:10

let synthetic_verify controller =
  let theta = Controller.params controller in
  let segments = 10 in
  let boxes =
    List.init (segments + 1) (fun k ->
        let t = float_of_int k /. float_of_int segments in
        let cx = t *. theta.(0) and cy = t *. theta.(1) in
        box2 (cx -. 0.02) (cx +. 0.02) (cy -. 0.02) (cy +. 0.02))
  in
  Flowpipe.make ~step_boxes:(Array.of_list boxes)
    ~segment_boxes:(Array.of_list (List.tl boxes))
    ~delta:0.1 ~diverged:false

let synthetic_init = Controller.linear (Mat.of_rows [ [| 0.05; 0.05 |] ])

let test_learner_converges_geometric () =
  let cfg = { Learner.default_config with max_iters = 300; alpha = 0.05; beta = 0.05 } in
  let r =
    Learner.learn cfg ~metric:Metrics.Geometric ~spec:synthetic_spec ~verify:synthetic_verify
      ~init:synthetic_init
  in
  Alcotest.(check bool) "verified" true (r.Learner.verdict = Verifier.Reach_avoid);
  let theta = Controller.params r.Learner.controller in
  Alcotest.(check bool) "theta in goal region" true
    (theta.(0) > 0.9 && theta.(0) < 1.1 && theta.(1) > 0.1 && theta.(1) < 0.3)

let test_learner_converges_wasserstein () =
  let cfg = { Learner.default_config with max_iters = 400; alpha = 0.05; beta = 0.05 } in
  let r =
    Learner.learn cfg ~metric:Metrics.Wasserstein ~spec:synthetic_spec
      ~verify:synthetic_verify ~init:synthetic_init
  in
  Alcotest.(check bool) "verified" true (r.Learner.verdict = Verifier.Reach_avoid)

let test_learner_spsa_mode () =
  let cfg =
    { Learner.default_config with
      max_iters = 600; alpha = 0.04; beta = 0.04; gradient_mode = Learner.Spsa 3; seed = 1 }
  in
  let r =
    Learner.learn cfg ~metric:Metrics.Geometric ~spec:synthetic_spec ~verify:synthetic_verify
      ~init:synthetic_init
  in
  Alcotest.(check bool) "verified" true (r.Learner.verdict = Verifier.Reach_avoid)

let test_learner_stops_immediately_when_verified () =
  let init = Controller.linear (Mat.of_rows [ [| 1.0; 0.2 |] ]) in
  let cfg = { Learner.default_config with max_iters = 50 } in
  let r =
    Learner.learn cfg ~metric:Metrics.Geometric ~spec:synthetic_spec ~verify:synthetic_verify
      ~init
  in
  Alcotest.(check int) "CI = 0" 0 r.Learner.iterations;
  Alcotest.(check int) "single call" 1 r.Learner.verifier_calls

let test_learner_respects_budget () =
  (* an unreachable goal: the learner must stop at max_iters *)
  let hopeless =
    Spec.make ~name:"hopeless" ~x0:(box2 (-0.02) 0.02 (-0.02) 0.02)
      ~unsafe:(box2 40.0 60.0 40.0 60.0) ~goal:(box2 90.0 91.0 90.0 91.0) ~delta:0.1 ~steps:10
  in
  let cfg = { Learner.default_config with max_iters = 7; alpha = 1e-4; beta = 1e-4 } in
  let r =
    Learner.learn cfg ~metric:Metrics.Geometric ~spec:hopeless ~verify:synthetic_verify
      ~init:synthetic_init
  in
  Alcotest.(check int) "stopped at budget" 7 r.Learner.iterations;
  Alcotest.(check bool) "not verified" true (r.Learner.verdict <> Verifier.Reach_avoid)

let test_learner_history_monotone_iters () =
  let cfg = { Learner.default_config with max_iters = 20; alpha = 0.02; beta = 0.02 } in
  let r =
    Learner.learn cfg ~metric:Metrics.Geometric ~spec:synthetic_spec ~verify:synthetic_verify
      ~init:synthetic_init
  in
  let iters = List.map (fun (h : Learner.history_point) -> h.Learner.iter) r.Learner.history in
  Alcotest.(check (list int)) "contiguous" (List.init (List.length iters) Fun.id) iters

(* ---------------- initset (Algorithm 2) ---------------- *)

(* Toy verifier for cells: the flow translates a cell by (+1, 0). Only
   cells starting with x in [0, 0.5] land inside the goal box. *)
let initset_verify cell =
  let moved = Box.translate [| 1.0; 0.0 |] cell in
  Flowpipe.make ~step_boxes:[| cell; moved |] ~segment_boxes:[| Box.hull cell moved |]
    ~delta:0.1 ~diverged:false

let test_initset_partial_coverage () =
  let x0 = box2 0.0 1.0 0.0 1.0 in
  (* [Box.translate] widens outward, so a goal whose boundary coincides
     exactly with a translated cell edge is (soundly) unprovable; test
     against the open cover instead *)
  let goal = Box.bloat 1e-9 (box2 1.0 1.5 0.0 1.0) in
  let r = Initset.search ~max_depth:4 ~verify:initset_verify ~goal ~x0 () in
  Alcotest.(check bool) "coverage close to half" true
    (r.Initset.coverage > 0.4 && r.Initset.coverage < 0.6);
  (* verified cells truly map into the goal *)
  List.iter
    (fun cell ->
      Alcotest.(check bool) "cell maps into goal" true
        (Box.subset (Box.translate [| 1.0; 0.0 |] cell) goal))
    r.Initset.verified

let test_initset_full_coverage () =
  let x0 = box2 0.2 0.4 0.2 0.4 in
  let goal = box2 1.0 1.6 0.0 1.0 in
  let r = Initset.search ~verify:initset_verify ~goal ~x0 () in
  Alcotest.(check (float 1e-9)) "full" 1.0 r.Initset.coverage;
  Alcotest.(check int) "single call" 1 r.Initset.verifier_calls

let test_initset_even_matches_adaptive () =
  (* the paper's even-partition scheme and the adaptive bisection must
     certify (approximately) the same region - even partition at round r
     equals bisection depth 2r in 2-D, so compare coverages *)
  let x0 = box2 0.0 1.0 0.0 1.0 in
  let goal = Box.bloat 1e-9 (box2 1.0 1.5 0.0 1.0) in
  let adaptive = Initset.search ~max_depth:6 ~verify:initset_verify ~goal ~x0 () in
  let even = Initset.search_even ~max_rounds:4 ~verify:initset_verify ~goal ~x0 () in
  Alcotest.(check bool) "coverage agrees within a grid cell" true
    (Float.abs (adaptive.Initset.coverage -. even.Initset.coverage) < 0.15);
  (* every even-scheme cell is genuinely certified *)
  List.iter
    (fun cell ->
      Alcotest.(check bool) "cell maps into goal" true
        (Box.subset (Box.translate [| 1.0; 0.0 |] cell) goal))
    even.Initset.verified

let test_initset_even_full_coverage () =
  let x0 = box2 0.2 0.4 0.2 0.4 in
  let goal = box2 1.0 1.6 0.0 1.0 in
  let r = Initset.search_even ~verify:initset_verify ~goal ~x0 () in
  Alcotest.(check (float 1e-9)) "full" 1.0 r.Initset.coverage

let test_initset_empty () =
  let x0 = box2 5.0 6.0 5.0 6.0 in
  let goal = box2 0.0 1.0 0.0 1.0 in
  let r = Initset.search ~max_depth:2 ~verify:initset_verify ~goal ~x0 () in
  Alcotest.(check (float 1e-9)) "nothing certified" 0.0 r.Initset.coverage;
  Alcotest.(check bool) "rejected cells recorded" true (List.length r.Initset.rejected > 0)

(* ---------------- falsification ---------------- *)

module Falsifier = Dwv_core.Falsifier

let test_signed_distance () =
  let b = box2 0.0 2.0 0.0 2.0 in
  Alcotest.(check (float 1e-12)) "inside depth" (-0.5) (Falsifier.signed_distance b [| 0.5; 1.0 |]);
  Alcotest.(check (float 1e-12)) "outside gap" 1.0 (Falsifier.signed_distance b [| 3.0; 1.0 |]);
  Alcotest.(check (float 1e-12)) "boundary" 0.0 (Falsifier.signed_distance b [| 0.0; 1.0 |])

let fals_spec =
  Spec.make ~name:"fals" ~x0:(Box.make ~lo:[| 0.5 |] ~hi:[| 1.5 |])
    ~unsafe:(Box.make ~lo:[| 3.0 |] ~hi:[| 4.0 |])
    ~goal:(Box.make ~lo:[| -0.1 |] ~hi:[| 0.1 |])
    ~delta:0.2 ~steps:30

let fals_sys = Dwv_ode.Sampled_system.make ~f:[| Expr.input 0 |] ~n:1 ~m:1 ~delta:0.2

let test_falsifier_finds_unsafe_controller () =
  (* only the largest initial states drive into the unsafe band: u = +x
     grows exponentially; from x0 = 1.5 it certainly passes 3.0 *)
  let controller x = [| x.(0) |] in
  let rng = Rng.create 4 in
  match
    Falsifier.search ~rng ~sys:fals_sys ~controller ~spec:fals_spec
      ~property:Falsifier.Safety ()
  with
  | None -> Alcotest.fail "expected a safety counterexample"
  | Some c ->
    Alcotest.(check bool) "negative robustness" true (c.Falsifier.robustness <= 0.0);
    (* the witness must actually reproduce the violation *)
    let r =
      Falsifier.robustness ~sys:fals_sys ~controller ~spec:fals_spec
        ~property:Falsifier.Safety c.Falsifier.x0
    in
    Alcotest.(check bool) "witness reproduces" true (r <= 0.0)

let test_falsifier_accepts_safe_controller () =
  let controller x = [| -.x.(0) |] in
  let rng = Rng.create 5 in
  Alcotest.(check bool) "no counterexample" true
    (Falsifier.search ~attempts:30 ~rng ~sys:fals_sys ~controller ~spec:fals_spec
       ~property:Falsifier.Safety ()
    = None)

let test_falsifier_goal_reaching () =
  (* u = 0 never reaches the goal: goal-reaching falsified everywhere *)
  let controller _ = [| 0.0 |] in
  let rng = Rng.create 6 in
  (match
     Falsifier.search ~rng ~sys:fals_sys ~controller ~spec:fals_spec
       ~property:Falsifier.Goal_reaching ()
   with
  | None -> Alcotest.fail "expected a goal-reaching counterexample"
  | Some c -> Alcotest.(check bool) "negative" true (c.Falsifier.robustness <= 0.0));
  (* the stabilizing law reaches the goal: no counterexample *)
  let good x = [| -.x.(0) |] in
  Alcotest.(check bool) "stabilizer reaches" true
    (Falsifier.search ~attempts:30 ~rng ~sys:fals_sys ~controller:good ~spec:fals_spec
       ~property:Falsifier.Goal_reaching ()
    = None)

(* ---------------- evaluation ---------------- *)

let eval_spec =
  Spec.make ~name:"eval" ~x0:(Box.make ~lo:[| 0.5 |] ~hi:[| 1.0 |])
    ~unsafe:(Box.make ~lo:[| 2.0 |] ~hi:[| 3.0 |])
    ~goal:(Box.make ~lo:[| -0.05 |] ~hi:[| 0.05 |])
    ~delta:0.2 ~steps:40

let eval_sys =
  Dwv_ode.Sampled_system.make ~f:[| Expr.input 0 |] ~n:1 ~m:1 ~delta:0.2

let test_evaluate_stabilizing () =
  let controller x = [| -.x.(0) |] in
  let rng = Rng.create 2 in
  let r = Evaluate.rates ~n:100 ~rng ~sys:eval_sys ~controller ~spec:eval_spec () in
  Alcotest.(check (float 1e-9)) "SC 100" 100.0 r.Evaluate.safe_percent;
  Alcotest.(check (float 1e-9)) "GR 100" 100.0 r.Evaluate.goal_percent

let test_evaluate_unsafe_controller () =
  (* drive upward into the unsafe band *)
  let controller _ = [| 1.0 |] in
  let rng = Rng.create 3 in
  let r = Evaluate.rates ~n:50 ~rng ~sys:eval_sys ~controller ~spec:eval_spec () in
  Alcotest.(check (float 1e-9)) "SC 0" 0.0 r.Evaluate.safe_percent;
  (match Evaluate.find_unsafe_rollout ~n:50 ~rng ~sys:eval_sys ~controller ~spec:eval_spec () with
  | Some _ -> ()
  | None -> Alcotest.fail "expected an unsafe rollout")

let test_evaluate_rollout_fields () =
  let controller x = [| -.x.(0) |] in
  let r = Evaluate.rollout ~sys:eval_sys ~controller ~spec:eval_spec [| 0.7 |] in
  Alcotest.(check bool) "safe" true r.Evaluate.safe;
  Alcotest.(check bool) "reached" true r.Evaluate.reached

(* ---------------- streamed monitors = their trace definitions ---------------- *)

(* A random 2-D closed loop: linear part, a cubic term and an [exp]
   term that can blow the explicit RK4 up to infinity and NaN, an
   affine controller, a goal box and 0-3 avoid boxes. *)
type loop_case = {
  coeffs : float array;  (* a00 a01 a10 a11 cubic expo *)
  gain : float array;  (* k0 k1 bias *)
  lc_x0 : float array;
  goal_c : float array;  (* goal centre x, y, half-width *)
  avoid_c : float array list;  (* box centre x, y, half-width *)
  lc_steps : int;
  lc_delta : float;
}

let gen_loop_case =
  let open QCheck.Gen in
  let coef = float_range (-2.0) 2.0 in
  let* coeffs = array_repeat 6 coef in
  let* gain = array_repeat 3 coef in
  let* lc_x0 = array_repeat 2 (float_range (-1.5) 1.5) in
  let centre = triple (float_range (-1.5) 1.5) (float_range (-1.5) 1.5) (float_range 0.05 0.8) in
  let* gx, gy, gw = centre in
  let* avoid = list_size (int_bound 3) centre in
  let* lc_steps = int_range 1 8 in
  let* lc_delta = float_range 0.05 0.8 in
  return
    {
      coeffs;
      gain;
      lc_x0;
      goal_c = [| gx; gy; gw |];
      avoid_c = List.map (fun (x, y, w) -> [| x; y; w |]) avoid;
      lc_steps;
      lc_delta;
    }

let print_loop_case c =
  let fl a = String.concat "," (Array.to_list (Array.map (Fmt.str "%h") a)) in
  Fmt.str "coeffs=[%s] gain=[%s] x0=[%s] goal=[%s] avoid=[%s] steps=%d delta=%h" (fl c.coeffs)
    (fl c.gain) (fl c.lc_x0) (fl c.goal_c)
    (String.concat ";" (List.map fl c.avoid_c))
    c.lc_steps c.lc_delta

let centred_box c = box2 (c.(0) -. c.(2)) (c.(0) +. c.(2)) (c.(1) -. c.(2)) (c.(1) +. c.(2))

let loop_of_case c =
  let k = c.coeffs in
  let f =
    Expr.
      [|
        add (add (scale k.(0) (var 0)) (scale k.(1) (var 1))) (add (scale k.(4) (pow (var 0) 3)) (input 0));
        add (add (scale k.(2) (var 0)) (scale k.(3) (var 1))) (scale k.(5) (exp_ (scale 2.0 (var 1))));
      |]
  in
  let sys = Dwv_ode.Sampled_system.make ~f ~n:2 ~m:1 ~delta:c.lc_delta in
  let g = c.gain in
  let controller x = [| (g.(0) *. x.(0)) +. (g.(1) *. x.(1)) +. g.(2) |] in
  let spec =
    Spec.make ~name:"random loop" ~x0:(box2 (-1.5) 1.5 (-1.5) 1.5)
      ~unsafe:(box2 5.0 6.0 5.0 6.0) ~goal:(centred_box c.goal_c) ~delta:c.lc_delta
      ~steps:c.lc_steps
  in
  (sys, controller, spec, List.map centred_box c.avoid_c)

(* The definitions, over the recorded dense trace, written from the
   box bounds up so they share no code with the monitors. *)
let ref_finite p = Array.for_all Float.is_finite p

let ref_inside b p =
  let ok = ref true in
  Array.iteri (fun i iv -> if not (I.lo iv <= p.(i) && p.(i) <= I.hi iv) then ok := false) b;
  !ok

let ref_signed_distance b p =
  if ref_inside b p then
    -.Array.fold_left Float.min infinity
        (Array.mapi (fun i iv -> Float.min (p.(i) -. I.lo iv) (I.hi iv -. p.(i))) b)
  else
    sqrt
      (Array.fold_left ( +. ) 0.0
         (Array.mapi
            (fun i iv ->
              let gap = Float.max 0.0 (Float.max (I.lo iv -. p.(i)) (p.(i) -. I.hi iv)) in
              gap *. gap)
            b))

let same_float a b =
  (Float.is_nan a && Float.is_nan b) || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let prop_streamed_monitors =
  QCheck.Test.make ~name:"streamed rollout checks equal their dense-trace definitions" ~count:300
    (QCheck.make ~print:print_loop_case gen_loop_case)
    (fun c ->
      let sys, controller, spec, avoid = loop_of_case c in
      let dense =
        (Dwv_ode.Sampled_system.simulate sys ~controller ~x0:c.lc_x0 ~steps:spec.Spec.steps)
          .Dwv_ode.Sampled_system.dense
      in
      let safe =
        Array.for_all (fun p -> ref_finite p && not (List.exists (fun b -> ref_inside b p) avoid)) dense
      in
      let reached = Array.exists (fun p -> ref_finite p && ref_inside spec.Spec.goal p) dense in
      let min_over g = Array.fold_left (fun acc p -> Float.min acc (g p)) infinity dense in
      let rob_safety =
        min_over (fun p ->
            List.fold_left (fun acc b -> Float.min acc (ref_signed_distance b p)) infinity avoid)
      in
      let rob_goal = -.min_over (ref_signed_distance spec.Spec.goal) in
      let r = Evaluate.rollout ~avoid ~sys ~controller ~spec c.lc_x0 in
      let robustness property =
        Falsifier.robustness ~avoid ~sys ~controller ~spec ~property c.lc_x0
      in
      r.Evaluate.safe = safe && r.Evaluate.reached = reached
      && same_float (robustness Falsifier.Safety) rob_safety
      && same_float (robustness Falsifier.Goal_reaching) rob_goal)

let test_streamed_monitors_see_nan () =
  (* the property's generator must actually produce blown-up and
     avoid-hitting trajectories, or it proves nothing about them *)
  let rng = Random.State.make [| 7 |] in
  let nan_seen = ref 0 and unsafe_seen = ref 0 and reached_seen = ref 0 in
  for _ = 1 to 300 do
    let c = gen_loop_case rng in
    let sys, controller, spec, avoid = loop_of_case c in
    let r = Evaluate.rollout ~avoid ~sys ~controller ~spec c.lc_x0 in
    let tr = Dwv_ode.Sampled_system.simulate sys ~controller ~x0:c.lc_x0 ~steps:spec.Spec.steps in
    if Array.exists (fun p -> not (ref_finite p)) tr.Dwv_ode.Sampled_system.dense then incr nan_seen;
    if not r.Evaluate.safe then incr unsafe_seen;
    if r.Evaluate.reached then incr reached_seen
  done;
  Alcotest.(check bool) "non-finite trajectories generated" true (!nan_seen >= 10);
  Alcotest.(check bool) "unsafe rollouts generated" true (!unsafe_seen >= 30);
  Alcotest.(check bool) "goal-reaching rollouts generated" true (!reached_seen >= 30)

(* ---------------- spec serialization ---------------- *)

let nasty_floats =
  [| 0.1; -0.0; 1e-300; 4e-324; Float.pi; 1.0 +. epsilon_float; 1e17;
     0x1.fffffffffffffp+2; 123.456789012345678 |]

let test_spec_roundtrip_nasty () =
  (* endpoints chosen to defeat any decimal pretty-printer rounding: the
     hex bit-pattern serialization must reproduce them bit-for-bit *)
  let n = Array.length nasty_floats in
  for i = 0 to n - 1 do
    let a = nasty_floats.(i) and b = nasty_floats.((i + 1) mod n) in
    let lo = Float.min a b and hi = Float.max a b in
    let box = Box.make ~lo:[| lo |] ~hi:[| hi |] in
    let spec =
      Spec.make ~name:(Fmt.str "nasty-%d" i) ~x0:box ~unsafe:box ~goal:box
        ~delta:(Float.max 1e-9 (Float.abs a)) ~steps:(1 + i)
    in
    let back = Spec.of_string (Spec.to_string spec) in
    let bits f = Int64.bits_of_float f in
    let box_bits b = (Array.map bits (Box.lo b), Array.map bits (Box.hi b)) in
    Alcotest.(check bool)
      "round-trips bit-for-bit" true
      (back.Spec.name = spec.Spec.name
      && back.Spec.steps = spec.Spec.steps
      && bits back.Spec.delta = bits spec.Spec.delta
      && box_bits back.Spec.x0 = box_bits spec.Spec.x0
      && box_bits back.Spec.unsafe = box_bits spec.Spec.unsafe
      && box_bits back.Spec.goal = box_bits spec.Spec.goal)
  done

let prop_spec_roundtrip =
  QCheck.Test.make ~name:"spec to_string/of_string round-trips" ~count:200
    QCheck.(triple (pair float float) (pair float float) (int_range 1 50))
    (fun ((a, b), (c, d), steps) ->
      QCheck.assume
        (Float.is_finite a && Float.is_finite b && Float.is_finite c
       && Float.is_finite d);
      let lo1 = Float.min a b and hi1 = Float.max a b in
      let lo2 = Float.min c d and hi2 = Float.max c d in
      let x0 = Box.make ~lo:[| lo1; lo2 |] ~hi:[| hi1; hi2 |] in
      let spec =
        Spec.make ~name:"prop" ~x0 ~unsafe:x0 ~goal:x0 ~delta:0.125 ~steps
      in
      let back = Spec.of_string (Spec.to_string spec) in
      let bits f = Int64.bits_of_float f in
      Array.for_all2
        (fun x y -> bits x = bits y)
        (Box.lo back.Spec.x0) (Box.lo spec.Spec.x0)
      && Array.for_all2
           (fun x y -> bits x = bits y)
           (Box.hi back.Spec.x0) (Box.hi spec.Spec.x0)
      && back.Spec.steps = spec.Spec.steps)

let test_spec_of_string_garbage () =
  List.iter
    (fun s ->
      match Spec.of_string s with
      | exception Failure _ -> ()
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail ("accepted garbage: " ^ s))
    [ ""; "spec v9"; "spec v1\nname x"; "not a spec at all" ]

let test_spec_zero_steps_rejected () =
  let b = Box.make ~lo:[| 0.0 |] ~hi:[| 1.0 |] in
  Alcotest.check_raises "zero steps"
    (Invalid_argument "Spec.make: need at least one step") (fun () ->
      ignore (Spec.make ~name:"z" ~x0:b ~unsafe:b ~goal:b ~delta:0.1 ~steps:0))

(* ---------------- falsifier: multi-box avoid + refine ---------------- *)

let test_falsifier_multibox_avoid () =
  (* u = +x grows only to ~2.7 from the largest x0 over this horizon: the
     spec's unsafe band [30,40] is unreachable, but the extra avoid box
     [2.5,2.8] on the way up is — only the multi-box search may find it *)
  let short =
    Spec.make ~name:"multibox" ~x0:fals_spec.Spec.x0
      ~unsafe:(Box.make ~lo:[| 30.0 |] ~hi:[| 40.0 |])
      ~goal:fals_spec.Spec.goal ~delta:0.2 ~steps:3
  in
  let controller x = [| x.(0) |] in
  let extra = Box.make ~lo:[| 2.5 |] ~hi:[| 2.8 |] in
  Alcotest.(check bool)
    "single unsafe box: no counterexample" true
    (Falsifier.search ~attempts:30 ~rng:(Rng.create 7) ~sys:fals_sys
       ~controller ~spec:short ~property:Falsifier.Safety ()
    = None);
  match
    Falsifier.search ~attempts:30
      ~avoid:[ short.Spec.unsafe; extra ]
      ~rng:(Rng.create 7) ~sys:fals_sys ~controller ~spec:short
      ~property:Falsifier.Safety ()
  with
  | None -> Alcotest.fail "expected a counterexample against the avoid set"
  | Some c ->
    let r =
      Falsifier.robustness
        ~avoid:[ short.Spec.unsafe; extra ]
        ~sys:fals_sys ~controller ~spec:short ~property:Falsifier.Safety
        c.Falsifier.x0
    in
    Alcotest.(check bool) "witness reproduces on the avoid set" true (r <= 0.0)

let test_falsifier_refine_descends () =
  (* hill climbing from the center must not increase robustness, must
     stay inside X0, and must find the violating corner here *)
  let controller x = [| x.(0) |] in
  let start = Box.center fals_spec.Spec.x0 in
  let r0 =
    Falsifier.robustness ~sys:fals_sys ~controller ~spec:fals_spec
      ~property:Falsifier.Safety start
  in
  let x, r =
    Falsifier.refine ~sys:fals_sys ~controller ~spec:fals_spec
      ~property:Falsifier.Safety ~iters:8 start
  in
  Alcotest.(check bool) "robustness non-increasing" true (r <= r0);
  Alcotest.(check bool) "stays in X0" true (Box.contains fals_spec.Spec.x0 x);
  Alcotest.(check bool) "finds the violation" true (r <= 0.0)

(* A search that finds nothing simulates each of its [attempts] starts
   once, then each of the hill climb's 2 n tries per iteration: the
   climb starts from the winner's score instead of rolling it out a
   second time. A counting controller pins the number of rollouts. *)
let test_falsifier_search_rollouts () =
  let calls = ref 0 in
  let controller x =
    incr calls;
    [| -.x.(0) |]
  in
  let per_rollout =
    ignore
      (Falsifier.robustness ~sys:fals_sys ~controller ~spec:fals_spec
         ~property:Falsifier.Safety (Box.center fals_spec.Spec.x0));
    !calls
  in
  calls := 0;
  Alcotest.(check bool) "no counterexample" true
    (Falsifier.search ~attempts:30 ~refine_iters:8 ~rng:(Rng.create 5) ~sys:fals_sys ~controller
       ~spec:fals_spec ~property:Falsifier.Safety ()
    = None);
  Alcotest.(check int) "30 starts + 8 x 2 climb tries" ((30 + (8 * 2)) * per_rollout) !calls

let test_falsifier_goal_boundary_not_falsified () =
  (* closed-box semantics: a trajectory that reaches the goal face with
     robustness exactly 0 has reached the goal — Goal_reaching must not
     report it as falsified (regression for the fuzzer's grazing bug) *)
  let spec =
    Spec.make ~name:"graze" ~x0:(Box.make ~lo:[| 1.0 |] ~hi:[| 1.0 |])
      ~unsafe:(Box.make ~lo:[| 30.0 |] ~hi:[| 40.0 |])
      ~goal:(Box.make ~lo:[| 0.0 |] ~hi:[| 1.0 |])
      ~delta:0.2 ~steps:2
  in
  (* u = 0 holds x at 1.0: exactly on the goal's upper face, robustness 0 *)
  let controller _ = [| 0.0 |] in
  Alcotest.(check (float 1e-12))
    "grazing robustness is exactly 0" 0.0
    (Falsifier.robustness ~sys:fals_sys ~controller ~spec
       ~property:Falsifier.Goal_reaching [| 1.0 |]);
  Alcotest.(check bool)
    "not declared falsified" true
    (Falsifier.search ~attempts:10 ~rng:(Rng.create 8) ~sys:fals_sys
       ~controller ~spec ~property:Falsifier.Goal_reaching ()
    = None)

(* ---------------- evaluate: edge cases ---------------- *)

let test_evaluate_point_x0 () =
  (* a degenerate (point) initial box: sampling and rollouts must work *)
  let spec =
    Spec.make ~name:"point" ~x0:(Box.make ~lo:[| 0.7 |] ~hi:[| 0.7 |])
      ~unsafe:eval_spec.Spec.unsafe ~goal:eval_spec.Spec.goal ~delta:0.2
      ~steps:40
  in
  let controller x = [| -.x.(0) |] in
  let r = Evaluate.rates ~n:20 ~rng:(Rng.create 9) ~sys:eval_sys ~controller ~spec () in
  Alcotest.(check (float 1e-9)) "SC 100" 100.0 r.Evaluate.safe_percent;
  Alcotest.(check (float 1e-9)) "GR 100" 100.0 r.Evaluate.goal_percent

let test_evaluate_nan_dynamics_conservative () =
  (* NaN compares false against every box bound, so a naive membership
     test would count a blown-up trajectory as safe; the rollout must
     classify it unsafe and not-reaching, and must not crash *)
  let sys =
    Dwv_ode.Sampled_system.make ~f:[| Expr.const Float.nan |] ~n:1 ~m:1
      ~delta:0.2
  in
  let controller _ = [| 0.0 |] in
  let r = Evaluate.rollout ~sys ~controller ~spec:eval_spec [| 0.7 |] in
  Alcotest.(check bool) "NaN trace is unsafe" false r.Evaluate.safe;
  Alcotest.(check bool) "NaN trace never reaches" false r.Evaluate.reached

let test_evaluate_multibox_avoid () =
  (* the extra avoid box sits on the stabilizing trajectory: with ~avoid
     the rollout is unsafe, without it the same rollout is safe *)
  let controller x = [| -.x.(0) |] in
  let extra = Box.make ~lo:[| 0.3 |] ~hi:[| 0.4 |] in
  let plain = Evaluate.rollout ~sys:eval_sys ~controller ~spec:eval_spec [| 0.7 |] in
  let multi =
    Evaluate.rollout
      ~avoid:[ eval_spec.Spec.unsafe; extra ]
      ~sys:eval_sys ~controller ~spec:eval_spec [| 0.7 |]
  in
  Alcotest.(check bool) "safe without the extra box" true plain.Evaluate.safe;
  Alcotest.(check bool) "unsafe against the avoid set" false multi.Evaluate.safe

let suite =
  [
    Alcotest.test_case "spec accessors" `Quick test_spec_accessors;
    Alcotest.test_case "spec validation" `Quick test_spec_validation;
    Alcotest.test_case "linear controller" `Quick test_linear_controller_roundtrip;
    Alcotest.test_case "net controller" `Quick test_net_controller_roundtrip;
    Alcotest.test_case "controller wrong length" `Quick test_controller_wrong_length;
    Alcotest.test_case "controller persist linear" `Quick test_controller_persistence_linear;
    Alcotest.test_case "controller persist net" `Quick test_controller_persistence_net;
    Alcotest.test_case "controller persist file" `Quick test_controller_persistence_file;
    Alcotest.test_case "controller reject garbage" `Quick test_controller_of_string_garbage;
    Alcotest.test_case "geometric d_u branches" `Quick test_geometric_d_u_branches;
    Alcotest.test_case "geometric d_u value" `Quick test_geometric_d_u_value;
    Alcotest.test_case "geometric d_g branches" `Quick test_geometric_d_g_branches;
    Alcotest.test_case "wasserstein scores" `Quick test_wasserstein_scores;
    Alcotest.test_case "wasserstein giant unsafe" `Quick test_wasserstein_safety_sees_giant_unsafe;
    Alcotest.test_case "wasserstein graze" `Quick test_wasserstein_sees_midcourse_graze;
    Alcotest.test_case "diverged scores" `Quick test_diverged_scores_graded;
    Alcotest.test_case "safety cap override" `Quick test_safety_cap_override;
    Alcotest.test_case "learner geometric" `Quick test_learner_converges_geometric;
    Alcotest.test_case "learner wasserstein" `Quick test_learner_converges_wasserstein;
    Alcotest.test_case "learner spsa" `Quick test_learner_spsa_mode;
    Alcotest.test_case "learner early stop" `Quick test_learner_stops_immediately_when_verified;
    Alcotest.test_case "learner budget" `Quick test_learner_respects_budget;
    Alcotest.test_case "learner history" `Quick test_learner_history_monotone_iters;
    Alcotest.test_case "initset half coverage" `Quick test_initset_partial_coverage;
    Alcotest.test_case "initset full coverage" `Quick test_initset_full_coverage;
    Alcotest.test_case "initset even vs adaptive" `Quick test_initset_even_matches_adaptive;
    Alcotest.test_case "initset even full" `Quick test_initset_even_full_coverage;
    Alcotest.test_case "initset empty" `Quick test_initset_empty;
    Alcotest.test_case "falsifier signed distance" `Quick test_signed_distance;
    Alcotest.test_case "falsifier finds unsafe" `Quick test_falsifier_finds_unsafe_controller;
    Alcotest.test_case "falsifier accepts safe" `Quick test_falsifier_accepts_safe_controller;
    Alcotest.test_case "falsifier search rollouts" `Quick test_falsifier_search_rollouts;
    Alcotest.test_case "falsifier goal-reaching" `Quick test_falsifier_goal_reaching;
    Alcotest.test_case "evaluate stabilizing" `Quick test_evaluate_stabilizing;
    Alcotest.test_case "evaluate unsafe" `Quick test_evaluate_unsafe_controller;
    Alcotest.test_case "evaluate rollout" `Quick test_evaluate_rollout_fields;
    QCheck_alcotest.to_alcotest prop_streamed_monitors;
    Alcotest.test_case "streamed monitors cover NaN" `Quick test_streamed_monitors_see_nan;
    Alcotest.test_case "spec round-trip nasty floats" `Quick test_spec_roundtrip_nasty;
    QCheck_alcotest.to_alcotest prop_spec_roundtrip;
    Alcotest.test_case "spec of_string garbage" `Quick test_spec_of_string_garbage;
    Alcotest.test_case "spec zero steps" `Quick test_spec_zero_steps_rejected;
    Alcotest.test_case "falsifier multi-box avoid" `Quick test_falsifier_multibox_avoid;
    Alcotest.test_case "falsifier refine descends" `Quick test_falsifier_refine_descends;
    Alcotest.test_case "falsifier goal boundary" `Quick test_falsifier_goal_boundary_not_falsified;
    Alcotest.test_case "evaluate point x0" `Quick test_evaluate_point_x0;
    Alcotest.test_case "evaluate NaN dynamics" `Quick test_evaluate_nan_dynamics_conservative;
    Alcotest.test_case "evaluate multi-box avoid" `Quick test_evaluate_multibox_avoid;
  ]
