(* Fault-injection suite (the `@faults` alias): proves the verification
   loop is total — every Dwv_error kind surfaces as a value, the fallback
   ladder degrades instead of crashing, and Algorithm 1 survives injected
   faults with a verdict and finite parameters. Kept out of the default
   runtest so the tier-1 suite's timing is unchanged. *)

module I = Dwv_interval.Interval
module Box = Dwv_interval.Box
module Expr = Dwv_expr.Expr
module Mlp = Dwv_nn.Mlp
module Activation = Dwv_nn.Activation
module Rng = Dwv_util.Rng
module Flowpipe = Dwv_reach.Flowpipe
module Verifier = Dwv_reach.Verifier
module Spec = Dwv_core.Spec
module Controller = Dwv_core.Controller
module Learner = Dwv_core.Learner
module Metrics = Dwv_core.Metrics
module Initset = Dwv_core.Initset
module Evaluate = Dwv_core.Evaluate
module Dwv_error = Dwv_robust.Dwv_error
module Budget = Dwv_robust.Budget
module Fault = Dwv_robust.Fault
module Robust_verify = Dwv_robust.Robust_verify

let kind_of = function
  | Ok _ -> Alcotest.fail "expected an error"
  | Error e -> Dwv_error.kind_name e

let finite_params c = Array.for_all Float.is_finite (Controller.params c)

(* ---------------- budgets: every exhaustion mode is a value ---------------- *)

let test_deadline_is_a_value () =
  let now = ref 0.0 in
  let b = Budget.create ~clock:(fun () -> !now) ~deadline:1.0 () in
  Alcotest.(check bool) "before deadline" true (Result.is_ok (Budget.check b));
  now := 2.5;
  Alcotest.(check string) "deadline kind" "deadline" (kind_of (Budget.check b));
  Alcotest.(check (float 1e-9)) "elapsed via injected clock" 2.5 (Budget.elapsed b)

let test_call_budget_is_a_value () =
  let b = Budget.create ~max_calls:1 () in
  Alcotest.(check bool) "first call ok" true (Result.is_ok (Budget.spend_call b));
  Alcotest.(check string) "second call exhausts" "budget" (kind_of (Budget.spend_call b));
  Alcotest.(check int) "only one call spent" 1 (Budget.calls b)

let test_step_budget_is_a_value () =
  let b = Budget.create ~max_steps:3 () in
  Alcotest.(check bool) "2 of 3 ok" true (Result.is_ok (Budget.spend_steps ~n:2 b));
  Alcotest.(check string) "overdraw refused" "budget" (kind_of (Budget.spend_steps ~n:2 b));
  Alcotest.(check bool) "exact fit ok" true (Result.is_ok (Budget.spend_steps ~n:1 b))

let test_nonfinite_box_is_a_value () =
  (* a period whose interval arithmetic overflows to infinity must come
     back as a structured non-finite error on a truncated pipe, not an
     exception or a silent infinite box *)
  let x0 = Box.make ~lo:[| 1e308 |] ~hi:[| 1e308 |] in
  let o =
    Dwv_reach.Closed_loop.run ~delta:0.1 ~steps:3 ~x0
      {
        Dwv_reach.Closed_loop.backend = "test";
        where = "test";
        init = x0;
        bound = Fun.id;
        step = (fun _ x -> let y = Array.map (fun i -> I.add i i) x in Ok (y, Box.hull x y));
      }
  in
  Alcotest.(check bool) "pipe marked diverged" true (Flowpipe.diverged o.Flowpipe.pipe);
  match o.Flowpipe.error with
  | None -> Alcotest.fail "no structured error attached"
  | Some e ->
    Alcotest.(check string) "non-finite kind" "non-finite" (Dwv_error.kind_name e);
    Alcotest.(check (option int)) "at the first period" (Some 1) e.Dwv_error.step

(* ---------------- the generic fallback ladder ---------------- *)

let failing_rung name kind =
  Robust_verify.rung ~name (fun () ->
      match kind with
      | `Diverge -> Error (Dwv_error.divergence ~backend:name ~where:"test" ())
      | `Raise -> failwith "backend exploded")

let ok_rung name v = Robust_verify.rung ~name (fun () -> Ok v)

let test_ladder_falls_through_in_order () =
  let o =
    Robust_verify.run
      [ failing_rung "a" `Diverge; failing_rung "b" `Raise; ok_rung "c" 42 ]
  in
  Alcotest.(check (option int)) "value from last rung" (Some 42) o.Robust_verify.value;
  Alcotest.(check (option string)) "rung name" (Some "c") o.Robust_verify.rung;
  Alcotest.(check (option int)) "rung index" (Some 2) o.Robust_verify.rung_index;
  Alcotest.(check (list string)) "failures in ladder order" [ "a"; "b" ]
    (List.map fst o.Robust_verify.failures);
  Alcotest.(check (list string)) "failure taxonomy" [ "divergence"; "backend" ]
    (List.map (fun (_, e) -> Dwv_error.kind_name e) o.Robust_verify.failures)

let test_ladder_spends_call_budget () =
  let b = Budget.create ~max_calls:2 () in
  let run () = Robust_verify.run ~budget:b [ ok_rung "only" () ] in
  Alcotest.(check bool) "call 1 ok" true (Robust_verify.succeeded (run ()));
  Alcotest.(check bool) "call 2 ok" true (Robust_verify.succeeded (run ()));
  let o = run () in
  Alcotest.(check bool) "call 3 refused" false (Robust_verify.succeeded o);
  Alcotest.(check (list string)) "budget failure recorded" [ "budget" ]
    (List.map (fun (_, e) -> Dwv_error.kind_name e) o.Robust_verify.failures)

let test_fault_plan_is_scoped_and_deterministic () =
  Alcotest.(check bool) "inactive outside" false (Fault.active ());
  let faults =
    Fault.with_faults ~seed:3 [ (1, Fault.Nan_theta); (2, Fault.Deadline_hit) ]
      (fun () ->
        let o0 = Robust_verify.run [ ok_rung "r" () ] in
        let o1 = Robust_verify.run [ ok_rung "r" () ] in
        let o2 = Robust_verify.run [ ok_rung "r" () ] in
        Alcotest.(check bool) "call 0 clean" true (o0.Robust_verify.fault = None);
        Alcotest.(check bool) "call 1 nan-theta" true
          (o1.Robust_verify.fault = Some Fault.Nan_theta);
        Alcotest.(check bool) "call 2 fails up front" false (Robust_verify.succeeded o2);
        Alcotest.(check (list string)) "deadline synthesized" [ "deadline" ]
          (List.map (fun (_, e) -> Dwv_error.kind_name e) o2.Robust_verify.failures);
        Fault.injected ())
  in
  Alcotest.(check int) "two faults fired" 2 (List.length faults);
  Alcotest.(check bool) "restored after" false (Fault.active ())

(* ---------------- NN verifier: structured errors + degradation ---------------- *)

(* Tiny 1-D closed loop (x' = -x + u) so NN-verifier fault paths are
   cheap to exercise. *)
let tiny_f = [| Expr.(add (neg (var 0)) (input 0)) |]
let tiny_net = Mlp.create ~sizes:[ 1; 2; 1 ] ~acts:[ Activation.Tanh; Activation.Tanh ] (Rng.create 11)
let tiny_x0 = Box.make ~lo:[| -0.1 |] ~hi:[| 0.1 |]

let test_nn_nan_weights_is_a_value () =
  let theta = Mlp.flatten tiny_net in
  theta.(0) <- Float.nan;
  let net = Mlp.unflatten tiny_net theta in
  let o =
    Verifier.nn_flowpipe_outcome ~f:tiny_f ~delta:0.1 ~steps:3 ~net ~output_scale:1.0
      ~method_:Verifier.Polar ~x0:tiny_x0 ()
  in
  Alcotest.(check bool) "pipe marked diverged" true (Flowpipe.diverged o.Flowpipe.pipe);
  match o.Flowpipe.error with
  | None -> Alcotest.fail "no structured error attached"
  | Some e ->
    Alcotest.(check bool) "non-finite or backend" true
      (List.mem (Dwv_error.kind_name e) [ "non-finite"; "backend"; "divergence" ]);
    Alcotest.(check (option string)) "backend recorded" (Some "POLAR") e.Dwv_error.backend

let test_nn_step_budget_stops_flowpipe () =
  let b = Budget.create ~max_steps:2 () in
  let o =
    Verifier.nn_flowpipe_outcome ~budget:b ~f:tiny_f ~delta:0.1 ~steps:5 ~net:tiny_net
      ~output_scale:1.0 ~method_:Verifier.Polar ~x0:tiny_x0 ()
  in
  Alcotest.(check bool) "diverged (truncated)" true (Flowpipe.diverged o.Flowpipe.pipe);
  Alcotest.(check int) "stopped after 2 periods" 2 (Flowpipe.steps o.Flowpipe.pipe);
  match o.Flowpipe.error with
  | Some e -> Alcotest.(check string) "budget kind" "budget" (Dwv_error.kind_name e)
  | None -> Alcotest.fail "no error attached"

let test_nan_theta_reaches_every_rung () =
  (* the armed NaN-θ fault corrupts the network once per call, so the
     interval rung at the bottom of the ladder verifies the corrupted
     weights too instead of certifying the clean network *)
  let f = [| Expr.(add (neg (var 0)) (input 0)) |] in
  let net =
    Mlp.create ~sizes:[ 1; 4; 1 ] ~acts:[ Activation.Tanh; Activation.Tanh ] (Rng.create 7)
  in
  let x0 = Box.make ~lo:[| 0.9 |] ~hi:[| 1.1 |] in
  let report =
    Fault.with_faults [ (0, Fault.Nan_theta) ] (fun () ->
        Verifier.nn_flowpipe_robust ~f ~delta:0.1 ~steps:10 ~net ~output_scale:0.1
          ~method_:Verifier.Polar ~x0 ())
  in
  Alcotest.(check (option string)) "no rung succeeds" None report.Verifier.rung;
  Alcotest.(check bool) "pipe diverged" true (Flowpipe.diverged report.Verifier.pipe);
  Alcotest.(check (list string)) "every rung failed"
    [ "POLAR"; "POLAR+tight"; "ReachNN"; "interval" ]
    (List.map fst report.Verifier.failures)

let test_interval_step_budget_annotated () =
  (* a failure raised inside the interval kernel keeps its own step and
     is stamped with the backend, like every other closed-loop failure *)
  let o =
    Dwv_reach.Interval_reach.nn_flowpipe_outcome ~budget:(Budget.create ~max_steps:3 ())
      ~f:tiny_f ~delta:0.1 ~steps:5 ~net:tiny_net ~output_scale:1.0 ~x0:tiny_x0 ()
  in
  Alcotest.(check int) "stopped after 3 periods" 3 (Flowpipe.steps o.Flowpipe.pipe);
  match o.Flowpipe.error with
  | None -> Alcotest.fail "no error attached"
  | Some e ->
    Alcotest.(check string) "budget kind" "budget" (Dwv_error.kind_name e);
    Alcotest.(check (option string)) "backend" (Some "interval") e.Dwv_error.backend;
    Alcotest.(check (option int)) "step" (Some 4) e.Dwv_error.step

let test_nn_robust_substep_rung_equivalent_when_clean () =
  (* zero faults: the primary rung must reproduce nn_flowpipe exactly *)
  let plain =
    Verifier.nn_flowpipe ~f:tiny_f ~delta:0.1 ~steps:5 ~net:tiny_net ~output_scale:1.0
      ~method_:Verifier.Polar ~x0:tiny_x0 ()
  in
  let report =
    Verifier.nn_flowpipe_robust ~f:tiny_f ~delta:0.1 ~steps:5 ~net:tiny_net
      ~output_scale:1.0 ~method_:Verifier.Polar ~x0:tiny_x0 ()
  in
  Alcotest.(check (option int)) "primary rung produced it" (Some 0)
    report.Verifier.rung_index;
  Alcotest.(check int) "no failures" 0 (List.length report.Verifier.failures);
  let fb_plain = Flowpipe.final_box plain and fb = Flowpipe.final_box report.Verifier.pipe in
  Alcotest.(check (float 0.0)) "identical final lo" (Box.lo fb_plain).(0) (Box.lo fb).(0);
  Alcotest.(check (float 0.0)) "identical final hi" (Box.hi fb_plain).(0) (Box.hi fb).(0)

let test_nn_robust_blowup_uses_fallback_rung () =
  Fault.with_faults [ (0, Fault.Tm_blowup) ] (fun () ->
      let report =
        Verifier.nn_flowpipe_robust ~f:tiny_f ~delta:0.1 ~steps:5 ~net:tiny_net
          ~output_scale:1.0 ~method_:Verifier.Polar ~x0:tiny_x0 ()
      in
      Alcotest.(check bool) "a later rung answered" true
        (match report.Verifier.rung_index with Some i -> i >= 1 | None -> false);
      Alcotest.(check bool) "primary failure recorded" true
        (List.mem_assoc "POLAR" report.Verifier.failures);
      Alcotest.(check bool) "fault recorded" true
        (report.Verifier.fault = Some Fault.Tm_blowup);
      Alcotest.(check bool) "usable pipe" true
        (not (Flowpipe.diverged report.Verifier.pipe)))

(* ---------------- learner survival: one test per failure kind ---------------- *)

let acc_cfg =
  { Learner.default_config with Learner.max_iters = 5; alpha = 0.2; beta = 0.2; seed = 7 }

let acc_learn_under ?(domains = 1) ?cache faults =
  let module A = Dwv_systems.Acc in
  let module Pool = Dwv_parallel.Pool in
  let verify c = (A.verify_robust ?cache c).Verifier.pipe in
  Fault.with_faults ~seed:1 faults (fun () ->
      Pool.with_pool ~oversubscribe:true ~domains (fun pool ->
          let r =
            Learner.learn ~pool acc_cfg ~metric:Metrics.Geometric ~spec:A.spec ~verify
              ~init:A.initial_controller
          in
          (r, Fault.injected ())))

let check_survived r =
  Alcotest.(check bool) "finite parameters" true (finite_params r.Learner.controller);
  Alcotest.(check bool) "history recorded" true (List.length r.Learner.history >= 1);
  Alcotest.(check bool) "verdict delivered" true
    (List.mem r.Learner.verdict [ Verifier.Reach_avoid; Verifier.Unsafe; Verifier.Unknown ])

let test_learner_survives_nan_theta () =
  check_survived (fst (acc_learn_under [ (0, Fault.Nan_theta) ]))

let test_learner_survives_tm_blowup () =
  check_survived (fst (acc_learn_under [ (0, Fault.Tm_blowup) ]))

let test_learner_survives_deadline () =
  check_survived (fst (acc_learn_under [ (0, Fault.Deadline_hit); (3, Fault.Deadline_hit) ]))

let test_learner_survives_budget () =
  check_survived (fst (acc_learn_under [ (0, Fault.Budget_hit); (5, Fault.Budget_hit) ]))

(* Fault-plan call indices are pre-assigned before each parallel fan-out,
   so an injected fault must land on the same verifier call — and surface
   the same structured error — at any domain count. *)
let check_same_under_faults label ((a : Learner.result), fa) ((b : Learner.result), fb) =
  Alcotest.(check (array (float 0.0)))
    (label ^ ": identical theta")
    (Controller.params a.Learner.controller)
    (Controller.params b.Learner.controller);
  Alcotest.(check int) (label ^ ": same iterations") a.Learner.iterations b.Learner.iterations;
  Alcotest.(check int) (label ^ ": same verifier calls") a.Learner.verifier_calls
    b.Learner.verifier_calls;
  Alcotest.(check bool) (label ^ ": same verdict") true (a.Learner.verdict = b.Learner.verdict);
  Alcotest.(check (option string))
    (label ^ ": same stop kind")
    (Option.map Dwv_error.kind_name a.Learner.stopped)
    (Option.map Dwv_error.kind_name b.Learner.stopped);
  Alcotest.(check (list (pair int string)))
    (label ^ ": same injected faults")
    (List.map (fun (i, k) -> (i, Fault.kind_to_string k)) fa)
    (List.map (fun (i, k) -> (i, Fault.kind_to_string k)) fb)

let test_budget_fault_parity_across_domains () =
  let faults = [ (0, Fault.Budget_hit); (5, Fault.Budget_hit) ] in
  check_same_under_faults "budget fault" (acc_learn_under faults)
    (acc_learn_under ~domains:4 faults)

let test_nan_theta_fault_parity_across_domains () =
  let faults = [ (0, Fault.Nan_theta); (4, Fault.Nan_theta) ] in
  check_same_under_faults "nan-theta fault" (acc_learn_under faults)
    (acc_learn_under ~domains:4 faults)

let test_acc_zero_fault_learning_unchanged () =
  let module A = Dwv_systems.Acc in
  let plain =
    Learner.learn acc_cfg ~metric:Metrics.Geometric ~spec:A.spec ~verify:A.verify
      ~init:A.initial_controller
  in
  let robust =
    Learner.learn acc_cfg ~metric:Metrics.Geometric ~spec:A.spec
      ~verify:(fun c -> (A.verify_robust c).Verifier.pipe)
      ~init:A.initial_controller
  in
  Alcotest.(check int) "same iteration count" plain.Learner.iterations robust.Learner.iterations;
  Alcotest.(check bool) "same verdict" true (plain.Learner.verdict = robust.Learner.verdict);
  List.iter2
    (fun (p : Learner.history_point) (r : Learner.history_point) ->
      Alcotest.(check (float 0.0)) "same objective" p.Learner.objective r.Learner.objective)
    plain.Learner.history robust.Learner.history

(* Faulted learning on the nonlinear benchmarks, on short horizons so the
   whole ladder stays cheap: the loop must survive a NaN controller, a
   primary-rung blow-up and an up-front deadline in one run. *)
let nn_learn_under ~name ~f ~dim faults =
  let lo = Array.make dim 0.0 and hi = Array.make dim 0.02 in
  let x0 = Box.make ~lo ~hi in
  let far lo hi = I.make lo hi in
  let unsafe = Box.of_intervals (Array.make dim (far 5.0 6.0)) in
  let goal = Box.of_intervals (Array.make dim (far (-0.5) 0.5)) in
  let spec = Spec.make ~name ~x0 ~unsafe ~goal ~delta:0.1 ~steps:4 in
  let net =
    Mlp.create ~sizes:[ dim; 4; 1 ] ~acts:[ Activation.Tanh; Activation.Tanh ]
      (Rng.create 5)
  in
  let verify c =
    match c with
    | Controller.Net { net; output_scale } ->
      (Verifier.nn_flowpipe_robust ~order:2 ~disturbance_slots:4 ~f ~delta:0.1 ~steps:4
         ~net ~output_scale ~method_:Verifier.Polar ~x0 ())
        .Verifier.pipe
    | Controller.Linear _ -> Alcotest.fail "NN controller expected"
  in
  let cfg =
    { Learner.default_config with
      Learner.max_iters = 2; gradient_mode = Learner.Spsa 1; seed = 3 }
  in
  Fault.with_faults ~seed:2 faults (fun () ->
      Learner.learn cfg ~metric:Metrics.Geometric ~spec ~verify
        ~init:(Controller.net ~output_scale:1.0 net))

let mixed_faults =
  [ (0, Fault.Nan_theta); (1, Fault.Tm_blowup); (3, Fault.Deadline_hit) ]

let test_learner_survives_faults_oscillator () =
  check_survived
    (nn_learn_under ~name:"oscillator-fast" ~f:Dwv_systems.Oscillator.dynamics ~dim:2
       mixed_faults)

let test_learner_survives_faults_threed () =
  check_survived
    (nn_learn_under ~name:"threed-fast" ~f:Dwv_systems.Threed.dynamics ~dim:3 mixed_faults)

(* ---------------- non-finite score guard ---------------- *)

let test_nan_scores_skip_probes_not_gradient () =
  let module A = Dwv_systems.Acc in
  (* a pipe whose boxes carry NaN but which is NOT flagged diverged: the
     grading path would previously fold NaN into every gradient component *)
  let nan_iv = I.scale Float.infinity (I.make 0.0 1.0) in
  let nan_box = Box.of_intervals [| nan_iv; nan_iv |] in
  let nan_pipe =
    Flowpipe.make
      ~step_boxes:[| A.spec.Spec.x0; nan_box |]
      ~segment_boxes:[| nan_box |] ~delta:0.1 ~diverged:false
  in
  let cfg = { acc_cfg with Learner.max_iters = 2; gradient_mode = Learner.Coordinate } in
  let r =
    Learner.learn cfg ~metric:Metrics.Geometric ~spec:A.spec
      ~verify:(fun _ -> nan_pipe)
      ~init:A.initial_controller
  in
  (* 2 gradient rounds x 3 coordinate probes, every one non-finite *)
  Alcotest.(check int) "all probe pairs skipped" 6 r.Learner.skipped_probes;
  Alcotest.(check bool) "theta stays finite" true (finite_params r.Learner.controller);
  Alcotest.(check (array (float 0.0))) "theta untouched by NaN probes"
    (Controller.params A.initial_controller)
    (Controller.params r.Learner.controller)

let test_evaluate_nan_trajectory_is_unsafe () =
  let module O = Dwv_systems.Oscillator in
  let nan_controller _ = [| Float.nan |] in
  let r =
    Evaluate.rollout ~sys:O.sampled ~controller:nan_controller ~spec:O.spec [| -0.5; 0.5 |]
  in
  Alcotest.(check bool) "NaN rollout is not safe" false r.Evaluate.safe;
  Alcotest.(check bool) "NaN rollout reaches nothing" false r.Evaluate.reached

(* ---------------- certificate-cache faults ---------------- *)

module Cert = Dwv_cert.Cert
module Cert_cache = Dwv_cert.Cert_cache

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      try Sys.rmdir path with Sys_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()

let fresh_cert_dir tag =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dwv_faults_%s_%d" tag (Unix.getpid ()))
  in
  remove_tree dir;
  dir

(* The checker must reject EVERY seeded single-bit corruption, wherever
   the bit lands: flip one seeded bit of a real emitted certificate for
   25 different seeds and decode each copy. The FNV footer makes any
   substitution detectable, so none may parse. *)
let test_checker_rejects_every_seeded_corruption () =
  let module A = Dwv_systems.Acc in
  let dir = fresh_cert_dir "corrupt" in
  let cache = Cert_cache.create ~dir () in
  ignore (A.verify_robust ~cache A.initial_controller : Verifier.fallback_report);
  let path =
    match Cert_cache.last_store_path cache with
    | Some p -> p
    | None -> Alcotest.fail "no certificate stored"
  in
  let raw = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check bool) "clean bytes decode" true (Result.is_ok (Cert.decode raw));
  for seed = 0 to 24 do
    Fault.with_faults ~seed [] (fun () ->
        let bad = Fault.byte_corrupt raw in
        Alcotest.(check bool) "corruption changed a byte" true (bad <> raw);
        match Cert.decode bad with
        | Ok _ -> Alcotest.failf "seed %d: corrupted certificate decoded" seed
        | Error _ -> ())
  done;
  remove_tree dir

(* Under each injected cert fault the cache must degrade to a fresh
   computation, so the learner's result is bit-identical to the
   cache-disabled run — and the degradation must show up in the cache
   stats (rejects for corrupt/stale reads, io_failures for dead disks)
   while the unfaulted calls keep hitting. *)
let test_learner_bit_identical_under_cert_faults () =
  List.iter
    (fun kind ->
      let name = Fault.kind_to_string kind in
      let faults = [ (1, kind); (4, kind) ] in
      let baseline = acc_learn_under faults in
      let dir = fresh_cert_dir ("learn_" ^ name) in
      let cache = Cert_cache.create ~dir () in
      ignore (acc_learn_under ~cache []);
      Cert_cache.reset_stats cache;
      let cached = acc_learn_under ~cache faults in
      check_same_under_faults ("cert fault " ^ name) baseline cached;
      let s = Cert_cache.stats cache in
      (match kind with
      | Fault.Cert_corrupt | Fault.Cert_stale ->
        Alcotest.(check int) (name ^ ": both faulted reads rejected") 2
          s.Cert_cache.rejects
      | Fault.Cert_io ->
        Alcotest.(check bool) (name ^ ": io failures recorded") true
          (s.Cert_cache.io_failures >= 2)
      | _ -> Alcotest.fail "not a cert fault");
      Alcotest.(check bool) (name ^ ": clean calls still hit") true
        (s.Cert_cache.hits > 0);
      remove_tree dir)
    [ Fault.Cert_corrupt; Fault.Cert_stale; Fault.Cert_io ]

(* ---------------- budgeted initset search ---------------- *)

let test_initset_budget_rejects_remainder () =
  let module A = Dwv_systems.Acc in
  let now = ref 0.0 in
  let budget = Budget.create ~clock:(fun () -> !now) ~deadline:2.5 () in
  let c = A.initial_controller in
  let verify cell =
    now := !now +. 1.0;
    A.verify_from cell c
  in
  let r = Initset.search ~max_depth:2 ~budget ~verify ~goal:A.spec.Spec.goal ~x0:A.spec.Spec.x0 () in
  Alcotest.(check int) "stopped after three calls" 3 r.Initset.verifier_calls;
  (match r.Initset.stopped with
  | Some e -> Alcotest.(check string) "deadline recorded" "deadline" (Dwv_error.kind_name e)
  | None -> Alcotest.fail "expected the search to stop on the deadline");
  Alcotest.(check bool) "remainder conservatively rejected" true
    (List.length r.Initset.rejected > 0)

let suite =
  [
    Alcotest.test_case "deadline is a value" `Quick test_deadline_is_a_value;
    Alcotest.test_case "call budget is a value" `Quick test_call_budget_is_a_value;
    Alcotest.test_case "step budget is a value" `Quick test_step_budget_is_a_value;
    Alcotest.test_case "non-finite box is a value" `Quick test_nonfinite_box_is_a_value;
    Alcotest.test_case "ladder falls through in order" `Quick test_ladder_falls_through_in_order;
    Alcotest.test_case "ladder spends call budget" `Quick test_ladder_spends_call_budget;
    Alcotest.test_case "fault plan scoped + deterministic" `Quick
      test_fault_plan_is_scoped_and_deterministic;
    Alcotest.test_case "nn nan weights is a value" `Quick test_nn_nan_weights_is_a_value;
    Alcotest.test_case "nn step budget stops flowpipe" `Quick test_nn_step_budget_stops_flowpipe;
    Alcotest.test_case "nan-theta reaches every rung" `Quick test_nan_theta_reaches_every_rung;
    Alcotest.test_case "interval step budget annotated" `Quick
      test_interval_step_budget_annotated;
    Alcotest.test_case "robust = plain when clean" `Quick
      test_nn_robust_substep_rung_equivalent_when_clean;
    Alcotest.test_case "blowup uses fallback rung" `Quick test_nn_robust_blowup_uses_fallback_rung;
    Alcotest.test_case "learner survives nan-theta" `Quick test_learner_survives_nan_theta;
    Alcotest.test_case "learner survives tm-blowup" `Quick test_learner_survives_tm_blowup;
    Alcotest.test_case "learner survives deadline" `Quick test_learner_survives_deadline;
    Alcotest.test_case "learner survives budget" `Quick test_learner_survives_budget;
    Alcotest.test_case "budget fault parity across domains" `Quick
      test_budget_fault_parity_across_domains;
    Alcotest.test_case "nan-theta fault parity across domains" `Quick
      test_nan_theta_fault_parity_across_domains;
    Alcotest.test_case "acc zero-fault learning unchanged" `Quick
      test_acc_zero_fault_learning_unchanged;
    Alcotest.test_case "learner survives faults (oscillator)" `Quick
      test_learner_survives_faults_oscillator;
    Alcotest.test_case "learner survives faults (threed)" `Quick
      test_learner_survives_faults_threed;
    Alcotest.test_case "nan scores skip probes" `Quick test_nan_scores_skip_probes_not_gradient;
    Alcotest.test_case "nan trajectory is unsafe" `Quick test_evaluate_nan_trajectory_is_unsafe;
    Alcotest.test_case "initset budget rejects remainder" `Quick
      test_initset_budget_rejects_remainder;
    Alcotest.test_case "checker rejects every seeded corruption" `Quick
      test_checker_rejects_every_seeded_corruption;
    Alcotest.test_case "learner bit-identical under cert faults" `Quick
      test_learner_bit_identical_under_cert_faults;
  ]

let () = Alcotest.run "dwv-faults" [ ("faults", suite) ]
