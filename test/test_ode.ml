(* Tests for dwv_ode: RK4 accuracy against closed-form solutions, the
   sampled-data closed loop, field bounds. *)

module Expr = Dwv_expr.Expr
module Rk4 = Dwv_ode.Rk4
module Sampled_system = Dwv_ode.Sampled_system
module I = Dwv_interval.Interval

let test_rk4_exponential_decay () =
  (* x' = -x: x(t) = e^{-t} *)
  let f = [| Expr.neg (Expr.var 0) |] in
  let x = Rk4.integrate ~f:(Expr.compile f) ~u:[||] ~duration:1.0 ~substeps:20 [| 1.0 |] in
  Alcotest.(check (float 1e-7)) "e^-1" (exp (-1.0)) x.(0)

let test_rk4_harmonic () =
  (* x'' = -x from (1, 0): x(t) = cos t *)
  let f = [| Expr.var 1; Expr.neg (Expr.var 0) |] in
  let x = Rk4.integrate ~f:(Expr.compile f) ~u:[||] ~duration:(Float.pi /. 2.0) ~substeps:50 [| 1.0; 0.0 |] in
  Alcotest.(check (float 1e-6)) "cos(pi/2)" 0.0 x.(0);
  Alcotest.(check (float 1e-6)) "-sin(pi/2)" (-1.0) x.(1)

let test_rk4_controlled () =
  (* x' = u: linear growth *)
  let f = [| Expr.input 0 |] in
  let x = Rk4.integrate ~f:(Expr.compile f) ~u:[| 2.5 |] ~duration:2.0 ~substeps:4 [| 1.0 |] in
  Alcotest.(check (float 1e-10)) "linear" 6.0 x.(0)

let test_rk4_fourth_order_convergence () =
  (* halving the step should cut the error by about 2^4 *)
  let f = [| Expr.(mul (var 0) (cos_ (var 0))) |] in
  let reference = Rk4.integrate ~f:(Expr.compile f) ~u:[||] ~duration:1.0 ~substeps:400 [| 0.5 |] in
  let coarse = Rk4.integrate ~f:(Expr.compile f) ~u:[||] ~duration:1.0 ~substeps:5 [| 0.5 |] in
  let fine = Rk4.integrate ~f:(Expr.compile f) ~u:[||] ~duration:1.0 ~substeps:10 [| 0.5 |] in
  let e_coarse = Float.abs (coarse.(0) -. reference.(0)) in
  let e_fine = Float.abs (fine.(0) -. reference.(0)) in
  Alcotest.(check bool) "order ~4" true (e_coarse /. Float.max e_fine 1e-18 > 8.0)

let test_rk4_dense_endpoints () =
  let f = [| Expr.neg (Expr.var 0) |] in
  let states = Rk4.integrate_dense ~f:(Expr.compile f) ~u:[||] ~duration:1.0 ~substeps:10 [| 2.0 |] in
  Alcotest.(check int) "count" 11 (Array.length states);
  Alcotest.(check (float 1e-12)) "initial" 2.0 states.(0).(0);
  let final = Rk4.integrate ~f:(Expr.compile f) ~u:[||] ~duration:1.0 ~substeps:10 [| 2.0 |] in
  Alcotest.(check (float 1e-12)) "final matches" final.(0) states.(10).(0)

let test_rk4_substeps_guard () =
  Alcotest.check_raises "bad substeps" (Invalid_argument "Rk4.integrate: substeps must be >= 1")
    (fun () -> ignore (Rk4.integrate ~f:(Expr.compile [| Expr.var 0 |]) ~u:[||] ~duration:1.0 ~substeps:0 [| 1.0 |]))

let make_decay () =
  Sampled_system.make ~f:[| Expr.(add (neg (var 0)) (input 0)) |] ~n:1 ~m:1 ~delta:0.5

let test_sampled_simulate_zoh () =
  (* u = 1 held: x converges to 1 *)
  let sys = make_decay () in
  let trace = Sampled_system.simulate sys ~controller:(fun _ -> [| 1.0 |]) ~x0:[| 0.0 |] ~steps:30 in
  Alcotest.(check int) "states" 31 (Array.length trace.Sampled_system.states);
  Alcotest.(check (float 1e-4)) "steady state" 1.0 trace.Sampled_system.states.(30).(0)

let test_sampled_zoh_holds_input () =
  (* a controller reading the state only at sample instants: compare one
     period against direct RK4 with constant input *)
  let sys = make_decay () in
  let u = [| 0.7 |] in
  let direct = Dwv_ode.Rk4.integrate ~f:sys.Sampled_system.prog ~u ~duration:0.5 ~substeps:10 [| 2.0 |] in
  let stepped = Sampled_system.step sys ~u [| 2.0 |] in
  Alcotest.(check (float 1e-12)) "one period" direct.(0) stepped.(0)

let test_sampled_trace_inputs_recorded () =
  let sys = make_decay () in
  let k = ref 0 in
  let controller _ = incr k; [| float_of_int !k |] in
  let trace = Sampled_system.simulate sys ~controller ~x0:[| 0.0 |] ~steps:3 in
  Alcotest.(check (array (float 1e-12))) "inputs" [| 1.0 |] trace.Sampled_system.inputs.(0);
  Alcotest.(check (array (float 1e-12))) "inputs" [| 3.0 |] trace.Sampled_system.inputs.(2)

let test_sampled_zero_steps () =
  (* zero periods: the initial state alone, no inputs, no dense states *)
  let sys = make_decay () in
  let calls = ref 0 in
  let controller _ = incr calls; [| 1.0 |] in
  let trace = Sampled_system.simulate sys ~controller ~x0:[| 0.5 |] ~steps:0 in
  Alcotest.(check int) "states" 1 (Array.length trace.Sampled_system.states);
  Alcotest.(check int) "inputs" 0 (Array.length trace.Sampled_system.inputs);
  Alcotest.(check int) "dense" 0 (Array.length trace.Sampled_system.dense);
  Alcotest.(check int) "controller not called" 0 !calls

let test_sampled_dense_layout () =
  (* each period contributes substeps + 1 states, both endpoints *)
  let sys = make_decay () in
  let trace =
    Sampled_system.simulate ~substeps:4 sys ~controller:(fun _ -> [| 1.0 |]) ~x0:[| 0.0 |]
      ~steps:3
  in
  let dense = trace.Sampled_system.dense in
  Alcotest.(check int) "dense length" 15 (Array.length dense);
  Array.iteri
    (fun k s ->
      if k < 3 then
        Alcotest.(check (array (float 0.0))) "period start" s dense.(k * 5);
      if k > 0 then
        Alcotest.(check (array (float 0.0))) "period end" s dense.((k * 5) - 1))
    trace.Sampled_system.states

let test_field_bound () =
  let sys = make_decay () in
  (* |f| = |-x + u| over x in [-2, 1], u in [0, 1]: max |(-(-2)) + 1| = 3 *)
  let b = Sampled_system.field_bound sys ~x:[| I.make (-2.0) 1.0 |] ~u:[| I.make 0.0 1.0 |] in
  Alcotest.(check (float 1e-12)) "bound" 3.0 b

let test_make_validation () =
  Alcotest.check_raises "bad delta" (Invalid_argument "Sampled_system.make: delta must be positive")
    (fun () -> ignore (Sampled_system.make ~f:[| Expr.var 0 |] ~n:1 ~m:0 ~delta:0.0));
  Alcotest.check_raises "arity" (Invalid_argument "Sampled_system.make: |f| must equal n")
    (fun () -> ignore (Sampled_system.make ~f:[| Expr.var 0 |] ~n:2 ~m:0 ~delta:0.1))

module Rk45 = Dwv_ode.Rk45

let rk45_ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "rk45 failed: %s" (Dwv_robust.Dwv_error.to_string e)

let test_rk45_exponential () =
  let f = [| Expr.neg (Expr.var 0) |] in
  let x, stats = rk45_ok (Rk45.integrate ~f ~u:[||] ~duration:2.0 [| 1.0 |]) in
  Alcotest.(check (float 1e-8)) "e^-2" (exp (-2.0)) x.(0);
  Alcotest.(check bool) "accepted steps" true (stats.Rk45.steps_accepted > 0)

let test_rk45_harmonic_long () =
  (* one full period of the harmonic oscillator: x returns to start *)
  let f = [| Expr.var 1; Expr.neg (Expr.var 0) |] in
  let x, _ =
    rk45_ok (Rk45.integrate ~rtol:1e-10 ~f ~u:[||] ~duration:(2.0 *. Float.pi) [| 1.0; 0.0 |])
  in
  Alcotest.(check (float 1e-6)) "x1 returns" 1.0 x.(0);
  Alcotest.(check (float 1e-6)) "x2 returns" 0.0 x.(1)

let test_rk45_matches_rk4 () =
  let f = Dwv_systems.Oscillator.dynamics in
  let u = [| 0.4 |] in
  let x0 = [| -0.5; 0.5 |] in
  let reference = Rk4.integrate ~f:(Expr.compile f) ~u ~duration:1.0 ~substeps:2000 x0 in
  let adaptive, _ = rk45_ok (Rk45.integrate ~rtol:1e-10 ~atol:1e-12 ~f ~u ~duration:1.0 x0) in
  Alcotest.(check (float 1e-7)) "x1 agrees" reference.(0) adaptive.(0);
  Alcotest.(check (float 1e-7)) "x2 agrees" reference.(1) adaptive.(1)

let test_rk45_adapts_step () =
  (* a loose tolerance must take far fewer steps than a tight one *)
  let f = [| Expr.(mul (neg (var 0)) (cos_ (var 0))) |] in
  let _, loose = rk45_ok (Rk45.integrate ~rtol:1e-4 ~f ~u:[||] ~duration:5.0 [| 1.0 |]) in
  let _, tight = rk45_ok (Rk45.integrate ~rtol:1e-12 ~f ~u:[||] ~duration:5.0 [| 1.0 |]) in
  Alcotest.(check bool) "fewer steps when loose" true
    (loose.Rk45.steps_accepted < tight.Rk45.steps_accepted)

let test_rk45_step_budget_is_a_value () =
  (* an impossible budget must come back as a structured error, not kill
     the caller with an exception *)
  let f = [| Expr.neg (Expr.var 0) |] in
  match Rk45.integrate ~max_steps:2 ~h0:1e-6 ~f ~u:[||] ~duration:10.0 [| 1.0 |] with
  | Ok _ -> Alcotest.fail "expected budget exhaustion"
  | Error e ->
    Alcotest.(check string) "taxonomy" "budget" (Dwv_robust.Dwv_error.kind_name e)

let prop_linear_decay_matches_exact =
  QCheck.Test.make ~name:"rk4 matches exact linear solution" ~count:100
    QCheck.(pair (float_range (-2.0) 2.0) (float_range 0.1 1.0))
    (fun (x0, t) ->
      let f = [| Expr.scale (-0.5) (Expr.var 0) |] in
      let x = Rk4.integrate ~f:(Expr.compile f) ~u:[||] ~duration:t ~substeps:30 [| x0 |] in
      Float.abs (x.(0) -. (x0 *. exp (-0.5 *. t))) < 1e-8)

(* ---------------- golden simulation digests ---------------- *)

(* Pins the numeric simulator and everything that runs on it across
   refactors: each digest hashes the [%h] text of every float of a
   trace (states, inputs, dense substeps), of a falsifier counterexample,
   or the determinism keys of a seeded fuzz campaign. The constants were
   recorded against the tree-walking [Expr.eval] simulator. *)

module Acc = Dwv_systems.Acc
module Oscillator = Dwv_systems.Oscillator
module Scenario = Dwv_scenario.Scenario
module Scn_fuzz = Dwv_scenario.Scn_fuzz
module Falsifier = Dwv_core.Falsifier
module Spec = Dwv_core.Spec
module Rng = Dwv_util.Rng

let add_floats b xs =
  Array.iter (fun x -> Buffer.add_string b (Printf.sprintf "%h," x)) xs;
  Buffer.add_char b '|'

let trace_digest (tr : Sampled_system.trace) =
  let b = Buffer.create 65536 in
  Array.iter (add_floats b) tr.Sampled_system.states;
  Buffer.add_char b '#';
  Array.iter (add_floats b) tr.Sampled_system.inputs;
  Buffer.add_char b '#';
  Array.iter (add_floats b) tr.Sampled_system.dense;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* A DSL plant exercising every numeric node kind, with an uncertain
   parameter (x2) riding in the simulation state. *)
let golden_scenario =
  lazy
    (Scenario.of_string
       {|(scenario
 (name golden-sim)
 (dim 2)
 (inputs 1)
 (delta 0.05)
 (steps 20)
 (dynamics
  "x1 - 0.2 * x0^3"
  "-sin(x0) * x2 + 0.3 * cos(x1) - 0.1 * exp(-x0^2) + tanh(u0) / (1 + x1^2)")
 (init (0.4 0.5) (-0.2 -0.1))
 (goal (-1 1) (-1 1))
 (params (0.8 1.2))
 (controller (affine (-0.5 -0.8 0.1 0.05)))
 (method (taylor (order 3))))|})

let golden_osc_controller =
  lazy (Oscillator.pretrained_controller (Rng.create 1))

let golden_sim =
  [
    ( "acc linear",
      "748a0abe9a3cb538cf2508c6eefea3b8",
      fun () ->
        let c = Acc.initial_controller in
        trace_digest
          (Sampled_system.simulate Acc.sampled ~controller:(Acc.sim_controller c)
             ~x0:[| 123.3; 49.1 |] ~steps:Acc.steps) );
    ( "oscillator nn",
      "1eaea551a7e854029c8ec49a70a27703",
      fun () ->
        let c = Lazy.force golden_osc_controller in
        trace_digest
          (Sampled_system.simulate ~substeps:7 Oscillator.sampled
             ~controller:(Oscillator.sim_controller c) ~x0:[| -0.45; 0.42 |]
             ~steps:Oscillator.steps) );
    ( "dsl all node kinds",
      "c7004a0d7e8d47286bee56123bf9cc8c",
      fun () ->
        let scn = Lazy.force golden_scenario in
        let c = Scenario.make_controller scn (Rng.create 1) in
        trace_digest
          (Sampled_system.simulate (Scenario.sampled scn)
             ~controller:(Scenario.sim scn c) ~x0:[| 0.45; -0.15; 1.1 |]
             ~steps:scn.Scenario.steps) );
    ( "falsifier counterexample",
      "88822db3e36a80e7c5bb7aef5e2bd6f0",
      fun () ->
        let c = Acc.initial_controller in
        match
          Falsifier.search ~attempts:10 ~rng:(Rng.create 7) ~sys:Acc.sampled
            ~controller:(Acc.sim_controller c) ~spec:Acc.spec
            ~property:Falsifier.Goal_reaching ()
        with
        | None -> "none"
        | Some cx ->
          let b = Buffer.create 256 in
          add_floats b cx.Falsifier.x0;
          add_floats b [| cx.Falsifier.robustness |];
          Digest.to_hex (Digest.string (Buffer.contents b)) );
    ( "fuzz seed 42",
      "aa01f6c05a7dad5c6926705eea092998",
      fun () ->
        let r = Scn_fuzz.run ~count:50 ~seed:42 () in
        Digest.to_hex
          (Digest.string
             (String.concat "\n"
                (Array.to_list (Array.map Scn_fuzz.determinism_key r.Scn_fuzz.records))))
    );
  ]

let test_golden_simulation () =
  let got = List.map (fun (name, _, digest) -> (name, digest ())) golden_sim in
  Alcotest.(check (list (pair string string)))
    "simulation digests"
    (List.map (fun (name, expected, _) -> (name, expected)) golden_sim)
    got

let suite =
  [
    Alcotest.test_case "rk4 exponential" `Quick test_rk4_exponential_decay;
    Alcotest.test_case "rk4 harmonic" `Quick test_rk4_harmonic;
    Alcotest.test_case "rk4 controlled" `Quick test_rk4_controlled;
    Alcotest.test_case "rk4 4th order" `Quick test_rk4_fourth_order_convergence;
    Alcotest.test_case "rk4 dense endpoints" `Quick test_rk4_dense_endpoints;
    Alcotest.test_case "rk4 substeps guard" `Quick test_rk4_substeps_guard;
    Alcotest.test_case "sampled simulate" `Quick test_sampled_simulate_zoh;
    Alcotest.test_case "sampled ZOH hold" `Quick test_sampled_zoh_holds_input;
    Alcotest.test_case "sampled inputs recorded" `Quick test_sampled_trace_inputs_recorded;
    Alcotest.test_case "sampled zero steps" `Quick test_sampled_zero_steps;
    Alcotest.test_case "sampled dense layout" `Quick test_sampled_dense_layout;
    Alcotest.test_case "field bound" `Quick test_field_bound;
    Alcotest.test_case "make validation" `Quick test_make_validation;
    QCheck_alcotest.to_alcotest prop_linear_decay_matches_exact;
    Alcotest.test_case "rk45 exponential" `Quick test_rk45_exponential;
    Alcotest.test_case "rk45 harmonic period" `Quick test_rk45_harmonic_long;
    Alcotest.test_case "rk45 matches rk4" `Quick test_rk45_matches_rk4;
    Alcotest.test_case "rk45 adapts step" `Quick test_rk45_adapts_step;
    Alcotest.test_case "rk45 step budget" `Quick test_rk45_step_budget_is_a_value;
    Alcotest.test_case "golden simulation digests" `Quick test_golden_simulation;
  ]
