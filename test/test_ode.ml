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
  (* one streamed period: the start state, then every RK4 substep *)
  let f = [| Expr.neg (Expr.var 0) |] in
  let sys = Sampled_system.make ~f ~n:1 ~m:0 ~delta:1.0 in
  let states = ref [] in
  Sampled_system.stream sys ~controller:(fun _ -> [||]) ~x0:[| 2.0 |] ~steps:1 (fun x ->
      states := Array.copy x :: !states);
  let states = Array.of_list (List.rev !states) in
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

let test_rk4_matches_closed_form () =
  (* forced harmonic oscillator x1' = x2, x2' = -x1 + u under a held
     input: x1 = u + (x1(0) - u) cos t + x2(0) sin t,
     x2 = -(x1(0) - u) sin t + x2(0) cos t *)
  let f = [| Expr.var 1; Expr.(add (neg (var 0)) (input 0)) |] in
  let u = 0.4 and a = -0.5 and b = 0.5 and t = 1.0 in
  let x = Rk4.integrate ~f:(Expr.compile f) ~u:[| u |] ~duration:t ~substeps:200 [| a; b |] in
  Alcotest.(check (float 1e-10)) "x1" (u +. ((a -. u) *. cos t) +. (b *. sin t)) x.(0);
  Alcotest.(check (float 1e-10)) "x2" (-.((a -. u) *. sin t) +. (b *. cos t)) x.(1);
  (* logistic x' = x - x^2: x = x0 e^t / (1 - x0 + x0 e^t) *)
  let f = [| Expr.(sub (var 0) (pow (var 0) 2)) |] in
  let x0 = 0.2 and t = 2.0 in
  let x = Rk4.integrate ~f:(Expr.compile f) ~u:[||] ~duration:t ~substeps:200 [| x0 |] in
  Alcotest.(check (float 1e-10)) "logistic"
    (x0 *. exp t /. (1.0 -. x0 +. (x0 *. exp t)))
    x.(0)

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
   the determinism keys of a seeded fuzz campaign, or the text of the
   scenarios the fuzzer generates. The constants were
   recorded against the tree-walking [Expr.eval] simulator. *)

module Acc = Dwv_systems.Acc
module Oscillator = Dwv_systems.Oscillator
module Scenario = Dwv_systems.Scenario
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
    (* the generator's goal and avoid boxes follow its nominal rollout *)
    ( "fuzz scenarios seed 42",
      "dd97b70513f810272abbf2ab7f83c25e",
      fun () ->
        let rng = Rng.create 42 in
        Digest.to_hex
          (Digest.string
             (String.concat "\n"
                (List.init 50 (fun i -> Scenario.to_string (Scn_fuzz.generate rng i))))) );
  ]

let test_golden_simulation () =
  let got = List.map (fun (name, _, digest) -> (name, digest ())) golden_sim in
  Alcotest.(check (list (pair string string)))
    "simulation digests"
    (List.map (fun (name, expected, _) -> (name, expected)) golden_sim)
    got

(* A controller that returns its own argument (u = x, m = n): the input
   it holds for a period must be the state at the period start, not the
   buffer the steps go on to overwrite. The digest was recorded on the
   simulator that built every state as a fresh array. *)
let test_controller_returns_argument () =
  let sys =
    Sampled_system.make
      ~f:Expr.[| add (var 1) (scale 0.5 (input 0)); sub (neg (var 0)) (scale 0.3 (input 1)) |]
      ~n:2 ~m:2 ~delta:0.1
  in
  let tr = Sampled_system.simulate ~substeps:5 sys ~controller:Fun.id ~x0:[| 0.3; -0.2 |] ~steps:12 in
  Alcotest.(check string) "trace digest" "44b881b22ed029d6b1f965ff102ec07c" (trace_digest tr);
  Array.iteri
    (fun k u -> Alcotest.(check (array (float 0.0))) "input is the period start" tr.Sampled_system.states.(k) u)
    tr.Sampled_system.inputs

(* The streamed loop allocates its scratch once per call: with a
   controller and a callback that allocate nothing, 400 periods cost
   the same minor words as 4. *)
let test_stream_allocation_per_call () =
  let sys = make_decay () in
  let u = [| 0.5 |] in
  let controller _ = u and emit (_ : float array) = () in
  let words steps =
    let w0 = Gc.minor_words () in
    Sampled_system.stream sys ~controller ~x0:[| 2.0 |] ~steps emit;
    Gc.minor_words () -. w0
  in
  ignore (words 1);
  Alcotest.(check (float 0.0)) "independent of the horizon" (words 4) (words 400)

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
    Alcotest.test_case "stream allocates per call" `Quick test_stream_allocation_per_call;
    Alcotest.test_case "field bound" `Quick test_field_bound;
    Alcotest.test_case "make validation" `Quick test_make_validation;
    QCheck_alcotest.to_alcotest prop_linear_decay_matches_exact;
    Alcotest.test_case "rk4 matches closed form" `Quick test_rk4_matches_closed_form;
    Alcotest.test_case "golden simulation digests" `Quick test_golden_simulation;
    Alcotest.test_case "controller returns its argument" `Quick test_controller_returns_argument;
  ]
