(* Tests for dwv_reach: flowpipe soundness against dense simulation (the
   cardinal property: every simulated trajectory stays inside the
   enclosures), linear/nonlinear verifiers, NN abstractions, verdicts. *)

module Expr = Dwv_expr.Expr
module I = Dwv_interval.Interval
module Box = Dwv_interval.Box
module Mat = Dwv_la.Mat
module Flowpipe = Dwv_reach.Flowpipe
module Linear_reach = Dwv_reach.Linear_reach
module Taylor_reach = Dwv_reach.Taylor_reach
module Verifier = Dwv_reach.Verifier
module Nn_reach_taylor = Dwv_reach.Nn_reach_taylor
module Nn_reach_bernstein = Dwv_reach.Nn_reach_bernstein
module Tm = Dwv_taylor.Taylor_model
module Tm_vec = Dwv_taylor.Tm_vec
module Mlp = Dwv_nn.Mlp
module Activation = Dwv_nn.Activation
module Rng = Dwv_util.Rng

(* ---------------- flowpipe basics ---------------- *)

let box2 lo0 hi0 lo1 hi1 = Box.make ~lo:[| lo0; lo1 |] ~hi:[| hi0; hi1 |]

let test_flowpipe_accessors () =
  let pipe =
    Flowpipe.make
      ~step_boxes:[| box2 0.0 1.0 0.0 1.0; box2 1.0 2.0 0.0 1.0 |]
      ~segment_boxes:[| box2 0.0 2.0 0.0 1.0 |]
      ~delta:0.1 ~diverged:false
  in
  Alcotest.(check int) "steps" 1 (Flowpipe.steps pipe);
  Alcotest.(check bool) "final" true (Box.equal (Flowpipe.final_box pipe) (box2 1.0 2.0 0.0 1.0));
  Alcotest.(check int) "all boxes" 1 (List.length (Flowpipe.all_boxes pipe))

let test_flowpipe_project () =
  let b3 = Box.make ~lo:[| 0.0; 1.0; 2.0 |] ~hi:[| 1.0; 2.0; 3.0 |] in
  let pipe = Flowpipe.make ~step_boxes:[| b3 |] ~segment_boxes:[||] ~delta:0.1 ~diverged:false in
  let p = Flowpipe.project ~dims:[| 0; 2 |] pipe in
  Alcotest.(check int) "projected dim" 2 (Box.dim (Flowpipe.final_box p));
  Alcotest.(check bool) "kept dims" true
    (Box.equal (Flowpipe.final_box p) (Box.make ~lo:[| 0.0; 2.0 |] ~hi:[| 1.0; 3.0 |]))

(* ---------------- linear reach ---------------- *)

(* the ACC-like affine testbed: a stable scalar system x' = -x + u *)
let scalar_sys = { Linear_reach.a = Mat.of_rows [ [| -1.0 |] ]; b = Mat.of_rows [ [| 1.0 |] ] }

let test_discretize_scalar () =
  let ad, bd = Linear_reach.discretize ~delta:0.5 scalar_sys in
  Alcotest.(check (float 1e-10)) "Ad" (exp (-0.5)) (Mat.get ad 0 0);
  Alcotest.(check (float 1e-10)) "Bd" (1.0 -. exp (-0.5)) (Mat.get bd 0 0)

let test_linear_flowpipe_sound_vs_simulation () =
  (* double integrator with stabilizing feedback; every simulated
     trajectory from X0 must stay inside the segment boxes *)
  let sys =
    { Linear_reach.a = Mat.of_rows [ [| 0.0; 1.0 |]; [| 0.0; 0.0 |] ];
      b = Mat.of_rows [ [| 0.0 |]; [| 1.0 |] ] }
  in
  let gain = Mat.of_rows [ [| -1.0; -1.5 |] ] in
  let x0 = box2 0.9 1.1 (-0.1) 0.1 in
  let delta = 0.1 and steps = 30 in
  let pipe = Linear_reach.flowpipe ~sys ~gain ~x0 ~delta ~steps () in
  Alcotest.(check bool) "completes" false (Flowpipe.diverged pipe);
  let f = [| Expr.var 1; Expr.input 0 |] in
  let sampled = Dwv_ode.Sampled_system.make ~f ~n:2 ~m:1 ~delta in
  let controller x = Mat.matvec gain x in
  let rng = Rng.create 99 in
  let segments = Array.of_list (Flowpipe.segment_boxes pipe) in
  for _ = 1 to 20 do
    let x0p = Box.sample rng x0 in
    let trace = Dwv_ode.Sampled_system.simulate ~substeps:8 sampled ~controller ~x0:x0p ~steps in
    Array.iteri
      (fun k x ->
        if k < steps then begin
          (* state at start of period k must be inside segment k *)
          if not (Box.contains (Box.bloat 1e-7 segments.(k)) x) then
            Alcotest.failf "trajectory escaped segment %d" k
        end)
      trace.Dwv_ode.Sampled_system.states
  done

let test_linear_flowpipe_contracts () =
  let gain = Mat.of_rows [ [| 0.0 |] ] in
  let pipe =
    Linear_reach.flowpipe ~sys:scalar_sys ~gain ~x0:(Box.make ~lo:[| 1.0 |] ~hi:[| 2.0 |])
      ~delta:0.1 ~steps:50 ()
  in
  (* x' = -x contracts toward zero *)
  let final = Flowpipe.final_box pipe in
  Alcotest.(check bool) "contracted" true (I.hi (Box.get final 0) < 0.05);
  Alcotest.(check bool) "stays positive" true (I.lo (Box.get final 0) > 0.0)

let test_linear_flowpipe_divergence_flag () =
  (* unstable closed loop must trip the blow-up detector *)
  let gain = Mat.of_rows [ [| 10.0 |] ] in
  let pipe =
    Linear_reach.flowpipe ~blowup_width:1e3 ~sys:scalar_sys ~gain
      ~x0:(Box.make ~lo:[| 1.0 |] ~hi:[| 1.1 |]) ~delta:0.5 ~steps:100 ()
  in
  Alcotest.(check bool) "diverged" true (Flowpipe.diverged pipe)

let test_intersample_enclosure_covers_flow () =
  (* x' = -x from [1, 1.2], u = 0: x(t) stays in [e^-delta * 1, 1.2] *)
  let x_box = Box.make ~lo:[| 1.0 |] ~hi:[| 1.2 |] in
  let x_next = Box.make ~lo:[| 1.0 *. exp (-0.2) |] ~hi:[| 1.2 *. exp (-0.2) |] in
  let u_box = Box.make ~lo:[| 0.0 |] ~hi:[| 0.0 |] in
  match
    Linear_reach.intersample_enclosure scalar_sys ~x_box ~x_next_box:x_next ~u_box ~delta:0.2
  with
  | None -> Alcotest.fail "expected an enclosure"
  | Some seg ->
    List.iter
      (fun t ->
        List.iter
          (fun x0 ->
            let x = x0 *. exp (-.t) in
            Alcotest.(check bool) "flow covered" true (Box.contains (Box.bloat 1e-9 seg) [| x |]))
          [ 1.0; 1.1; 1.2 ])
      [ 0.0; 0.05; 0.1; 0.15; 0.2 ]

(* ---------------- Taylor reach ---------------- *)

let test_lie_table_sizes () =
  let f = [| Expr.var 1; Expr.neg (Expr.var 0) |] in
  let lie = Taylor_reach.lie_table ~f ~order:3 in
  Alcotest.(check int) "rows" 5 (Array.length lie);
  (* harmonic oscillator: L^2 x0 = -x0 *)
  Alcotest.(check (float 1e-12)) "L2 x0" (-0.4)
    (Expr.eval lie.(2).(0) ~x:[| 0.4; 0.0 |] ~u:[||])

let test_apriori_enclosure_exists () =
  let f = [| Expr.neg (Expr.var 0) |] in
  let x_box = Box.make ~lo:[| 1.0 |] ~hi:[| 1.1 |] in
  match Taylor_reach.apriori_enclosure ~f ~x_box ~u_box:[||] ~delta:0.1 () with
  | None -> Alcotest.fail "no enclosure"
  | Some e ->
    Alcotest.(check bool) "contains start" true (Box.subset x_box (Box.bloat 1e-9 e));
    Alcotest.(check bool) "bounded" true (Box.max_width e < 1.0)

let test_taylor_step_matches_exponential () =
  (* x' = -x: one validated step must enclose the exact flow *)
  let f = [| Expr.neg (Expr.var 0) |] in
  let lie = Taylor_reach.lie_table ~f ~order:4 in
  let x0 = Box.make ~lo:[| 1.0 |] ~hi:[| 1.2 |] in
  let x = Tm_vec.of_box ~order:4 x0 in
  match Taylor_reach.step ~f ~lie ~delta:0.1 x [||] with
  | Error _ -> Alcotest.fail "step failed"
  | Ok { state; segment; _ } ->
    let final = Tm_vec.bound_box state in
    List.iter
      (fun x0p ->
        let exact = x0p *. exp (-0.1) in
        Alcotest.(check bool) "final encloses exact" true
          (Box.contains (Box.bloat 1e-9 final) [| exact |]);
        (* dense flow within the segment *)
        List.iter
          (fun t ->
            Alcotest.(check bool) "segment encloses flow" true
              (Box.contains (Box.bloat 1e-9 segment) [| x0p *. exp (-.t) |]))
          [ 0.0; 0.03; 0.07; 0.1 ])
      [ 1.0; 1.1; 1.2 ];
    (* the enclosure should also be TIGHT: width within 2x of the exact image *)
    let exact_width = 0.2 *. exp (-0.1) in
    Alcotest.(check bool) "tight" true (Box.max_width final < 2.0 *. exact_width)

let test_taylor_step_nonlinear_sound () =
  (* Van der Pol with constant u: validated step vs RK4 samples *)
  let f = Dwv_systems.Oscillator.dynamics in
  let lie = Taylor_reach.lie_table ~f ~order:4 in
  let x0 = box2 (-0.51) (-0.49) 0.49 0.51 in
  let x = Tm_vec.of_box ~order:4 x0 in
  let u_val = 0.3 in
  let u = [| Tm.const ~nvars:2 ~order:4 u_val |] in
  match Taylor_reach.step ~f ~lie ~delta:0.1 x u with
  | Error _ -> Alcotest.fail "step failed"
  | Ok { state; _ } ->
    let final = Tm_vec.bound_box state in
    let rng = Rng.create 5 in
    for _ = 1 to 30 do
      let p = Box.sample rng x0 in
      let xe = Dwv_ode.Rk4.integrate ~f:(Expr.compile f) ~u:[| u_val |] ~duration:0.1 ~substeps:50 p in
      Alcotest.(check bool) "rk4 point inside" true (Box.contains (Box.bloat 1e-6 final) xe)
    done

(* ---------------- NN abstractions ---------------- *)

let small_net seed =
  Mlp.create ~sizes:[ 2; 4; 1 ] ~acts:[ Activation.Tanh; Activation.Tanh ] (Rng.create seed)

let check_control_models_sound ~make_models seed =
  let net = small_net seed in
  let x0 = box2 (-0.5) (-0.3) 0.2 0.4 in
  let x = Tm_vec.of_box ~order:3 x0 in
  let u = make_models ~net x in
  let rng = Rng.create (seed + 1) in
  for _ = 1 to 50 do
    (* pick z in [-1,1]^2, map to the box, compare with the model at z *)
    let z = [| Rng.uniform rng ~lo:(-1.0) ~hi:1.0; Rng.uniform rng ~lo:(-1.0) ~hi:1.0 |] in
    let p = Box.denormalize x0 z in
    let truth = 2.0 *. (Mlp.forward net p).(0) in
    let enclosure = I.widen ~eps:1e-9 (Tm.eval u.(0) z) in
    if not (I.contains enclosure truth) then
      Alcotest.failf "control model unsound: %g not in %a" truth I.pp enclosure
  done

let test_polar_models_sound () =
  check_control_models_sound 3
    ~make_models:(fun ~net x -> Nn_reach_taylor.control_models ~net ~output_scale:2.0 x)

let test_bernstein_models_sound () =
  check_control_models_sound 4 ~make_models:(fun ~net x ->
      Nn_reach_bernstein.control_models ~net ~output_scale:2.0
        ~config:(Nn_reach_bernstein.default_config ~n:2) x)

let test_polar_models_relu_sound () =
  let net = Mlp.create ~sizes:[ 2; 4; 1 ] ~acts:[ Activation.Relu; Activation.Tanh ] (Rng.create 8) in
  let x0 = box2 (-0.2) 0.2 (-0.2) 0.2 in
  let x = Tm_vec.of_box ~order:3 x0 in
  let u = Nn_reach_taylor.control_models ~net ~output_scale:1.5 x in
  let rng = Rng.create 9 in
  for _ = 1 to 50 do
    let z = [| Rng.uniform rng ~lo:(-1.0) ~hi:1.0; Rng.uniform rng ~lo:(-1.0) ~hi:1.0 |] in
    let p = Box.denormalize x0 z in
    let truth = 1.5 *. (Mlp.forward net p).(0) in
    Alcotest.(check bool) "relu model sound" true
      (I.contains (I.widen ~eps:1e-9 (Tm.eval u.(0) z)) truth)
  done

(* Soundness fuzzing: random stable gains and random initial points must
   always stay inside the flowpipe of the linear verifier. *)
let prop_linear_flowpipe_sound_fuzz =
  QCheck.Test.make ~name:"linear flowpipe soundness (random gains)" ~count:25
    QCheck.(triple (float_range 0.2 2.0) (float_range 0.5 2.5) (int_range 0 1000))
    (fun (k1, k2, seed) ->
      let sys =
        { Linear_reach.a = Mat.of_rows [ [| 0.0; 1.0 |]; [| 0.0; 0.0 |] ];
          b = Mat.of_rows [ [| 0.0 |]; [| 1.0 |] ] }
      in
      let gain = Mat.of_rows [ [| -.k1; -.k2 |] ] in
      let x0 = box2 0.9 1.1 (-0.1) 0.1 in
      let steps = 10 and delta = 0.1 in
      let pipe = Linear_reach.flowpipe ~sys ~gain ~x0 ~delta ~steps () in
      (not (Flowpipe.diverged pipe))
      &&
      let f = [| Expr.var 1; Expr.input 0 |] in
      let sampled = Dwv_ode.Sampled_system.make ~f ~n:2 ~m:1 ~delta in
      let controller x = Mat.matvec gain x in
      let rng = Rng.create seed in
      let p = Box.sample rng x0 in
      let trace = Dwv_ode.Sampled_system.simulate ~substeps:6 sampled ~controller ~x0:p ~steps in
      let boxes = Array.of_list (Flowpipe.step_boxes pipe) in
      Array.for_all
        (fun k -> Box.contains (Box.bloat 1e-6 boxes.(k)) trace.Dwv_ode.Sampled_system.states.(k))
        (Array.init (steps + 1) Fun.id))

(* Soundness fuzzing of the validated Taylor step on the Van der Pol field
   with random constant inputs. *)
let prop_taylor_step_sound_fuzz =
  QCheck.Test.make ~name:"taylor step soundness (random inputs)" ~count:25
    QCheck.(pair (float_range (-2.0) 2.0) (int_range 0 1000))
    (fun (u_val, seed) ->
      let f = Dwv_systems.Oscillator.dynamics in
      let lie = Taylor_reach.lie_table ~f ~order:4 in
      let x0 = box2 (-0.55) (-0.45) 0.45 0.55 in
      let x = Tm_vec.of_box ~order:4 x0 in
      let u = [| Tm.const ~nvars:2 ~order:4 u_val |] in
      match Taylor_reach.step ~f ~lie ~delta:0.1 x u with
      | Error _ -> false
      | Ok { state; segment; _ } ->
        let final = Tm_vec.bound_box state in
        let rng = Rng.create seed in
        let p = Box.sample rng x0 in
        let exact = Dwv_ode.Rk4.integrate ~f:(Expr.compile f) ~u:[| u_val |] ~duration:0.1 ~substeps:50 p in
        Box.contains (Box.bloat 1e-6 final) exact
        && Box.contains (Box.bloat 1e-6 segment) exact
        && Box.contains (Box.bloat 1e-6 segment) p)

(* ---------------- interval-only ablation ---------------- *)

module Interval_reach = Dwv_reach.Interval_reach

let test_interval_reach_sound_short_horizon () =
  (* on a short horizon the box flowpipe is sound vs simulation *)
  let f = [| Expr.(add (neg (pow (var 0) 3)) (input 0)) |] in
  let rng = Rng.create 21 in
  let net = Mlp.create ~sizes:[ 1; 4; 1 ] ~acts:[ Activation.Tanh; Activation.Tanh ] rng in
  let x0 = Box.make ~lo:[| 0.4 |] ~hi:[| 0.5 |] in
  let pipe =
    Interval_reach.nn_flowpipe ~order:3 ~f ~delta:0.1 ~steps:5 ~net ~output_scale:1.0 ~x0 ()
  in
  Alcotest.(check bool) "completes" false (Flowpipe.diverged pipe);
  let sampled = Dwv_ode.Sampled_system.make ~f ~n:1 ~m:1 ~delta:0.1 in
  let controller x = [| (Mlp.forward net x).(0) |] in
  let boxes = Array.of_list (Flowpipe.step_boxes pipe) in
  for _ = 1 to 20 do
    let p = Box.sample rng x0 in
    let trace = Dwv_ode.Sampled_system.simulate ~substeps:20 sampled ~controller ~x0:p ~steps:5 in
    Array.iteri
      (fun k x ->
        Alcotest.(check bool) "enclosed" true (Box.contains (Box.bloat 1e-6 boxes.(k)) x))
      trace.Dwv_ode.Sampled_system.states
  done

let test_interval_reach_wraps_where_tm_does_not () =
  (* the wrapping-effect ablation: on the oscillator the box iteration is
     dramatically looser than the Taylor-model pipe over the same horizon *)
  let module Oscillator = Dwv_systems.Oscillator in
  let init =
    Oscillator.pretrained_controller
      ~config:{ Dwv_nn.Pretrain.default_config with epochs = 100 }
      (Rng.create 1)
  in
  let net, output_scale =
    match init with
    | Dwv_core.Controller.Net { net; output_scale } -> (net, output_scale)
    | _ -> assert false
  in
  let steps = 14 in
  let box_pipe =
    Interval_reach.nn_flowpipe ~order:3 ~f:Oscillator.dynamics ~delta:0.1 ~steps ~net
      ~output_scale ~x0:Oscillator.spec.Dwv_core.Spec.x0 ()
  in
  let tm_pipe =
    Verifier.nn_flowpipe ~order:3 ~f:Oscillator.dynamics ~delta:0.1 ~steps ~net ~output_scale
      ~method_:Verifier.Polar ~x0:Oscillator.spec.Dwv_core.Spec.x0 ()
  in
  Alcotest.(check bool) "tm pipe tight" true (Flowpipe.final_width tm_pipe < 0.1);
  Alcotest.(check bool) "box pipe much looser (or diverged)" true
    (Flowpipe.diverged box_pipe
    || Flowpipe.final_width box_pipe > 3.0 *. Flowpipe.final_width tm_pipe)

(* ---------------- verdicts ---------------- *)

let mk_pipe boxes =
  Flowpipe.make ~step_boxes:(Array.of_list boxes)
    ~segment_boxes:(Array.of_list (List.tl boxes))
    ~delta:0.1 ~diverged:false

let test_check_reach_avoid () =
  let goal = box2 4.0 6.0 4.0 6.0 and unsafe = box2 10.0 11.0 10.0 11.0 in
  let pipe = mk_pipe [ box2 0.0 1.0 0.0 1.0; box2 2.0 3.0 2.0 3.0; box2 4.5 5.5 4.5 5.5 ] in
  Alcotest.(check bool) "reach-avoid" true (Verifier.check ~unsafe ~goal pipe = Verifier.Reach_avoid);
  Alcotest.(check (option int)) "goal step" (Some 2) (Verifier.goal_step ~goal pipe)

let test_check_unsafe () =
  let goal = box2 4.0 6.0 4.0 6.0 and unsafe = box2 1.5 3.5 1.5 3.5 in
  let pipe = mk_pipe [ box2 0.0 1.0 0.0 1.0; box2 2.0 3.0 2.0 3.0 ] in
  Alcotest.(check bool) "certainly unsafe" true (Verifier.check ~unsafe ~goal pipe = Verifier.Unsafe)

let test_check_unknown_graze () =
  (* touches the unsafe set without being contained: inconclusive *)
  let goal = box2 4.0 6.0 4.0 6.0 and unsafe = box2 2.5 3.5 2.5 3.5 in
  let pipe = mk_pipe [ box2 0.0 1.0 0.0 1.0; box2 2.0 3.0 2.0 3.0; box2 4.5 5.5 4.5 5.5 ] in
  Alcotest.(check bool) "unknown" true (Verifier.check ~unsafe ~goal pipe = Verifier.Unknown)

let test_check_unknown_no_goal () =
  let goal = box2 40.0 60.0 40.0 60.0 and unsafe = box2 10.0 11.0 10.0 11.0 in
  let pipe = mk_pipe [ box2 0.0 1.0 0.0 1.0; box2 2.0 3.0 2.0 3.0 ] in
  Alcotest.(check bool) "unknown" true (Verifier.check ~unsafe ~goal pipe = Verifier.Unknown)

let test_initial_set_does_not_count_as_goal () =
  (* the initial box sitting in the goal must not satisfy goal-reaching *)
  let goal = box2 0.0 1.0 0.0 1.0 in
  let pipe = mk_pipe [ box2 0.2 0.8 0.2 0.8; box2 5.0 6.0 5.0 6.0 ] in
  Alcotest.(check (option int)) "no goal step" None (Verifier.goal_step ~goal pipe)

(* ---------------- end-to-end NN flowpipe ---------------- *)

let test_nn_flowpipe_sound_vs_simulation () =
  (* stabilized scalar nonlinear system under a tanh net: flowpipe vs
     random rollouts *)
  let f = [| Expr.(add (neg (pow (var 0) 3)) (input 0)) |] in
  let rng = Rng.create 17 in
  let net = Mlp.create ~sizes:[ 1; 4; 1 ] ~acts:[ Activation.Tanh; Activation.Tanh ] rng in
  let x0 = Box.make ~lo:[| 0.4 |] ~hi:[| 0.5 |] in
  let steps = 10 and delta = 0.1 and output_scale = 1.0 in
  let pipe =
    Verifier.nn_flowpipe ~order:3 ~f ~delta ~steps ~net ~output_scale ~method_:Verifier.Polar
      ~x0 ()
  in
  Alcotest.(check bool) "completes" false (Flowpipe.diverged pipe);
  let sampled = Dwv_ode.Sampled_system.make ~f ~n:1 ~m:1 ~delta in
  let controller x = [| output_scale *. (Mlp.forward net x).(0) |] in
  let steps_boxes = Array.of_list (Flowpipe.step_boxes pipe) in
  for _ = 1 to 20 do
    let p = Box.sample rng x0 in
    let trace = Dwv_ode.Sampled_system.simulate ~substeps:20 sampled ~controller ~x0:p ~steps in
    Array.iteri
      (fun k x ->
        Alcotest.(check bool) "simulated state enclosed" true
          (Box.contains (Box.bloat 1e-5 steps_boxes.(k)) x))
      trace.Dwv_ode.Sampled_system.states
  done

(* ---------------- golden flowpipe digests ---------------- *)

(* Pins the zero-order-hold closed loop across refactors: each digest
   hashes the IEEE bits of every step and segment box, the divergence
   flag and the structured error text (failed rungs in ladder order for
   the scenario reports). The constants were recorded before the four
   hand-written closed-loop copies were folded into [Closed_loop]. *)

module Dwv_error = Dwv_robust.Dwv_error
module Scenario = Dwv_systems.Scenario
module Scn_verify = Dwv_scenario.Scn_verify

let pipe_digest pipe errors =
  let b = Buffer.create 4096 in
  let add_box bx =
    Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) (Box.lo bx);
    Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) (Box.hi bx);
    Buffer.add_char b '|'
  in
  List.iter add_box (Flowpipe.step_boxes pipe);
  Buffer.add_char b '#';
  List.iter add_box (Flowpipe.segment_boxes pipe);
  Buffer.add_string b (if Flowpipe.diverged pipe then "diverged" else "complete");
  List.iter (fun e -> Buffer.add_string b (Dwv_error.to_string e)) errors;
  Digest.to_hex (Digest.string (Buffer.contents b))

let outcome_digest (o : Flowpipe.outcome) =
  pipe_digest o.Flowpipe.pipe (Option.to_list o.Flowpipe.error)

let golden_osc =
  lazy
    (let module Oscillator = Dwv_systems.Oscillator in
     match Oscillator.pretrained_controller (Rng.create 1) with
     | Dwv_core.Controller.Net { net; output_scale } -> (net, output_scale)
     | Dwv_core.Controller.Linear _ -> assert false)

let osc_tm_digest ~slots ~substeps method_ =
  let module Oscillator = Dwv_systems.Oscillator in
  let net, output_scale = Lazy.force golden_osc in
  outcome_digest
    (Verifier.nn_flowpipe_outcome ~order:3 ~disturbance_slots:slots ~substeps
       ~f:Oscillator.dynamics ~delta:Oscillator.delta ~steps:Oscillator.steps ~net
       ~output_scale ~method_ ~x0:Oscillator.spec.Dwv_core.Spec.x0 ())

let golden_nn =
  [
    ("polar", "e759c414f09202722559af65bc2a9177", fun () -> osc_tm_digest ~slots:6 ~substeps:1 Verifier.Polar);
    ("polar+tight", "274e0b33081b4d1ef100284d54841b18", fun () -> osc_tm_digest ~slots:12 ~substeps:2 Verifier.Polar);
    ( "reachnn",
      "10ac6d4d7ac962bfc7fbcbabe7a09977",
      fun () ->
        osc_tm_digest ~slots:6 ~substeps:1
          (Verifier.Bernstein (Nn_reach_bernstein.default_config ~n:2)) );
    ( "interval",
      "45ddedab551fd9aaf0abaa3a85934a0f",
      fun () ->
        let module Oscillator = Dwv_systems.Oscillator in
        let net, output_scale = Lazy.force golden_osc in
        outcome_digest
          (Interval_reach.nn_flowpipe_outcome ~order:3 ~f:Oscillator.dynamics
             ~delta:Oscillator.delta ~steps:Oscillator.steps ~net ~output_scale
             ~x0:Oscillator.spec.Dwv_core.Spec.x0 ()) );
  ]

(* The 3-D and pendulum studies through both doors, on the seed-1 warm
   start: the module's robust verifier, and the scenario ladder on the
   study's DSL text. *)
let robust_digest (r : Verifier.fallback_report) =
  pipe_digest r.Verifier.pipe (List.map snd r.Verifier.failures)

let golden_builtins =
  let cases name pretrained verify_robust dsl (module_digest, scenario_digest) =
    let c = lazy (pretrained (Rng.create 1)) in
    [
      ( name ^ " verify_robust",
        module_digest,
        fun () -> robust_digest (verify_robust (Lazy.force c)) );
      ( name ^ " scenario",
        scenario_digest,
        fun () ->
          robust_digest
            (Scn_verify.verify_robust (Scenario.of_string dsl) (Lazy.force c))
              .Scn_verify.fallback );
    ]
  in
  let module Threed = Dwv_systems.Threed in
  let module Pendulum = Dwv_systems.Pendulum in
  cases "threed"
    (fun rng -> Threed.pretrained_controller rng)
    (fun c -> Threed.verify_robust c)
    Threed.dsl
    ("936402f6a985997371c4297d5ed6b497", "936402f6a985997371c4297d5ed6b497")
  @ cases "pendulum"
      (fun rng -> Pendulum.pretrained_controller rng)
      (fun c -> Pendulum.verify_robust c)
      Pendulum.dsl
      ("26cd4bfec86b872a5bf2887d9a6757c3", "26cd4bfec86b872a5bf2887d9a6757c3")

(* Every NN built-in's registry handle verifies through the scenario
   verifiers; its robust flowpipe, failed rungs and winning rung, and its
   plain flowpipe, must equal the study module's own verifiers' bit for
   bit. *)
let test_registry_matches_modules () =
  let module Registry = Dwv_scenario.Scn_registry in
  let module Oscillator = Dwv_systems.Oscillator in
  let module Threed = Dwv_systems.Threed in
  let module Pendulum = Dwv_systems.Pendulum in
  List.iter
    (fun (name, pretrained, verify_robust, verify) ->
      let entry =
        match Registry.find name with
        | Some e -> e
        | None -> Alcotest.failf "%s is not registered" name
      in
      let c = pretrained (Rng.create 1) in
      let m : Verifier.fallback_report = verify_robust c in
      let r = (entry.Registry.verify_robust c).Scn_verify.fallback in
      Alcotest.(check string) (name ^ " robust pipe") (robust_digest m) (robust_digest r);
      Alcotest.(check (option string)) (name ^ " rung") m.Verifier.rung r.Verifier.rung;
      Alcotest.(check string) (name ^ " plain pipe")
        (pipe_digest (verify c) [])
        (pipe_digest (entry.Registry.verify c) []))
    [
      ( "oscillator",
        (fun rng -> Oscillator.pretrained_controller rng),
        (fun c -> Oscillator.verify_robust c),
        fun c -> Oscillator.verify c );
      ( "threed",
        (fun rng -> Threed.pretrained_controller rng),
        (fun c -> Threed.verify_robust c),
        fun c -> Threed.verify c );
      ( "pendulum",
        (fun rng -> Pendulum.pretrained_controller rng),
        (fun c -> Pendulum.verify_robust c),
        fun c -> Pendulum.verify c );
    ]

(* The handle's optional arguments reach the verifier: a ReachNN method
   sized from the scenario's dimension, and a cell of X₀, give the 3-D
   study's own flowpipe (plain and robust) bit for bit. *)
let test_registry_threads_method_and_cell () =
  let module Registry = Dwv_scenario.Scn_registry in
  let module Threed = Dwv_systems.Threed in
  let entry = Option.get (Registry.find "threed") in
  let c = Threed.pretrained_controller (Rng.create 1) in
  let method_ =
    Verifier.Bernstein
      (Nn_reach_bernstein.default_config ~n:(Dwv_systems.Scenario.n_total Threed.scenario))
  in
  let cell, _ = Box.bisect Threed.spec.Dwv_core.Spec.x0 in
  Alcotest.(check string) "plain"
    (pipe_digest (Threed.verify_from ~method_ cell c) [])
    (pipe_digest (entry.Registry.verify ~method_ ~x0:cell c) []);
  Alcotest.(check string) "robust"
    (robust_digest (Threed.verify_robust_from ~method_ cell c))
    (robust_digest (entry.Registry.verify_robust ~method_ ~x0:cell c).Scn_verify.fallback)

(* A scenario's affine ladder with the chosen first rung: [`Taylor] runs
   Taylor then interval, [`Interval] the interval rung alone. *)
let scenario_digest path kernel =
  let scn = Scenario.of_file path in
  let order =
    match scn.Scenario.method_ with
    | Scenario.M_taylor { order } | Scenario.M_interval { order } -> order
    | _ -> assert false
  in
  let scn =
    {
      scn with
      Scenario.method_ =
        (match kernel with
        | `Taylor -> Scenario.M_taylor { order }
        | `Interval -> Scenario.M_interval { order });
    }
  in
  let r =
    Scn_verify.flowpipe_robust scn (Scenario.make_controller scn (Rng.create 1))
  in
  pipe_digest r.Verifier.pipe (List.map snd r.Verifier.failures)

let golden_scenarios =
  List.concat_map
    (fun (path, digests) ->
      List.map2
        (fun kernel digest ->
          ( Fmt.str "%s %s" (Filename.basename path)
              (match kernel with `Taylor -> "taylor" | `Interval -> "interval"),
            digest,
            fun () -> scenario_digest path kernel ))
        [ `Taylor; `Interval ] digests)
    [
      ("../examples/scenarios/cartpole.scn",
        [ "ccef64045077535eb2ffb2d6c79a52f7"; "3e6c7a26760966aa13d2d1ad06e40ada" ]);
      ("../examples/scenarios/tora.scn",
        [ "e81c0eef5e8c76fc3ed579fa9340c330"; "349ae4a32cf0ddce757158f9cdb93a61" ]);
      ("../examples/scenarios/unicycle.scn",
        [ "e1a0a92c6a8ce28f08524224ec181de5"; "5072cacda215ee85a0f2e0e40b267041" ]);
      ("scenarios/corpus/zoh-aliasing.scn",
        [ "b175cb3613ca86a6d2968056787dc169"; "9d2f050095404c3f406c97748887d2bb" ]);
    ]
  @ [
      ( "grazing-goal-param.scn interval",
        "bc216708e9cbdb3f679d996cd982ea0f",
        fun () -> scenario_digest "scenarios/corpus/grazing-goal-param.scn" `Interval );
    ]

let test_golden_digests () =
  let cases = golden_nn @ golden_builtins @ golden_scenarios in
  let got = List.map (fun (name, _, digest) -> (name, digest ())) cases in
  Alcotest.(check (list (pair string string)))
    "flowpipe digests"
    (List.map (fun (name, expected, _) -> (name, expected)) cases)
    got

let suite =
  [
    Alcotest.test_case "flowpipe accessors" `Quick test_flowpipe_accessors;
    Alcotest.test_case "flowpipe project" `Quick test_flowpipe_project;
    Alcotest.test_case "discretize scalar" `Quick test_discretize_scalar;
    Alcotest.test_case "linear flowpipe sound" `Quick test_linear_flowpipe_sound_vs_simulation;
    Alcotest.test_case "linear flowpipe contracts" `Quick test_linear_flowpipe_contracts;
    Alcotest.test_case "linear divergence flag" `Quick test_linear_flowpipe_divergence_flag;
    Alcotest.test_case "intersample enclosure" `Quick test_intersample_enclosure_covers_flow;
    Alcotest.test_case "lie table" `Quick test_lie_table_sizes;
    Alcotest.test_case "apriori enclosure" `Quick test_apriori_enclosure_exists;
    Alcotest.test_case "taylor step exponential" `Quick test_taylor_step_matches_exponential;
    Alcotest.test_case "taylor step nonlinear" `Quick test_taylor_step_nonlinear_sound;
    Alcotest.test_case "polar models sound" `Quick test_polar_models_sound;
    Alcotest.test_case "bernstein models sound" `Quick test_bernstein_models_sound;
    Alcotest.test_case "polar relu models sound" `Quick test_polar_models_relu_sound;
    QCheck_alcotest.to_alcotest prop_linear_flowpipe_sound_fuzz;
    QCheck_alcotest.to_alcotest prop_taylor_step_sound_fuzz;
    Alcotest.test_case "interval reach sound" `Quick test_interval_reach_sound_short_horizon;
    Alcotest.test_case "interval reach wraps" `Quick test_interval_reach_wraps_where_tm_does_not;
    Alcotest.test_case "verdict reach-avoid" `Quick test_check_reach_avoid;
    Alcotest.test_case "verdict unsafe" `Quick test_check_unsafe;
    Alcotest.test_case "verdict graze" `Quick test_check_unknown_graze;
    Alcotest.test_case "verdict no goal" `Quick test_check_unknown_no_goal;
    Alcotest.test_case "initial box not goal" `Quick test_initial_set_does_not_count_as_goal;
    Alcotest.test_case "nn flowpipe sound" `Quick test_nn_flowpipe_sound_vs_simulation;
    Alcotest.test_case "golden flowpipe digests" `Quick test_golden_digests;
    Alcotest.test_case "registry verifies like the study modules" `Quick
      test_registry_matches_modules;
    Alcotest.test_case "registry threads method and cell" `Quick
      test_registry_threads_method_and_cell;
  ]
