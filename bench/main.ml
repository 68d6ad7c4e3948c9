(* Benchmark harness: regenerates every table and figure of the paper.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- table1  -- a single section

   Sections: table1, table2, fig4, fig5, fig6, fig7, fig8, tightness,
   micro (Bechamel kernel benchmarks, one per table/figure). *)

open Harness

(* ---------------------------------------------------------------- *)
(* Section: Table 1 - ACC block                                      *)

type acc_bundle = {
  acc_g : ours_run;
  acc_w : ours_run;
  acc_svg : svg_run;
  acc_ddpg : ddpg_run;
}

let run_acc () =
  let seeds = [ 1; 2; 3; 4; 5 ] in
  let acc_g =
    run_ours ~label:"Ours(G, Flow*-style)" ~spec:Acc.spec ~sys:Acc.sampled
      ~sim:Acc.sim_controller ~metric:Metrics.Geometric ~verify:Acc.verify
      ~init_for_seed:acc_init_for_seed ~cfg:(acc_learn_cfg 0.2) ~seeds ()
  in
  let acc_w =
    run_ours ~label:"Ours(W, Flow*-style)" ~spec:Acc.spec ~sys:Acc.sampled
      ~sim:Acc.sim_controller ~metric:Metrics.Wasserstein ~verify:Acc.verify
      ~init_for_seed:acc_init_for_seed ~cfg:(acc_learn_cfg 0.4) ~seeds ()
  in
  (* baselines train and evaluate on the normalized copy of the plant
     (affine bijection: SC/GR transfer exactly; see Harness) *)
  let acc_svg =
    run_svg ~label:"SVG" ~spec:acc_normalized_spec ~sys:acc_normalized_sys
      ~cfg:{ Svg.default_config with horizon = Acc.spec.steps; max_steps = 400; lr = 3e-3 }
      ~policy_sizes:[ 2; 16; 1 ]
      ~policy_acts:[ Activation.Tanh; Activation.Tanh ]
      ~output_scale:40.0 ~verify_net:acc_verify_net ~seed:3 ()
  in
  let acc_ddpg =
    run_ddpg ~label:"DDPG" ~spec:acc_normalized_spec ~sys:acc_normalized_sys
      ~cfg:
        { Ddpg.default_config with
          max_episodes = 300; steps_per_episode = Acc.spec.steps; warmup_steps = 500;
          eval_every = 25; noise_sigma = 0.2 }
      ~actor_sizes:[ 2; 16; 1 ] ~output_scale:40.0 ~verify_net:acc_verify_net ~seed:3 ()
  in
  { acc_g; acc_w; acc_svg; acc_ddpg }

let print_table1_acc b =
  let t = Table.create table1_header in
  pp_row_into t b.acc_svg.row;
  pp_row_into t b.acc_ddpg.row;
  pp_row_into t b.acc_w.row;
  pp_row_into t b.acc_g.row;
  Fmt.pr "--- Table 1 / ACC, linear controller ---@.%s@." (Table.render t)

(* ---------------------------------------------------------------- *)
(* Section: Table 1 - NN blocks (oscillator, 3-D system)             *)

type nn_bundle = {
  ours : (string * ours_run) list;   (* (label, run) per metric x tool *)
  nn_svg : svg_run;
  nn_ddpg : ddpg_run;
}

let polar_verify_net ~system net output_scale =
  match system with
  | `Osc ->
    Some
      (Oscillator.verify ~method_:Dwv_reach.Verifier.Polar ~slots:Oscillator.tight_slots
         (Controller.net ~output_scale net))
  | `Threed ->
    Some
      (Threed.verify ~method_:Dwv_reach.Verifier.Polar ~slots:Threed.tight_slots
         (Controller.net ~output_scale net))

let run_oscillator () =
  let seeds = [ 1; 2 ] in
  let run label metric method_ =
    ( label,
      run_ours ~label ~spec:Oscillator.spec ~sys:Oscillator.sampled
        ~sim:Oscillator.sim_controller ~metric
        ~verify:(Oscillator.verify ~method_)
        ~init_for_seed:osc_init_for_seed ~cfg:nn_learn_cfg ~seeds () )
  in
  let ours =
    [
      run "Ours(W, ReachNN-style)" Metrics.Wasserstein reachnn_osc;
      run "Ours(G, ReachNN-style)" Metrics.Geometric reachnn_osc;
      run "Ours(W, POLAR-style)" Metrics.Wasserstein Dwv_reach.Verifier.Polar;
      run "Ours(G, POLAR-style)" Metrics.Geometric Dwv_reach.Verifier.Polar;
    ]
  in
  let nn_svg =
    run_svg ~label:"SVG" ~spec:Oscillator.spec ~sys:Oscillator.sampled
      ~cfg:
        { Svg.default_config with
          horizon = Oscillator.spec.steps; max_steps = 400; lr = 5e-3 }
      ~policy_sizes:[ 2; 24; 24; 1 ]
      ~policy_acts:[ Activation.Tanh; Activation.Tanh; Activation.Tanh ]
      ~output_scale:Oscillator.output_scale
      ~verify_net:(fun n s -> polar_verify_net ~system:`Osc n s)
      ~seed:3 ()
  in
  let nn_ddpg =
    run_ddpg ~label:"DDPG" ~spec:Oscillator.spec ~sys:Oscillator.sampled
      ~cfg:
        { Ddpg.default_config with
          max_episodes = 500; steps_per_episode = Oscillator.spec.steps;
          warmup_steps = 300; eval_every = 25 }
      ~actor_sizes:[ 2; 24; 24; 1 ] ~output_scale:Oscillator.output_scale
      ~verify_net:(fun n s -> polar_verify_net ~system:`Osc n s)
      ~seed:3 ()
  in
  { ours; nn_svg; nn_ddpg }

let run_threed () =
  let seeds = [ 1; 2 ] in
  let run label metric method_ =
    ( label,
      run_ours ~label ~spec:Threed.spec ~sys:Threed.sampled ~sim:Threed.sim_controller
        ~metric
        ~verify:(Threed.verify ~method_)
        ~init_for_seed:threed_init_for_seed ~cfg:nn_learn_cfg ~seeds () )
  in
  let ours =
    [
      run "Ours(W, ReachNN-style)" Metrics.Wasserstein reachnn_3d;
      run "Ours(G, ReachNN-style)" Metrics.Geometric reachnn_3d;
      run "Ours(W, POLAR-style)" Metrics.Wasserstein Dwv_reach.Verifier.Polar;
      run "Ours(G, POLAR-style)" Metrics.Geometric Dwv_reach.Verifier.Polar;
    ]
  in
  let nn_svg =
    run_svg ~label:"SVG" ~spec:Threed.spec ~sys:Threed.sampled
      ~cfg:{ Svg.default_config with horizon = Threed.spec.steps; max_steps = 400; lr = 5e-3 }
      ~policy_sizes:[ 3; 24; 24; 1 ]
      ~policy_acts:[ Activation.Tanh; Activation.Tanh; Activation.Tanh ]
      ~output_scale:Threed.output_scale
      ~verify_net:(fun n s -> polar_verify_net ~system:`Threed n s)
      ~seed:3 ()
  in
  let nn_ddpg =
    run_ddpg ~label:"DDPG" ~spec:Threed.spec ~sys:Threed.sampled
      ~cfg:
        { Ddpg.default_config with
          max_episodes = 500; steps_per_episode = Threed.spec.steps; warmup_steps = 300;
          eval_every = 25 }
      ~actor_sizes:[ 3; 24; 24; 1 ] ~output_scale:Threed.output_scale
      ~verify_net:(fun n s -> polar_verify_net ~system:`Threed n s)
      ~seed:3 ()
  in
  { ours; nn_svg; nn_ddpg }

let print_table1_nn ~title b =
  let t = Table.create table1_header in
  pp_row_into t b.nn_svg.row;
  pp_row_into t b.nn_ddpg.row;
  List.iter (fun ((_, r) : string * ours_run) -> pp_row_into t r.row) b.ours;
  Fmt.pr "--- Table 1 / %s, NN controller ---@.%s@." title (Table.render t)

(* ---------------------------------------------------------------- *)
(* Section: Table 2 - verifier runtime per learning iteration        *)

let time_calls ~n f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    ignore (f ())
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int n

let print_table2 () =
  let t = Table.create [ "cell"; "per verifier call"; "per learning iteration" ] in
  let osc_init = osc_init_for_seed 1 and threed_init = threed_init_for_seed 1 in
  (* an SPSA-2 iteration issues 2*2 perturbed calls + 1 verdict call *)
  let calls_per_nn_iter = 5.0 in
  (* an ACC coordinate iteration issues 2*3 + 1 calls *)
  let calls_per_acc_iter = 7.0 in
  let add label per_call factor =
    Table.add_row t
      [ label; Fmt.str "%.3fs" per_call; Fmt.str "%.3fs" (per_call *. factor) ]
  in
  let acc = time_calls ~n:20 (fun () -> Acc.verify (acc_init_for_seed 1)) in
  add "ACC (Flow*-style)" acc calls_per_acc_iter;
  let osc_rnn =
    time_calls ~n:2 (fun () -> Oscillator.verify ~method_:reachnn_osc osc_init)
  in
  add "Oscillator (ReachNN-style)" osc_rnn calls_per_nn_iter;
  let osc_polar =
    time_calls ~n:2 (fun () -> Oscillator.verify ~method_:Dwv_reach.Verifier.Polar osc_init)
  in
  add "Oscillator (POLAR-style)" osc_polar calls_per_nn_iter;
  let td_rnn = time_calls ~n:2 (fun () -> Threed.verify ~method_:reachnn_3d threed_init) in
  add "3D (ReachNN-style)" td_rnn calls_per_nn_iter;
  let td_polar =
    time_calls ~n:2 (fun () -> Threed.verify ~method_:Dwv_reach.Verifier.Polar threed_init)
  in
  add "3D (POLAR-style)" td_polar calls_per_nn_iter;
  Fmt.pr "--- Table 2: average verifier runtime ---@.%s@." (Table.render t)

(* ---------------------------------------------------------------- *)
(* Figures: learning curves and reachable-set corridors as series.   *)

let print_history ~title (r : Learner.result) =
  Fmt.pr "--- %s ---@." title;
  Fmt.pr "iter  safety-score  goal-score  objective  verdict@.";
  List.iter
    (fun (h : Learner.history_point) ->
      Fmt.pr "%4d  %12.5g  %10.5g  %9.5g  %s@." h.Learner.iter h.Learner.scores.Metrics.safety
        h.Learner.scores.Metrics.goal h.Learner.objective
        (Dwv_reach.Verifier.verdict_to_string h.Learner.verdict))
    r.Learner.history;
  Fmt.pr "@."

let print_corridor ~label ?(every = 6) pipe =
  Fmt.pr "%s%s:@." label
    (if Dwv_reach.Flowpipe.diverged pipe then "  [DIVERGED - the paper's NAN case]" else "");
  List.iteri
    (fun k box ->
      if k mod every = 0 then
        Fmt.pr "  step %3d  %a@." k Dwv_interval.Box.pp box)
    (Dwv_reach.Flowpipe.step_boxes pipe);
  Fmt.pr "  final     %a@." Dwv_interval.Box.pp (Dwv_reach.Flowpipe.final_box pipe)

let print_fig4 (b : acc_bundle) =
  print_history ~title:"Fig. 4: learning with geometric metric, ACC (d_u / d_g per iteration)"
    (List.hd b.acc_g.results)

let print_fig5 (b : nn_bundle) =
  match List.assoc_opt "Ours(W, POLAR-style)" b.ours with
  | Some r ->
    print_history ~title:"Fig. 5: learning with Wasserstein metric, oscillator"
      (List.hd r.results)
  | None -> ()

let acc_display_clip =
  Dwv_interval.Box.make ~lo:[| 110.0; 30.0 |] ~hi:[| 170.0; 60.0 |]

let print_fig6 (b : acc_bundle) =
  Fmt.pr "--- Fig. 6: ACC reachable corridors (goal s in [145,155], unsafe s <= 120) ---@.";
  let svg name pipe =
    save_corridor_svg ~name ~title:("Fig 6: ACC " ^ name) ~spec:Acc.spec
      ~clip:acc_display_clip pipe
  in
  print_corridor ~label:"Ours(G)" ~every:20 (List.hd b.acc_g.results).Learner.pipe;
  svg "fig6_ours_g" (List.hd b.acc_g.results).Learner.pipe;
  print_corridor ~label:"Ours(W)" ~every:20 (List.hd b.acc_w.results).Learner.pipe;
  svg "fig6_ours_w" (List.hd b.acc_w.results).Learner.pipe;
  (match b.acc_svg.pipe with
  | Some p ->
    print_corridor ~label:"SVG (linearized)" ~every:20 p;
    svg "fig6_svg" p
  | None -> ());
  (match b.acc_ddpg.pipe with
  | Some p ->
    print_corridor ~label:"DDPG (linearized)" ~every:20 p;
    svg "fig6_ddpg" p
  | None -> ());
  Fmt.pr "@."

let print_fig7 (b : nn_bundle) =
  Fmt.pr "--- Fig. 7: oscillator reachable corridors and X_I ---@.";
  (match List.assoc_opt "Ours(G, POLAR-style)" b.ours with
  | Some r ->
    let first = List.hd r.results in
    print_corridor ~label:"Ours(G, POLAR-style)" first.Learner.pipe;
    save_corridor_svg ~name:"fig7_ours_g_polar" ~title:"Fig 7: oscillator Ours(G, POLAR)"
      ~spec:Oscillator.spec first.Learner.pipe;
    (* Algorithm 2 on the learned controller *)
    let xi =
      Initset.search ~max_depth:2
        ~verify:(fun cell ->
          Oscillator.verify_from ~method_:Dwv_reach.Verifier.Polar cell
            first.Learner.controller)
        ~goal:Oscillator.spec.Spec.goal ~x0:Oscillator.spec.Spec.x0 ()
    in
    Fmt.pr "%a@." Initset.pp_result xi
  | None -> ());
  (match b.nn_svg.pipe with
  | Some p -> print_corridor ~label:"SVG (POLAR-style verification)" p
  | None -> ());
  (match b.nn_ddpg.pipe with
  | Some p -> print_corridor ~label:"DDPG (POLAR-style verification)" p
  | None -> ());
  Fmt.pr "@."

let print_fig8 (b : nn_bundle) =
  Fmt.pr "--- Fig. 8: 3-D system reachable corridors ---@.";
  (match List.assoc_opt "Ours(G, POLAR-style)" b.ours with
  | Some r ->
    print_corridor ~label:"Ours(G, POLAR-style)" ~every:3 (List.hd r.results).Learner.pipe;
    save_corridor_svg ~name:"fig8_ours_g_polar" ~title:"Fig 8: 3-D system Ours(G, POLAR)"
      ~spec:Threed.spec ~dims:(0, 1) (List.hd r.results).Learner.pipe
  | None -> ());
  (match List.assoc_opt "Ours(W, POLAR-style)" b.ours with
  | Some r -> print_corridor ~label:"Ours(W, POLAR-style)" ~every:3 (List.hd r.results).Learner.pipe
  | None -> ());
  (match b.nn_svg.pipe with
  | Some p -> print_corridor ~label:"SVG (POLAR-style verification)" ~every:3 p
  | None -> ());
  (match b.nn_ddpg.pipe with
  | Some p -> print_corridor ~label:"DDPG (POLAR-style verification)" ~every:3 p
  | None -> ());
  Fmt.pr "@."

(* ---------------------------------------------------------------- *)
(* Section: verification-tightness ablation (end of Sec. 4)          *)

let print_tightness () =
  Fmt.pr "--- Tightness ablation: ReachNN-style Bernstein degree on the oscillator ---@.";
  let init = osc_init_for_seed 1 in
  let t = Table.create [ "Bernstein degree"; "per call"; "final width"; "CI"; "verdict" ] in
  List.iter
    (fun deg ->
      let method_ =
        Dwv_reach.Verifier.Bernstein { degrees = [| deg; deg |]; samples_per_dim = 24 }
      in
      let per_call = time_calls ~n:1 (fun () -> Oscillator.verify ~method_ init) in
      let pipe = Oscillator.verify ~method_ init in
      let r =
        Learner.learn { nn_learn_cfg with Learner.max_iters = 12; seed = 1 }
          ~metric:Metrics.Geometric ~spec:Oscillator.spec ~verify:(Oscillator.verify ~method_)
          ~init
      in
      Table.add_row t
        [ string_of_int deg; Fmt.str "%.2fs" per_call;
          (if Dwv_reach.Flowpipe.diverged pipe then "diverged"
           else Fmt.str "%.4f" (Dwv_reach.Flowpipe.final_width pipe));
          string_of_int r.Learner.iterations;
          Dwv_reach.Verifier.verdict_to_string r.Learner.verdict ])
    [ 1; 2; 3 ];
  Fmt.pr "%s@." (Table.render t);
  (* the other two tightness knobs: the symbolic-remainder budget of the
     POLAR-style verifier, and the no-symbols (interval-only) baseline
     that exhibits the full wrapping effect *)
  Fmt.pr "--- Tightness ablation: symbolic-remainder budget (POLAR-style) ---@.";
  let t2 = Table.create [ "configuration"; "per call"; "final width" ] in
  List.iter
    (fun slots ->
      let per_call =
        time_calls ~n:1 (fun () ->
            Oscillator.verify ~method_:Dwv_reach.Verifier.Polar ~slots init)
      in
      let pipe = Oscillator.verify ~method_:Dwv_reach.Verifier.Polar ~slots init in
      Table.add_row t2
        [ Fmt.str "%d slots" slots; Fmt.str "%.2fs" per_call;
          (if Dwv_reach.Flowpipe.diverged pipe then "diverged"
           else Fmt.str "%.4f" (Dwv_reach.Flowpipe.final_width pipe)) ])
    [ 4; 6; 8 ];
  (match init with
  | Controller.Net { net; output_scale } ->
    let per_call =
      time_calls ~n:1 (fun () ->
          Dwv_reach.Interval_reach.nn_flowpipe ~order:3 ~f:Oscillator.dynamics ~delta:0.1
            ~steps:Oscillator.spec.Spec.steps ~net ~output_scale
            ~x0:Oscillator.spec.Spec.x0 ())
    in
    let pipe =
      Dwv_reach.Interval_reach.nn_flowpipe ~order:3 ~f:Oscillator.dynamics ~delta:0.1
        ~steps:Oscillator.spec.Spec.steps ~net ~output_scale ~x0:Oscillator.spec.Spec.x0 ()
    in
    Table.add_row t2
      [ "interval-only (no symbols)"; Fmt.str "%.2fs" per_call;
        (if Dwv_reach.Flowpipe.diverged pipe then
           Fmt.str "diverged at step %d (wrapping effect)" (Dwv_reach.Flowpipe.steps pipe)
         else Fmt.str "%.4f" (Dwv_reach.Flowpipe.final_width pipe)) ]
  | Controller.Linear _ -> ());
  Fmt.pr "%s@." (Table.render t2)

(* ---------------------------------------------------------------- *)
(* Section: Bechamel kernel microbenchmarks, one per table/figure.   *)

let micro_tests () =
  let open Bechamel in
  let acc_pipe = Acc.verify (acc_init_for_seed 1) in
  let osc_init = osc_init_for_seed 1 in
  let osc_tms = Dwv_taylor.Tm_vec.of_box ~total_vars:8 ~order:3 Oscillator.spec.Spec.x0 in
  let osc_net, osc_scale =
    match osc_init with
    | Controller.Net { net; output_scale } -> (net, output_scale)
    | _ -> assert false
  in
  let lie3d = Dwv_reach.Taylor_reach.lie_table ~f:Threed.dynamics ~order:3 in
  let tms3d = Dwv_taylor.Tm_vec.of_box ~total_vars:9 ~order:3 Threed.spec.Spec.x0 in
  let u3d = [| Dwv_taylor.Taylor_model.const ~nvars:9 ~order:3 0.5 |] in
  Test.make_grouped ~name:"dwv"
    [
      (* Table 1 kernel: metric evaluation over a full flowpipe *)
      Test.make ~name:"table1/metric-scores"
        (Staged.stage (fun () ->
             ignore
               (Metrics.scores Metrics.Geometric ~unsafe:Acc.spec.Spec.unsafe
                  ~goal:Acc.spec.Spec.goal acc_pipe)));
      (* Table 2 kernel: one Flow*-style verifier call *)
      Test.make ~name:"table2/acc-verifier-call"
        (Staged.stage (fun () -> ignore (Acc.verify (acc_init_for_seed 1))));
      (* Fig. 4 kernel: one central-difference probe on the ACC design *)
      Test.make ~name:"fig4/gradient-probe"
        (Staged.stage (fun () ->
             let p = Acc.verify (Acc.controller_of_theta [| 0.101; -0.5; 0.0 |]) in
             let m = Acc.verify (Acc.controller_of_theta [| 0.099; -0.5; 0.0 |]) in
             ignore
               ( Metrics.scores Metrics.Geometric ~unsafe:Acc.spec.Spec.unsafe
                   ~goal:Acc.spec.Spec.goal p,
                 Metrics.scores Metrics.Geometric ~unsafe:Acc.spec.Spec.unsafe
                   ~goal:Acc.spec.Spec.goal m )));
      (* Fig. 5 kernel: Wasserstein distance between boxes *)
      Test.make ~name:"fig5/wasserstein-w2"
        (Staged.stage (fun () ->
             ignore
               (Dwv_transport.Box_w2.w2_containment
                  (Dwv_reach.Flowpipe.final_box acc_pipe)
                  Acc.spec.Spec.goal)));
      (* Fig. 6 kernel: one zonotope image under the closed-loop map *)
      Test.make ~name:"fig6/zonotope-step"
        (Staged.stage
           (let z = Dwv_geometry.Zonotope.of_box (Acc.augment_box Acc.spec.Spec.x0) in
            let ad, bd = Dwv_reach.Linear_reach.discretize ~delta:0.1 Acc.lti_augmented in
            let acl =
              Dwv_la.Mat.add ad (Dwv_la.Mat.matmul bd (Dwv_la.Mat.of_rows [ [| 0.6; -2.4; 0.0 |] ]))
            in
            fun () -> ignore (Dwv_geometry.Zonotope.linear_map acl z)));
      (* Fig. 7 kernel: POLAR-style abstraction of the NN over the state *)
      Test.make ~name:"fig7/polar-nn-abstraction"
        (Staged.stage (fun () ->
             ignore
               (Dwv_reach.Nn_reach_taylor.control_models ~net:osc_net ~output_scale:osc_scale
                  osc_tms)));
      (* Fig. 8 kernel: one validated Taylor step of the 3-D system *)
      Test.make ~name:"fig8/taylor-step-3d"
        (Staged.stage (fun () ->
             ignore (Dwv_reach.Taylor_reach.step ~f:Threed.dynamics ~lie:lie3d ~delta:0.2 tms3d u3d)));
      (* tightness kernel: one Bernstein abstraction of the NN *)
      Test.make ~name:"tightness/bernstein-abstraction"
        (Staged.stage (fun () ->
             ignore
               (Dwv_reach.Nn_reach_bernstein.control_models ~net:osc_net
                  ~output_scale:osc_scale
                  ~config:(Dwv_reach.Nn_reach_bernstein.default_config ~n:2)
                  osc_tms)));
    ]

let print_micro () =
  let open Bechamel in
  let open Toolkit in
  Fmt.pr "--- Bechamel kernel microbenchmarks (one per table/figure) ---@.";
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] (micro_tests ()) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let t = Table.create [ "kernel"; "time per run" ] in
  let rows = ref [] in
  Hashtbl.iter
    (fun name est ->
      let ns =
        match Analyze.OLS.estimates est with Some [ v ] -> v | _ -> Float.nan
      in
      rows := (name, ns) :: !rows)
    results;
  List.iter
    (fun (name, ns) ->
      let human =
        if ns > 1e9 then Fmt.str "%.2f s" (ns /. 1e9)
        else if ns > 1e6 then Fmt.str "%.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Fmt.str "%.2f us" (ns /. 1e3)
        else Fmt.str "%.0f ns" ns
      in
      Table.add_row t [ name; human ])
    (List.sort compare !rows);
  Fmt.pr "%s@." (Table.render t)

(* ---------------------------------------------------------------- *)
(* The three workloads the hotpath section times at 1 and N domains:
   the paper's own success paths, each with the outcome it must reach. *)

module Pool = Dwv_parallel.Pool

type pworkload = {
  p_name : string;
  p_seq : float;     (* wall seconds at domains = 1 *)
  p_par : float;     (* wall seconds at the requested domain count *)
  p_match : bool;    (* bit-identical results and counters at both domain counts? *)
  p_outcome : bool;  (* the paper's outcome reached? *)
  p_detail : string;
  p_counters_seq : (string * int) list;  (* Counters snapshot of the seq run *)
  p_counters_par : (string * int) list;  (* ... and of the par run *)
  p_phases_seq : (string * float) list;  (* Phases breakdown of the seq run *)
  p_minor_words : int;  (* exact Gc minor words of the seq run *)
}

let verdict_of (spec : Spec.t) pipe =
  Verifier.check ~unsafe:spec.Spec.unsafe ~goal:spec.Spec.goal pipe

let initset_equal (a : Initset.result) (b : Initset.result) =
  a.Initset.verified = b.Initset.verified
  && a.Initset.rejected = b.Initset.rejected
  && a.Initset.coverage = b.Initset.coverage
  && a.Initset.verifier_calls = b.Initset.verifier_calls

let learn_equal (a : Learner.result) (b : Learner.result) =
  Controller.params a.Learner.controller = Controller.params b.Learner.controller
  && a.Learner.iterations = b.Learner.iterations
  && a.Learner.verifier_calls = b.Learner.verifier_calls
  && a.Learner.verdict = b.Learner.verdict

(* Algorithm 1 on ACC, the G job at seed 1 of paperbench's acc-linear:
   coordinate probe pairs fan out per iteration, and the learner must
   end at Reach_avoid. *)
let learn_acc domains =
  Pool.with_pool ~domains (fun pool ->
      Learner.learn ~pool
        { (acc_learn_cfg 0.2) with Learner.seed = 1 }
        ~metric:Metrics.Geometric ~spec:Acc.spec
        ~verify:(fun c -> (Acc.verify_robust c).Verifier.pipe)
        ~init:(acc_init_for_seed 1))

(* The seed-1 oscillator controller of paperbench's osc-nn (its SPSA-2
   schedule runs 20 iterations), learned once, before anything is timed. *)
let osc_learned =
  lazy
    (Pool.with_pool (fun pool ->
         Learner.learn ~pool
           { nn_learn_cfg with Learner.max_iters = 20; seed = 1 }
           ~metric:Metrics.Wasserstein ~spec:Oscillator.spec
           ~verify:(fun c -> (Oscillator.verify_robust ~pool c).Verifier.pipe)
           ~init:(osc_init_for_seed 1)))

(* The goal's central half: the full goal certifies all of X0 in one
   call, leaving the search nothing to refine. *)
let central_half box =
  let lo = Box.lo box and hi = Box.hi box in
  Box.make
    ~lo:(Array.mapi (fun i l -> l +. (0.25 *. (hi.(i) -. l))) lo)
    ~hi:(Array.mapi (fun i h -> h -. (0.25 *. (h -. lo.(i)))) hi)

(* Algorithm 2 on the learned oscillator controller: one ReachNN
   re-verification (the Bernstein abstraction, as osc-nn's certify stage
   runs it), then the warm depth-3 search over the goal's central half,
   whose frontier cells fan out per level with parent-to-child Picard
   warm starts and intra-call per-dimension parallelism. Returns the
   ReachNN verdict and the search result. *)
let initset_osc domains =
  let c = (Lazy.force osc_learned).Learner.controller in
  let spec = Oscillator.spec in
  Pool.with_pool ~domains (fun pool ->
      let reachnn = Oscillator.verify_robust ~method_:reachnn_osc ~pool c in
      let search =
        Initset.search ~max_depth:3 ~pool
          ~verify_warm:(fun ?warm cell ->
            let r = Oscillator.verify_robust_from ~pool ?warm cell c in
            (r.Verifier.pipe, r.Verifier.warm))
          ~verify:(fun cell -> (Oscillator.verify_robust_from ~pool cell c).Verifier.pipe)
          ~goal:(central_half spec.Spec.goal) ~x0:spec.Spec.x0 ()
      in
      (verdict_of spec reachnn.Verifier.pipe, search))

(* The certified ACC design θ=[0.55,−2,1.83]: its X_I is all of X0,
   found only by refining the search to depth 7. *)
let acc_marginal = Acc.controller_of_theta [| 0.55; -2.0; 1.83 |]

(* Monte-Carlo rates on ACC for that design: rollouts shard across
   domains. *)
let rates_acc domains =
  let c = Acc.sim_controller acc_marginal in
  Pool.with_pool ~domains (fun pool ->
      Evaluate.rates ~n:2000 ~pool ~rng:(Rng.create 2024) ~sys:Acc.sampled
        ~controller:c ~spec:Acc.spec ())

let json_escape s =
  String.concat ""
    (List.map
       (function '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

(* Gate rule of the hotpath section. Wall-clock speedups are reported
   per workload but do not gate: on a shared 2-core runner the parallel
   path read slower than the sequential one with no code change. *)
let gate_rule =
  "outcomes reached, seq/par identical, counters within COUNTERS_history.json, initset-osc \
   within 2x its reference"

(* ---------------------------------------------------------------- *)
(* Section: hotpath — the regression-gated bench trajectory
   (BENCH_hotpath.json). The three workloads above, each run at 1
   domain and at the requested count, timed min-of-reps for the short
   ones, and gated hard: the job fails when a workload misses its
   paper outcome, when any seq/par result or counter pair is not
   bit-identical,
   when a workload's Counters snapshot or exact minor words grow against
   COUNTERS_history.json, or when initset-osc falls behind its reference
   time. The per-workload and aggregate seq/par speedups are reported
   (the aggregate next to the previous run's, same core count only),
   but they do not gate: five runs of identical code read 1.31-2.02x,
   and a parallel path read slower than its sequential one with no code
   change. *)

(* Format of BENCH_hotpath.json; 3 is the first with the success-path
   workloads, so an older baseline timed different work and is not
   compared. *)
let hotpath_version = 3

(* Minimal field scanner so the committed baseline can be read back
   without a JSON dependency: finds ["field":] and parses the number
   after it. *)
let scan_json_number content field =
  let needle = "\"" ^ field ^ "\":" in
  let len = String.length content and nlen = String.length needle in
  let rec find i =
    if i + nlen > len then None
    else if String.sub content i nlen = needle then Some (i + nlen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    let j = ref start in
    while !j < len && content.[!j] = ' ' do incr j done;
    let k = ref !j in
    while
      !k < len
      && (match content.[!k] with
         | '0' .. '9' | '.' | '-' | '+' | 'e' -> true
         | _ -> false)
    do
      incr k
    done;
    if !k > !j then float_of_string_opt (String.sub content !j (!k - !j)) else None

let read_hotpath_baseline path =
  match In_channel.with_open_text path In_channel.input_all with
  | content when scan_json_number content "version" = Some (float_of_int hotpath_version) ->
    (scan_json_number content "cores", scan_json_number content "aggregate_speedup")
  | _ -> (None, None)
  | exception Sys_error _ -> (None, None)

(* Min-of-reps for sub-2s workloads: the first run also pays the
   one-time per-domain costs (DLS memo fills, Lie-table builds), which a
   steady-state throughput number should not include. The global event
   counters, the phase clocks and the minor-allocation meter are reset
   before and read after the FIRST run only, so the reported counts
   describe exactly one deterministic execution. Minor words are only
   meaningful on the sequential path (arg = 1): pool workers allocate on
   their own domains, invisible to this domain's Gc meter. *)
let adaptive_timed run arg =
  Dwv_util.Counters.reset ();
  Dwv_util.Phases.reset ();
  let mw0 = Gc.minor_words () in
  let r, t0 = timed (fun () -> run arg) in
  let minor_words = int_of_float (Gc.minor_words () -. mw0) in
  let counters = Dwv_util.Counters.snapshot () in
  let phases = Dwv_util.Phases.snapshot () in
  if t0 >= 2.0 then (r, t0, counters, phases, minor_words)
  else begin
    let best = ref t0 in
    for _ = 1 to 2 do
      let _, t = timed (fun () -> run arg) in
      if t < !best then best := t
    done;
    (r, !best, counters, phases, minor_words)
  end

let bprint_counters b counters =
  Printf.bprintf b "{";
  List.iteri
    (fun i (k, v) ->
      Printf.bprintf b "%s\"%s\": %d" (if i = 0 then "" else ", ") (json_escape k) v)
    counters;
  Printf.bprintf b "}"

(* Reference for the initset-osc workload: its median sequential wall
   time over ten runs on the library before this workload was gated, on
   a 2-core VM. The gate allows the current sequential time up to twice
   that, so a slower runner passes and a doubling of the search's cost
   does not. *)
let initset_reference_seq = 0.93
let initset_reference_required = 0.5

let bprint_phases b phases =
  Printf.bprintf b "{";
  List.iteri
    (fun i (k, v) ->
      Printf.bprintf b "%s\"%s\": %.6f" (if i = 0 then "" else ", ") (json_escape k) v)
    phases;
  Printf.bprintf b "}"

let write_hotpath_json ~domains_requested ~cores ~effective_domains ~aggregate_speedup
    ~all_match ~outcomes_ok ~counters_ok ~reference_speedup ~reference_ok ~passed workloads path
    =
  let b = Buffer.create 2048 in
  Printf.bprintf b
    "{\n  \"version\": %d,\n  \"domains_requested\": %d,\n  \"cores\": %d,\n  \
     \"effective_domains\": %d,\n  \"workloads\": [\n"
    hotpath_version domains_requested cores effective_domains;
  List.iteri
    (fun i w ->
      Printf.bprintf b
        "    {\"name\": \"%s\", \"seq_seconds\": %.6f, \"par_seconds\": %.6f, \
         \"speedup\": %.3f, \"match\": %b, \"outcome\": %b, \"detail\": \"%s\",\n     \
         \"counters_seq\": "
        (json_escape w.p_name) w.p_seq w.p_par
        (if w.p_par > 0.0 then w.p_seq /. w.p_par else Float.nan)
        w.p_match w.p_outcome (json_escape w.p_detail);
      bprint_counters b w.p_counters_seq;
      Printf.bprintf b ", \"counters_par\": ";
      bprint_counters b w.p_counters_par;
      Printf.bprintf b ", \"counters_match\": %b,\n     \"phases_seq\": "
        (w.p_counters_seq = w.p_counters_par);
      bprint_phases b w.p_phases_seq;
      Printf.bprintf b "}%s\n" (if i = List.length workloads - 1 then "" else ","))
    workloads;
  Printf.bprintf b "  ],\n  \"aggregate_speedup\": %.3f,\n  \"all_match\": %b,\n"
    aggregate_speedup all_match;
  Printf.bprintf b
    "  \"reference\": {\"workload\": \"initset-osc\", \"reference_seq_seconds\": %.6f, \
     \"speedup_vs_reference\": %.3f, \"required\": %.1f, \"ok\": %b},\n"
    initset_reference_seq reference_speedup initset_reference_required reference_ok;
  Printf.bprintf b
    "  \"gate\": {\n    \"rule\": \"%s\",\n    \"outcomes_ok\": %b,\n"
    (json_escape gate_rule) outcomes_ok;
  Printf.bprintf b
    "    \"counters_ok\": %b,\n    \"reference_ok\": %b,\n    \"passed\": %b\n  }\n}\n"
    counters_ok reference_ok passed;
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc

let print_hotpath ~domains () =
  let cores = Pool.default_domains () in
  let effective = min domains cores in
  Fmt.pr "--- Hot path: seq vs par at %d domains (%d cores -> %d effective) ---@."
    domains cores effective;
  let baseline_path = "BENCH_hotpath.json" in
  (* the previous run's aggregate speedup, printed for reading the trend
     (not gated); read before this run overwrites the file *)
  let baseline_cores_f, baseline_aggregate = read_hotpath_baseline baseline_path in
  let baseline_cores = Option.map int_of_float baseline_cores_f in
  ignore (Lazy.force osc_learned);
  let workload name ~outcome ~detail run equal =
    let seq, t_seq, c_seq, phases_seq, mw_seq = adaptive_timed run 1 in
    let par, t_par, c_par, _, _ = adaptive_timed run domains in
    let ok = equal seq par && c_seq = c_par in
    let reached = outcome seq in
    Fmt.pr "%-12s  seq %.2fs  par %.2fs  speedup %.2fx  %s  %s  %d minor words@." name
      t_seq t_par
      (if t_par > 0.0 then t_seq /. t_par else Float.nan)
      (if ok then "identical" else "MISMATCH")
      (if reached then "outcome ok" else "OUTCOME MISSED")
      mw_seq;
    { p_name = name; p_seq = t_seq; p_par = t_par; p_match = ok; p_outcome = reached;
      p_detail = detail (if ok then seq else par);
      p_counters_seq = c_seq; p_counters_par = c_par;
      p_phases_seq = phases_seq; p_minor_words = mw_seq }
  in
  let learn =
    workload "learn-acc"
      ~outcome:(fun (r : Learner.result) -> r.Learner.verdict = Verifier.Reach_avoid)
      ~detail:(fun (r : Learner.result) ->
        Fmt.str "acc G seed 1, CI=%d, %d calls, %s" r.Learner.iterations
          r.Learner.verifier_calls
          (Verifier.verdict_to_string r.Learner.verdict))
      learn_acc learn_equal
  in
  let initset =
    workload "initset-osc"
      ~outcome:(fun (reachnn, (r : Initset.result)) ->
        reachnn = Verifier.Reach_avoid && r.Initset.coverage >= 0.375)
      ~detail:(fun (reachnn, (r : Initset.result)) ->
        Fmt.str "oscillator ReachNN %s, central-half goal depth 3, coverage=%.4f, %d calls"
          (Verifier.verdict_to_string reachnn) r.Initset.coverage r.Initset.verifier_calls)
      initset_osc
      (fun (va, a) (vb, b) -> va = vb && initset_equal a b)
  in
  let rates =
    workload "rates-acc"
      ~outcome:(fun (r : Evaluate.rates) ->
        r.Evaluate.safe_percent = 100.0 && r.Evaluate.goal_percent = 100.0)
      ~detail:(fun (r : Evaluate.rates) ->
        Fmt.str "acc theta=[0.55,-2,1.83] n=2000, SC=%.2f%%, GR=%.2f%%"
          r.Evaluate.safe_percent r.Evaluate.goal_percent)
      rates_acc
      (fun (a : Evaluate.rates) (b : Evaluate.rates) ->
        a.Evaluate.safe_percent = b.Evaluate.safe_percent
        && a.Evaluate.goal_percent = b.Evaluate.goal_percent)
  in
  let workloads = [ learn; initset; rates ] in
  let total p = List.fold_left (fun acc w -> acc +. p w) 0.0 workloads in
  let aggregate_speedup =
    let par = total (fun w -> w.p_par) in
    if par > 0.0 then total (fun w -> w.p_seq) /. par else Float.nan
  in
  let all_match = List.for_all (fun w -> w.p_match) workloads in
  let outcomes_ok = List.for_all (fun w -> w.p_outcome) workloads in
  (* deterministic ratchet: the seq counter snapshots and exact minor
     words are load-independent, so any growth against the committed
     history is a real regression whatever the wall clock says *)
  let ratchet =
    Dwv_util.Trend.record ~path:"COUNTERS_history.json" ~section:"hotpath"
      (List.map
         (fun w -> (w.p_name, ("minor_words", w.p_minor_words) :: w.p_counters_seq))
         workloads)
  in
  List.iter (Fmt.pr "counters ratchet: %s@.") ratchet;
  let counters_ok = ratchet = [] in
  let reference_speedup =
    if initset.p_seq > 0.0 then initset_reference_seq /. initset.p_seq else Float.nan
  in
  let reference_ok = reference_speedup >= initset_reference_required in
  Fmt.pr "initset-osc vs %.3fs reference: %.2fx (>= %.1fx required) %s@."
    initset_reference_seq reference_speedup initset_reference_required
    (if reference_ok then "ok" else "FAILED");
  let failures =
    List.filter_map
      (fun (ok, why) -> if ok then None else Some why)
      [ (outcomes_ok, "a workload missed its paper outcome");
        (all_match, "seq/par mismatch");
        (counters_ok, "counter or minor-word regression vs COUNTERS_history.json");
        (reference_ok, "initset-osc slower than twice its reference") ]
  in
  let passed = failures = [] in
  write_hotpath_json ~domains_requested:domains ~cores ~effective_domains:effective
    ~aggregate_speedup ~all_match ~outcomes_ok ~counters_ok
    ~reference_speedup ~reference_ok
    ~passed workloads baseline_path;
  Fmt.pr "aggregate speedup %.2fx%s, all results %s, gate %s [BENCH_hotpath.json written]@."
    aggregate_speedup
    (match (baseline_cores, baseline_aggregate) with
    | Some bc, Some ba when bc = cores -> Fmt.str " (previous run %.2fx, not gated)" ba
    | Some bc, Some _ -> Fmt.str " (previous run on %d cores)" bc
    | _ -> " (no previous run)")
    (if all_match then "identical" else "MISMATCHED")
    (if passed then "passed" else Fmt.str "FAILED (%s)" (String.concat "; " failures));
  if not passed then exit 1

(* ---------------------------------------------------------------- *)
(* Section: certs — replayable proof certificates (BENCH_certs.json).
   Cold run: every verifier call computes fresh and deposits a
   certificate. Warm run: a new cache instance over the same directory
   replays every call from its validated certificate — zero fresh
   flowpipes — with bit-identical results. The workloads are paperbench
   acc-linear's success paths, and each cold run must reach its paper
   outcome. A third run re-checks the reject path: one certificate the
   initset run stored gets a single byte flipped on disk; the checker
   must reject exactly that entry, recompute it fresh, and still produce
   the cold result. *)

module Cert_cache = Dwv_cert.Cert_cache

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* fixed-width pid: the path's length, and so the words its strings
   take, is the same in every process *)
let cert_bench_dir =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "dwv_bench_certs_%010d" (Unix.getpid ()))

(* paperbench acc-linear's success paths: the depth-7 search for
   [acc_marginal], and the G learn at seed 1, which ends at
   Reach_avoid. *)
let certs_initset cache =
  Initset.search ~max_depth:7
    ~verify:(fun cell -> (Acc.verify_robust_from ?cache cell acc_marginal).Verifier.pipe)
    ~goal:Acc.spec.Spec.goal ~x0:Acc.spec.Spec.x0 ()

let certs_learn cache =
  Learner.learn
    { (acc_learn_cfg 0.2) with Learner.seed = 1 }
    ~metric:Metrics.Geometric ~spec:Acc.spec
    ~verify:(fun ctrl -> (Acc.verify_robust ?cache ctrl).Verifier.pipe)
    ~init:(acc_init_for_seed 1)

type cert_run = {
  cr_name : string;
  cr_cold : float;
  cr_warm : float;
  cr_match : bool;
  cr_clean : bool;   (* warm run all-hit: 0 miss, 0 reject, 0 fresh flowpipes *)
  cr_outcome : bool;  (* the cold run reached its paper outcome *)
  cr_detail : string;
  cr_cold_counters : (string * int) list;
  cr_warm_counters : (string * int) list;
}

(* The Counters snapshot of one run, with its exact minor words as one
   more entry (the cert runs are sequential, so the meter sees them
   whole). *)
let counted_timed f =
  Dwv_util.Counters.reset ();
  let mw0 = Gc.minor_words () in
  let r, t = timed f in
  let mw = int_of_float (Gc.minor_words () -. mw0) in
  (r, t, ("minor_words", mw) :: Dwv_util.Counters.snapshot ())

let count counters key = Option.value ~default:0 (List.assoc_opt key counters)

let certs_gate_rule =
  "initset-acc certifies all of X0 and learn-acc ends Reach_avoid; initset warm >= \
   2x cold; warm runs all-hit (0 miss, 0 reject, 0 fresh \
   flowpipes, hits = cold lookups); cold/warm results bit-identical; tampered \
   certificate rejected and recomputed to the identical result; counter totals \
   and minor words no worse than the last committed COUNTERS_history.json entry"

let write_certs_json ~workloads ~tamper_rejects ~tamper_match ~initset_speedup_ok
    ~outcomes_ok ~counters_ok ~passed path =
  let b = Buffer.create 2048 in
  Printf.bprintf b "{\n  \"version\": 1,\n  \"workloads\": [\n";
  List.iteri
    (fun i w ->
      Printf.bprintf b
        "    {\"name\": \"%s\", \"cold_seconds\": %.6f, \"warm_seconds\": %.6f, \
         \"speedup\": %.3f, \"match\": %b, \"warm_clean\": %b, \"outcome\": %b, \
         \"detail\": \"%s\",\n     \"counters_cold\": "
        (json_escape w.cr_name) w.cr_cold w.cr_warm
        (if w.cr_warm > 0.0 then w.cr_cold /. w.cr_warm else Float.nan)
        w.cr_match w.cr_clean w.cr_outcome (json_escape w.cr_detail);
      bprint_counters b w.cr_cold_counters;
      Printf.bprintf b ", \"counters_warm\": ";
      bprint_counters b w.cr_warm_counters;
      Printf.bprintf b "}%s\n" (if i = List.length workloads - 1 then "" else ","))
    workloads;
  Printf.bprintf b
    "  ],\n  \"tamper\": {\"rejects\": %d, \"match\": %b},\n  \"gate\": {\"rule\": \
     \"%s\", \"outcomes_ok\": %b, \"initset_speedup_ok\": %b, \"counters_ok\": %b, \
     \"passed\": %b}\n}\n"
    tamper_rejects tamper_match (json_escape certs_gate_rule) outcomes_ok
    initset_speedup_ok counters_ok passed;
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc

let print_certs () =
  Fmt.pr "--- Certificates: cold vs warm cache, reject-on-tamper ---@.";
  remove_tree cert_bench_dir;
  let fresh_cache () = Some (Cert_cache.create ~dir:cert_bench_dir ()) in
  let cert_workload name ~outcome detail run equal =
    let cold, t_cold, c_cold = counted_timed (fun () -> run (fresh_cache ())) in
    let warm, t_warm, c_warm = counted_timed (fun () -> run (fresh_cache ())) in
    let ok = equal cold warm in
    (* the warm run must replay everything: every lookup hits, nothing is
       recomputed, and the call accounting stays cache-blind *)
    let clean =
      count c_warm "cache_misses" = 0
      && count c_warm "cache_rejects" = 0
      && count c_warm "linear_flowpipes" = 0
      && count c_warm "nn_flowpipes" = 0
      && count c_warm "cache_hits" = count c_cold "cache_hits" + count c_cold "cache_misses"
      && count c_warm "verifier_calls" = count c_cold "verifier_calls"
    in
    let reached = outcome cold in
    Fmt.pr "%-12s  cold %.3fs  warm %.3fs  speedup %.2fx  %s  %s  %s  (%s)@." name t_cold
      t_warm
      (if t_warm > 0.0 then t_cold /. t_warm else Float.nan)
      (if ok then "identical" else "MISMATCH")
      (if clean then "all-hit" else "NOT-ALL-HIT")
      (if reached then "outcome ok" else "OUTCOME MISSED")
      (detail cold);
    ( { cr_name = name; cr_cold = t_cold; cr_warm = t_warm; cr_match = ok;
        cr_clean = clean; cr_outcome = reached; cr_detail = detail cold;
        cr_cold_counters = c_cold; cr_warm_counters = c_warm },
      cold )
  in
  let initset_w, initset_cold =
    cert_workload "initset-acc"
      ~outcome:(fun (r : Initset.result) -> r.Initset.coverage >= 1.0)
      (fun (r : Initset.result) ->
        Fmt.str "acc theta=[0.55,-2,1.83] depth 7, coverage=%.4f, %d calls"
          r.Initset.coverage r.Initset.verifier_calls)
      certs_initset initset_equal
  in
  (* the tamper check below flips a certificate the initset run replays,
     so pick it before the learn run adds its own *)
  let initset_certs =
    Sys.readdir cert_bench_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".dwvcert")
    |> List.sort compare
  in
  let learn_w, _ =
    cert_workload "learn-acc"
      ~outcome:(fun (r : Learner.result) -> r.Learner.verdict = Verifier.Reach_avoid)
      (fun (r : Learner.result) ->
        Fmt.str "acc G seed 1, CI=%d, %d calls, %s" r.Learner.iterations
          r.Learner.verifier_calls
          (Dwv_reach.Verifier.verdict_to_string r.Learner.verdict))
      certs_learn learn_equal
  in
  (* flip one byte in the middle of a stored certificate: the independent
     checker must reject it (checksum), the rung recomputes fresh, and
     the result is still bit-identical to the cold run *)
  let tamper_file =
    match initset_certs with
    | [] -> None
    | f :: _ -> Some (Filename.concat cert_bench_dir f)
  in
  let tamper_rejects, tamper_match =
    match tamper_file with
    | None -> (0, false)
    | Some path ->
      let bytes =
        In_channel.with_open_bin path (fun ic ->
            really_input_string ic (in_channel_length ic))
      in
      let buf = Bytes.of_string bytes in
      let pos = Bytes.length buf / 2 in
      Bytes.set buf pos (Char.chr (Char.code (Bytes.get buf pos) lxor 0x10));
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (Bytes.unsafe_to_string buf));
      let tampered, _, c_tamper = counted_timed (fun () -> certs_initset (fresh_cache ())) in
      (count c_tamper "cache_rejects", initset_equal initset_cold tampered)
  in
  Fmt.pr "tamper: %d reject(s), recomputed result %s@." tamper_rejects
    (if tamper_match then "identical" else "MISMATCH");
  let workloads = [ initset_w; learn_w ] in
  let initset_speedup_ok = initset_w.cr_cold >= 2.0 *. initset_w.cr_warm in
  let all_ok = List.for_all (fun w -> w.cr_match && w.cr_clean) workloads in
  let outcomes_ok = List.for_all (fun w -> w.cr_outcome) workloads in
  let ratchet =
    Dwv_util.Trend.record ~path:"COUNTERS_history.json" ~section:"certs"
      (List.concat_map
         (fun w ->
           [ (w.cr_name ^ "/cold", w.cr_cold_counters);
             (w.cr_name ^ "/warm", w.cr_warm_counters) ])
         workloads)
  in
  List.iter (Fmt.pr "counters ratchet: %s@.") ratchet;
  let counters_ok = ratchet = [] in
  let passed =
    outcomes_ok && initset_speedup_ok && all_ok && tamper_rejects >= 1 && tamper_match
    && counters_ok
  in
  write_certs_json ~workloads ~tamper_rejects ~tamper_match ~initset_speedup_ok
    ~outcomes_ok ~counters_ok ~passed "BENCH_certs.json";
  Fmt.pr "gate %s [BENCH_certs.json written]@."
    (if passed then "passed"
     else if not outcomes_ok then "FAILED (a workload missed its paper outcome)"
     else if not initset_speedup_ok then "FAILED (warm initset not 2x faster)"
     else if not all_ok then "FAILED (warm run mismatched or not all-hit)"
     else if not counters_ok then
       "FAILED (deterministic-counter regression vs COUNTERS_history.json)"
     else "FAILED (tampered certificate not rejected)");
  if not passed then exit 1

(* ---------------------------------------------------------------- *)
(* Section: scenarios — the scenario farm (SCENARIOS_report.json).
   A 500-case seeded fuzz campaign runs the full DwV loop per scenario
   with the differential soundness oracle; the campaign is replayed at
   domains=1 and domains=N and every record (minus wall-clock) must be
   bit-identical. The four committed benchmark DSL files must verify
   Reach_avoid, and the regression corpus (scenarios that once exposed
   soundness bugs) must examine clean. Any oracle violation, verdict
   drift, or determinism mismatch fails the gate. *)

module Scenario = Dwv_systems.Scenario
module Scn_registry = Dwv_scenario.Scn_registry
module Scn_fuzz = Dwv_scenario.Scn_fuzz
module Scn_verify = Dwv_scenario.Scn_verify

let scenarios_seed = 42
let scenarios_count = 500

let scenarios_gate_rule =
  "500-case campaign has zero soundness-oracle violations; records are \
   bit-identical (minus latency) at domains 1 vs N; every committed \
   benchmark scenario verifies Reach_avoid; every corpus scenario examines \
   clean; campaign counter totals and minor words no worse than the last \
   committed COUNTERS_history.json entry"

let scenario_files dir ext =
  if Sys.file_exists dir && Sys.is_directory dir then
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ext)
    |> List.sort compare
    |> List.map (Filename.concat dir)
  else []

let write_scenarios_json ~campaign_json ~det_match ~benchmarks ~corpus
    ~counters_ok ~passed path =
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\n  \"version\": 1,\n  \"benchmarks\": [\n";
  List.iteri
    (fun i (name, verdict, rung, seconds) ->
      Printf.bprintf b
        "    {\"name\": \"%s\", \"verdict\": \"%s\", \"rung\": \"%s\", \
         \"seconds\": %.6f}%s\n"
        (json_escape name) (json_escape verdict) (json_escape rung) seconds
        (if i = List.length benchmarks - 1 then "" else ","))
    benchmarks;
  Printf.bprintf b "  ],\n  \"corpus\": [\n";
  List.iteri
    (fun i (name, oracle) ->
      Printf.bprintf b "    {\"name\": \"%s\", \"oracle\": %s}%s\n"
        (json_escape name)
        (match oracle with
        | None -> "null"
        | Some r -> Printf.sprintf "\"%s\"" (json_escape r))
        (if i = List.length corpus - 1 then "" else ","))
    corpus;
  Printf.bprintf b
    "  ],\n  \"campaign\": %s,\n  \"gate\": {\"rule\": \"%s\", \
     \"determinism_match\": %b, \"counters_ok\": %b, \"passed\": %b}\n}\n"
    (String.trim campaign_json) (json_escape scenarios_gate_rule) det_match
    counters_ok passed;
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc

let print_scenarios ~domains () =
  Fmt.pr "--- Scenario farm: fuzz campaign, benchmarks, corpus ---@.";
  (* counters and minor words around the sequential campaign only: both
     are a pure function of (seed, count), so the ratchet below sees a
     load-independent signature of the whole fuzz pipeline *)
  Dwv_util.Counters.reset ();
  let mw0 = Gc.minor_words () in
  let seq = Scn_fuzz.run ~count:scenarios_count ~seed:scenarios_seed () in
  let mw = int_of_float (Gc.minor_words () -. mw0) in
  let campaign_counters = ("minor_words", mw) :: Dwv_util.Counters.snapshot () in
  let par =
    Pool.with_pool ~domains (fun pool ->
        Scn_fuzz.run ~pool ~count:scenarios_count ~seed:scenarios_seed ())
  in
  let keys r = Array.map Scn_fuzz.determinism_key r.Scn_fuzz.records in
  let det_match = keys seq = keys par in
  let v_seq = Scn_fuzz.violations seq and v_par = Scn_fuzz.violations par in
  Fmt.pr "campaign: %d scenarios (seed %d), %d violation(s) seq, %d par, \
          domains 1 vs %d %s@."
    scenarios_count scenarios_seed v_seq v_par domains
    (if det_match then "identical" else "MISMATCH");
  let benchmarks =
    List.map
      (fun path ->
        let entry = Scn_registry.of_file path in
        let scn = entry.Scn_registry.scenario in
        let controller =
          entry.Scn_registry.init (Dwv_util.Rng.create scenarios_seed)
        in
        let report, seconds =
          timed (fun () -> entry.Scn_registry.verify_robust controller)
        in
        let verdict =
          Dwv_reach.Verifier.verdict_to_string report.Scn_verify.verdict
        in
        let rung =
          Option.value ~default:"-"
            report.Scn_verify.fallback.Dwv_reach.Verifier.rung
        in
        Fmt.pr "benchmark %-10s %-11s (rung %s, %.3fs)@." scn.Scenario.name
          verdict rung seconds;
        (scn.Scenario.name, verdict, rung, seconds))
      (scenario_files "examples/scenarios" ".scn")
  in
  let corpus =
    List.map
      (fun path ->
        let scn = Scenario.of_file path in
        let result =
          Scn_fuzz.examine ~rng:(Dwv_util.Rng.create scenarios_seed) scn
        in
        Fmt.pr "corpus    %-22s %s@." scn.Scenario.name
          (match result.Scn_fuzz.oracle with
          | None -> "clean"
          | Some r -> "VIOLATION: " ^ r);
        (scn.Scenario.name, result.Scn_fuzz.oracle))
      (scenario_files "test/scenarios/corpus" ".scn")
  in
  let benchmarks_ok =
    benchmarks <> []
    && List.for_all (fun (_, v, _, _) -> v = "reach-avoid") benchmarks
  in
  let corpus_ok =
    corpus <> [] && List.for_all (fun (_, o) -> o = None) corpus
  in
  let ratchet =
    Dwv_util.Trend.record ~path:"COUNTERS_history.json" ~section:"scenarios"
      [ ("campaign", campaign_counters) ]
  in
  List.iter (Fmt.pr "counters ratchet: %s@.") ratchet;
  let counters_ok = ratchet = [] in
  let passed =
    v_seq = 0 && v_par = 0 && det_match && benchmarks_ok && corpus_ok
    && counters_ok
  in
  write_scenarios_json
    ~campaign_json:(Scn_fuzz.report_json ~domains:1 seq)
    ~det_match ~benchmarks ~corpus ~counters_ok ~passed "SCENARIOS_report.json";
  Fmt.pr "gate %s [SCENARIOS_report.json written]@."
    (if passed then "passed"
     else if v_seq > 0 || v_par > 0 then "FAILED (soundness-oracle violations)"
     else if not det_match then "FAILED (domains 1 vs N records differ)"
     else if not benchmarks_ok then
       "FAILED (benchmark scenario not reach-avoid)"
     else if not counters_ok then
       "FAILED (deterministic-counter regression vs COUNTERS_history.json)"
     else "FAILED (corpus scenario not clean)");
  if not passed then exit 1

(* ---------------------------------------------------------------- *)

let print_profile () =
  ignore (Lazy.force osc_learned);
  Dwv_util.Phases.reset ();
  let (_, r), t = timed (fun () -> initset_osc 1) in
  Fmt.pr "initset-osc seq: %.3fs (%d calls)@." t r.Initset.verifier_calls;
  List.iter (fun (k, v) -> Fmt.pr "  %-28s %8.3fs@." k v) (Dwv_util.Phases.snapshot ())

let flush_section () = Format.pp_print_flush Format.std_formatter ()

let () =
  let rec parse_args sections domains = function
    | [] -> (List.rev sections, domains)
    | "--domains" :: n :: rest -> (
      match int_of_string_opt n with
      | Some d when d >= 1 -> parse_args sections (Some d) rest
      | _ ->
        Fmt.epr "bench: bad --domains %s (expected a positive integer)@." n;
        exit 2)
    | s :: rest -> parse_args (s :: sections) domains rest
  in
  let sections, domains =
    match Array.to_list Sys.argv with
    | _ :: rest -> parse_args [] None rest
    | [] -> ([], None)
  in
  let all_sections =
    [ "table1"; "table2"; "fig4"; "fig5"; "fig6"; "fig7"; "fig8"; "tightness";
      "micro"; "hotpath"; "certs"; "scenarios" ]
  in
  List.iter
    (fun s ->
      if not (List.mem s ("profile" :: all_sections)) then begin
        Fmt.epr "bench: unknown section %s (expected profile or one of %s)@." s
          (String.concat " " all_sections);
        exit 2
      end)
    sections;
  let sections = if sections = [] then all_sections else sections in
  let domains = Option.value domains ~default:(Pool.default_domains ()) in
  let want s = List.mem s sections in
  if want "profile" then begin print_profile (); flush_section () end;
  if want "hotpath" then begin print_hotpath ~domains (); flush_section () end;
  if want "certs" then begin print_certs (); flush_section () end;
  if want "scenarios" then begin print_scenarios ~domains (); flush_section () end;
  if want "table2" then begin print_table2 (); flush_section () end;
  if want "micro" then begin print_micro (); flush_section () end;
  let acc = if List.exists want [ "table1"; "fig4"; "fig6" ] then Some (run_acc ()) else None in
  Option.iter
    (fun b ->
      if want "table1" then print_table1_acc b;
      if want "fig4" then print_fig4 b;
      if want "fig6" then print_fig6 b;
      flush_section ())
    acc;
  let threed = if List.exists want [ "table1"; "fig8" ] then Some (run_threed ()) else None in
  Option.iter
    (fun b ->
      if want "table1" then print_table1_nn ~title:"3D system" b;
      if want "fig8" then print_fig8 b;
      flush_section ())
    threed;
  let osc =
    if List.exists want [ "table1"; "fig5"; "fig7" ] then Some (run_oscillator ()) else None
  in
  Option.iter
    (fun b ->
      if want "table1" then print_table1_nn ~title:"Oscillator" b;
      if want "fig5" then print_fig5 b;
      if want "fig7" then print_fig7 b;
      flush_section ())
    osc;
  if want "tightness" then begin print_tightness (); flush_section () end
