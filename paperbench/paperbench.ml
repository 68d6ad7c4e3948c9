(* One pass of a paper-outcome workload, in a process of its own.

     paperbench.exe --workload NAME --seed N --domains D --tmp DIR
                    [--trace] [--extras] [--spans FILE]

   The pass prepares its inputs from the seed, runs the paper's stages
   (Algorithm 1 learning, certification, Algorithm 2 initial-set search,
   Monte-Carlo rates, or a scenario fuzz campaign) through the same
   public entry points the CLI uses, checks every outcome against the
   paper's known answer, and prints one JSON object as its last line:
   set-up completion time, pass wall time, every verifier-call latency,
   the operations attempted and failed, a deterministic signature, and
   peak memory. run.py launches one process per pass and aggregates.

   [--trace] records spans around every call into a layer and adds the
   per-layer numbers (counters, GC words, self times); [--extras] also
   times the Table 2 cells and the layer ladder on this pass's own
   inputs, outside the pass's wall time. *)

module Box = Dwv_interval.Box
module Interval = Dwv_interval.Interval
module Expr = Dwv_expr.Expr
module Tm = Dwv_taylor.Taylor_model
module Tm_vec = Dwv_taylor.Tm_vec
module Zonotope = Dwv_geometry.Zonotope
module Mat = Dwv_la.Mat
module Verifier = Dwv_reach.Verifier
module Flowpipe = Dwv_reach.Flowpipe
module Taylor_reach = Dwv_reach.Taylor_reach
module Linear_reach = Dwv_reach.Linear_reach
module Nn_reach_taylor = Dwv_reach.Nn_reach_taylor
module Nn_reach_bernstein = Dwv_reach.Nn_reach_bernstein
module Cert_cache = Dwv_cert.Cert_cache
module Cert_check = Dwv_cert.Cert_check
module Controller = Dwv_core.Controller
module Learner = Dwv_core.Learner
module Metrics = Dwv_core.Metrics
module Initset = Dwv_core.Initset
module Evaluate = Dwv_core.Evaluate
module Spec = Dwv_core.Spec
module Acc = Dwv_systems.Acc
module Oscillator = Dwv_systems.Oscillator
module Threed = Dwv_systems.Threed
module Scn_fuzz = Dwv_scenario.Scn_fuzz
module Pool = Dwv_parallel.Pool
module Rng = Dwv_util.Rng
module Counters = Dwv_util.Counters
module Phases = Dwv_util.Phases
module Mono = Dwv_util.Mono

(* ------------------------------------------------------------------ *)
(* Pass context: checks, latencies and per-layer numbers               *)

type ctx = {
  pool : Pool.t;
  seed : int;
  tmp : string;
  mu : Mutex.t;
  mutable latencies_ms : float list;
  mutable calls : int;
  mutable rung_failures : int;
  mutable call_minor_words : float;
  rungs : (string, int) Hashtbl.t;
  mutable attempted : int;
  mutable failed : string list;
  signature : Buffer.t;
  mutable layers : (string * float) list;
  mutable after_pass : (unit -> unit) list;  (* --extras measurements *)
}

let check ctx what ok =
  ctx.attempted <- ctx.attempted + 1;
  if not ok then ctx.failed <- what :: ctx.failed

let sign ctx fmt = Printf.kbprintf (fun b -> Buffer.add_char b '\n') ctx.signature fmt
let layer ctx name v = ctx.layers <- (name, v) :: ctx.layers
let ms s = 1000.0 *. s

let timed f =
  let t0 = Mono.now () in
  let r = f () in
  (r, Mono.now () -. t0)

(* The verifier boundary: every verifier call the pass makes goes
   through here, so its latency, ladder rung and allocation are recorded
   at the callback, on whichever domain runs it. *)
let call_verifier ctx ~parent (f : unit -> Verifier.fallback_report) =
  let mw0 = Gc.minor_words () in
  let r, dt = timed (fun () -> Span.with_span ~parent "verify" f) in
  let mw = Gc.minor_words () -. mw0 in
  Mutex.protect ctx.mu (fun () ->
      ctx.latencies_ms <- ms dt :: ctx.latencies_ms;
      ctx.calls <- ctx.calls + 1;
      ctx.rung_failures <- ctx.rung_failures + List.length r.Verifier.failures;
      ctx.call_minor_words <- ctx.call_minor_words +. mw;
      let rung = Option.value r.Verifier.rung ~default:"none" in
      Hashtbl.replace ctx.rungs rung (1 + Option.value ~default:0 (Hashtbl.find_opt ctx.rungs rung)));
  r

let verifier ctx f =
  let parent = Span.current () in
  fun x -> (call_verifier ctx ~parent (fun () -> f x)).Verifier.pipe

let warm_verifier ctx f =
  let parent = Span.current () in
  fun ?warm x ->
    let r = call_verifier ctx ~parent (fun () -> f ?warm x) in
    (r.Verifier.pipe, r.Verifier.warm)

let counter_delta before after =
  List.map
    (fun (k, v) -> (k, v - Option.value ~default:0 (List.assoc_opt k before)))
    after

let verdict_of (spec : Spec.t) pipe =
  Verifier.check ~unsafe:spec.Spec.unsafe ~goal:spec.Spec.goal pipe

let params_digest c =
  Controller.params c
  |> Array.map (Printf.sprintf "%h")
  |> Array.to_list |> String.concat "," |> Digest.string |> Digest.to_hex

(* ------------------------------------------------------------------ *)
(* Shared stages                                                      *)

let fresh_dir =
  let n = ref 0 in
  fun ctx ->
    incr n;
    Filename.concat ctx.tmp (Printf.sprintf "certs-%d-%d" (Unix.getpid ()) !n)

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

let same_pipe a b =
  Flowpipe.all_boxes a = Flowpipe.all_boxes b && Flowpipe.diverged a = Flowpipe.diverged b

(* Certify a learned controller: a cold verification deposits its
   certificate in a fresh disk cache, a second cache instance over the
   same directory replays it bit-exactly (rung "cache"), and the
   independent checker Full-replays the stored bytes. *)
let certify ctx ~(spec : Spec.t) ~dynamics ~steps verify_cached =
  let dir = fresh_dir ctx in
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
  let parent = Span.current () in
  let cold_cache = Cert_cache.create ~dir () in
  let cold, t_cold =
    timed (fun () -> call_verifier ctx ~parent (fun () -> verify_cached cold_cache))
  in
  let cold_verdict = verdict_of spec cold.Verifier.pipe in
  check ctx "certify: cold verification reaches Reach_avoid" (cold_verdict = Verifier.Reach_avoid);
  let warm_cache = Cert_cache.create ~dir () in
  let replay, t_replay =
    timed (fun () -> call_verifier ctx ~parent (fun () -> verify_cached warm_cache))
  in
  check ctx "certify: second cache instance replays the certificate"
    (replay.Verifier.rung = Some Dwv_robust.Robust_verify.cache_rung_name
    && same_pipe cold.Verifier.pipe replay.Verifier.pipe);
  let bytes = Option.map read_file (Cert_cache.last_store_path cold_cache) in
  let status, (report : Cert_check.step_report), t_check =
    match bytes with
    | None -> (Cert_check.Malformed "no certificate stored", { checked = 0; unchecked = 0 }, 0.0)
    | Some bytes ->
      let (status, report), dt =
        timed (fun () ->
            Span.with_span "cert.check" (fun () ->
                Cert_check.validate ~level:Cert_check.Full ~f:dynamics bytes))
      in
      (status, report, dt)
  in
  check ctx "certify: Full check is Valid on every step"
    (status = Cert_check.Valid && report.checked = steps);
  sign ctx "certify: %s, replay %s, check %s (%d steps checked)"
    (Verifier.verdict_to_string cold_verdict)
    (Option.value replay.Verifier.rung ~default:"none")
    (Cert_check.verdict_check_to_string status)
    report.checked;
  layer ctx "cert.cold_call_ms" (ms t_cold);
  layer ctx "cert.replay_ms" (ms t_replay);
  layer ctx "cert.check_ms" (ms t_check);
  layer ctx "cert.bytes" (float_of_int (Option.fold ~none:0 ~some:String.length bytes))

let rates ctx ~n ~sys ~controller ~(spec : Spec.t) =
  let mw0 = Gc.minor_words () in
  let r, dt =
    timed (fun () ->
        Evaluate.rates ~n ~pool:ctx.pool ~rng:(Rng.create ctx.seed) ~sys ~controller ~spec ())
  in
  check ctx "rates: SC = GR = 100%"
    (r.Evaluate.safe_percent = 100.0 && r.Evaluate.goal_percent = 100.0);
  sign ctx "rates: n=%d SC=%.4f GR=%.4f" r.Evaluate.n r.Evaluate.safe_percent
    r.Evaluate.goal_percent;
  layer ctx "rates.rollout_us" (1e6 *. dt /. float_of_int n);
  layer ctx "rates.minor_words_per_rollout" ((Gc.minor_words () -. mw0) /. float_of_int n)

(* [since]: the counters as the search started, for the share of its
   Taylor steps whose Picard iteration a warm-start hint seeded. *)
let initset_layers ctx ~since (r : Initset.result) =
  let delta = counter_delta since (Counters.snapshot ()) in
  let count k = float_of_int (Option.value ~default:0 (List.assoc_opt k delta)) in
  let steps = count "taylor_steps" in
  layer ctx "initset.warm_hit_share" (if steps > 0.0 then count "warm_hits" /. steps else 0.0);
  layer ctx "initset.cells" (float_of_int r.Initset.verifier_calls);
  layer ctx "initset.coverage" r.Initset.coverage;
  sign ctx "initset: coverage=%h calls=%d certified cells=%d" r.Initset.coverage
    r.Initset.verifier_calls (List.length r.Initset.verified)

let learner_layers ctx (results : Learner.result list) =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let iters = sum (fun r -> r.Learner.iterations) in
  let calls = sum (fun r -> r.Learner.verifier_calls) in
  layer ctx "learner.iters" (float_of_int iters);
  layer ctx "learner.calls" (float_of_int calls);
  layer ctx "learner.calls_per_iter"
    (if iters > 0 then float_of_int calls /. float_of_int iters else 0.0)

(* ------------------------------------------------------------------ *)
(* Layer ladder and Table 2 (--extras: timed outside the pass)        *)

(* Median seconds per call over five batches, each sized to run for at
   least 20 ms, plus minor words per call. *)
let per_call f =
  let min_s = 0.02 and reps = ref 1 in
  let batch () =
    let t0 = Mono.now () in
    for _ = 1 to !reps do
      ignore (Sys.opaque_identity (f ()))
    done;
    Mono.now () -. t0
  in
  while batch () < min_s && !reps < 1 lsl 24 do
    reps := !reps * 2
  done;
  let mw0 = Gc.minor_words () in
  let times = List.init 5 (fun _ -> batch ()) in
  let words = (Gc.minor_words () -. mw0) /. float_of_int (5 * !reps) in
  let sorted = List.sort compare times in
  (List.nth sorted 2 /. float_of_int !reps, words)

let ladder_rung ctx name unit_scale f =
  let s, words = per_call f in
  layer ctx ("ladder." ^ name) (unit_scale *. s);
  layer ctx ("ladder." ^ name ^ ".minor_words") words

(* Interval → Expr → Taylor model → Taylor step → NN abstraction, on
   the learned oscillator network over X0 at the verifier's settings. *)
let nn_ladder ctx controller =
  match controller with
  | Controller.Linear _ -> ()
  | Controller.Net { net; output_scale } ->
    let x0 = Oscillator.spec.Spec.x0 in
    let f = Oscillator.dynamics and order = Oscillator.tm_order in
    let a = Box.get x0 0 and b = Box.get x0 1 in
    let x = Tm_vec.of_box ~total_vars:(2 + Oscillator.fast_slots) ~order x0 in
    let u = Nn_reach_taylor.control_models ~net ~output_scale x in
    let u_box = Tm_vec.bound_box u in
    let lie = Taylor_reach.lie_table ~f ~order in
    let bern = Nn_reach_bernstein.default_config ~n:2 in
    ladder_rung ctx "interval_op_ns" 1e9 (fun () -> Interval.mul a b);
    ladder_rung ctx "expr_ieval_ns" 1e9 (fun () ->
        Expr.ieval_vec f ~x:[| a; b |] ~u:[| Box.get u_box 0 |]);
    ladder_rung ctx "tm_mul_us" 1e6 (fun () -> Tm.mul u.(0) x.(1));
    ladder_rung ctx "taylor_step_us" 1e6 (fun () ->
        Taylor_reach.step ~f ~lie ~delta:Oscillator.delta x u);
    ladder_rung ctx "polar_abstraction_us" 1e6 (fun () ->
        Nn_reach_taylor.control_models ~net ~output_scale x);
    ladder_rung ctx "bernstein_abstraction_us" 1e6 (fun () ->
        Nn_reach_bernstein.control_models ~net ~output_scale ~config:bern x)

(* One Linear_reach zonotope step on the learned ACC closed loop, the
   body of [Linear_reach.flowpipe]'s loop. *)
let zonotope_ladder ctx controller =
  match controller with
  | Controller.Net _ -> ()
  | Controller.Linear { gain } ->
    let sys = Acc.lti_augmented and delta = Acc.delta in
    let ad, bd = Linear_reach.discretize ~delta sys in
    let acl = Mat.add ad (Mat.matmul bd gain) in
    let z = Zonotope.of_box (Acc.augment_box Acc.spec.Spec.x0) in
    ladder_rung ctx "zonotope_step_us" 1e6 (fun () ->
        let x_box = Zonotope.to_box z in
        let u_box = Linear_reach.gain_range ~gain z in
        let z' = Zonotope.linear_map acl z in
        Linear_reach.intersample_enclosure sys ~x_box ~x_next_box:(Zonotope.to_box z') ~u_box
          ~delta)

(* A Table 2 cell: median robust-verifier call on the seed-1 warm start,
   times the learner's own calls per iteration. *)
let table2_cell ctx name ~calls_per_iter verify =
  let times = List.init 3 (fun _ -> snd (timed verify)) in
  let call_s = List.nth (List.sort compare times) 1 in
  layer ctx ("table2." ^ name ^ ".call_ms") (ms call_s);
  layer ctx ("table2." ^ name ^ ".iter_s") (call_s *. calls_per_iter)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

(* Table 1 ACC set-up: α = β, p = 1e-3, coordinate gradients, and
   random stable initial designs per seed. *)
let acc_learn_cfg alpha =
  { Learner.default_config with max_iters = 300; alpha; beta = alpha; perturbation = 1e-3 }

let acc_init_for_seed seed =
  let rng = Rng.create (1000 + seed) in
  Acc.controller_of_theta
    [| Rng.uniform rng ~lo:0.05 ~hi:0.15; Rng.uniform rng ~lo:(-0.7) ~hi:(-0.4); 0.0 |]

(* The marginal design of examples/initset_search.ml: only part of each
   coarse cell is certified, so the search refines to depth 7. *)
let acc_marginal = Acc.controller_of_theta [| 0.55; -2.0; 1.83 |]

let nn_learn_cfg =
  { Learner.default_config with
    max_iters = 20; alpha = 0.05; beta = 0.05; perturbation = 0.02;
    gradient_mode = Learner.Spsa 2 }

let nn_pretrain = { Dwv_nn.Pretrain.default_config with epochs = 100 }
let reachnn n = Verifier.Bernstein (Nn_reach_bernstein.default_config ~n)

(* The goal's central half: the full goal certifies all of X0 in one
   call, so the search has nothing to refine. *)
let central_half box =
  let lo = Box.lo box and hi = Box.hi box in
  Box.make
    ~lo:(Array.mapi (fun i l -> l +. (0.25 *. (hi.(i) -. l))) lo)
    ~hi:(Array.mapi (fun i h -> h -. (0.25 *. (h -. lo.(i)))) hi)

type prepared = { pass : ctx -> unit }

let acc_linear () =
  let jobs =
    List.concat_map
      (fun (metric, tag, alpha) ->
        List.map (fun s -> (metric, tag, alpha, s, acc_init_for_seed s)) [ 1; 2; 3; 4; 5 ])
      [ (Metrics.Geometric, "G", 0.2); (Metrics.Wasserstein, "W", 0.4) ]
  in
  let pass ctx =
    let spec = Acc.spec in
    let results =
      Span.with_span "learn" (fun () ->
          let verify = verifier ctx (fun c -> Acc.verify_robust c) in
          List.map
            (fun (metric, tag, alpha, seed, init) ->
              let r =
                Learner.learn ~pool:ctx.pool { (acc_learn_cfg alpha) with Learner.seed }
                  ~metric ~spec ~verify ~init
              in
              check ctx
                (Printf.sprintf "learn %s seed %d reaches Reach_avoid" tag seed)
                (r.Learner.verdict = Verifier.Reach_avoid);
              sign ctx "learn %s seed %d: CI=%d calls=%d %s theta=%s" tag seed
                r.Learner.iterations r.Learner.verifier_calls
                (Verifier.verdict_to_string r.Learner.verdict)
                (params_digest r.Learner.controller);
              r)
            jobs)
    in
    learner_layers ctx results;
    let learned = (List.hd results).Learner.controller in
    Span.with_span "certify" (fun () ->
        certify ctx ~spec ~dynamics:Acc.dynamics ~steps:spec.Spec.steps (fun cache ->
            Acc.verify_robust ~cache learned));
    let since = Counters.snapshot () in
    let ir =
      Span.with_span "initset" (fun () ->
          Initset.search ~max_depth:7 ~pool:ctx.pool
            ~verify:(verifier ctx (fun cell -> Acc.verify_robust_from cell acc_marginal))
            ~goal:spec.Spec.goal ~x0:spec.Spec.x0 ())
    in
    check ctx "initset: X_I is all of X0" (ir.Initset.coverage >= 1.0);
    initset_layers ctx ~since ir;
    Span.with_span "rates" (fun () ->
        rates ctx ~n:2000 ~sys:Acc.sampled ~controller:(Acc.sim_controller learned) ~spec);
    ctx.after_pass <-
      [ (fun () -> zonotope_ladder ctx learned);
        (fun () ->
          let calls_per_iter = List.assoc "learner.calls_per_iter" ctx.layers in
          let init = acc_init_for_seed 1 in
          table2_cell ctx "acc_flowstar" ~calls_per_iter (fun () -> Acc.verify_robust init)) ]
  in
  { pass }

let osc_nn () =
  let init = Oscillator.pretrained_controller ~config:nn_pretrain (Rng.create 1) in
  let goal = central_half Oscillator.spec.Spec.goal in
  let pass ctx =
    let spec = Oscillator.spec and pool = ctx.pool in
    let r =
      Span.with_span "learn" (fun () ->
          Learner.learn ~pool { nn_learn_cfg with Learner.seed = 1 } ~metric:Metrics.Wasserstein
            ~spec
            ~verify:(verifier ctx (fun c -> Oscillator.verify_robust ~pool c))
            ~init)
    in
    check ctx "learn W seed 1 reaches Reach_avoid" (r.Learner.verdict = Verifier.Reach_avoid);
    sign ctx "learn W seed 1: CI=%d calls=%d %s theta=%s" r.Learner.iterations
      r.Learner.verifier_calls
      (Verifier.verdict_to_string r.Learner.verdict)
      (params_digest r.Learner.controller);
    learner_layers ctx [ r ];
    let learned = r.Learner.controller in
    Span.with_span "certify" (fun () ->
        let parent = Span.current () in
        let reverify name f =
          let rep = call_verifier ctx ~parent f in
          let v = verdict_of spec rep.Verifier.pipe in
          check ctx (name ^ " re-verification reaches Reach_avoid") (v = Verifier.Reach_avoid);
          sign ctx "certify: %s %s" name (Verifier.verdict_to_string v)
        in
        reverify "POLAR tight" (fun () ->
            Oscillator.verify_robust ~slots:Oscillator.tight_slots ~pool learned);
        reverify "ReachNN" (fun () ->
            Oscillator.verify_robust ~method_:(reachnn 2) ~pool learned);
        certify ctx ~spec ~dynamics:Oscillator.dynamics ~steps:spec.Spec.steps (fun cache ->
            Oscillator.verify_robust ~slots:Oscillator.tight_slots ~cache ~pool learned));
    let since = Counters.snapshot () in
    let ir =
      Span.with_span "initset" (fun () ->
          Initset.search ~max_depth:3 ~pool
            ~verify_warm:
              (warm_verifier ctx (fun ?warm cell ->
                   Oscillator.verify_robust_from ~pool ?warm cell learned))
            ~verify:(verifier ctx (fun cell -> Oscillator.verify_robust_from ~pool cell learned))
            ~goal ~x0:spec.Spec.x0 ())
    in
    check ctx "initset: certified coverage of the central-half goal >= 0.375"
      (ir.Initset.coverage >= 0.375);
    initset_layers ctx ~since ir;
    Span.with_span "rates" (fun () ->
        rates ctx ~n:2000 ~sys:Oscillator.sampled
          ~controller:(Oscillator.sim_controller learned) ~spec);
    ctx.after_pass <-
      [ (fun () -> nn_ladder ctx learned);
        (fun () ->
          (* the 3-D study learns with the same SPSA-2 schedule, so it
             takes the oscillator learner's calls per iteration *)
          let calls_per_iter = List.assoc "learner.calls_per_iter" ctx.layers in
          let osc = init in
          let td = Threed.pretrained_controller ~config:nn_pretrain (Rng.create 1) in
          table2_cell ctx "osc_polar" ~calls_per_iter (fun () -> Oscillator.verify_robust osc);
          table2_cell ctx "osc_reachnn" ~calls_per_iter (fun () ->
              Oscillator.verify_robust ~method_:(reachnn 2) osc);
          table2_cell ctx "threed_polar" ~calls_per_iter (fun () -> Threed.verify_robust td);
          table2_cell ctx "threed_reachnn" ~calls_per_iter (fun () ->
              Threed.verify_robust ~method_:(reachnn 3) td)) ]
  in
  { pass }

(* The campaign seed is the benchmark seed; seed 42 has a recorded
   verdict tally to check against. *)
let fuzz_count = 1000
let fuzz_known = [ (42, (746, 254)) ]

let scenario_fuzz () =
  let pass ctx =
    let r =
      Span.with_span "fuzz" (fun () -> Scn_fuzz.run ~pool:ctx.pool ~count:fuzz_count ~seed:ctx.seed ())
    in
    let tally pred = Array.fold_left (fun n x -> if pred x then n + 1 else n) 0 r.Scn_fuzz.records in
    let ra = tally (fun x -> x.Scn_fuzz.verdict = "reach-avoid") in
    let unknown = tally (fun x -> x.Scn_fuzz.verdict = "Unknown") in
    let rung name = tally (fun x -> x.Scn_fuzz.rung = Some name) in
    Array.iter
      (fun (x : Scn_fuzz.record) ->
        check ctx
          (Printf.sprintf "scenario %d: oracle agrees and any certificate is Valid" x.index)
          ((not x.violation) && (x.cert = "valid" || x.cert = "absent"));
        ctx.latencies_ms <- x.latency_ms :: ctx.latencies_ms)
      r.Scn_fuzz.records;
    (match List.assoc_opt ctx.seed fuzz_known with
    | Some (k_ra, k_unknown) ->
      check ctx "campaign matches the recorded verdict tally" (ra = k_ra && unknown = k_unknown)
    | None -> ());
    sign ctx "fuzz: seed=%d count=%d reach_avoid=%d unknown=%d violations=%d records=%s"
      ctx.seed fuzz_count ra unknown (Scn_fuzz.violations r)
      (Array.to_list r.Scn_fuzz.records
      |> List.map Scn_fuzz.determinism_key
      |> String.concat "\n" |> Digest.string |> Digest.to_hex);
    let lat = Array.map (fun (x : Scn_fuzz.record) -> x.latency_ms) r.Scn_fuzz.records in
    Array.sort compare lat;
    let n = Array.length lat in
    layer ctx "fuzz.examine_ms.p50" lat.(n / 2);
    layer ctx "fuzz.examine_ms.tail" lat.(max 0 (n - 11));
    layer ctx "fuzz.rung.interval" (float_of_int (rung "interval"));
    layer ctx "fuzz.rung.taylor" (float_of_int (rung "taylor"));
    layer ctx "fuzz.verdict.reach_avoid" (float_of_int ra);
    layer ctx "fuzz.verdict.unknown" (float_of_int unknown);
    layer ctx "fuzz.violations" (float_of_int (Scn_fuzz.violations r))
  in
  { pass }

let workloads = [ ("acc-linear", acc_linear); ("osc-nn", osc_nn); ("scenario-fuzz", scenario_fuzz) ]

(* ------------------------------------------------------------------ *)
(* Per-layer numbers derived from spans, counters, phases and the GC  *)

let rung_metric = function
  | "zonotope" -> Some "verify.rung.zonotope"
  | "POLAR" -> Some "verify.rung.polar"
  | "POLAR+tight" -> Some "verify.rung.polar_tight"
  | "ReachNN" -> Some "verify.rung.reachnn"
  | "interval" -> Some "verify.rung.interval"
  | r when r = Dwv_robust.Robust_verify.cache_rung_name -> Some "verify.rung.cache"
  | _ -> None

let trace_layers ctx ~counters ~gc0 ~gc1 ~lie_tables ~domains =
  let spans = Span.all () in
  let count k = float_of_int (Option.value ~default:0 (List.assoc_opt k counters)) in
  List.iter
    (fun (m, k) -> layer ctx m (count k))
    [ ("reach.taylor_steps", "taylor_steps"); ("reach.polar_abstractions", "polar_abstractions");
      ("reach.bernstein_abstractions", "bernstein_abstractions");
      ("reach.nn_flowpipes", "nn_flowpipes"); ("reach.linear_flowpipes", "linear_flowpipes");
      ("reach.warm_hits", "warm_hits"); ("verify.calls", "verifier_calls"); ("cache.hits", "cache_hits");
      ("cache.fast_hits", "cache_fast_hits"); ("cache.misses", "cache_misses");
      ("cache.stores", "cache_stores"); ("cache.rejects", "cache_rejects") ];
  layer ctx "reach.lie_tables" (float_of_int lie_tables);
  layer ctx "verify.failures" (float_of_int ctx.rung_failures);
  Hashtbl.iter
    (fun rung n ->
      match rung_metric rung with Some m -> layer ctx m (float_of_int n) | None -> ())
    ctx.rungs;
  (* stages: wall, self (not inside any verifier call) and the pass's
     unattributed remainder *)
  let root = List.find_opt (fun s -> s.Span.name = "pass") spans in
  Option.iter
    (fun root ->
      let stages = Span.children spans root in
      List.iter
        (fun (s : Span.t) -> layer ctx ("stage." ^ s.Span.name ^ "_s") (Span.duration s))
        stages;
      let staged = List.fold_left (fun acc s -> acc +. Span.duration s) 0.0 stages in
      layer ctx "stage.unattributed_s" (Span.duration root -. staged);
      let self name =
        List.find_opt (fun s -> s.Span.name = name) stages
        |> Option.map (Span.self_time spans)
      in
      Option.iter (layer ctx "learner.self_s") (self "learn");
      Option.iter (layer ctx "initset.self_s") (self "initset");
      List.iter
        (fun (s : Span.t) ->
          if s.Span.name = "learn" then
            layer ctx "learner.verify_busy_s"
              (List.fold_left (fun acc c -> acc +. Span.duration c) 0.0 (Span.children spans s)))
        stages)
    root;
  (* the in-program phase accumulators and GC counts add time and words
     across domains, so they are read in the 1-domain pass only *)
  if domains = 1 then begin
    List.iter
      (fun (p, v) ->
        if not (String.contains p '/') then layer ctx ("phase." ^ p ^ "_s") v)
      (Phases.snapshot ());
    layer ctx "gc.minor_words" (gc1.Gc.minor_words -. gc0.Gc.minor_words);
    layer ctx "gc.major_collections"
      (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
    layer ctx "verify.minor_words_per_call"
      (if ctx.calls > 0 then ctx.call_minor_words /. float_of_int ctx.calls else 0.0)
  end

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let peak_rss_mb () =
  try
    In_channel.with_open_text "/proc/self/status" In_channel.input_lines
    |> List.find_map (fun l ->
           if String.starts_with ~prefix:"VmHWM:" l then
             Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                 Some (float_of_int kb /. 1024.0))
           else None)
    |> Option.value ~default:0.0
  with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> 0.0

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float v = if Float.is_finite v then Printf.sprintf "%.9g" v else "null"

let print_result ctx ~ready_at ~pass_s ~aggregate =
  let b = Buffer.create 65536 in
  let list f xs = String.concat ", " (List.map f xs) in
  Printf.bprintf b
    "{\"ready_at\": %.6f, \"pass_s\": %s, \"peak_rss_mb\": %s, \"attempted\": %d, \
     \"failed\": [%s], \"signature\": %s, \"latencies_ms\": [%s], \"layers\": {%s}, \
     \"spans\": [%s]}"
    ready_at (json_float pass_s) (json_float (peak_rss_mb ())) ctx.attempted
    (list json_string (List.rev ctx.failed))
    (json_string (Buffer.contents ctx.signature))
    (list json_float (List.rev ctx.latencies_ms))
    (list (fun (k, v) -> Printf.sprintf "%s: %s" (json_string k) (json_float v)) (List.rev ctx.layers))
    (list
       (fun (path, (n, wall, self)) ->
         Printf.sprintf "[%s, %d, %s, %s]" (json_string path) n (json_float wall) (json_float self))
       aggregate);
  print_endline (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

let () =
  let workload = ref "" and seed = ref 0 and domains = ref 1 and tmp = ref "" in
  let trace = ref false and extras = ref false and spans_file = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--domains", Arg.Set_int domains, "D pool domains");
      ("--tmp", Arg.Set_string tmp, "DIR scratch directory for certificate caches");
      ("--trace", Arg.Set trace, " record spans and per-layer numbers");
      ("--extras", Arg.Set extras, " also time the Table 2 cells and the layer ladder");
      ("--spans", Arg.Set_string spans_file, "FILE write the raw spans here") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "paperbench.exe --workload NAME --seed N --domains D --tmp DIR [--trace] [--extras]";
  let make =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
      prerr_endline ("paperbench: unknown workload " ^ !workload);
      exit 2
  in
  if !tmp = "" || not (Sys.file_exists !tmp) then begin
    prerr_endline "paperbench: --tmp must name an existing directory";
    exit 2
  end;
  let prepared = make () in
  Pool.with_pool ~domains:!domains (fun pool ->
      let ctx =
        { pool; seed = !seed; tmp = !tmp; mu = Mutex.create (); latencies_ms = []; calls = 0;
          rung_failures = 0; call_minor_words = 0.0; rungs = Hashtbl.create 8; attempted = 0;
          failed = []; signature = Buffer.create 1024; layers = []; after_pass = [] }
      in
      let ready_at = Unix.gettimeofday () in
      Span.enabled := !trace;
      Counters.reset ();
      Phases.reset ();
      let lie0 = Taylor_reach.lie_registry_size () in
      let gc0 = Gc.quick_stat () in
      let (), pass_s = timed (fun () -> Span.with_span "pass" (fun () -> prepared.pass ctx)) in
      let gc1 = Gc.quick_stat () in
      let counters = Counters.snapshot () in
      let lie_tables = Taylor_reach.lie_registry_size () - lie0 in
      Span.enabled := false;
      let counter_line =
        counters
        |> List.filter (fun (_, v) -> v <> 0)
        |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
        |> String.concat " "
      in
      sign ctx "counters: %s" counter_line;
      let aggregate =
        if !trace then begin
          trace_layers ctx ~counters ~gc0 ~gc1 ~lie_tables ~domains:(Pool.domains pool);
          if !spans_file <> "" then
            Out_channel.with_open_text !spans_file (fun oc ->
                output_string oc (Span.to_json (Span.all ())));
          Span.aggregate (Span.all ())
        end
        else []
      in
      if !extras then List.iter (fun f -> f ()) ctx.after_pass;
      print_result ctx ~ready_at ~pass_s ~aggregate)
