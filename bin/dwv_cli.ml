(* dwv: command-line front end to the design-while-verify framework.

     dwv info     -s acc                    print a system's spec
     dwv verify   -s oscillator -t polar    verify the warm-start design
     dwv learn    -s acc -m G               run Algorithm 1
     dwv simulate -s threed -n 500          Monte-Carlo SC/GR rates
     dwv initset  -s acc                    run Algorithm 2
     dwv cert emit -s acc --cert-dir D      verify + deposit a certificate
     dwv cert check FILE -s acc             independently re-check a certificate
     dwv cert gc --cert-dir D --keep N      bound the on-disk store

   SYSTEM is any built-in of the scenario registry (`dwv scenario list`
   prints them with their dimensions); the -s doc lists their names. *)

module Box = Dwv_interval.Box
module Verifier = Dwv_reach.Verifier
module Flowpipe = Dwv_reach.Flowpipe
module Spec = Dwv_core.Spec
module Controller = Dwv_core.Controller
module Learner = Dwv_core.Learner
module Metrics = Dwv_core.Metrics
module Evaluate = Dwv_core.Evaluate
module Initset = Dwv_core.Initset
module Rng = Dwv_util.Rng
module Dwv_error = Dwv_robust.Dwv_error
module Budget = Dwv_robust.Budget
module Fault = Dwv_robust.Fault
module Pool = Dwv_parallel.Pool
module Cert_cache = Dwv_cert.Cert_cache
module Cert_check = Dwv_cert.Cert_check
module Scenario = Dwv_systems.Scenario
module Scn_registry = Dwv_scenario.Scn_registry
module Scn_verify = Dwv_scenario.Scn_verify
module Scn_fuzz = Dwv_scenario.Scn_fuzz

(* The built-in systems are the registry's handles; what the CLI adds is
   the learner's defaults, by controller shape. *)
let builtin_names = String.concat ", " (Scn_registry.names ())

let builtin name =
  match Scn_registry.find name with
  | Some e -> Ok e
  | None ->
    Error (`Msg (Fmt.str "unknown system: %s (expected one of %s)" name builtin_names))

let learner_defaults (sys : Scn_registry.entry) =
  match sys.scenario.Scenario.controller with
  | Scenario.Affine _ ->
    { Learner.default_config with max_iters = 150; alpha = 0.2; beta = 0.2 }
  | Scenario.Net _ ->
    { Learner.default_config with
      max_iters = 20; alpha = 0.05; beta = 0.05; perturbation = 0.02;
      gradient_mode = Learner.Spsa 2 }

let method_of_name (sys : Scn_registry.entry) = function
  | "polar" -> Ok (Some Verifier.Polar)
  | "reachnn" ->
    let n = Scenario.n_total sys.scenario in
    Ok (Some (Verifier.Bernstein (Dwv_reach.Nn_reach_bernstein.default_config ~n)))
  | "default" -> Ok None
  | s -> Error (`Msg ("unknown tool: " ^ s ^ " (expected polar | reachnn)"))

let metric_of_name = function
  | "G" | "g" | "geometric" -> Ok Metrics.Geometric
  | "W" | "w" | "wasserstein" -> Ok Metrics.Wasserstein
  | s -> Error (`Msg ("unknown metric: " ^ s ^ " (expected G | W)"))

open Cmdliner

let system_arg =
  let doc = "Benchmark system: " ^ builtin_names ^ "." in
  Arg.(required & opt (some string) None & info [ "s"; "system" ] ~docv:"SYSTEM" ~doc)

let tool_arg =
  let doc = "Verification tool for NN systems: polar or reachnn." in
  Arg.(value & opt string "default" & info [ "t"; "tool" ] ~docv:"TOOL" ~doc)

let seed_arg =
  let doc = "Random seed (controller init, SPSA directions, rollouts)." in
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc)

let or_die = function Ok v -> v | Error (`Msg m) -> Fmt.epr "dwv: %s@." m; exit 2

let domains_arg =
  let doc =
    "Domains for parallel fan-out of gradient probes, frontier cells and \
     rollouts (1 = the exact sequential code path; results are identical \
     at any value). Defaults to the machine's recommended domain count."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

let with_domain_pool domains f =
  let domains = Option.value domains ~default:(Pool.default_domains ()) in
  Pool.with_pool ~domains f

let controller_arg =
  let doc = "Load a saved controller instead of the warm-start design." in
  Arg.(value & opt (some file) None & info [ "c"; "controller" ] ~docv:"FILE" ~doc)

(* The NN studies start from their warm start, the others from the
   controller their DSL text declares. *)
let initial_controller (sys : Scn_registry.entry) ~controller_file ~seed =
  match (controller_file, sys.warm_start) with
  | Some path, _ -> Controller.load path
  | None, Some w -> w.Scn_registry.pretrained (Rng.create seed)
  | None, None -> sys.init (Rng.create seed)

(* ---- fault-tolerance options shared by verify and learn ---- *)

let deadline_arg =
  let doc = "Wall-clock deadline in seconds for the whole run." in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let max_calls_arg =
  let doc = "Verifier-call budget for the whole run." in
  Arg.(value & opt (some int) None & info [ "max-calls" ] ~docv:"N" ~doc)

let fault_arg =
  let doc =
    "Inject a fault at verifier call $(i,IDX) (0-based): IDX:KIND with KIND one of \
     nan, blowup, deadline, budget, cert-corrupt, cert-stale, cert-io. Repeatable."
  in
  Arg.(value & opt_all string [] & info [ "fault" ] ~docv:"IDX:KIND" ~doc)

let cert_dir_arg =
  let doc =
    "Consult (and grow) a crash-safe certificate cache rooted at this directory: \
     verifier calls whose stored certificate re-validates are replayed bit-exactly \
     instead of recomputed."
  in
  Arg.(value & opt (some string) None & info [ "cert-dir" ] ~docv:"DIR" ~doc)

let cache_of_dir = Option.map (fun dir -> Cert_cache.create ~dir ())

let report_cache_stats = function
  | None -> ()
  | Some cache -> Fmt.pr "certificate cache: %a@." Cert_cache.pp_stats (Cert_cache.stats cache)

let plain_arg =
  let doc = "Bypass the fallback ladder (plain single-method verifier)." in
  Arg.(value & flag & info [ "plain" ] ~doc)

let parse_fault s =
  match String.index_opt s ':' with
  | None -> Error (`Msg ("bad --fault " ^ s ^ " (expected IDX:KIND)"))
  | Some i -> (
    let idx = String.sub s 0 i in
    let kind = String.sub s (i + 1) (String.length s - i - 1) in
    match (int_of_string_opt idx, Fault.kind_of_string kind) with
    | Some idx, Some kind when idx >= 0 -> Ok (idx, kind)
    | _ ->
      Error
        (`Msg
          ("bad --fault " ^ s ^ " (expected IDX:KIND, KIND in nan | blowup | \
            deadline | budget | cert-corrupt | cert-stale | cert-io)")))

let parse_faults specs = List.map (fun s -> or_die (parse_fault s)) specs

let budget_of ~deadline ~max_calls =
  match (deadline, max_calls) with
  | None, None -> None
  | _ -> Some (Budget.create ?deadline ?max_calls ())

(* Run [f] with the fault plan armed (if any), returning its result plus
   the faults that actually fired. *)
let with_fault_plan ~seed faults f =
  if faults = [] then (f (), [])
  else
    Fault.with_faults ~seed faults (fun () ->
        let r = f () in
        (r, Fault.injected ()))

let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let pp_tally ppf tbl =
  let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  let entries = List.sort (fun (_, a) (_, b) -> compare b a) entries in
  Fmt.(list ~sep:sp (pair ~sep:(any "=") string int)) ppf entries

let report_robustness ~rungs ~failures ~injected () =
  if Hashtbl.length rungs > 0 then Fmt.pr "fallback rungs: %a@." pp_tally rungs;
  if Hashtbl.length failures > 0 then
    Fmt.pr "verifier failures: %a@." pp_tally failures;
  List.iter
    (fun (i, k) -> Fmt.pr "injected fault at call %d: %s@." i (Fault.kind_to_string k))
    injected

let info_cmd =
  let run name =
    let sys = or_die (builtin name) in
    Fmt.pr "%a@." Spec.pp (Scenario.spec sys.scenario)
  in
  Cmd.v (Cmd.info "info" ~doc:"Print a benchmark system's reach-avoid specification")
    Term.(const run $ system_arg)

let verify_cmd =
  let run name tool seed controller_file deadline fault_specs plain cert_dir =
    let sys = or_die (builtin name) in
    let method_ = or_die (method_of_name sys tool) in
    let faults = parse_faults fault_specs in
    let c = initial_controller sys ~controller_file ~seed in
    let cache = cache_of_dir cert_dir in
    let t0 = Sys.time () in
    let pipe, injected =
      if plain then (sys.verify ?method_ c, [])
      else begin
        let budget = budget_of ~deadline ~max_calls:None in
        let report, injected =
          with_fault_plan ~seed faults (fun () ->
              (sys.verify_robust ?method_ ?budget ?cache c).Scn_verify.fallback)
        in
        (match report.Verifier.rung with
        | Some rung when report.Verifier.rung_index <> Some 0 ->
          Fmt.pr "verdict produced by fallback rung: %s@." rung
        | _ -> ());
        List.iter
          (fun (rung, e) ->
            Fmt.pr "rung %s failed: %a@." rung Dwv_error.pp e)
          report.Verifier.failures;
        (report.Verifier.pipe, injected)
      end
    in
    let verdict = Scn_verify.check sys.scenario pipe in
    List.iter
      (fun (i, k) -> Fmt.pr "injected fault at call %d: %s@." i (Fault.kind_to_string k))
      injected;
    report_cache_stats cache;
    Fmt.pr "%a@.verdict: %a (%.2fs cpu)@." Flowpipe.pp pipe Verifier.pp_verdict verdict
      (Sys.time () -. t0)
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Verify a design once (warm start, or a saved controller)")
    Term.(
      const run $ system_arg $ tool_arg $ seed_arg $ controller_arg $ deadline_arg
      $ fault_arg $ plain_arg $ cert_dir_arg)

let learn_cmd =
  let metric_arg =
    Arg.(value & opt string "G" & info [ "m"; "metric" ] ~docv:"METRIC" ~doc:"G or W.")
  in
  let iters_arg =
    Arg.(value & opt (some int) None & info [ "iters" ] ~docv:"N" ~doc:"Iteration budget.")
  in
  let save_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE" ~doc:"Save the learned controller to this file.")
  in
  let run name tool metric_name iters seed controller_file save deadline max_calls
      fault_specs plain domains cert_dir =
    let sys = or_die (builtin name) in
    let method_ = or_die (method_of_name sys tool) in
    let metric = or_die (metric_of_name metric_name) in
    let faults = parse_faults fault_specs in
    let cfg = learner_defaults sys in
    let cfg =
      match iters with
      | Some n -> { cfg with Learner.max_iters = n; seed }
      | None -> { cfg with seed }
    in
    let budget = budget_of ~deadline ~max_calls in
    let cache = cache_of_dir cert_dir in
    let rungs = Hashtbl.create 8 and failures = Hashtbl.create 8 in
    let tally_mu = Mutex.create () in
    let verify c =
      if plain then sys.verify ?method_ c
      else begin
        let report = (sys.verify_robust ?method_ ?budget ?cache c).Scn_verify.fallback in
        Mutex.lock tally_mu;
        bump rungs (Option.value ~default:"none" report.Verifier.rung);
        List.iter
          (fun (_, e) -> bump failures (Dwv_error.kind_name e))
          report.Verifier.failures;
        Mutex.unlock tally_mu;
        report.Verifier.pipe
      end
    in
    let r, injected =
      with_fault_plan ~seed faults (fun () ->
          with_domain_pool domains (fun pool ->
              Learner.learn ?budget ~pool cfg ~metric ~spec:(Scenario.spec sys.scenario)
                ~verify
                ~init:(initial_controller sys ~controller_file ~seed)))
    in
    Fmt.pr "CI = %d (%d verifier calls), verdict: %a@." r.Learner.iterations
      r.Learner.verifier_calls Verifier.pp_verdict r.Learner.verdict;
    Fmt.pr "final reachable box: %a@." Box.pp (Flowpipe.final_box r.Learner.pipe);
    List.iter
      (fun (h : Learner.history_point) ->
        Fmt.pr "  it %2d: objective=%.5g safety=%.5g goal=%.5g %a@." h.Learner.iter
          h.Learner.objective h.Learner.scores.Metrics.safety h.Learner.scores.Metrics.goal
          Verifier.pp_verdict h.Learner.verdict)
      r.Learner.history;
    report_robustness ~rungs ~failures ~injected ();
    report_cache_stats cache;
    if r.Learner.skipped_probes > 0 then
      Fmt.pr "gradient probes skipped (non-finite scores): %d@." r.Learner.skipped_probes;
    (match r.Learner.stopped with
    | Some e -> Fmt.pr "stopped early: %a@." Dwv_error.pp e
    | None -> ());
    match save with
    | Some path ->
      Controller.save path r.Learner.controller;
      Fmt.pr "saved controller to %s@." path
    | None -> ()
  in
  Cmd.v (Cmd.info "learn" ~doc:"Run Algorithm 1 (verification-in-the-loop learning)")
    Term.(
      const run $ system_arg $ tool_arg $ metric_arg $ iters_arg $ seed_arg $ controller_arg
      $ save_arg $ deadline_arg $ max_calls_arg $ fault_arg $ plain_arg $ domains_arg
      $ cert_dir_arg)

let simulate_cmd =
  let n_arg = Arg.(value & opt int 500 & info [ "n" ] ~docv:"N" ~doc:"Number of rollouts.") in
  let run name n seed controller_file domains =
    let sys = or_die (builtin name) in
    let c = initial_controller sys ~controller_file ~seed in
    let rng = Rng.create (seed + 1) in
    let rates =
      with_domain_pool domains (fun pool ->
          Evaluate.rates ~n ~pool ~rng ~sys:(Scenario.sampled sys.scenario)
            ~controller:(sys.sim c) ~spec:(Scenario.spec sys.scenario) ())
    in
    Fmt.pr "%a@." Evaluate.pp_rates rates
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Monte-Carlo SC/GR rates of a design")
    Term.(const run $ system_arg $ n_arg $ seed_arg $ controller_arg $ domains_arg)

let initset_cmd =
  let depth_arg =
    Arg.(value & opt int 3 & info [ "depth" ] ~docv:"D" ~doc:"Max bisection depth.")
  in
  let run name tool depth seed controller_file domains cert_dir =
    let sys = or_die (builtin name) in
    let method_ = or_die (method_of_name sys tool) in
    let c = initial_controller sys ~controller_file ~seed in
    let cache = cache_of_dir cert_dir in
    (* with a cache the per-cell verifier is the robust one (certificate
       hits replay bit-exactly); without one we keep the plain verifier *)
    let verify cell =
      match cache with
      | None -> sys.verify ?method_ ~x0:cell c
      | Some _ ->
        (sys.verify_robust ?method_ ?cache ~x0:cell c).Scn_verify.fallback.Verifier.pipe
    in
    let spec = Scenario.spec sys.scenario in
    let r =
      with_domain_pool domains (fun pool ->
          Initset.search ~max_depth:depth ~pool ~verify ~goal:spec.Spec.goal
            ~x0:spec.Spec.x0 ())
    in
    report_cache_stats cache;
    Fmt.pr "%a@." Initset.pp_result r
  in
  Cmd.v (Cmd.info "initset" ~doc:"Run Algorithm 2 (reach-avoid initial-set search)")
    Term.(
      const run $ system_arg $ tool_arg $ depth_arg $ seed_arg $ controller_arg $ domains_arg
      $ cert_dir_arg)

(* ---- certificate tooling: emit / check / gc ---- *)

let cert_emit_cmd =
  let dir_arg =
    let doc = "Certificate store the emitted proof is deposited in." in
    Arg.(required & opt (some string) None & info [ "cert-dir" ] ~docv:"DIR" ~doc)
  in
  let run name tool seed controller_file dir =
    let sys = or_die (builtin name) in
    let method_ = or_die (method_of_name sys tool) in
    let c = initial_controller sys ~controller_file ~seed in
    let cache = Cert_cache.create ~dir () in
    let { Scn_verify.verdict; fallback = report } = sys.verify_robust ?method_ ~cache c in
    Fmt.pr "verdict: %a@." Verifier.pp_verdict verdict;
    report_cache_stats (Some cache);
    match Cert_cache.last_store_path cache with
    | Some path -> Fmt.pr "certificate: %s@." path
    | None ->
      (match report.Verifier.rung with
      | Some rung when rung = Dwv_robust.Robust_verify.cache_rung_name ->
        Fmt.pr "certificate already cached (validated hit)@."
      | _ ->
        Fmt.epr "dwv: no certificate emitted (verification did not complete cleanly)@.";
        exit 1)
  in
  Cmd.v
    (Cmd.info "emit" ~doc:"Verify a design and deposit a replayable proof certificate")
    Term.(const run $ system_arg $ tool_arg $ seed_arg $ controller_arg $ dir_arg)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let cert_check_cmd =
  let file_arg =
    Arg.(
      required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Certificate file.")
  in
  let sys_arg =
    let doc =
      "System whose dynamics the Full-level flow replay uses; omit for a \
       structural (Quick-level) check only."
    in
    Arg.(value & opt (some string) None & info [ "s"; "system" ] ~docv:"SYSTEM" ~doc)
  in
  let run path sys_name =
    let bytes =
      try read_file path
      with Sys_error m ->
        Fmt.epr "dwv: %s@." m;
        exit 2
    in
    let level, f =
      match sys_name with
      | None -> (Cert_check.Quick, None)
      | Some name ->
        let sys = or_die (builtin name) in
        (Cert_check.Full, Some (Scenario.f_total sys.scenario))
    in
    let verdict, report = Cert_check.validate ~level ?f bytes in
    Fmt.pr "%s (%d steps checked, %d unchecked)@."
      (Cert_check.verdict_check_to_string verdict)
      report.Cert_check.checked report.Cert_check.unchecked;
    match verdict with Cert_check.Valid -> () | _ -> exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Independently re-check a certificate with directed-rounding interval \
          arithmetic (exit 1 unless Valid)")
    Term.(const run $ file_arg $ sys_arg)

let cert_gc_cmd =
  let dir_arg =
    let doc = "Certificate store to bound." in
    Arg.(required & opt (some string) None & info [ "cert-dir" ] ~docv:"DIR" ~doc)
  in
  let keep_arg =
    Arg.(
      value & opt int 256
      & info [ "keep" ] ~docv:"N" ~doc:"Keep the N most recently written entries.")
  in
  let run dir keep =
    let cache = Cert_cache.create ~dir () in
    let removed = Cert_cache.gc cache ~keep in
    Fmt.pr "removed %d certificate(s) from %s@." removed dir
  in
  Cmd.v (Cmd.info "gc" ~doc:"Delete all but the most recent N cached certificates")
    Term.(const run $ dir_arg $ keep_arg)

let cert_cmd =
  Cmd.group
    (Cmd.info "cert" ~doc:"Emit, independently re-check and garbage-collect proof certificates")
    [ cert_emit_cmd; cert_check_cmd; cert_gc_cmd ]

(* ---- scenario farm ---- *)

let scenario_entry name file =
  match (name, file) with
  | Some n, None -> (
    match Scn_registry.find n with
    | Some e -> e
    | None ->
      (* not a built-in: treat the name as a DSL file path *)
      if Sys.file_exists n then Scn_registry.of_file n
      else begin
        Fmt.epr "dwv: unknown scenario %s (built-ins: %s)@." n builtin_names;
        exit 2
      end)
  | None, Some path -> Scn_registry.of_file path
  | _ ->
    Fmt.epr "dwv: give exactly one of -s NAME or --file FILE@.";
    exit 2

let scenario_name_arg =
  let doc = "Built-in scenario name (" ^ builtin_names ^ ") or a DSL file." in
  Arg.(value & opt (some string) None & info [ "s"; "scenario" ] ~docv:"NAME" ~doc)

let scenario_file_arg =
  let doc = "Scenario DSL file to load." in
  Arg.(value & opt (some file) None & info [ "file" ] ~docv:"FILE" ~doc)

let scenario_list_cmd =
  let run () =
    List.iter
      (fun (name, e) ->
        Fmt.pr "%-12s %a@." name Scenario.pp e.Scn_registry.scenario)
      Scn_registry.builtins
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the built-in scenarios of the farm")
    Term.(const run $ const ())

let scenario_run_cmd =
  let run name file seed controller_file deadline max_calls cert_dir rollouts =
    let entry = scenario_entry name file in
    let scn = entry.Scn_registry.scenario in
    Fmt.pr "scenario %a@." Scenario.pp scn;
    let c =
      match controller_file with
      | Some path -> Controller.load path
      | None -> entry.Scn_registry.init (Rng.create seed)
    in
    let budget = budget_of ~deadline ~max_calls in
    let cache = cache_of_dir cert_dir in
    let t0 = Unix.gettimeofday () in
    let report = entry.Scn_registry.verify_robust ?budget ?cache c in
    let dt = Unix.gettimeofday () -. t0 in
    let fb = report.Scn_verify.fallback in
    Fmt.pr "verdict: %a (rung %s, %.3f s)@." Verifier.pp_verdict
      report.Scn_verify.verdict
      (Option.value fb.Verifier.rung ~default:"-")
      dt;
    (match fb.Verifier.error with
    | Some e -> Fmt.pr "failure: %a@." Dwv_error.pp e
    | None -> ());
    let rates =
      Evaluate.rates ~n:rollouts
        ~avoid:(Scenario.avoid_total scn)
        ~rng:(Rng.create (seed + 1))
        ~sys:(Scenario.sampled scn)
        ~controller:(entry.Scn_registry.sim c)
        ~spec:(Scenario.spec scn) ()
    in
    Fmt.pr "%a@." Evaluate.pp_rates rates;
    report_cache_stats cache
  in
  let rollouts_arg =
    Arg.(value & opt int 200 & info [ "n" ] ~docv:"N" ~doc:"Monte-Carlo rollouts.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Verify a scenario (built-in or DSL file) and report SC/GR rates")
    Term.(
      const run $ scenario_name_arg $ scenario_file_arg $ seed_arg
      $ controller_arg $ deadline_arg $ max_calls_arg $ cert_dir_arg
      $ rollouts_arg)

let scenario_fuzz_cmd =
  let count_arg =
    Arg.(value & opt int 200 & info [ "n"; "count" ] ~docv:"N" ~doc:"Scenarios to fuzz.")
  in
  let rollouts_arg =
    Arg.(
      value & opt int 50
      & info [ "rollouts" ] ~docv:"N" ~doc:"Oracle rollouts per scenario.")
  in
  let report_arg =
    Arg.(
      value & opt (some string) None
      & info [ "report" ] ~docv:"FILE" ~doc:"Write the JSON campaign report here.")
  in
  let corpus_arg =
    Arg.(
      value & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR" ~doc:"Write shrunk reproducer DSL files here.")
  in
  let run seed count rollouts domains report_file corpus =
    let result =
      with_domain_pool domains (fun pool ->
          Scn_fuzz.run ~pool ~rollouts ~count ~seed ())
    in
    let tally = Hashtbl.create 8 in
    Array.iter (fun r -> bump tally r.Scn_fuzz.verdict) result.Scn_fuzz.records;
    Fmt.pr "fuzzed %d scenarios (seed %d): %a@." count seed pp_tally tally;
    let nviol = Scn_fuzz.violations result in
    (match report_file with
    | Some path ->
      let oc = open_out path in
      output_string oc (Scn_fuzz.report_json result);
      close_out oc;
      Fmt.pr "report: %s@." path
    | None -> ());
    (match corpus with
    | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      List.iter
        (fun rep ->
          let path =
            Filename.concat dir (Fmt.str "repro-%d.scn" rep.Scn_fuzz.rep_index)
          in
          let oc = open_out path in
          output_string oc (Fmt.str ";; %s\n%s" rep.Scn_fuzz.reason rep.Scn_fuzz.dsl);
          close_out oc;
          Fmt.pr "reproducer: %s@." path)
        result.Scn_fuzz.reproducers
    | None -> ());
    if nviol > 0 then begin
      Fmt.epr "dwv: %d soundness-oracle violation(s)@." nviol;
      List.iter
        (fun rep ->
          Fmt.epr "  [%d] %s@." rep.Scn_fuzz.rep_index rep.Scn_fuzz.reason)
        result.Scn_fuzz.reproducers;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Fuzz random scenarios through the loop with the soundness oracle")
    Term.(
      const run $ seed_arg $ count_arg $ rollouts_arg $ domains_arg
      $ report_arg $ corpus_arg)

let scenario_cmd =
  Cmd.group
    (Cmd.info "scenario"
       ~doc:"The scenario farm: list built-ins, run DSL scenarios, fuzz the loop")
    [ scenario_list_cmd; scenario_run_cmd; scenario_fuzz_cmd ]

(* Parse-and-evaluate a dynamics expression: exposes the text front end
   for user-defined systems. *)
let parse_cmd =
  let expr_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPR" ~doc:"Expression text.")
  in
  let at_arg =
    Arg.(
      value
      & opt (list float) []
      & info [ "at" ] ~docv:"X0,X1,..." ~doc:"State values to evaluate at.")
  in
  let u_arg =
    Arg.(
      value & opt (list float) [] & info [ "u" ] ~docv:"U0,..." ~doc:"Input values.")
  in
  let run src at u =
    match Dwv_expr.Parser.parse src with
    | Error msg ->
      Fmt.epr "parse error: %s@." msg;
      exit 2
    | Ok e ->
      Fmt.pr "ast: %a@." Dwv_expr.Expr.pp e;
      if at <> [] then
        Fmt.pr "value at x=[%a], u=[%a]: %g@."
          Fmt.(list ~sep:comma float)
          at
          Fmt.(list ~sep:comma float)
          u
          (Dwv_expr.Expr.eval e ~x:(Array.of_list at) ~u:(Array.of_list u))
  in
  Cmd.v (Cmd.info "parse" ~doc:"Parse (and optionally evaluate) a dynamics expression")
    Term.(const run $ expr_arg $ at_arg $ u_arg)

let () =
  let doc = "Design-while-verify: correct-by-construction control learning" in
  let main =
    Cmd.group (Cmd.info "dwv" ~doc)
      [ info_cmd; verify_cmd; learn_cmd; simulate_cmd; initset_cmd; cert_cmd; scenario_cmd; parse_cmd ]
  in
  exit (Cmd.eval main)
