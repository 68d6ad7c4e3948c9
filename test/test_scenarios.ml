(* Scenario-farm suite (`dune build @scenarios`): DSL round-trip
   properties over fuzzer-generated scenarios, the committed benchmark
   scenarios verifying Reach_avoid, the regression corpus examining
   clean, and a 200-case fuzz smoke with the differential soundness
   oracle replayed at domains 1 vs 2. Spawns domains and runs hundreds of
   end-to-end verifications, so it rides its own alias like @faults /
   @certs / @parallel. *)

module Rng = Dwv_util.Rng
module Pool = Dwv_parallel.Pool
module Verifier = Dwv_reach.Verifier
module Scenario = Dwv_systems.Scenario
module Scn_verify = Dwv_scenario.Scn_verify
module Scn_registry = Dwv_scenario.Scn_registry
module Scn_fuzz = Dwv_scenario.Scn_fuzz

(* ---------------- DSL round-trip ---------------- *)

let prop_dsl_roundtrip =
  QCheck.Test.make ~name:"scenario DSL to_string/of_string round-trips"
    ~count:200 QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let scn = Scn_fuzz.generate (Rng.create seed) 0 in
      Scenario.equal scn (Scenario.of_string (Scenario.to_string scn)))

let prop_dsl_stable =
  QCheck.Test.make ~name:"scenario DSL serialization is a fixpoint"
    ~count:100 QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let scn = Scn_fuzz.generate (Rng.create seed) 1 in
      let s = Scenario.to_string scn in
      s = Scenario.to_string (Scenario.of_string s))

let test_dsl_rejects_malformed () =
  List.iter
    (fun s ->
      match Scenario.of_string s with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail ("accepted malformed DSL: " ^ s))
    [
      "";
      "(scenario)";
      "(scenario (name x))";
      "(scenario (name x) (dim 1) (inputs 1) (delta 0.1) (steps 2) \
       (dynamics \"u0\") (init (0 1) (0 1)) (goal (0 1)) \
       (controller (affine (0 0))) (method zonotope))";
      "(scenario (name x) (dim 1) (inputs 1) (delta -0.1) (steps 2) \
       (dynamics \"u0\") (init (0 1)) (goal (0 1)) \
       (controller (affine (0 0))) (method zonotope))";
    ]

(* ---------------- committed benchmark scenarios ---------------- *)

let scenario_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".scn")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let benchmark_dir = "../examples/scenarios"
let corpus_dir = "scenarios/corpus"

let test_benchmarks_verify () =
  let files = scenario_files benchmark_dir in
  Alcotest.(check int) "four benchmark scenarios" 4 (List.length files);
  List.iter
    (fun path ->
      let entry = Scn_registry.of_file path in
      let controller = entry.Scn_registry.init (Rng.create 1) in
      let report = entry.Scn_registry.verify_robust controller in
      Alcotest.(check bool)
        (Filename.basename path ^ " verifies Reach_avoid")
        true
        (report.Scn_verify.verdict = Verifier.Reach_avoid))
    files

let test_benchmark_files_roundtrip () =
  List.iter
    (fun path ->
      let scn = Scenario.of_file path in
      Alcotest.(check bool)
        (Filename.basename path ^ " round-trips")
        true
        (Scenario.equal scn (Scenario.of_string (Scenario.to_string scn))))
    (scenario_files benchmark_dir @ scenario_files corpus_dir)

(* ---------------- regression corpus ---------------- *)

let test_corpus_examines_clean () =
  let files = scenario_files corpus_dir in
  Alcotest.(check bool) "corpus is non-empty" true (files <> []);
  List.iter
    (fun path ->
      let scn = Scenario.of_file path in
      let r = Scn_fuzz.examine ~rng:(Rng.create 42) scn in
      match r.Scn_fuzz.oracle with
      | None -> ()
      | Some reason ->
        Alcotest.failf "%s: soundness violation: %s" (Filename.basename path)
          reason)
    files

let test_zoh_aliasing_not_verified () =
  (* the hot-gain scenario diverges under the executed zero-order-hold
     loop even though continuous feedback contracts: ZOH-faithful
     verification must not claim Reach_avoid (regression for the
     substitute-u-into-f bug the fuzzer caught) *)
  let scn = Scenario.of_file (Filename.concat corpus_dir "zoh-aliasing.scn") in
  let controller = Scenario.make_controller scn (Rng.create 1) in
  let report = Scn_verify.verify_robust scn controller in
  Alcotest.(check bool) "not Reach_avoid" true
    (report.Scn_verify.verdict <> Verifier.Reach_avoid)

(* ---------------- fuzz campaign smoke ---------------- *)

let fuzz_seed = 42
let fuzz_count = 200

let test_fuzz_smoke_no_violations () =
  let r = Scn_fuzz.run ~count:fuzz_count ~seed:fuzz_seed () in
  Alcotest.(check int) "record count" fuzz_count (Array.length r.Scn_fuzz.records);
  Array.iter
    (fun (rec_ : Scn_fuzz.record) ->
      if rec_.Scn_fuzz.violation then
        Alcotest.failf "[%d] %s: %s" rec_.Scn_fuzz.index rec_.Scn_fuzz.name
          rec_.Scn_fuzz.oracle)
    r.Scn_fuzz.records;
  Alcotest.(check int) "zero violations" 0 (Scn_fuzz.violations r)

let test_fuzz_deterministic_across_domains () =
  let seq = Scn_fuzz.run ~count:fuzz_count ~seed:fuzz_seed () in
  let par =
    Pool.with_pool ~domains:2 (fun pool ->
        Scn_fuzz.run ~pool ~count:fuzz_count ~seed:fuzz_seed ())
  in
  let keys r = Array.map Scn_fuzz.determinism_key r.Scn_fuzz.records in
  Alcotest.(check (array string))
    "records bit-identical at domains 1 vs 2 (minus latency)" (keys seq)
    (keys par)

let test_fuzz_shrink_preserves_wellformedness () =
  (* shrinking a non-violating scenario is a no-op that must at least
     return a valid, serializable scenario *)
  let scn = Scn_fuzz.generate (Rng.create 5) 3 in
  let shrunk = Scn_fuzz.shrink ~probe_seed:17 scn in
  Alcotest.(check bool) "shrunk scenario round-trips" true
    (Scenario.equal shrunk
       (Scenario.of_string (Scenario.to_string shrunk)))

let () =
  Alcotest.run "dwv-scenarios"
    [
      ( "scenarios",
        [
          QCheck_alcotest.to_alcotest prop_dsl_roundtrip;
          QCheck_alcotest.to_alcotest prop_dsl_stable;
          Alcotest.test_case "DSL rejects malformed" `Quick test_dsl_rejects_malformed;
          Alcotest.test_case "benchmarks verify" `Quick test_benchmarks_verify;
          Alcotest.test_case "benchmark files round-trip" `Quick test_benchmark_files_roundtrip;
          Alcotest.test_case "corpus examines clean" `Quick test_corpus_examines_clean;
          Alcotest.test_case "zoh aliasing not verified" `Quick test_zoh_aliasing_not_verified;
          Alcotest.test_case "fuzz smoke: no violations" `Quick test_fuzz_smoke_no_violations;
          Alcotest.test_case "fuzz deterministic across domains" `Quick test_fuzz_deterministic_across_domains;
          Alcotest.test_case "shrink preserves well-formedness" `Quick test_fuzz_shrink_preserves_wellformedness;
        ] );
    ]
