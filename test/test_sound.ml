(* Layer-5 soundness suite, run against the compiled fixture corpus in
   fixtures/analysis/typed. Each seeded violation in sf_ival.ml /
   sf_cache.ml is pinned to its site, the clean shapes must stay
   silent, the allow machinery is exercised both ways (suppression and
   staleness), the whole analysis must be bit-identical across runs,
   and the driver must hold layer 5 to units under lib/ and bin/. *)

module D = Dwv_analysis.Diagnostics
module CI = Dwv_analysis.Cmt_index
module RF = Dwv_analysis.Rounding_flow
module CP = Dwv_analysis.Cache_purity
module Lint = Dwv_analysis.Lint

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Same cwd convention as test_typed.ml: the corpus builds inside the
   test directory, sources are copied alongside the cmts. *)
let fixture_build = "fixtures/analysis/typed"

let idx = lazy (CI.scan ~build_dir:fixture_build ())

(* The default allowlist names real-repo functions (Box.bloat, ...);
   on the fixture corpus they would all be stale, so the tests carry
   their own. *)
let rf_allow_widen =
  { RF.a_fn = "Interval.widen"; a_reason = "root of trust (fixture mirror)" }

let rf_config =
  {
    RF.default_config with
    RF.allow =
      [
        rf_allow_widen;
        { RF.a_fn = "Sf_ival.allowed_split"; a_reason = "allow-mechanism fixture" };
      ];
  }

let cp_config =
  {
    CP.default_config with
    CP.entries =
      [
        "Sf_cache.fingerprint"; "Sf_cache.validate"; "Sf_cache.pure_fingerprint";
        "Sf_cache.check_cached";
      ];
    CP.boundary = [ "Sf_cache.cache_find" ];
    CP.allow = [];
  }

(* ---------------- rounding-flow ---------------- *)

let rounding_sites ds =
  List.filter_map
    (fun d ->
      match (d.D.check, d.D.loc) with
      | "rounding-flow", D.File { path; line; _ } ->
        Some (Filename.basename path, line, d.D.message)
      | _ -> None)
    ds

let test_rounding_seeded () =
  let ds = RF.analyze ~config:rf_config (Lazy.force idx) in
  let sites = rounding_sites ds in
  Alcotest.(check int) "exactly the five seeded sites" 5 (List.length sites);
  List.iter
    (fun (file, _, _) -> Alcotest.(check string) "all in sf_ival.ml" "sf_ival.ml" file)
    sites;
  let expect (line, needle, fn) =
    Alcotest.(check bool)
      (Fmt.str "site %d flags %s in %s" line needle fn)
      true
      (List.exists
         (fun (_, l, msg) ->
           l = line && contains ~sub:needle msg && contains ~sub:fn msg)
         sites)
  in
  List.iter expect
    [
      (7, {|"-."|}, "Sf_ival.bad_pad");
      (7, {|"+."|}, "Sf_ival.bad_pad");
      (11, {|"Interval.mid"|}, "Sf_ival.bad_mid_flow");
      (23, {|"-."|}, "Sf_ival.bad_record");
      (23, {|"+."|}, "Sf_ival.bad_record");
    ];
  (* clean shapes silent, both allow entries used (no staleness) *)
  let all = String.concat "\n" (List.map (fun d -> d.D.message) ds) in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (sub ^ " stays silent") false (contains ~sub all))
    [ "ok_widened"; "ok_mid_metric"; "allowed_split"; "Interval.widen" ];
  Alcotest.(check int) "no stale allow entries" 0
    (List.length (List.filter (fun d -> d.D.check = "sound-allow") ds))

let test_rounding_allow_suppresses () =
  (* dropping the allowed_split entry must surface its midpoint *)
  let ds =
    RF.analyze
      ~config:{ rf_config with RF.allow = [ rf_allow_widen ] }
      (Lazy.force idx)
  in
  Alcotest.(check bool) "allowed_split midpoint now flagged" true
    (List.exists
       (fun (_, l, msg) -> l = 28 && contains ~sub:"Sf_ival.allowed_split" msg)
       (rounding_sites ds))

let test_rounding_stale_allow () =
  let stale = { RF.a_fn = "Sf_ival.no_such_fn"; a_reason = "stale on purpose" } in
  let ds =
    RF.analyze
      ~config:{ rf_config with RF.allow = stale :: rf_config.RF.allow }
      (Lazy.force idx)
  in
  let stales = List.filter (fun d -> d.D.check = "sound-allow") ds in
  Alcotest.(check int) "one stale entry" 1 (List.length stales);
  Alcotest.(check bool) "names the entry" true
    (contains ~sub:"Sf_ival.no_such_fn" (List.hd stales).D.message)

(* ---------------- cache-purity ---------------- *)

let purity ds = List.filter (fun d -> d.D.check = "cache-purity") ds

let test_purity_seeded () =
  let ds =
    CP.analyze ~config:cp_config (Lazy.force idx)
  in
  let ps = purity ds in
  Alcotest.(check int)
    (Fmt.str "exactly the four seeded violations, got: %s"
       (String.concat " | " (List.map (fun d -> d.D.message) ps)))
    4 (List.length ps);
  let expect needle =
    Alcotest.(check bool) ("reports " ^ needle) true
      (List.exists (fun d -> contains ~sub:needle d.D.message) ps)
  in
  List.iter expect
    [
      "clock read Unix.gettimeofday";
      "Sf_cache.fingerprint -> Sf_cache.stamp";
      "unkeyed mutable global Sf_cache.salt";
      "RNG state read Random.float";
      "Sf_cache.validate -> Sf_cache.jitter";
      "unkeyed mutable global Sf_cache.table";
    ];
  (* the boundary helper reads the clock internally but must not be
     descended into; the pure path stays silent *)
  let all = String.concat "\n" (List.map (fun d -> d.D.message) ds) in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (sub ^ " stays silent") false (contains ~sub all))
    [ "cache_find"; "check_cached"; "pure_fingerprint" ]

let test_purity_allow_and_stale () =
  let allow_table =
    {
      CP.a_fn = "Sf_cache.validate";
      a_what = "Sf_cache.table";
      a_reason = "allow-mechanism fixture";
    }
  in
  let ds =
    CP.analyze
      ~config:{ cp_config with CP.allow = [ allow_table ] }
      (Lazy.force idx)
  in
  Alcotest.(check int) "table violation suppressed" 3 (List.length (purity ds));
  Alcotest.(check int) "entry is used, not stale" 0
    (List.length (List.filter (fun d -> d.D.check = "sound-allow") ds));
  let stale =
    { CP.a_fn = "Sf_cache.pure_fingerprint"; a_what = "Sf_cache.salt";
      a_reason = "stale on purpose" }
  in
  let ds =
    CP.analyze
      ~config:{ cp_config with CP.allow = [ stale ] }
      (Lazy.force idx)
  in
  Alcotest.(check int) "stale entry reported" 1
    (List.length (List.filter (fun d -> d.D.check = "sound-allow") ds))

let test_purity_unknown_entry () =
  let ds =
    CP.analyze
      ~config:{ cp_config with CP.entries = [ "Sf_cache.no_such_entry" ] }
      (Lazy.force idx)
  in
  match purity ds with
  | [ d ] ->
    Alcotest.(check bool) "names the missing entry" true
      (contains ~sub:"unknown entry point Sf_cache.no_such_entry" d.D.message)
  | ps -> Alcotest.fail (Fmt.str "expected 1 diagnostic, got %d" (List.length ps))

(* ---------------- determinism ---------------- *)

let test_deterministic_report () =
  (* fresh scan each time: the rendered report must be bit-identical *)
  let run () =
    let idx = CI.scan ~build_dir:fixture_build () in
    let ds =
      RF.analyze ~config:rf_config idx
      @ CP.analyze ~config:cp_config idx
    in
    D.report_to_json (D.sort ds)
  in
  Alcotest.(check string) "bit-identical across runs" (run ()) (run ())

(* ---------------- scope ---------------- *)

let test_scope () =
  List.iter
    (fun (path, expected) -> Alcotest.(check bool) path expected (Lint.in_sound_scope path))
    [
      ("lib/interval/box.ml", true); ("./lib/poly/poly.ml", true);
      ("bin/dwv_lint.ml", true); ("bench/main.ml", false); ("test/test_sound.ml", false);
      ("examples/quickstart.ml", false); ("test/fixtures/analysis/typed/sf_ival.ml", false);
      ("paperbench/lib/x.ml", false);
    ];
  (* every fixture unit lives under test/: the driver runs the
     scope-free layers on them (the seeded domain-safety findings) but
     no layer-5 or budget finding, though rounding-flow on the same
     index finds the five seeded sites *)
  let ds = Lint.analyze_index (Lazy.force idx) in
  Alcotest.(check bool) "scope-free layers ran" true
    (List.exists (fun d -> d.D.check = "domain-safety") ds);
  List.iter
    (fun check ->
      Alcotest.(check int) (check ^ " judges nothing outside lib/ and bin/") 0
        (List.length (List.filter (fun d -> d.D.check = check) ds)))
    [ "rounding-flow"; "cache-purity"; "sound-allow"; "budget-threading" ]

let suite =
  [
    Alcotest.test_case "rounding: seeded violations pinned" `Quick
      test_rounding_seeded;
    Alcotest.test_case "rounding: allow suppresses, dropping it surfaces" `Quick
      test_rounding_allow_suppresses;
    Alcotest.test_case "rounding: stale allow is an error" `Quick
      test_rounding_stale_allow;
    Alcotest.test_case "purity: seeded violations pinned" `Quick
      test_purity_seeded;
    Alcotest.test_case "purity: allow used vs stale" `Quick
      test_purity_allow_and_stale;
    Alcotest.test_case "purity: unknown entry point" `Quick
      test_purity_unknown_entry;
    Alcotest.test_case "deterministic report" `Quick test_deterministic_report;
    Alcotest.test_case "scope: layer 5 judges only lib/ and bin/" `Quick test_scope;
  ]
