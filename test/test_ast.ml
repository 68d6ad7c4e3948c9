(* Tests for the layer-3 AST analyses: the parse front end, the
   module-inventory index, the domain-safety and exception-escape
   analyses over the fixture corpus in fixtures/analysis/, the migrated
   layer-2 rules on both engines, the differential mode, and the
   satellite fixes (allowlist component matching, tree-walk dedupe,
   JSON report envelope). *)

module D = Dwv_analysis.Diagnostics
module Src_ast = Dwv_analysis.Src_ast
module Ast_index = Dwv_analysis.Ast_index
module Ast_lint = Dwv_analysis.Ast_lint
module Ast_rules = Dwv_analysis.Ast_rules
module Domain_safety = Dwv_analysis.Domain_safety
module Exn_escape = Dwv_analysis.Exn_escape
module Source_lint = Dwv_analysis.Source_lint
module Source_rules = Dwv_analysis.Source_rules
module Registry = Dwv_analysis.Registry

let corpus = "fixtures/analysis"
let fixture name = Filename.concat corpus name

let has ~check ds = List.exists (fun (d : D.t) -> d.D.check = check) ds

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let count ~check ds =
  List.length (List.filter (fun (d : D.t) -> d.D.check = check) ds)

let severity_of ~check ds =
  match List.find_opt (fun (d : D.t) -> d.D.check = check) ds with
  | Some d -> Some d.D.severity
  | None -> None

let parse_fixture name =
  match Src_ast.parse_file (fixture name) with
  | Ok p -> p
  | Error m -> Alcotest.failf "fixture %s does not parse: %s" name m

let index_of names = Ast_index.of_files (List.map parse_fixture names)

(* ---------------- Src_ast ---------------- *)

let test_parse_ok () =
  let p = parse_fixture "ds_bad_memo.ml" in
  Alcotest.(check string) "module name" "Ds_bad_memo"
    (Src_ast.module_of_path p.Src_ast.path);
  Alcotest.(check bool) "non-empty structure" true (p.Src_ast.ast <> [])

let test_parse_error () =
  match Src_ast.parse_file (fixture "broken_syntax.ml") with
  | Ok _ -> Alcotest.fail "broken_syntax.ml must not parse"
  | Error msg -> Alcotest.(check bool) "mentions syntax" true
                   (contains ~sub:"syntax" msg)

(* ---------------- Ast_index ---------------- *)

let test_index_inventory () =
  let mi = Ast_index.of_parsed (parse_fixture "ds_good_memo.ml") in
  let guard name =
    match Ast_index.find_mutable mi name with
    | Some m -> m.Ast_index.m_guard
    | None -> Alcotest.failf "binding %s not in inventory" name
  in
  Alcotest.(check bool) "memo unguarded" true (guard "memo" = Ast_index.Unguarded);
  Alcotest.(check bool) "mutex is a sync primitive" true
    (guard "memo_mu" = Ast_index.Sync_primitive);
  Alcotest.(check bool) "atomic counter guarded" true
    (guard "hits" = Ast_index.Atomic_guarded);
  Alcotest.(check bool) "publish-once registry guarded" true
    (guard "plans" = Ast_index.Atomic_guarded);
  Alcotest.(check int) "one fan-out site" 1 (List.length mi.Ast_index.pool_sites);
  let site = List.hd mi.Ast_index.pool_sites in
  Alcotest.(check string) "site callee" "Pool.map" site.Ast_index.p_callee;
  Alcotest.(check string) "enclosing function" "run" site.Ast_index.p_fn;
  match Ast_index.find_fn mi "lookup" with
  | Some f -> Alcotest.(check bool) "lookup locks" true f.Ast_index.uses_mutex
  | None -> Alcotest.fail "lookup not indexed"

(* ---------------- domain-safety ---------------- *)

let test_domain_safety_fires () =
  let ds = Domain_safety.analyze (index_of [ "ds_bad_memo.ml" ]) in
  Alcotest.(check int) "one finding" 1 (count ~check:Registry.domain_safety ds);
  let d = List.hd ds in
  Alcotest.(check bool) "error severity" true (d.D.severity = D.Error);
  Alcotest.(check bool) "names the table" true
    (contains ~sub:"'memo'" d.D.message);
  Alcotest.(check bool) "shows the path" true
    (contains ~sub:"Ds_bad_memo.lookup" d.D.message)

let test_domain_safety_silent_when_guarded () =
  Alcotest.(check int) "no findings" 0
    (List.length (Domain_safety.analyze (index_of [ "ds_good_memo.ml" ])))

let test_index_records_dls_init_idents () =
  let mi = Ast_index.of_parsed (parse_fixture "ds_bad_dls.ml") in
  match Ast_index.find_mutable mi "memo_key" with
  | Some m ->
    Alcotest.(check bool) "dls guarded" true
      (m.Ast_index.m_guard = Ast_index.Dls_guarded);
    Alcotest.(check bool) "initializer idents captured" true
      (Ast_index.SSet.mem "shared" m.Ast_index.m_init_idents)
  | None -> Alcotest.fail "memo_key not in inventory"

let test_domain_safety_dls_counterfeit_fires () =
  let ds = Domain_safety.analyze (index_of [ "ds_bad_dls.ml" ]) in
  Alcotest.(check int) "one finding" 1 (count ~check:Registry.domain_safety ds);
  let d = List.hd ds in
  Alcotest.(check bool) "error severity" true (d.D.severity = D.Error);
  Alcotest.(check bool) "names the shared table" true
    (contains ~sub:"'shared'" d.D.message);
  Alcotest.(check bool) "provenance goes through the key initializer" true
    (contains ~sub:"memo_key[init]" d.D.message)

let test_domain_safety_silent_on_fresh_dls () =
  Alcotest.(check int) "no findings" 0
    (List.length (Domain_safety.analyze (index_of [ "ds_good_dls.ml" ])))

(* ---------------- exn-escape ---------------- *)

let test_exn_escape_fires () =
  let ds =
    Exn_escape.analyze ~hot_modules:[ "Exn_bad" ] (index_of [ "exn_bad.ml" ])
  in
  let of_fn name =
    List.filter
      (fun (d : D.t) -> contains ~sub:("'" ^ name ^ "'") d.D.message)
      ds
  in
  Alcotest.(check bool) "direct failwith is an error" true
    (List.exists (fun (d : D.t) -> d.D.severity = D.Error) (of_fn "step"));
  Alcotest.(check bool) "one-hop caller is a warning" true
    (List.exists (fun (d : D.t) -> d.D.severity = D.Warn) (of_fn "total"));
  Alcotest.(check bool) "invalid_arg is a note" true
    (List.exists (fun (d : D.t) -> d.D.severity = D.Info) (of_fn "check_dim"))

let test_exn_escape_silent_when_handled () =
  Alcotest.(check int) "result-speaking + try-handled module is silent" 0
    (List.length
       (Exn_escape.analyze ~hot_modules:[ "Exn_good" ] (index_of [ "exn_good.ml" ])))

let test_exn_escape_ignores_cold_modules () =
  (* default hot list does not contain the fixture module *)
  Alcotest.(check int) "cold module is silent" 0
    (List.length (Exn_escape.analyze (index_of [ "exn_bad.ml" ])))

(* ---------------- migrated layer-2 rules, both engines ---------------- *)

let engines = [ Ast_lint.Regex; Ast_lint.Ast ]

let rule_pair ~check ~bad ~good ~bad_hits () =
  List.iter
    (fun engine ->
      let label s = Fmt.str "%s/%s" (Ast_lint.engine_label engine) s in
      let ds_bad = Ast_lint.lint_files ~engine [ fixture bad ] in
      let ds_good = Ast_lint.lint_files ~engine [ fixture good ] in
      Alcotest.(check bool) (label "fires on bad") true (has ~check ds_bad);
      Alcotest.(check int) (label "silent on good") 0 (count ~check ds_good);
      (* the AST engine sees every occurrence, regex one per line; the
         fixtures put one occurrence per line so the counts agree *)
      Alcotest.(check int) (label "hit count") bad_hits (count ~check ds_bad))
    engines

let test_phys_equality =
  rule_pair ~check:"phys-equality" ~bad:"phys_eq_bad.ml" ~good:"phys_eq_good.ml"
    ~bad_hits:2

let test_nan_compare =
  rule_pair ~check:"nan-compare" ~bad:"nan_cmp_bad.ml" ~good:"nan_cmp_good.ml"
    ~bad_hits:2

let test_poly_compare =
  rule_pair ~check:"poly-compare" ~bad:"poly_cmp_bad.ml" ~good:"poly_cmp_good.ml"
    ~bad_hits:1

let test_float_of_string =
  rule_pair ~check:"float-of-string" ~bad:"fos_bad.ml" ~good:"fos_good.ml" ~bad_hits:1

let test_poly_compare_severity () =
  let ds = Ast_lint.lint_files ~engine:Ast_lint.Ast [ fixture "poly_cmp_bad.ml" ] in
  Alcotest.(check bool) "warn, not error" true
    (severity_of ~check:"poly-compare" ds = Some D.Warn)

(* ---------------- fallback and differential ---------------- *)

let test_ast_parse_fallback () =
  let ds = Ast_lint.lint_files ~engine:Ast_lint.Ast [ fixture "broken_syntax.ml" ] in
  Alcotest.(check int) "one ast-parse note" 1 (count ~check:Registry.ast_parse ds);
  Alcotest.(check bool) "note severity" true
    (severity_of ~check:Registry.ast_parse ds = Some D.Info)

let test_differential_agrees_on_corpus () =
  let ds =
    Ast_lint.lint_tree ~exclude:[ "diff_demo.ml" ] ~engine:Ast_lint.Both [ corpus ]
  in
  Alcotest.(check int) "no disagreements" 0 (count ~check:Registry.engine_diff ds)

let test_differential_detects_blind_spot () =
  let ds = Ast_lint.lint_files ~engine:Ast_lint.Both [ fixture "diff_demo.ml" ] in
  Alcotest.(check bool) "Stdlib-qualified float_of_string disagrees" true
    (has ~check:Registry.engine_diff ds);
  Alcotest.(check bool) "and the ast engine still reports the rule" true
    (has ~check:"float-of-string" ds)

let test_registry_lists_ast_checks () =
  let names = List.map (fun (e : Registry.entry) -> e.Registry.name) Registry.all in
  List.iter
    (fun n -> Alcotest.(check bool) n true (List.mem n names))
    [ Registry.domain_safety; Registry.exn_escape; Registry.ast_parse;
      Registry.engine_diff ]

(* ---------------- satellite: allowlist component matching ---------------- *)

let rule_with_allow allow =
  {
    Source_rules.name = "fix";
    severity = D.Error;
    pattern = "unused";
    message = "unused";
    hint = None;
    allow;
  }

let test_allowed_components () =
  let file_rule = rule_with_allow [ "lib/expr/expr.ml" ] in
  let dir_rule = rule_with_allow [ "bin/" ] in
  let checks =
    [
      (file_rule, "lib/expr/expr.ml", true, "exact path");
      (file_rule, "./lib/expr/expr.ml", true, "leading ./");
      (file_rule, "repo/lib/expr/expr.ml", true, "nested under a prefix");
      (file_rule, "lib/expr/expr.ml.bak", false, "suffix must not match");
      (file_rule, "mylib/expr/expr.ml", false, "component must match whole");
      (file_rule, "lib/expr/sub/expr.ml", false, "components must be contiguous");
      (dir_rule, "bin/dwv_lint.ml", true, "directory fragment");
      (dir_rule, "src/bin/x.ml", true, "directory fragment, nested");
      (dir_rule, "bin", false, "trailing slash means directory only");
      (dir_rule, "cabin/x.ml", false, "no substring match on dir names");
    ]
  in
  List.iter
    (fun (rule, path, expected, what) ->
      Alcotest.(check bool) what expected (Source_rules.allowed rule path))
    checks

(* ---------------- satellite: tree-walk dedupe ---------------- *)

let test_duplicate_roots_dedupe () =
  let once = Source_lint.collect_tree [ corpus ] in
  let twice = Source_lint.collect_tree [ corpus; corpus ] in
  Alcotest.(check int) "duplicate roots collect once" (List.length once)
    (List.length twice);
  let overlapping = Source_lint.collect_tree [ "fixtures"; corpus ] in
  Alcotest.(check int) "overlapping roots collect once" (List.length once)
    (List.length overlapping);
  let ds_once = Source_lint.lint_tree [ corpus ] in
  let ds_twice = Source_lint.lint_tree [ corpus; corpus ] in
  Alcotest.(check int) "no duplicate diagnostics" (List.length ds_once)
    (List.length ds_twice)

let test_symlink_dedupe () =
  let dir = "tmp_symlink_dedupe" in
  let link = Filename.concat dir "link" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  match Unix.symlink (Filename.concat ".." corpus) link with
  | exception Unix.Unix_error _ -> () (* filesystem without symlinks: nothing to test *)
  | () ->
    Fun.protect
      ~finally:(fun () ->
        (try Unix.unlink link with Unix.Unix_error _ -> ());
        try Unix.rmdir dir with Unix.Unix_error _ -> ())
      (fun () ->
        let direct = Source_lint.collect_tree [ corpus ] in
        let both = Source_lint.collect_tree [ corpus; dir ] in
        Alcotest.(check int) "symlinked duplicate collected once"
          (List.length direct) (List.length both))

(* ---------------- satellite: JSON report envelope ---------------- *)

let test_report_json_golden () =
  let ds =
    [
      D.error ~check:"phys-equality"
        ~loc:(D.File { path = "a.ml"; line = 3; col = 7 })
        "bad \"eq\"" ~hint:"use =";
      D.warn ~check:"spec-overlap" ~loc:(D.Model "acc/spec") "sets overlap";
    ]
  in
  let expected =
    {|{"version":1,"summary":{"errors":1,"warnings":1,"notes":0},"diagnostics":[|}
    ^ {|{"check":"spec-overlap","severity":"warning","model":"acc/spec","message":"sets overlap"},|}
    ^ {|{"check":"phys-equality","severity":"error","file":"a.ml","line":3,"col":7,"message":"bad \"eq\"","hint":"use ="}|}
    ^ {|]}|}
  in
  Alcotest.(check string) "envelope is stable" expected (D.report_to_json ds)

let test_text_json_counts_agree () =
  List.iter
    (fun engine ->
      let ds =
        Ast_lint.lint_tree ~exclude:[ "diff_demo.ml" ] ~engine [ corpus ]
      in
      let json = D.report_to_json ds in
      let expect field n =
        let fragment = Fmt.str {|"%s":%d|} field n in
        Alcotest.(check bool)
          (Fmt.str "%s %s" (Ast_lint.engine_label engine) fragment)
          true
          (contains ~sub:fragment json)
      in
      (* the summary object carries the same counts the --plain text
         summary prints *)
      expect "errors" (D.count D.Error ds);
      expect "warnings" (D.count D.Warn ds);
      expect "notes" (D.count D.Info ds))
    [ Ast_lint.Regex; Ast_lint.Ast; Ast_lint.Both ]

let suite =
  [
    Alcotest.test_case "src_ast: fixture parses with exact module name" `Quick
      test_parse_ok;
    Alcotest.test_case "src_ast: syntax errors are reported, not raised" `Quick
      test_parse_error;
    Alcotest.test_case "ast_index: inventory, guards and fan-out sites" `Quick
      test_index_inventory;
    Alcotest.test_case "domain-safety: unguarded memo table under Pool.map fires"
      `Quick test_domain_safety_fires;
    Alcotest.test_case "domain-safety: mutex/atomic-guarded state is silent" `Quick
      test_domain_safety_silent_when_guarded;
    Alcotest.test_case "ast_index: DLS initializer idents are recorded" `Quick
      test_index_records_dls_init_idents;
    Alcotest.test_case "domain-safety: counterfeit DLS (shared init) fires" `Quick
      test_domain_safety_dls_counterfeit_fires;
    Alcotest.test_case "domain-safety: fresh-per-domain DLS memo is silent" `Quick
      test_domain_safety_silent_on_fresh_dls;
    Alcotest.test_case "exn-escape: error/warn/info tiers fire" `Quick
      test_exn_escape_fires;
    Alcotest.test_case "exn-escape: handled and result-speaking code is silent"
      `Quick test_exn_escape_silent_when_handled;
    Alcotest.test_case "exn-escape: cold modules are out of scope" `Quick
      test_exn_escape_ignores_cold_modules;
    Alcotest.test_case "rules: phys-equality on both engines" `Quick
      test_phys_equality;
    Alcotest.test_case "rules: nan-compare on both engines" `Quick test_nan_compare;
    Alcotest.test_case "rules: poly-compare on both engines" `Quick test_poly_compare;
    Alcotest.test_case "rules: float-of-string on both engines" `Quick
      test_float_of_string;
    Alcotest.test_case "rules: poly-compare stays a warning" `Quick
      test_poly_compare_severity;
    Alcotest.test_case "fallback: unparseable file gets ast-parse + regex" `Quick
      test_ast_parse_fallback;
    Alcotest.test_case "differential: engines agree on the corpus" `Quick
      test_differential_agrees_on_corpus;
    Alcotest.test_case "differential: regex blind spot is reported" `Quick
      test_differential_detects_blind_spot;
    Alcotest.test_case "registry lists the ast-layer checks" `Quick
      test_registry_lists_ast_checks;
    Alcotest.test_case "allowlist matches whole path components" `Quick
      test_allowed_components;
    Alcotest.test_case "tree walk dedupes duplicate/overlapping roots" `Quick
      test_duplicate_roots_dedupe;
    Alcotest.test_case "tree walk dedupes symlinked duplicates" `Quick
      test_symlink_dedupe;
    Alcotest.test_case "json report envelope is golden-stable" `Quick
      test_report_json_golden;
    Alcotest.test_case "text and json summaries agree on counts" `Quick
      test_text_json_counts_agree;
  ]
