(* Tests for the Parsetree front end and the layer-2 rules over the
   textual fixture corpus in fixtures/analysis/, and for the layer-3
   analyses (domain-safety, exception-escape) and the typed state
   inventory they read, over the compiled corpus in
   fixtures/analysis/typed; plus the unparseable-file note and the
   satellite fixes (allowlist component matching, tree-walk dedupe, JSON
   report envelope). *)

module D = Dwv_analysis.Diagnostics
module Src_ast = Dwv_analysis.Src_ast
module CI = Dwv_analysis.Cmt_index
module Lint = Dwv_analysis.Lint
module Ast_rules = Dwv_analysis.Ast_rules
module Domain_safety = Dwv_analysis.Domain_safety
module Exn_escape = Dwv_analysis.Exn_escape
module Typed_rules = Dwv_analysis.Typed_rules
module Source_lint = Dwv_analysis.Source_lint
module Registry = Dwv_analysis.Registry

let corpus = "fixtures/analysis"
let fixture name = Filename.concat corpus name

(* The compiled corpus builds inside the test directory, so from the
   test's cwd (_build/default/test) its cmts sit right here. *)
let typed_build = "fixtures/analysis/typed"
let idx = lazy (CI.scan ~build_dir:typed_build ())

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

(* The diagnostics located in one fixture file of the compiled corpus. *)
let in_file name ds =
  List.filter
    (fun (d : D.t) ->
      match d.D.loc with
      | D.File { path; _ } -> Filename.basename path = name
      | D.Model _ -> false)
    ds

let parse_fixture name =
  match Src_ast.parse_file (fixture name) with
  | Ok p -> p
  | Error m -> Alcotest.failf "fixture %s does not parse: %s" name m

(* ---------------- Src_ast ---------------- *)

let test_parse_ok () =
  let p = parse_fixture "typed/ds_bad_memo.ml" in
  Alcotest.(check string) "module name" "Ds_bad_memo"
    (Src_ast.module_of_path p.Src_ast.path);
  Alcotest.(check bool) "non-empty structure" true (p.Src_ast.ast <> [])

let test_parse_error () =
  match Src_ast.parse_file (fixture "broken_syntax.ml") with
  | Ok _ -> Alcotest.fail "broken_syntax.ml must not parse"
  | Error msg -> Alcotest.(check bool) "mentions syntax" true
                   (contains ~sub:"syntax" msg)

(* ---------------- state inventory ---------------- *)

let unit_of name =
  match CI.find_unit (Lazy.force idx) name with
  | Some u -> u
  | None -> Alcotest.failf "unit %s not indexed" name

let kind_of u name =
  match List.find_opt (fun (s : CI.state) -> s.CI.s_name = name) u.CI.u_state with
  | Some s -> s.CI.s_kind
  | None -> Alcotest.failf "binding %s not in the state inventory" name

let test_index_inventory () =
  let u = unit_of "Ds_good_memo" in
  Alcotest.(check bool) "memo is an unguarded table" true
    (kind_of u "memo" = CI.Hashtable && CI.unguarded CI.Hashtable);
  Alcotest.(check bool) "mutex is a lock" true (kind_of u "memo_mu" = CI.Lock);
  Alcotest.(check bool) "atomic counter" true (kind_of u "hits" = CI.Atomic);
  Alcotest.(check bool) "publish-once registry" true
    (kind_of u "plans" = CI.Publish_once);
  Alcotest.(check bool) "functions are not state" false
    (List.exists (fun (s : CI.state) -> s.CI.s_name = "lookup") u.CI.u_state);
  (match u.CI.u_fanouts with
  | [ site ] ->
    Alcotest.(check string) "site callee" "Pool.map" site.CI.fo_callee;
    Alcotest.(check int) "one task" 1 (List.length site.CI.fo_tasks)
  | sites -> Alcotest.failf "expected one fan-out site, got %d" (List.length sites));
  match CI.find_fn (Lazy.force idx) "Ds_good_memo.lookup" with
  | Some (_, f) -> Alcotest.(check bool) "lookup locks" true (CI.takes_lock f.CI.t_refs)
  | None -> Alcotest.fail "lookup not indexed"

let test_index_helper_table () =
  Alcotest.(check bool) "a table made by a helper is a table" true
    (kind_of (unit_of "Ds_bad_helper") "cache" = CI.Hashtable)

(* ---------------- domain-safety ---------------- *)

let domain_safety = lazy (Domain_safety.analyze (Lazy.force idx))

let test_domain_safety_fires () =
  let ds = in_file "ds_bad_memo.ml" (Lazy.force domain_safety) in
  Alcotest.(check int) "one finding" 1 (count ~check:Registry.domain_safety ds);
  let d = List.hd ds in
  Alcotest.(check bool) "error severity" true (d.D.severity = D.Error);
  Alcotest.(check bool) "names the table" true
    (contains ~sub:"'memo'" d.D.message);
  Alcotest.(check bool) "shows the path" true
    (contains ~sub:"Ds_bad_memo.lookup" d.D.message)

let test_domain_safety_silent_when_guarded () =
  Alcotest.(check int) "no findings" 0
    (List.length (in_file "ds_good_memo.ml" (Lazy.force domain_safety)))

let test_index_records_dls_init_idents () =
  let u = unit_of "Ds_bad_dls" in
  match List.find_opt (fun (s : CI.state) -> s.CI.s_name = "memo_key") u.CI.u_state with
  | Some s ->
    Alcotest.(check bool) "domain-local key" true (s.CI.s_kind = CI.Dls);
    Alcotest.(check bool) "initializer references recorded" true
      (List.exists (fun (r : CI.ref_site) -> r.CI.r_name = "Ds_bad_dls.shared") s.CI.s_init)
  | None -> Alcotest.fail "memo_key not in inventory"

let test_domain_safety_dls_counterfeit_fires () =
  let ds = in_file "ds_bad_dls.ml" (Lazy.force domain_safety) in
  Alcotest.(check int) "one finding" 1 (count ~check:Registry.domain_safety ds);
  let d = List.hd ds in
  Alcotest.(check bool) "error severity" true (d.D.severity = D.Error);
  Alcotest.(check bool) "names the shared table" true
    (contains ~sub:"'shared'" d.D.message);
  Alcotest.(check bool) "provenance goes through the key initializer" true
    (contains ~sub:"memo_key[init]" d.D.message)

let test_domain_safety_silent_on_fresh_dls () =
  Alcotest.(check int) "no findings" 0
    (List.length (in_file "ds_good_dls.ml" (Lazy.force domain_safety)))

let test_domain_safety_helper_table_fires () =
  match in_file "ds_bad_helper.ml" (Lazy.force domain_safety) with
  | [ d ] ->
    Alcotest.(check bool) "error severity" true (d.D.severity = D.Error);
    Alcotest.(check bool) "names the helper-made table" true
      (contains ~sub:"'cache' (hash table" d.D.message)
  | ds -> Alcotest.failf "expected one finding, got %d" (List.length ds)

(* ---------------- exn-escape ---------------- *)

let test_exn_escape_fires () =
  let ds = Exn_escape.analyze ~hot_modules:[ "Exn_bad" ] (Lazy.force idx) in
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
    (List.length (Exn_escape.analyze ~hot_modules:[ "Exn_good" ] (Lazy.force idx)))

let test_exn_escape_ignores_cold_modules () =
  (* the default hot list does not contain the fixture module *)
  Alcotest.(check int) "cold module is silent" 0
    (List.length (in_file "exn_bad.ml" (Exn_escape.analyze (Lazy.force idx))))

(* ---------------- layer-2 rules, both engines ---------------- *)

(* The two configurations a file is linted in: alone, with no typed
   index and so no phys-equality exemption, and inside [Lint.run], whose
   typed index exempts exactly the Expr.t identity tests (here the
   compiled corpus's expr.ml). No textual fixture compares Expr.t
   values, so the rules must fire identically under both. *)
let engines =
  lazy [ ("untyped", []); ("typed", Typed_rules.expr_phys_eq_allow (Lazy.force idx)) ]

let rule_pair ~check ~bad ~good () =
  List.iter
    (fun (engine, phys_eq_allow) ->
      let label s = Fmt.str "%s/%s" engine s in
      let ds_good = Lint.lint_files ~phys_eq_allow [ fixture good ] in
      Alcotest.(check int) (label "silent on good") 0 (count ~check ds_good);
      List.iter
        (fun (file, hits) ->
          let ds_bad = Lint.lint_files ~phys_eq_allow [ fixture file ] in
          Alcotest.(check int) (label (file ^ " hit count")) hits (count ~check ds_bad))
        bad)
    (Lazy.force engines)

let test_phys_equality =
  rule_pair ~check:"phys-equality" ~bad:[ ("phys_eq_bad.ml", 2) ]
    ~good:"phys_eq_good.ml"

let test_nan_compare =
  rule_pair ~check:"nan-compare" ~bad:[ ("nan_cmp_bad.ml", 2) ] ~good:"nan_cmp_good.ml"

let test_poly_compare =
  rule_pair ~check:"poly-compare" ~bad:[ ("poly_cmp_bad.ml", 1) ]
    ~good:"poly_cmp_good.ml"

let test_float_of_string =
  rule_pair ~check:"float-of-string"
    ~bad:[ ("fos_bad.ml", 1); ("fos_bad_stdlib.ml", 1) ]
    ~good:"fos_good.ml"

let test_poly_compare_severity () =
  let ds = Lint.lint_files [ fixture "poly_cmp_bad.ml" ] in
  Alcotest.(check bool) "warn, not error" true
    (severity_of ~check:"poly-compare" ds = Some D.Warn)

(* ---------------- unparseable files ---------------- *)

let test_ast_parse_note () =
  let ds = Lint.lint_files [ fixture "broken_syntax.ml" ] in
  Alcotest.(check int) "one ast-parse note" 1 (count ~check:Registry.ast_parse ds);
  Alcotest.(check bool) "note severity" true
    (severity_of ~check:Registry.ast_parse ds = Some D.Info);
  Alcotest.(check int) "and nothing else" 1 (List.length ds)

let test_registry_lists_ast_checks () =
  let names = List.map (fun (e : Registry.entry) -> e.Registry.name) Registry.all in
  List.iter
    (fun n -> Alcotest.(check bool) n true (List.mem n names))
    [ Registry.domain_safety; Registry.exn_escape; Registry.ast_parse ]

let test_registry_layer3_is_typed () =
  List.iter
    (fun n ->
      match List.find_opt (fun (e : Registry.entry) -> e.Registry.name = n) Registry.all with
      | Some e -> Alcotest.(check string) n "typed" (Registry.layer_label e.Registry.layer)
      | None -> Alcotest.failf "%s not registered" n)
    [ Registry.domain_safety; Registry.exn_escape ]

(* ---------------- satellite: allowlist component matching ---------------- *)

let rule_with_allow allow =
  { Ast_rules.name = "fix"; severity = D.Error; message = "unused"; hint = None; allow }

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
      Alcotest.(check bool) what expected (Ast_rules.allowed rule path))
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
  let ds_once = Lint.lint_files once in
  let ds_twice = Lint.lint_files twice in
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
  let ds = Lint.lint_files (Source_lint.collect_tree [ corpus ]) in
  let json = D.report_to_json ds in
  let expect field n =
    let fragment = Fmt.str {|"%s":%d|} field n in
    Alcotest.(check bool) fragment true (contains ~sub:fragment json)
  in
  (* the summary object carries the same counts the --plain text summary
     prints *)
  expect "errors" (D.count D.Error ds);
  expect "warnings" (D.count D.Warn ds);
  expect "notes" (D.count D.Info ds)

let suite =
  [
    Alcotest.test_case "src_ast: fixture parses with exact module name" `Quick
      test_parse_ok;
    Alcotest.test_case "src_ast: syntax errors are reported, not raised" `Quick
      test_parse_error;
    Alcotest.test_case "inventory: state kinds, locks and fan-out sites" `Quick
      test_index_inventory;
    Alcotest.test_case "inventory: a table made by a helper is state" `Quick
      test_index_helper_table;
    Alcotest.test_case "domain-safety: unguarded memo table under Pool.map fires"
      `Quick test_domain_safety_fires;
    Alcotest.test_case "domain-safety: mutex/atomic-guarded state is silent" `Quick
      test_domain_safety_silent_when_guarded;
    Alcotest.test_case "inventory: DLS initializer references are recorded" `Quick
      test_index_records_dls_init_idents;
    Alcotest.test_case "domain-safety: counterfeit DLS (shared init) fires" `Quick
      test_domain_safety_dls_counterfeit_fires;
    Alcotest.test_case "domain-safety: fresh-per-domain DLS memo is silent" `Quick
      test_domain_safety_silent_on_fresh_dls;
    Alcotest.test_case "domain-safety: table made behind a helper fires" `Quick
      test_domain_safety_helper_table_fires;
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
    Alcotest.test_case "fallback: unparseable file gets ast-parse note only" `Quick
      test_ast_parse_note;
    Alcotest.test_case "registry lists the ast-layer checks" `Quick
      test_registry_lists_ast_checks;
    Alcotest.test_case "registry: domain-safety and exn-escape are typed" `Quick
      test_registry_layer3_is_typed;
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
