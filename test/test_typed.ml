(* Layer-4 typed-analysis suite, run against the compiled fixture corpus
   in fixtures/analysis/typed (a real dune library, so its .cmt files
   exist under the test's own build directory). Covers the cmt index,
   the typed phys-equality exemption end to end through Lint, the
   pool-capture check (a Pool task reading a captured local ref or
   table) and the budget-threading verifier (clean chain, dropped
   budget, unbudgeted kernel, bad entries), plus the SARIF envelope. *)

module D = Dwv_analysis.Diagnostics
module CI = Dwv_analysis.Cmt_index
module TR = Dwv_analysis.Typed_rules
module BT = Dwv_analysis.Budget_threading
module Lint = Dwv_analysis.Lint

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* The fixture corpus builds inside the test directory, so from the
   test's cwd (_build/default/test) the cmts sit right here. *)
let fixture_build = "fixtures/analysis/typed"
let fixture_src = "test/fixtures/analysis/typed"

let idx = lazy (CI.scan ~build_dir:fixture_build ())

(* ---------------- index ---------------- *)

let test_index_units () =
  let idx = Lazy.force idx in
  Alcotest.(check (list string))
    "fixture units, canonical names, sorted"
    [
      "Budget"; "Ds_bad_dls"; "Ds_bad_helper"; "Ds_bad_memo"; "Ds_good_dls";
      "Ds_good_memo"; "Exn_bad"; "Exn_good"; "Expr"; "Interval"; "Interval_reach";
      "Pool"; "Publish_once"; "Sf_cache"; "Sf_ival"; "Tf_boxed_loop";
      "Tf_budget_drop"; "Tf_budget_ok";
    ]
    (List.map (fun u -> u.CI.u_name) (CI.units idx));
  Alcotest.(check (list (pair string string))) "no load errors" []
    (CI.load_errors idx)

let test_index_budget_param () =
  let idx = Lazy.force idx in
  match CI.find_fn idx "Interval_reach.step" with
  | None -> Alcotest.fail "Interval_reach.step not indexed"
  | Some (_, fn) -> (
    match fn.CI.t_params with
    | { CI.p_label = "?budget"; p_budget = true } :: _ -> ()
    | _ -> Alcotest.fail "?budget param not recognized as Budget.t-typed")

let test_index_call_resolution () =
  let idx = Lazy.force idx in
  match CI.find_fn idx "Tf_budget_ok.verify" with
  | None -> Alcotest.fail "Tf_budget_ok.verify not indexed"
  | Some (_, fn) ->
    let callees = List.map (fun c -> c.CI.c_callee) fn.CI.t_calls in
    Alcotest.(check bool) "calls Budget.spend_steps" true
      (List.mem "Budget.spend_steps" callees);
    Alcotest.(check bool) "calls refine" true
      (List.mem "Tf_budget_ok.refine" callees)

(* ---------------- typed phys-equality exemption ---------------- *)

let test_phys_eq_allow_sites () =
  let allow = TR.expr_phys_eq_allow (Lazy.force idx) in
  (* the t == t in [equal] is exempt; the float array == two lines down
     is not *)
  Alcotest.(check (list (pair string int)))
    "exactly the Expr.t identity test"
    [ (fixture_src ^ "/expr.ml", 8) ]
    allow

let test_phys_eq_allow_filters_lint () =
  (* cmt paths are rooted at the project ("test/fixtures/..."); the
     lint below runs from the test directory and resolves its file
     paths against the project root to compare them *)
  let allow = TR.expr_phys_eq_allow (Lazy.force idx) in
  let file = fixture_build ^ "/expr.ml" in
  let ds = Lint.lint_files ~phys_eq_allow:allow [ file ] in
  let phys_lines =
    List.filter_map
      (fun d ->
        match (d.D.check, d.D.loc) with
        | "phys-equality", D.File { line; _ } -> Some line
        | _ -> None)
      ds
  in
  Alcotest.(check (list int)) "only the float-array == is flagged" [ 10 ]
    phys_lines

(* ---------------- pool capture ---------------- *)

let test_alloc_task_state () =
  let ds = TR.pool_captures (Lazy.force idx) in
  Alcotest.(check bool) "captures are errors" true
    (List.for_all (fun d -> d.D.severity = D.Error && d.D.check = "pool-capture") ds);
  let lines =
    List.filter_map
      (fun d ->
        match d.D.loc with
        | D.File { path; line; _ } when path = fixture_src ^ "/tf_boxed_loop.ml" -> Some line
        | _ -> None)
      ds
  in
  (* the ref bumped inside [pool_hot]'s task, and the table [pool_helper]'s
     task writes through a local helper; [pool_clean]'s per-task ref is
     not a capture *)
  Alcotest.(check (list int)) "both capturing fan-outs, nothing else" [ 11; 23 ] lines;
  let messages = String.concat "\n" (List.map (fun d -> d.D.message) ds) in
  Alcotest.(check bool) "names the captured ref" true
    (contains ~sub:"hits (ref)" messages);
  Alcotest.(check bool) "follows the local helper" true
    (contains ~sub:"seen (Hashtbl.t)" messages)

(* ---------------- budget threading ---------------- *)

let analyze entries = BT.analyze ~entries (Lazy.force idx)

let test_budget_clean_chain () =
  Alcotest.(check int) "threaded chain verifies" 0
    (List.length (analyze [ "Tf_budget_ok.verify" ]))

let test_budget_violations () =
  let ds = analyze [ "Tf_budget_drop.verify" ] in
  Alcotest.(check bool) "violations are errors" true (D.has_errors ds);
  let messages = String.concat "\n" (List.map (fun d -> d.D.message) ds) in
  Alcotest.(check bool) "omitted ?budget to middle is a drop" true
    (contains ~sub:"Tf_budget_drop.middle" messages
    && contains ~sub:"omits it" messages);
  Alcotest.(check bool) "helper reaches the kernel unbudgeted" true
    (contains ~sub:"Interval_reach.step" messages
    && contains ~sub:"no Budget.t in scope" messages)

let test_budget_entry_without_param () =
  let ds = analyze [ "Tf_budget_drop.helper" ] in
  Alcotest.(check bool) "entry lacking ?budget is an error" true
    (D.has_errors ds
    && contains ~sub:"does not accept a Budget.t"
         (String.concat "\n" (List.map (fun d -> d.D.message) ds)))

let test_budget_missing_entry () =
  let ds = analyze [ "Nope.missing" ] in
  Alcotest.(check bool) "unresolvable entry is an error" true
    (D.has_errors ds
    && contains ~sub:"not found in the typed index"
         (String.concat "\n" (List.map (fun d -> d.D.message) ds)))

(* ---------------- running from a subdirectory ---------------- *)

(* The .cmt files record project-relative source paths; [Lint.run]'s
   roots are relative to the working directory. From the test's own
   directory and from two levels below it, the same roots must reach the
   same typed units: no cmt-missing error, and the same findings (file
   diagnostics compared by file name, since layer 2 reports paths from
   the working directory). *)
let test_lint_from_subdirectory () =
  let shape ds =
    List.map
      (fun (d : D.t) ->
        let where =
          match d.D.loc with
          | D.File { path; line; col } -> Fmt.str "%s:%d:%d" (Filename.basename path) line col
          | D.Model m -> m
        in
        (d.D.check, where, d.D.message))
      ds
    |> List.sort compare
  in
  let here = Sys.getcwd () in
  let from_test = Lint.run [ "fixtures/analysis/typed" ] in
  let from_sub =
    Fun.protect
      ~finally:(fun () -> Sys.chdir here)
      (fun () ->
        Sys.chdir "fixtures/analysis";
        Lint.run [ "typed" ])
  in
  let no_missing ds = not (List.exists (fun (d : D.t) -> d.D.check = "cmt-missing") ds) in
  Alcotest.(check bool) "typed units found from the test directory" true (no_missing from_test);
  Alcotest.(check bool) "typed units found from a subdirectory" true (no_missing from_sub);
  Alcotest.(check bool) "the typed layers ran" true
    (List.exists (fun (d : D.t) -> d.D.check = "domain-safety") from_sub);
  Alcotest.(check (list (triple string string string))) "same findings" (shape from_test)
    (shape from_sub)

(* ---------------- SARIF envelope ---------------- *)

let test_sarif_golden () =
  let ds =
    [
      D.error ~check:"phys-equality"
        ~loc:(D.File { path = "a.ml"; line = 3; col = 7 })
        "bad \"eq\"" ~hint:"use =";
      D.warn ~check:"spec-overlap" ~loc:(D.Model "acc/spec") "sets overlap";
    ]
  in
  let expected =
    {|{"$schema":"https://json.schemastore.org/sarif-2.1.0.json","version":"2.1.0","runs":[{"tool":{"driver":{"name":"dwv_lint","rules":[{"id":"phys-equality"},{"id":"spec-overlap"}]}},"results":[|}
    ^ {|{"ruleId":"spec-overlap","level":"warning","message":{"text":"sets overlap"},"locations":[{"logicalLocations":[{"fullyQualifiedName":"acc/spec"}]}]},|}
    ^ {|{"ruleId":"phys-equality","level":"error","message":{"text":"bad \"eq\" (hint: use =)"},"locations":[{"physicalLocation":{"artifactLocation":{"uri":"a.ml"},"region":{"startLine":3,"startColumn":7}}}]}|}
    ^ {|]}]}|}
  in
  Alcotest.(check string) "SARIF envelope is stable" expected
    (D.report_to_sarif ds)

let suite =
  [
    Alcotest.test_case "index: fixture units and sources" `Quick
      test_index_units;
    Alcotest.test_case "index: ?budget param typed as Budget.t" `Quick
      test_index_budget_param;
    Alcotest.test_case "index: intra-corpus calls resolve canonically" `Quick
      test_index_call_resolution;
    Alcotest.test_case "phys-eq: allowlist is exactly the Expr.t sites" `Quick
      test_phys_eq_allow_sites;
    Alcotest.test_case "phys-eq: typed allow filters both engines" `Quick
      test_phys_eq_allow_filters_lint;
    Alcotest.test_case "alloc: Pool task mutable capture flagged" `Quick
      test_alloc_task_state;
    Alcotest.test_case "budget: threaded chain verifies clean" `Quick
      test_budget_clean_chain;
    Alcotest.test_case "budget: drop and unbudgeted kernel caught" `Quick
      test_budget_violations;
    Alcotest.test_case "budget: entry without ?budget rejected" `Quick
      test_budget_entry_without_param;
    Alcotest.test_case "budget: unknown entry rejected" `Quick
      test_budget_missing_entry;
    Alcotest.test_case "sarif: envelope is golden-stable" `Quick
      test_sarif_golden;
    Alcotest.test_case "lint: same typed findings from a subdirectory" `Quick
      test_lint_from_subdirectory;
  ]
