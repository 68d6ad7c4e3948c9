(* Tests for dwv_analysis: fixture systems that each trip exactly the
   diagnostic they were built to trip, clean passes over the paper's three
   systems, the layer-2 rules on source strings, tree walking, and the
   check catalog. *)

module D = Dwv_analysis.Diagnostics
module Model_check = Dwv_analysis.Model_check
module Src_ast = Dwv_analysis.Src_ast
module Ast_rules = Dwv_analysis.Ast_rules
module Lint = Dwv_analysis.Lint
module Source_lint = Dwv_analysis.Source_lint
module Registry = Dwv_analysis.Registry
module Expr = Dwv_expr.Expr
module Parser = Dwv_expr.Parser
module Box = Dwv_interval.Box
module Spec = Dwv_core.Spec
module Controller = Dwv_core.Controller
module Mat = Dwv_la.Mat
module Rng = Dwv_util.Rng

let has ~check ds = List.exists (fun (d : D.t) -> d.D.check = check) ds
let errors ds = List.filter (fun (d : D.t) -> d.D.severity = D.Error) ds

let check_names ds = List.map (fun (d : D.t) -> d.D.check) ds

let dyn srcs =
  match Parser.parse_system srcs with
  | Ok f -> f
  | Error m -> Alcotest.failf "fixture dynamics: %s" m

(* ---------------- layer 1: dynamics ---------------- *)

let test_dim_mismatch () =
  let f = dyn [ "x1"; "x5 + u3" ] in
  let ds = Model_check.check_dynamics ~name:"fix" ~f ~n:2 ~m:1 in
  Alcotest.(check bool) "flags x5" true (has ~check:Registry.dim_arity ds);
  Alcotest.(check int) "two errors (x5 and u3)" 2 (List.length (errors ds))

let test_arity_count_mismatch () =
  let f = dyn [ "x0" ] in
  let ds = Model_check.check_dynamics ~name:"fix" ~f ~n:2 ~m:0 in
  Alcotest.(check bool) "flags |f| <> n" true (has ~check:Registry.dim_arity ds)

let test_dynamics_clean () =
  let f = dyn [ "x1"; "(1 - x0^2) * x1 - x0 + u0" ] in
  Alcotest.(check (list string)) "clean" []
    (check_names (Model_check.check_dynamics ~name:"fix" ~f ~n:2 ~m:1))

let test_div_by_zero_over_x0 () =
  let f = dyn [ "x1"; "(x1 - x0) / x0" ] in
  let x0 = Box.make ~lo:[| -1.0; -1.0 |] ~hi:[| 1.0; 1.0 |] in
  let ds = Model_check.check_domains ~name:"fix" ~f ~x0 () in
  Alcotest.(check bool) "flags denominator" true (has ~check:Registry.div_by_zero ds);
  Alcotest.(check bool) "is an error" true (D.has_errors ds)

let test_div_clean_when_x0_clear () =
  let f = dyn [ "x1"; "(x1 - x0) / x0" ] in
  let x0 = Box.make ~lo:[| 1.0; -1.0 |] ~hi:[| 2.0; 1.0 |] in
  Alcotest.(check (list string)) "clean" []
    (check_names (Model_check.check_domains ~name:"fix" ~f ~x0 ()))

let test_div_unbounded_input_warns () =
  let f = dyn [ "x0 / (u0 + 2)" ] in
  let x0 = Box.make ~lo:[| 0.0 |] ~hi:[| 1.0 |] in
  let ds = Model_check.check_domains ~name:"fix" ~f ~x0 () in
  (* no input range declared: the analyzer must say it cannot bound the
     denominator, but must not claim an error it cannot prove *)
  Alcotest.(check bool) "warns" true (has ~check:Registry.div_by_zero ds);
  Alcotest.(check bool) "no errors" false (D.has_errors ds);
  (* with the range declared, [1,3] excludes zero: clean *)
  let u = Box.make ~lo:[| -1.0 |] ~hi:[| 1.0 |] in
  Alcotest.(check (list string)) "clean with u" []
    (check_names (Model_check.check_domains ~name:"fix" ~f ~x0 ~u ()))

let test_exp_overflow () =
  let f = dyn [ "exp(800 * x0)" ] in
  let x0 = Box.make ~lo:[| 0.0 |] ~hi:[| 1.0 |] in
  let ds = Model_check.check_domains ~name:"fix" ~f ~x0 () in
  Alcotest.(check bool) "warns" true (has ~check:Registry.exp_overflow ds)

(* ---------------- layer 1: specs ---------------- *)

let spec_fixture ~goal ~unsafe =
  Spec.make ~name:"fix"
    ~x0:(Box.make ~lo:[| 0.0; 0.0 |] ~hi:[| 0.1; 0.1 |])
    ~unsafe ~goal ~delta:0.1 ~steps:10

let test_spec_overlap () =
  let spec =
    spec_fixture
      ~goal:(Box.make ~lo:[| 1.0; 1.0 |] ~hi:[| 2.0; 2.0 |])
      ~unsafe:(Box.make ~lo:[| 1.5; 1.5 |] ~hi:[| 3.0; 3.0 |])
  in
  let ds = Model_check.check_spec ~name:"fix" spec in
  Alcotest.(check bool) "flags overlap" true (has ~check:Registry.spec_overlap ds)

let test_spec_x0_unsafe () =
  let spec =
    spec_fixture
      ~goal:(Box.make ~lo:[| 1.0; 1.0 |] ~hi:[| 2.0; 2.0 |])
      ~unsafe:(Box.make ~lo:[| -0.05; -0.05 |] ~hi:[| 0.05; 0.05 |])
  in
  let ds = Model_check.check_spec ~name:"fix" spec in
  Alcotest.(check bool) "flags x0 in unsafe" true (has ~check:Registry.spec_x0_unsafe ds)

let test_spec_degenerate_goal () =
  let spec =
    spec_fixture
      ~goal:(Box.make ~lo:[| 1.0; 1.0 |] ~hi:[| 1.0; 2.0 |])
      ~unsafe:(Box.make ~lo:[| 5.0; 5.0 |] ~hi:[| 6.0; 6.0 |])
  in
  let ds = Model_check.check_spec ~name:"fix" spec in
  Alcotest.(check bool) "flags flat goal" true (has ~check:Registry.spec_degenerate ds);
  Alcotest.(check bool) "as an error" true (D.has_errors ds)

let test_spec_dims_vs_dynamics () =
  let spec =
    spec_fixture
      ~goal:(Box.make ~lo:[| 1.0; 1.0 |] ~hi:[| 2.0; 2.0 |])
      ~unsafe:(Box.make ~lo:[| 5.0; 5.0 |] ~hi:[| 6.0; 6.0 |])
  in
  let ds = Model_check.check_spec ~name:"fix" ~expected_n:3 spec in
  Alcotest.(check bool) "flags 2-D spec on 3-D plant" true (has ~check:Registry.spec_dims ds)

let test_x0_outside_domain () =
  let spec =
    spec_fixture
      ~goal:(Box.make ~lo:[| 1.0; 1.0 |] ~hi:[| 2.0; 2.0 |])
      ~unsafe:(Box.make ~lo:[| 5.0; 5.0 |] ~hi:[| 6.0; 6.0 |])
  in
  let domain = Box.make ~lo:[| 0.05; 0.0 |] ~hi:[| 1.0; 1.0 |] in
  let ds = Model_check.check_spec ~name:"fix" ~domain spec in
  Alcotest.(check bool) "flags X0 outside domain" true (has ~check:Registry.x0_in_domain ds)

(* ---------------- layer 1: networks / controllers ---------------- *)

(* A serialized single-layer MLP with a NaN weight: exactly what a corrupt
   save or diverged training run produces. *)
let nan_mlp_text = "mlp 1\nlayers 1\nlayer 1 2 tanh\nnan 1.0\n0.0\n"

let test_nn_nan_weight () =
  let net = Dwv_nn.Serialize.mlp_of_string nan_mlp_text in
  let ds = Model_check.check_network ~name:"fix" net in
  Alcotest.(check bool) "flags NaN parameter" true (has ~check:Registry.nn_finite ds);
  Alcotest.(check bool) "as an error" true (D.has_errors ds)

let test_nn_shape_mismatch () =
  let net = Dwv_nn.Mlp.create ~sizes:[ 3; 4; 2 ] ~acts:[ Dwv_nn.Activation.Tanh; Dwv_nn.Activation.Tanh ] (Rng.create 1) in
  let ds = Model_check.check_network ~name:"fix" ~n_in:2 ~n_out:1 net in
  Alcotest.(check int) "both interface dims flagged" 2
    (List.length (List.filter (fun (d : D.t) -> d.D.check = Registry.ctrl_shape) ds))

let test_linear_gain_shape () =
  let c = Controller.linear (Mat.of_rows [ [| 1.0; 2.0; 3.0; 4.0 |] ]) in
  let ds = Model_check.check_controller ~name:"fix" ~n:2 ~m:1 c in
  Alcotest.(check bool) "flags gain columns" true (has ~check:Registry.ctrl_shape ds);
  (* n (pure state feedback) and n+1 (bias-augmented) are both fine *)
  let ok = Controller.linear (Mat.of_rows [ [| 1.0; 2.0; 3.0 |] ]) in
  Alcotest.(check (list string)) "augmented gain clean" []
    (check_names (Model_check.check_controller ~name:"fix" ~n:2 ~m:1 ok))

let test_unbounded_activation_warns () =
  let net =
    Dwv_nn.Mlp.create ~sizes:[ 2; 4; 1 ]
      ~acts:[ Dwv_nn.Activation.Relu; Dwv_nn.Activation.Linear ] (Rng.create 1)
  in
  let c = Controller.net ~output_scale:2.0 net in
  let ds = Model_check.check_controller ~name:"fix" ~n:2 ~m:1 c in
  Alcotest.(check bool) "warns on linear output" true (has ~check:Registry.nn_activation ds)

(* ---------------- layer 1: the paper's systems pass clean ---------------- *)

let builtin_input name =
  let rng = Rng.create 7 in
  match name with
  | "acc" ->
    let module A = Dwv_systems.Acc in
    Model_check.make_input ~name ~sys:A.sampled ~spec:A.spec
      ~controller:A.initial_controller ()
  | "oscillator" ->
    let module O = Dwv_systems.Oscillator in
    Model_check.make_input ~name ~sys:O.sampled ~spec:O.spec
      ~controller:(O.initial_controller rng) ~domain:O.pretrain_region ()
  | "threed" ->
    let module T = Dwv_systems.Threed in
    Model_check.make_input ~name ~sys:T.sampled ~spec:T.spec
      ~controller:(T.initial_controller rng) ~domain:T.pretrain_region ()
  | _ -> Alcotest.failf "unknown builtin %s" name

let test_builtin_systems_clean () =
  List.iter
    (fun name ->
      let ds = Model_check.check (builtin_input name) in
      Alcotest.(check (list string)) (name ^ " clean") [] (check_names ds))
    [ "acc"; "oscillator"; "threed" ]

(* ---------------- layer 2: rules on source strings ---------------- *)

let lint_string ~path src =
  match Src_ast.parse_impl ~path src with
  | Ok parsed -> Ast_rules.lint_parsed parsed
  | Error m -> Alcotest.failf "%s does not parse: %s" path m

let test_phys_equality_flagged () =
  let ds = lint_string ~path:"lib/x/y.ml" "let bad a b = a == b\n" in
  Alcotest.(check bool) "flagged" true (has ~check:"phys-equality" ds);
  match ds with
  | [ d ] -> (
    match d.D.loc with
    | D.File { line; col; _ } ->
      Alcotest.(check int) "line" 1 line;
      Alcotest.(check bool) "column near the operator" true (col >= 10)
    | _ -> Alcotest.fail "expected a file location")
  | _ -> Alcotest.failf "expected exactly one diagnostic, got %d" (List.length ds)

let test_phys_equality_in_comment_or_string_clean () =
  let src = "(* a == b, != c *)\nlet banner = \"=== == !=\"\nlet ok = true\n" in
  Alcotest.(check (list string)) "clean" []
    (check_names (lint_string ~path:"lib/x/y.ml" src))

let test_nan_compare_flagged_but_arrow_clean () =
  let bad = lint_string ~path:"lib/x/y.ml" "let b x = x > nan\n" in
  Alcotest.(check bool) "comparison flagged" true (has ~check:"nan-compare" bad);
  let arm = lint_string ~path:"lib/x/y.ml" "let f = function None -> Float.nan | Some v -> v\n" in
  Alcotest.(check (list string)) "match arm clean" [] (check_names arm)

let test_float_of_string_rule () =
  let bad = lint_string ~path:"lib/x/y.ml" "let v = float_of_string s\n" in
  Alcotest.(check bool) "bare conversion flagged" true (has ~check:"float-of-string" bad);
  let ok = lint_string ~path:"lib/x/y.ml" "let v = float_of_string_opt s\n" in
  Alcotest.(check (list string)) "_opt variant clean" [] (check_names ok)

let test_allowlist () =
  (* Table.print is the documented legit use of stdout in lib/ *)
  let src = "let p () = print_endline \"x\"\n" in
  Alcotest.(check (list string)) "allowlisted" []
    (check_names (lint_string ~path:"lib/util/table.ml" src));
  Alcotest.(check (list string)) "flagged elsewhere in lib/" [ "print-debug" ]
    (check_names (lint_string ~path:"lib/util/rng.ml" src));
  (* phys-equality has no per-file allowlist: its one exemption is the
     typed one, for Expr.t operands (test_typed.ml) *)
  Alcotest.(check (list string)) "no static phys-equality exemption"
    [ "phys-equality" ]
    (check_names (lint_string ~path:"lib/expr/expr.ml" "let eq a b = a == b\n"))

let test_lint_tree_missing_mli_and_build_refusal () =
  let tmp = Filename.temp_file "dwv_lint" "" in
  Sys.remove tmp;
  let root = tmp in
  let libdir = Filename.concat root "lib" in
  Sys.mkdir root 0o755;
  Sys.mkdir libdir 0o755;
  let orphan = Filename.concat libdir "orphan.ml" in
  let oc = open_out orphan in
  output_string oc "let x = 1\n";
  close_out oc;
  let ds = Lint.lint_files (Source_lint.collect_tree [ root ]) in
  Alcotest.(check bool) "orphan flagged" true (has ~check:Registry.missing_mli ds);
  (match Source_lint.collect_tree [ "_build/default" ] with
  | _ -> Alcotest.fail "expected _build refusal"
  | exception Invalid_argument _ -> ());
  Sys.remove orphan;
  Sys.rmdir libdir;
  Sys.rmdir root

(* ---------------- registry ---------------- *)

let test_registry_names_unique_and_enough () =
  let names = List.map (fun (e : Registry.entry) -> e.Registry.name) Registry.all in
  Alcotest.(check bool) "at least 10 checks" true (List.length names >= 10);
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq String.compare names))

let test_registry_source_layer_is_rule_table () =
  let source =
    List.filter_map
      (fun (e : Registry.entry) ->
        if e.Registry.layer = Registry.Source_layer then Some e.Registry.name else None)
      Registry.all
  in
  Alcotest.(check (list string)) "rule table plus missing-mli and ast-parse"
    (List.map (fun (r : Ast_rules.rule) -> r.Ast_rules.name) Ast_rules.builtin
    @ [ Registry.missing_mli; Registry.ast_parse ])
    source;
  let names = List.map (fun (e : Registry.entry) -> e.Registry.name) Registry.all in
  List.iter
    (fun gone -> Alcotest.(check bool) (gone ^ " is gone") false (List.mem gone names))
    [ "engine-diff"; "bare-failwith" ]

let suite =
  [
    Alcotest.test_case "dim mismatch" `Quick test_dim_mismatch;
    Alcotest.test_case "arity count mismatch" `Quick test_arity_count_mismatch;
    Alcotest.test_case "dynamics clean" `Quick test_dynamics_clean;
    Alcotest.test_case "div by zero over X0" `Quick test_div_by_zero_over_x0;
    Alcotest.test_case "div clean off the singularity" `Quick test_div_clean_when_x0_clear;
    Alcotest.test_case "div with unbounded input warns" `Quick test_div_unbounded_input_warns;
    Alcotest.test_case "exp overflow" `Quick test_exp_overflow;
    Alcotest.test_case "spec overlap" `Quick test_spec_overlap;
    Alcotest.test_case "spec x0 in unsafe" `Quick test_spec_x0_unsafe;
    Alcotest.test_case "spec degenerate goal" `Quick test_spec_degenerate_goal;
    Alcotest.test_case "spec dims vs dynamics" `Quick test_spec_dims_vs_dynamics;
    Alcotest.test_case "x0 outside domain" `Quick test_x0_outside_domain;
    Alcotest.test_case "nan weight in serialized mlp" `Quick test_nn_nan_weight;
    Alcotest.test_case "network shape mismatch" `Quick test_nn_shape_mismatch;
    Alcotest.test_case "linear gain shape" `Quick test_linear_gain_shape;
    Alcotest.test_case "unbounded activation warns" `Quick test_unbounded_activation_warns;
    Alcotest.test_case "builtin systems pass clean" `Quick test_builtin_systems_clean;
    Alcotest.test_case "phys equality flagged" `Quick test_phys_equality_flagged;
    Alcotest.test_case "comments and strings clean" `Quick test_phys_equality_in_comment_or_string_clean;
    Alcotest.test_case "nan compare vs match arrow" `Quick test_nan_compare_flagged_but_arrow_clean;
    Alcotest.test_case "float_of_string rule" `Quick test_float_of_string_rule;
    Alcotest.test_case "allowlist" `Quick test_allowlist;
    Alcotest.test_case "tree walk: missing mli, _build refusal" `Quick
      test_lint_tree_missing_mli_and_build_refusal;
    Alcotest.test_case "registry" `Quick test_registry_names_unique_and_enough;
    Alcotest.test_case "registry: source layer is the rule table" `Quick
      test_registry_source_layer_is_rule_table;
  ]
