(* Engine driver for the source layers.

   Every implementation is parsed with the compiler front end and three
   stages run over the result: the layer-2 rules (Ast_rules), the
   domain-safety race lint and the exception-escape analysis (both
   queries over one Ast_index built from every file that parsed).
   Interfaces carry no expressions to analyze; an implementation the
   parser rejects gets an [ast-parse] note instead of findings, so the
   gap is visible in the report. *)

module D = Diagnostics

let is_impl path = Filename.check_suffix path ".ml"

(* The typed phys-equality exemption. [allow] holds (path, line) pairs
   from Typed_rules.expr_phys_eq_allow; paths are normalized
   component-wise so "./lib/x.ml" and "lib/x.ml" agree. *)
let norm_path path =
  String.split_on_char '/' path
  |> List.filter (fun c -> c <> "" && c <> ".")
  |> String.concat "/"

let phys_eq_rule = "phys-equality"

let apply_phys_eq_allow ~phys_eq_allow ds =
  match phys_eq_allow with
  | None -> ds
  | Some allow ->
    List.filter
      (fun (d : D.t) ->
        match d.D.loc with
        | D.File { path; line; _ } ->
          not
            (d.D.check = phys_eq_rule
            && List.exists (fun (p, l) -> l = line && norm_path p = norm_path path) allow)
        | D.Model _ -> true)
      ds

(* With a typed allowlist in force, the static per-file suppression on
   the phys-equality rule is superseded: drop it so non-exempt [==] in
   an allowlisted file resurface. *)
let effective_rules ~phys_eq_allow =
  match phys_eq_allow with
  | None -> Ast_rules.builtin
  | Some _ ->
    List.map
      (fun (r : Ast_rules.rule) ->
        if r.Ast_rules.name = phys_eq_rule then { r with Ast_rules.allow = [] } else r)
      Ast_rules.builtin

let lint_files ?phys_eq_allow files =
  let rules = effective_rules ~phys_eq_allow in
  let parsed = ref [] in
  let file_diags path =
    if not (is_impl path) then []
    else
      match Src_ast.parse_file path with
      | Ok p ->
        parsed := p :: !parsed;
        apply_phys_eq_allow ~phys_eq_allow (Ast_rules.lint_parsed ~rules p)
      | Error msg ->
        [
          D.info ~check:Registry.ast_parse
            ~loc:(D.File { path; line = 1; col = 1 })
            (Fmt.str "not parseable by the compiler front end (%s); source rules \
                      not run"
               msg);
        ]
  in
  let ds =
    List.concat_map (fun path -> Source_lint.missing_mli_check path @ file_diags path) files
  in
  let index = Ast_index.of_files (List.rev !parsed) in
  D.sort (ds @ Domain_safety.analyze index @ Exn_escape.analyze index)

let lint_tree ?phys_eq_allow ?exclude roots =
  lint_files ?phys_eq_allow (Source_lint.collect_tree ?exclude roots)
