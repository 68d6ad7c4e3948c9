(* The source driver. Layer 2 runs per file through the Parsetree
   (Src_ast + Ast_rules, the missing-mli check, an ast-parse note for a
   file the parser rejects); then one Cmt_index scan serves layers 3-5
   and the typed phys-equality exemption. Interfaces carry no
   expressions, so only the missing-mli check sees them. *)

module D = Diagnostics

(* Paths compare component-wise, so "./lib/x.ml" and "lib/x.ml" agree;
   the exemptions carry project-relative source paths, the file
   diagnostics paths from the working directory. *)
let components path =
  String.split_on_char '/' path |> List.filter (fun c -> c <> "" && c <> ".")

let exempt ~phys_eq_allow ds =
  List.filter
    (fun (d : D.t) ->
      match d.D.loc with
      | D.File { path; line; _ } ->
        not
          (d.D.check = "phys-equality"
          && List.exists
               (fun (p, l) ->
                 l = line && components p = components (Cmt_index.source_path path))
               phys_eq_allow)
      | D.Model _ -> true)
    ds

let lint_files ?(phys_eq_allow = []) files =
  List.concat_map
    (fun path ->
      Source_lint.missing_mli_check path
      @
      if not (Filename.check_suffix path ".ml") then []
      else
        match Src_ast.parse_file path with
        | Ok p -> exempt ~phys_eq_allow (Ast_rules.lint_parsed p)
        | Error msg ->
          [
            D.info ~check:Registry.ast_parse
              ~loc:(D.File { path; line = 1; col = 1 })
              (Fmt.str "not parseable by the compiler front end (%s); source rules \
                        not run"
                 msg);
          ])
    files
  |> D.sort

let in_sound_scope path =
  match components path with ("lib" | "bin") :: _ -> true | _ -> false

let analyze_index idx =
  let scoped = Cmt_index.restrict idx (fun u -> in_sound_scope u.Cmt_index.u_source) in
  let entry_rooted =
    if Cmt_index.units scoped = [] then []
    else
      Budget_threading.analyze scoped @ Rounding_flow.analyze scoped
      @ Cache_purity.analyze scoped
  in
  D.sort
    (Domain_safety.analyze idx @ Exn_escape.analyze idx @ Typed_rules.pool_captures idx
   @ entry_rooted)

let run ?build_dir ?(exclude = []) roots =
  let files = Source_lint.collect_tree ~exclude roots in
  let idx = Cmt_index.scan ?build_dir ~exclude ~roots () in
  let cmt_diags =
    if Cmt_index.units idx = [] then
      [
        D.error ~check:Registry.cmt_missing
          ~loc:(D.Model "typed/cmt-index")
          (Fmt.str "no .cmt files found under %s for roots %s"
             (match build_dir with
             | Some d -> d
             | None -> Cmt_index.default_build_dir ())
             (String.concat " " roots))
          ~hint:"run `dune build @check` first; executables only get .cmts from \
                 the @check alias";
      ]
    else
      List.map
        (fun (path, msg) ->
          D.warn ~check:Registry.cmt_missing
            ~loc:(D.Model ("typed/cmt-index/" ^ Filename.basename path))
            (Fmt.str "unreadable cmt %s: %s" path msg))
        (Cmt_index.load_errors idx)
  in
  D.sort
    (cmt_diags
    @ lint_files ~phys_eq_allow:(Typed_rules.expr_phys_eq_allow idx) files
    @ analyze_index idx)
