(* Layer-4 engine driver. See the .mli. *)

module D = Diagnostics

let lint_tree ?build_dir ?(exclude = []) ~roots () =
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
  let phys_eq_allow = Typed_rules.expr_phys_eq_allow idx in
  let ast_diags = Ast_lint.lint_tree ~phys_eq_allow ~exclude roots in
  let budget_diags = Budget_threading.analyze idx in
  let capture_diags = Typed_rules.pool_captures idx in
  D.sort (cmt_diags @ ast_diags @ budget_diags @ capture_diags)
