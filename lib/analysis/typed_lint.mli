(** Layer-4 engine driver: everything [dwv_lint --engine typed] runs.

    Builds a {!Cmt_index} over the compiled tree, then:
    - the full layer-2/3 lint ({!Ast_lint}) with
      the typed phys-equality exemption
      ({!Typed_rules.expr_phys_eq_allow}) in force;
    - the budget-discipline check ({!Budget_threading});
    - the Pool task capture check ({!Typed_rules.pool_captures}).

    The typed engine needs the [.cmt]s dune writes during compilation;
    [dune build @check] materializes them for every module including
    executables. An index with no units at all is a [cmt-missing]
    error, and per-file load failures are warnings. *)

(** [lint_tree ~roots ()] analyzes the sources under [roots] (their
    cmts filtered the same way) and returns every diagnostic,
    {!Diagnostics.sort}ed. [build_dir] defaults to
    {!Cmt_index.default_build_dir}. *)
val lint_tree :
  ?build_dir:string -> ?exclude:string list -> roots:string list -> unit ->
  Diagnostics.t list
