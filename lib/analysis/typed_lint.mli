(** Layer-4 engine driver: everything [dwv_lint --engine typed] runs.

    Builds a {!Cmt_index} over the compiled tree, then:
    - the full layer-2/3 lint ({!Ast_lint}) with
      the typed phys-equality exemption
      ({!Typed_rules.expr_phys_eq_allow}) in force;
    - the budget-discipline check ({!Budget_threading});
    - the allocation profile ({!Alloc_profile}), diffed against a
      baseline document when one is supplied.

    The typed engine needs the [.cmt]s dune writes during compilation;
    [dune build @check] materializes them for every module including
    executables. An index with no units at all is a [cmt-missing]
    error, and per-file load failures are warnings. *)

type result = {
  diags : Diagnostics.t list;    (** everything, {!Diagnostics.sort}ed *)
  sites : Alloc_profile.site list;  (** ranked; serialize with
                                        {!Alloc_profile.report_to_json} *)
}

(** [lint_tree ~roots ()] analyzes the sources under [roots] (their
    cmts filtered the same way). [alloc_baseline] is the {e contents}
    of a baseline document previously written by
    {!Alloc_profile.report_to_json}; without it the profile is
    reported but not gated. [build_dir] defaults to
    {!Cmt_index.default_build_dir}. *)
val lint_tree :
  ?build_dir:string -> ?exclude:string list -> ?alloc_baseline:string ->
  roots:string list -> unit -> result
