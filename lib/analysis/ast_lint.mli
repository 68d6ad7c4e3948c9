(** Engine driver for the source layers: parses every implementation
    with the compiler front end and runs the layer-2 rules
    ({!Ast_rules}) plus the layer-3 analyses ({!Domain_safety},
    {!Exn_escape}). Every file also gets the missing-[.mli] check; an
    implementation the parser rejects gets an [ast-parse] note. *)

val lint_files :
  ?phys_eq_allow:(string * int) list -> string list -> Diagnostics.t list
(** Lint the given files, sorted by location. [phys_eq_allow] is the
    typed exemption list from {!Typed_rules.expr_phys_eq_allow}: when
    given, the phys-equality rule's static per-file allowlist is dropped
    and instead exactly those (path, line) sites are exempt. *)

val lint_tree :
  ?phys_eq_allow:(string * int) list -> ?exclude:string list -> string list ->
  Diagnostics.t list
(** [lint_files] over {!Source_lint.collect_tree}. *)
