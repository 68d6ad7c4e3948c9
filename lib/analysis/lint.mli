(** The source driver behind [dwv_lint source|all] and [dune build @lint].

    Layer 2 runs per file on the Parsetree: the {!Ast_rules} table, the
    missing-[.mli] check, and an [ast-parse] note for an implementation
    the parser rejects. Then one {!Cmt_index} scan serves layers 3–5:
    {!Domain_safety}, {!Exn_escape} and {!Typed_rules.pool_captures}
    over every scanned unit, and {!Budget_threading}, {!Rounding_flow}
    and {!Cache_purity} over the units {!in_sound_scope}. The same scan
    supplies the typed phys-equality exemption
    ({!Typed_rules.expr_phys_eq_allow}). *)

val lint_files :
  ?phys_eq_allow:(string * int) list -> string list -> Diagnostics.t list
(** Layer 2 over the given files, sorted by location. [phys_eq_allow]
    (default none) holds the (path, line) sites exempt from the
    phys-equality rule. *)

val in_sound_scope : string -> bool
(** Whether a repo-relative source path lies under [lib/] or [bin/]: the
    code the verifier's guarantee rests on. Rounding-flow,
    cache-purity and budget-threading judge only those units, so the
    box-building helpers of benches and tests are not held to the
    enclosure discipline. *)

val analyze_index : Cmt_index.t -> Diagnostics.t list
(** Layers 3–5 over one index, sorted. The entry-rooted analyses are
    skipped when no unit is in scope. *)

val run : ?build_dir:string -> ?exclude:string list -> string list -> Diagnostics.t list
(** Every source layer over the files under the roots and their [.cmt]s
    (read from [build_dir], default {!Cmt_index.default_build_dir};
    [dune build @check] writes them). An index with no units is a
    [cmt-missing] error, an unreadable [.cmt] a [cmt-missing] warning.
    Raises [Invalid_argument] on a root that does not exist or lies in
    [_build]. *)
