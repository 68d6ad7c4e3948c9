(** Type-aware rules: refinements of the layer-2/3 rules, and the
    [pool-capture] check.

    The Parsetree engines cannot see types, so rules like phys-equality
    are all-or-nothing per file. With the typed trees of {!Cmt_index}
    the exemptions become semantic: [==]/[!=] applied to hash-consed
    {!Expr.t} values is a documented O(1) identity test (PR-5), and only
    those exact call sites are exempt — a [==] on floats three lines
    down still fails the lint. *)

(** Every (source path, line) at which a physical-equality operator is
    applied to operands of type [Expr.t]. Sorted, duplicates removed;
    paths are repo-relative as recorded in the cmt
    ([lib/expr/expr.ml]). Feed to {!Ast_lint.lint_files} as
    [?phys_eq_allow]. *)
val expr_phys_eq_allow : Cmt_index.t -> (string * int) list

(** [pool-capture] errors: every [Pool.map]/[mapi]/[map_reduce] call
    whose task argument reads a local [ref] or [Hashtbl.t] bound outside
    the task (a parameter or a [let] of the enclosing function),
    directly or through a local helper function the task calls. Such
    state is shared by every domain the tasks run on, unsynchronized.
    Module-level state is {!Domain_safety}'s; state the task creates
    itself is per-task and fine. *)
val pool_captures : Cmt_index.t -> Diagnostics.t list
