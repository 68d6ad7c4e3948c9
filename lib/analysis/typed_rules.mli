(** Type-aware rules: the typed exemption of the layer-2 phys-equality
    rule, and the [pool-capture] check.

    The Parsetree rules cannot see types. With the typed trees of
    {!Cmt_index} the exemption is semantic: [==]/[!=] applied to
    hash-consed [Expr.t] values is a documented O(1) identity test, and
    only those exact call sites are exempt — a [==] on floats three lines
    down still fails the lint. *)

(** Every (source path, line) at which a physical-equality operator is
    applied to operands of type [Expr.t]. Sorted, duplicates removed;
    paths are repo-relative as recorded in the cmt
    ([lib/expr/expr.ml]). {!Lint} feeds it to the layer-2 rules. *)
val expr_phys_eq_allow : Cmt_index.t -> (string * int) list

(** [pool-capture] errors: every fan-out site of the index
    ({!Cmt_index.fanout}) whose task reads a local [ref] or [Hashtbl.t]
    bound outside the task (a parameter or a [let] of the enclosing function),
    directly or through a local helper function the task calls. Such
    state is shared by every domain the tasks run on, unsynchronized.
    Module-level state is {!Domain_safety}'s; state the task creates
    itself is per-task and fine. *)
val pool_captures : Cmt_index.t -> Diagnostics.t list
