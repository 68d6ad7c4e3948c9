(** Domain-safety lint over the {!Cmt_index}: flags Pool/Domain fan-out
    sites whose task can reach module-level mutable state that is not
    mediated by Atomic, Mutex, or Domain.DLS. Reachability is transitive
    over the typed call graph; the guard judgment is one hop (the
    accessor locks, or a function it references does). *)

val check_name : string
(** ["domain-safety"]. *)

val read_only : (string * string) list
(** ["Unit.name"] globals the program only reads, each with the reason
    it is never written; tasks may share them. *)

val analyze : Cmt_index.t -> Diagnostics.t list
(** Error-severity diagnostics, one per (fan-out site, mutable binding)
    pair, located at the fan-out call site. *)
