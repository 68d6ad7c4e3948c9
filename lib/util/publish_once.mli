(** Publish-once registries: process-global memo tables shared by every
    domain, for values that are a pure function of their key and costly
    to build (Lie-derivative tables, polynomial product plans).

    An entry, once published, is never replaced or removed, so readers
    take no lock: a lookup is one [Atomic.get] plus a walk of an
    immutable list. Two domains missing on the same key may both build
    it; the first to publish wins and the other adopts the published
    value, so every caller sees one value per key. Keys are compared
    with structural equality. Meant for a handful of entries per run. *)

type ('k, 'v) t

val create : unit -> ('k, 'v) t

(** [find_or_publish t key build] is the published value for [key],
    calling [build ()] (outside any lock) and publishing its result on a
    miss. [build] must be a pure function of [key]. *)
val find_or_publish : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v

(** Number of published entries. *)
val size : ('k, 'v) t -> int
