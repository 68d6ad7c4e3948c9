(** Deterministic-counter trend ratchet over a committed history file.

    The bench gates snapshot {!Counters} around each workload; those
    totals are deterministic (bit-identical at any domain count), so a
    change against the last committed snapshot is a real behavioural
    shift, independent of wall clock. The history file accumulates one
    entry per (section, workload) change; the gate fails when work
    counters grow or the certificate-cache hit rate drops relative to
    the last committed entry. A regressed snapshot is never appended, so
    the gate keeps failing until the cost is mended; a legitimate cost
    increase is accepted by appending its entry to the file by hand, in
    a reviewed commit.

    Minor-word counts depend on the dune build profile (a release build
    allocates less), so each entry records the profile it was measured
    under, and a snapshot is only ever compared with entries of its own
    profile. *)

type entry = {
  section : string;  (** bench section, e.g. "hotpath" *)
  workload : string;  (** workload within the section, e.g. "learn" *)
  profile : string;
      (** dune build profile of the measuring binary; an entry that
          records none reads as {!default_profile} *)
  counters : (string * int) list;  (** sorted snapshot *)
}

(** ["dev"], dune's default profile. *)
val default_profile : string

(** Parse a history file; a missing or empty file is an empty history. *)
val load : string -> entry list

(** Most recent committed snapshot for the key measured under
    [profile], newest entry wins. *)
val last :
  entry list ->
  section:string ->
  workload:string ->
  profile:string ->
  (string * int) list option

(** Regression messages of [cur] against [prev]: any work counter that
    increased (more work for the same deterministic workload), any
    benefit counter ([warm_hits], [cache_fast_hits]) that decreased
    (lost warm starts / fast-tier hits), plus a decreased cache hit
    rate [hits / (hits + misses)]. A work counter absent from [prev]
    is new and starts its baseline (no regression); otherwise a counter
    absent from one side counts 0. *)
val regressions : prev:(string * int) list -> (string * int) list -> string list

(** Gate helper: for each [(workload, snapshot)], compare against the
    last committed entry for [(section, workload)] measured under the
    profile this library was built with ({!Build_profile}), append every
    changed
    snapshot that shows no regression to the file at [path], and return
    the prefixed regression messages of the others (empty = ratchet
    passes). A regressed snapshot is not appended, so recording it again
    fails again. First-ever snapshots seed the history and cannot
    regress. *)
val record :
  path:string ->
  section:string ->
  (string * (string * int) list) list ->
  string list
