(** Layer-5 cache-determinism analysis over the typed reference graph.

    The PR-7 certificate cache serves verdicts keyed by
    [Cert_key.fingerprint]; the key is only trustworthy if everything
    reachable from the fingerprint and validation entry points is a pure
    function of the keyed inputs. This pass computes the transitive
    closure of internal references from those entry points and flags
    reads of wall clocks ([Mono.now], [Unix.gettimeofday], [Sys.time]),
    RNG state ([Random.*]), [Domain] identity, process environment, and
    unkeyed module-level mutable globals (the {!Cmt_index} state
    inventory; [Domain.DLS] memo caches, write-only telemetry counters
    and locks are accepted — see the implementation header for the
    argument).

    [Cert_cache.find]/[store] are an explicit trust boundary: the cache
    sits behind the fingerprint key and {!Cert_check.validate} re-checks
    whatever it returns, so the BFS stops there.

    Allow entries pair the reachable function with the specific
    reference it is excused for; stale entries are
    {!Registry.sound_allow} errors, exactly as in {!Rounding_flow}. *)

type allow = {
  a_fn : string;      (** "Unit.fn" where the reference occurs *)
  a_what : string;    (** the excused canonical reference, e.g. "Expr.intern_table" *)
  a_reason : string;
}

type config = {
  entries : string list;   (** fingerprint/validation/cert-emission roots *)
  boundary : string list;  (** functions the closure does not descend into *)
  forbidden : (string * string) list;         (** exact canonical name, category *)
  forbidden_prefix : (string * string) list;  (** name prefix, category *)
  allow : allow list;
}

val default_entries : string list
val default_allow : allow list
val default_config : config

(** All {!Registry.cache_purity} violations (with the entry-to-offender
    reference path in the message) plus {!Registry.sound_allow}
    staleness errors, deterministic across runs. *)
val analyze : ?config:config -> Cmt_index.t -> Diagnostics.t list
