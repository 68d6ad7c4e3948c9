(** Exception-escape analysis over the {!Cmt_index}: hot-path functions
    that can raise past the Dwv_error.t result taxonomy. It is the lint
    that keeps bare [failwith]/[exit] out of the verification loop.

    Tiers: Error for failwith/exit/uncaught constructor raises in a
    non-result-speaking hot function; Info for invalid_arg-class
    contract raises; Warn when a raise-free hot function references a
    scanned function with an Error-tier escape (one hop). *)

val check_name : string
(** ["exn-escape"]. *)

val default_hot_modules : string list
(** The verification fast path: Learner, Initset, Evaluate, Verifier and
    the reachability back ends. *)

val default_allow : string list
(** Leaf modules whose raises are contract (parse/IO front ends and
    invariant checks); calls into them are not reported. *)

val analyze :
  ?hot_modules:string list -> ?allow:string list -> Cmt_index.t -> Diagnostics.t list
