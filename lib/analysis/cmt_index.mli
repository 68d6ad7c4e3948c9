(** The program index layers 3–5 read.

    Loads the [.cmt] files dune emits under [_build] (the same
    [compiler-libs] toolchain that built the repo) and exposes a
    per-compilation-unit inventory: top-level functions with their
    {e typed} trees, a resolved intra-repo call graph, raise sites and
    handlers, module-level mutable state classified by type, and
    [Pool]/[Domain] fan-out sites. It matches [Path.t]s and
    [Types.type_expr]s, not names — so "a [Budget.t] parameter", "an
    argument of type [Expr.t]", "this optional argument was omitted"
    and "this binding is a hash table" are facts, not heuristics. *)

type param = {
  p_label : string;  (** "" for positional, "~x" labelled, "?x" optional *)
  p_budget : bool;   (** the parameter type mentions [Budget.t] *)
}

type call_arg = {
  a_label : string;
  a_passed : bool;  (** false when an optional argument was omitted (or
                        explicitly given as [None]) at the call site *)
  a_budget : bool;  (** a passed argument whose type mentions [Budget.t] *)
}

type call = {
  c_callee : string;    (** canonical dotted name, e.g. "Taylor_model.mul",
                            "Budget.check", "Array.iter" *)
  c_internal : bool;    (** the callee resolves to a scanned unit's
                            top-level binding *)
  c_loc : Location.t;
  c_args : call_arg list;
}

type ref_site = {
  r_name : string;      (** canonical dotted name, as in [c_callee] *)
  r_internal : bool;    (** resolves to a scanned unit's top-level binding *)
  r_loc : Location.t;
}

type raise_class =
  | Rfailure of string  (** [failwith] / [raise (Failure _)] *)
  | Rinvalid of string  (** [invalid_arg] / [raise (Invalid_argument _)] *)
  | Rexit               (** [exit] *)
  | Rexn of string      (** [raise C] for any other constructor [C] *)

type raise_site = { rs_class : raise_class; rs_loc : Location.t }

type tfn = {
  t_name : string;       (** binding name within its unit *)
  t_loc : Location.t;
  t_params : param list; (** the arrow spine of the binding's type *)
  t_calls : call list;
  t_refs : ref_site list;
      (** every identifier the body mentions, canonically resolved — a
          superset of the call heads, so purity passes see eta-passed
          functions and bare global reads *)
  t_raises : raise_site list;
      (** [failwith]/[invalid_arg]/[exit] calls and [raise] of a
          constructor; re-raising a bound exception value is forwarding
          and not listed *)
  t_caught : string list;
      (** exception constructors some handler in the body catches;
          ["*"] for a catch-all *)
  t_handled : (int * int) list;
      (** character spans protected by a [try] or a [match] with an
          [exception] arm *)
  t_speaks_result : bool;
      (** the body constructs or matches [Ok]/[Error], or uses [Result] *)
  t_body : Typedtree.expression;  (** for the body-walking passes *)
}

(** What a module-level value is, judged by its type; abbreviations
    declared in scanned units are expanded first. *)
type state_kind =
  | Ref
  | Hashtable  (** [Hashtbl.t], or the [t] of a [Hashtbl.Make] instance *)
  | Array
  | Buffer
  | Queue
  | Stack
  | Bytes
  | Mutable_record  (** a record type of a scanned unit with a mutable field *)
  | Atomic
  | Publish_once
  | Counter  (** a [Counters.handle]: incremented atomically, never read back *)
  | Dls      (** a [Domain.DLS.key] *)
  | Lock     (** [Mutex.t], [Condition.t], a semaphore *)

type state = {
  s_name : string;
  s_kind : state_kind;
  s_loc : Location.t;
  s_init : ref_site list;
      (** references in the initializer — for a [Dls] key, what its
          initializer closure returns is only as private as these *)
}

type fanout = {
  fo_callee : string;  (** "Pool.map", "Pool.mapi", "Pool.map_reduce", "Domain.spawn" *)
  fo_loc : Location.t;
  fo_tasks : Typedtree.expression list;
      (** the arguments that run on other domains: every function-typed
          one except [map_reduce]'s [~reduce], which folds on the caller *)
}

type unit_info = {
  u_name : string;     (** canonical module name ("Taylor_model") *)
  u_modname : string;  (** mangled compilation-unit name *)
  u_source : string;   (** repo-relative source path *)
  u_aliases : (string * string list) list;
      (** structure-level [module B = Dwv_robust.Budget] aliases, target
          pre-split into components *)
  u_fns : tfn list;    (** every top-level value binding *)
  u_state : state list;
      (** the top-level values that are mutable state, by type *)
  u_fanouts : fanout list;  (** anywhere in the structure *)
  u_locals : (Ident.t * Typedtree.expression) list;
      (** every [let x = e] below the top level *)
  u_str : Typedtree.structure;
      (** the whole typed structure — [u_fns] covers only top-level
          bindings, so passes that must see inside submodules and
          functor arguments (the typed phys-equality refinement) walk
          this instead *)
}

type t

(** Read every [.cmt] implementation below [build_dir] (default
    {!default_build_dir}) whose source path sits under one of [roots]
    and under none of the [exclude] fragments (whole-path-component
    matching, as in {!Source_lint}). [roots] are paths from the working
    directory, matched as {!source_path} gives them, so the scan finds
    the same units from any directory of the project. Units that fail to
    load are skipped and reported in {!load_errors}. *)
val scan : ?build_dir:string -> ?exclude:string list -> ?roots:string list -> unit -> t

(** Index exactly these [.cmt] files (tests use this on the typed
    fixture corpus). *)
val of_cmt_files : string list -> t

(** [source_path p]: the path [p] (from the working directory, or
    absolute) relative to the project root, as a [.cmt] records a source
    path; ["."] for the root itself, [p] unchanged when outside it. The
    project root is the directory .cmt files record their source paths
    against: inside a dune build context ([.../_build/<context>/...])
    that context directory, elsewhere the nearest ancestor of the
    working directory holding a [dune-project] file, failing both the
    working directory. *)
val source_path : string -> string

(** [_build/default] under the project root, or the root itself when
    that is a build context or has no build directory; relative when the
    root is the working directory. *)
val default_build_dir : unit -> string

(** All indexed units, sorted by [u_name]. *)
val units : t -> unit_info list
val find_unit : t -> string -> unit_info option

(** ["Module.fn"] lookup. *)
val find_fn : t -> string -> (unit_info * tfn) option

(** ["Module.name"] lookup in the mutable-state inventory. *)
val find_state : t -> string -> (unit_info * state) option

(** The same index with only the units [keep] accepts. Their resolved
    facts are unchanged; load errors are not carried over. *)
val restrict : t -> (unit_info -> bool) -> t

val fn_key : unit_info -> tfn -> string

(** (cmt path, reason) pairs for files that could not be indexed. *)
val load_errors : t -> (string * string) list

(** {1 Canonicalization}

    Canonical names strip dune's name mangling and library wrapper
    modules and resolve one level of structure-local module aliases:
    [Dwv_taylor__Taylor_model.mul], [Dwv_taylor.Taylor_model.mul] and
    [Tm.mul] (under [module Tm = Dwv_taylor.Taylor_model]) all
    canonicalize to ["Taylor_model.mul"]; [Stdlib.Array.iter] to
    ["Array.iter"]. A unit-local identifier or type keeps its unit
    prefix: [t] inside [expr.ml] canonicalizes to ["Expr.t"]. *)

val canon_ident : t -> unit_info -> Path.t -> string

(** Canonical callee name for an applied (or mentioned) identifier path,
    with the [c_internal]/[r_internal] flag. Unlike {!canon_ident} this
    shortens to the last two components ("Unit.fn") and qualifies
    unit-local bindings with their unit name. *)
val resolve_callee : t -> unit_info -> Path.t -> string * bool

(** Canonical head-constructor name of a type, [""] for non-[Tconstr]
    types ('a, arrows, tuples). *)
val type_head : t -> unit_info -> Types.type_expr -> string

(** Does canonical constructor [name] occur anywhere in the type
    (under arrows, tuples, constructor arguments, [option], ...)? *)
val type_mentions : t -> unit_info -> string -> Types.type_expr -> bool

(** 1-based line/col location for a typed-tree node of [u]. *)
val file_loc : unit_info -> Location.t -> Diagnostics.location

(** The variable a pattern binds ([Tpat_var]/[Tpat_alias]), if simple. *)
val binding_name : Typedtree.pattern -> string option

(** {1 Queries} *)

(** Raise sites outside every handled span and of no constructor a
    handler in the same function catches. *)
val escaping_raises : tfn -> raise_site list

(** Whether these references (a body's [t_refs]) take a lock:
    [Mutex.lock], [protect] or [try_lock]. *)
val takes_lock : ref_site list -> bool

val kind_label : state_kind -> string

(** Shared state with no synchronization of its own: every kind except
    [Atomic], [Publish_once], [Counter], [Dls] and [Lock]. *)
val unguarded : state_kind -> bool

(** The let-bound definition of a local of [u], if it has one. *)
val local_def : unit_info -> Ident.t -> Typedtree.expression option

(** The canonical references of a fan-out task and, transitively, of
    every local function it mentions. *)
val task_refs : t -> unit_info -> Typedtree.expression -> ref_site list
