(** The source tree walker shared by every source layer: collects the
    OCaml files under a set of roots, applies exclusions, and provides
    the missing-[.mli] file check. *)

(** The missing-[.mli] check for one path: warns when a library module
    (path contains a [lib] component, suffix [.ml]) has no interface. *)
val missing_mli_check : string -> Diagnostics.t list

(** Is [path] under one of the [fragments]? Matched on contiguous whole
    path components, like {!Ast_rules} allowlists — the exclusion
    predicate {!collect_tree} uses, exposed so other walkers (the typed
    layer's cmt scan) exclude identically. *)
val path_under : fragments:string list -> string -> bool

(** Collect every [.ml]/[.mli] under the given roots, in a deterministic
    (sorted) walk order. Directories whose name starts with ['.'] or ['_']
    (notably [_build]) are skipped; a root that itself points into
    [_build], or does not exist, is refused with [Invalid_argument].
    Files and directories are identified by resolved absolute path, so
    overlapping or duplicated roots and symlinks back into the tree yield
    each file once (and symlink cycles terminate). [exclude] fragments
    are matched on whole path components, like allowlists. *)
val collect_tree : ?exclude:string list -> string list -> string list
