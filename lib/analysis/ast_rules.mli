(** Layer-2 source rules as data, matched on identifier occurrences in
    the Parsetree (phys-equality, nan-compare, float-of-string,
    obj-magic, poly-compare, print-debug). A new rule is one more entry
    in {!builtin} plus the identifiers that fire it. *)

type rule = {
  name : string;          (** registry check name, e.g. ["phys-equality"] *)
  severity : Diagnostics.severity;
  message : string;
  hint : string option;
  allow : string list;
      (** path fragments exempt from this rule (documented legit uses);
          matched on whole path components, trailing ['/'] = directory only *)
}

(** Does the allowlist exempt this path? Fragments match contiguous whole
    path components ("expr.ml" exempts [lib/expr/expr.ml] but not
    [lib/expr/expr.ml.bak]); a trailing ['/'] restricts the fragment to
    directories (["bin/"] exempts [bin/x.ml] but not a file named [bin]). *)
val allowed : rule -> string -> bool

(** The built-in float-soundness and hygiene rules. *)
val builtin : rule list

val lint_parsed : Src_ast.parsed -> Diagnostics.t list
(** Run {!builtin} over one parsed file. *)
