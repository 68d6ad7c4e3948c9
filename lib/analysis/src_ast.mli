(** Parsetree front end for the layer-2 rules: parse a source file with
    the compiler's own parser and expose the location helpers the checks
    need (the typed layers share them). *)

type parsed = {
  path : string;
  source : string;
  ast : Parsetree.structure;
}

val flatten : Longident.t -> string list
(** Longident components, e.g. [M.N.f] -> [["M"; "N"; "f"]]. *)

val name_of : Longident.t -> string
(** Components joined with ['.']. *)

val start_line_col : Location.t -> int * int
(** 1-based (line, col) of a location's start. *)

val file_loc : path:string -> Location.t -> Diagnostics.location

val span : Location.t -> int * int
(** Absolute [start, end) character offsets, for containment tests. *)

val parse_impl : path:string -> string -> (parsed, string) result
(** Parse implementation source as if it were the file at [path]
    (diagnostic locations use [path]); [Error] carries a message with
    the failure position. Tests use it to lint source strings through
    {!Ast_rules.lint_parsed}. *)

val parse_file : string -> (parsed, string) result

val read_file : string -> string

val module_of_path : string -> string
(** ["lib/taylor/taylor_model.ml"] -> ["Taylor_model"]. *)
