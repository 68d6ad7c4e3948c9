(* Layer-2 front end: parse OCaml sources into the compiler's own
   Parsetree. The source rules (Ast_rules) start from here, so matching
   is syntactic — a `==` in a comment, a string banner or an identifier
   like `preexists` can never fire a rule, and every diagnostic carries
   the exact compiler location.

   Parsing uses compiler-libs.common (the same 5.1 front end that builds
   the repo), so anything dune accepts we parse identically. Files the
   parser rejects — which for this repo means "mid-edit garbage", since
   tier-1 would fail too — get an ast-parse note from Ast_lint. *)

type parsed = {
  path : string;
  source : string;
  ast : Parsetree.structure;
}

(* Longident [M.N.f] flattened to its component list. *)
let flatten lid = Longident.flatten lid

let name_of lid = String.concat "." (flatten lid)

(* 1-based line/col of a compiler location's start. *)
let start_line_col (loc : Location.t) =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol + 1)

let file_loc ~path (loc : Location.t) =
  let line, col = start_line_col loc in
  Diagnostics.File { path; line; col }

(* Absolute character offsets of a location, for lexical containment
   tests (is this raise site inside that try body?). Offsets are
   relative to the parsed string, which is the whole file. *)
let span (loc : Location.t) =
  (loc.Location.loc_start.Lexing.pos_cnum, loc.Location.loc_end.Lexing.pos_cnum)

let parse_impl ~path source =
  let lexbuf = Lexing.from_string source in
  lexbuf.Lexing.lex_curr_p <-
    { Lexing.pos_fname = path; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 };
  match Parse.implementation lexbuf with
  | ast -> Ok { path; source; ast }
  | exception e ->
    let msg =
      match e with
      | Syntaxerr.Error _ -> "syntax error"
      | _ -> Printexc.to_string_default e
    in
    let line, col = start_line_col (Location.curr lexbuf) in
    Error (Fmt.str "%s at %d:%d" msg line col)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_file path = parse_impl ~path (read_file path)

(* "lib/taylor/taylor_model.ml" -> "Taylor_model": the name under which
   other modules of the repo reference this compilation unit. *)
let module_of_path path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))
