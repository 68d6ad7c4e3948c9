(* The layer-2 source rules and their engine. The rule table is data —
   name, severity, message, hint, allowlist — and matching is on
   identifier occurrences in the Parsetree, so a `==` in a comment, a
   string banner, or an operator-shaped fragment inside a longer token
   can never fire, and several hits on one line are all reported.

   Adding a rule is one row in [builtin] plus one arm in [ident_rule]. *)

module D = Diagnostics

type rule = {
  name : string;
  severity : Diagnostics.severity;
  message : string;
  hint : string option;
  allow : string list;
}

(* Split a path into its components, dropping empty segments and "." so
   "./lib//expr" and "lib/expr" compare equal. Backslashes are treated as
   separators too (paths may arrive in Windows form). *)
let components path =
  String.split_on_char '\\' path
  |> List.concat_map (String.split_on_char '/')
  |> List.filter (fun c -> c <> "" && c <> ".")

let allowed rule path =
  let pcs = components path in
  List.exists
    (fun fragment ->
      (* Fragments match on whole path components, not substrings:
         "lib/expr/expr.ml" must not also exempt lib/expr/expr.ml.bak.
         A trailing '/' ("bin/") makes the fragment directory-only — it
         must match somewhere strictly above the final component. *)
      let dir_only =
        String.length fragment > 0 && fragment.[String.length fragment - 1] = '/'
      in
      let fcs = components fragment in
      let rec prefix fs ps =
        match (fs, ps) with
        | [], rest -> (not dir_only) || rest <> []
        | _, [] -> false
        | f :: fs', p :: ps' -> f = p && prefix fs' ps'
      in
      let rec at ps =
        match ps with [] -> false | _ :: rest -> prefix fcs ps || at rest
      in
      fcs <> [] && at pcs)
    rule.allow

let builtin =
  [
    {
      name = "phys-equality";
      severity = Diagnostics.Error;
      message = "physical equality (==/!=) on values; on floats and float-bearing \
                 structures it is not semantic equality";
      hint = Some "use structural/semantic equality (e.g. Float.equal, Expr.equal, =)";
      allow = [] (* Expr.t identity tests: the typed exemption, see Typed_rules *);
    };
    {
      name = "nan-compare";
      severity = Diagnostics.Error;
      message = "comparison against nan is always false (or always true for <>)";
      hint = Some "use Float.is_nan / classify_float";
      allow = [];
    };
    {
      name = "float-of-string";
      severity = Diagnostics.Error;
      message = "bare float-of-string raises an uninformative Failure on malformed input";
      hint = Some "use float_of_string_opt and report the offending text";
      allow = [];
    };
    {
      name = "obj-magic";
      severity = Diagnostics.Error;
      message = "Obj.magic defeats the type system; enclosure soundness cannot survive it";
      hint = None;
      allow = [];
    };
    {
      name = "poly-compare";
      severity = Diagnostics.Warn;
      message = "explicit polymorphic compare; on float-bearing types prefer a typed \
                 comparison";
      hint = Some "use Float.compare / a per-type compare function";
      allow = [];
    };
    {
      name = "print-debug";
      severity = Diagnostics.Warn;
      message = "direct stdout printing from library code";
      hint = Some "return data, or take a Format formatter (Fmt) like the rest of lib/";
      allow =
        [ "bin/"; "bench/"; "test/"; "examples/";
          "lib/util/table.ml" (* Table.print is the module's documented purpose *) ];
    };
  ]

let nan_idents = [ "nan"; "Float.nan" ]

let comparison_ops = [ "="; "<"; ">"; "<="; ">="; "<>" ]

(* Which rule an identifier occurrence fires. [raw] is the identifier as
   written; [norm] has a leading [Stdlib.] stripped. poly-compare keys on
   the raw spelling: the rule is about *explicitly qualified* polymorphic
   compare, a bare [compare] is ubiquitous and often shadowed. *)
let ident_rule ~raw ~norm =
  match norm with
  | "==" | "!=" -> Some "phys-equality"
  | "float_of_string" | "Float.of_string" -> Some "float-of-string"
  | "Obj.magic" | "Obj.repr" | "Obj.obj" -> Some "obj-magic"
  | "print_endline" | "print_string" | "Printf.printf" -> Some "print-debug"
  | _ -> (
    match raw with
    | "Stdlib.compare" | "Pervasives.compare" | "Stdlib.Pervasives.compare" ->
      Some "poly-compare"
    | _ -> None)

(* Drop a leading [Stdlib.] qualifier. *)
let normalize_name name =
  match String.split_on_char '.' name with
  | "Stdlib" :: (_ :: _ as rest) -> String.concat "." rest
  | _ -> name

let lint_parsed (file : Src_ast.parsed) =
  let path = file.Src_ast.path in
  let ds = ref [] in
  let emit name loc =
    let rule = List.find (fun r -> r.name = name) builtin in
    if not (allowed rule path) then
      ds :=
        D.make rule.severity ~check:rule.name ~loc:(Src_ast.file_loc ~path loc)
          rule.message ?hint:rule.hint
        :: !ds
  in
  let open Ast_iterator in
  let iter =
    {
      default_iterator with
      expr =
        (fun self e ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_ident { txt; loc } -> (
            let raw = Src_ast.name_of txt in
            match ident_rule ~raw ~norm:(normalize_name raw) with
            | Some rule -> emit rule loc
            | None -> ())
          | Parsetree.Pexp_apply
              ({ Parsetree.pexp_desc = Parsetree.Pexp_ident { txt; loc }; _ }, args) ->
            let op = normalize_name (Src_ast.name_of txt) in
            if List.mem op comparison_ops then begin
              let arg_is_nan (_, (a : Parsetree.expression)) =
                match a.Parsetree.pexp_desc with
                | Parsetree.Pexp_ident { txt; _ } ->
                  List.mem (normalize_name (Src_ast.name_of txt)) nan_idents
                | _ -> false
              in
              if List.exists arg_is_nan args then emit "nan-compare" loc
            end
          | _ -> ());
          default_iterator.expr self e);
    }
  in
  iter.structure iter file.Src_ast.ast;
  List.rev !ds
