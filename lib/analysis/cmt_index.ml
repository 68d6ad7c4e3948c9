(* Layer-4 front end: load the .cmt files dune already produced and turn
   them into a queryable typed index.

   Everything downstream (Budget_threading, Typed_rules, the layer-5 passes)
   wants the same three things: top-level functions with their typed
   bodies, call sites with resolved callees and per-argument passing
   facts, and a canonical spelling for paths and type constructors that
   survives dune's name mangling ([Dwv_taylor__Taylor_model]), library
   wrapper modules ([Dwv_taylor.Taylor_model]) and structure-local
   aliases ([module Tm = Dwv_taylor.Taylor_model]). This module owns all
   three so the passes stay declarative. *)

type param = { p_label : string; p_budget : bool }

type call_arg = { a_label : string; a_passed : bool; a_budget : bool }

type call = {
  c_callee : string;
  c_internal : bool;
  c_loc : Location.t;
  c_args : call_arg list;
}

type ref_site = { r_name : string; r_internal : bool; r_loc : Location.t }

type tfn = {
  t_name : string;
  t_loc : Location.t;
  t_params : param list;
  t_calls : call list;
  t_refs : ref_site list;
  t_body : Typedtree.expression;
}

type unit_info = {
  u_name : string;
  u_modname : string;
  u_source : string;
  u_aliases : (string * string list) list;
  u_fns : tfn list;
  u_str : Typedtree.structure;
}

type t = {
  by_name : (string, unit_info) Hashtbl.t;
  mutable errors : (string * string) list;
}

let units t =
  Hashtbl.fold (fun _ u acc -> u :: acc) t.by_name []
  |> List.sort (fun a b -> String.compare a.u_name b.u_name)

let find_unit t name = Hashtbl.find_opt t.by_name name
let load_errors t = List.rev t.errors
let fn_key u fn = u.u_name ^ "." ^ fn.t_name

let find_fn t key =
  match String.rindex_opt key '.' with
  | None -> None
  | Some i -> (
    let m = String.sub key 0 i in
    let f = String.sub key (i + 1) (String.length key - i - 1) in
    match find_unit t m with
    | None -> None
    | Some u -> (
      match List.find_opt (fun fn -> fn.t_name = f) u.u_fns with
      | Some fn -> Some (u, fn)
      | None -> None))

(* ---------- canonical names ---------- *)

(* "Dwv_taylor__Taylor_model" -> "Taylor_model". Only module components
   (capitalized) are mangled by dune; value names pass through. *)
let strip_mangle part =
  if String.length part = 0 || not (part.[0] >= 'A' && part.[0] <= 'Z') then part
  else
    let rec last_sep i found =
      if i + 1 >= String.length part then found
      else if part.[i] = '_' && part.[i + 1] = '_' then last_sep (i + 2) (Some (i + 2))
      else last_sep (i + 1) found
    in
    match last_sep 0 None with
    | Some j -> String.sub part j (String.length part - j)
    | None -> part

let canon_unit_of_modname modname = strip_mangle modname

(* Shared spine of every canonicalization: resolve a leading local
   alias, drop Stdlib, strip mangling, and drop a library wrapper
   component when the next component is a scanned unit. *)
let canon_parts t u parts =
  let parts =
    match parts with
    | p0 :: rest -> (
      match List.assoc_opt p0 u.u_aliases with
      | Some target -> target @ rest
      | None -> parts)
    | [] -> []
  in
  let parts = match parts with "Stdlib" :: (_ :: _ as r) -> r | p -> p in
  let parts = List.map strip_mangle parts in
  match parts with
  | p0 :: (p1 :: _ as rest)
    when (not (Hashtbl.mem t.by_name p0)) && Hashtbl.mem t.by_name p1 ->
    rest
  | p -> p

let predef_types =
  [
    "int"; "char"; "string"; "bytes"; "float"; "bool"; "unit"; "exn"; "array";
    "list"; "option"; "nativeint"; "int32"; "int64"; "lazy_t"; "result";
    "floatarray"; "extension_constructor";
  ]

let canon_ident t u path =
  String.concat "." (canon_parts t u (String.split_on_char '.' (Path.name path)))

(* ---------- types ---------- *)

let constr_name t u ty =
  match Types.get_desc ty with
  | Types.Tconstr (Path.Pident id, _, _) ->
    (* a bare constructor is either a predefined type or a type local to
       this unit: qualify the latter so "t" in expr.ml reads "Expr.t"
       everywhere. Dotted paths (Stdlib.ref, Hashtbl.t) never get the
       unit prefix. *)
    let n = Ident.name id in
    if List.mem n predef_types then n else u.u_name ^ "." ^ n
  | Types.Tconstr (p, _, _) ->
    String.concat "." (canon_parts t u (String.split_on_char '.' (Path.name p)))
  | _ -> ""

(* type_expr graphs can be cyclic (recursive types); guard on node ids. *)
let guarded_type_exists pred ty =
  let seen = Hashtbl.create 16 in
  let found = ref false in
  let rec go ty =
    if not !found then begin
      let id = Types.get_id ty in
      if not (Hashtbl.mem seen id) then begin
        Hashtbl.add seen id ();
        if pred ty then found := true
        else
          let children =
            match Types.get_desc ty with
            | Types.Tconstr (_, args, _) -> args
            | Types.Tarrow (_, a, b, _) -> [ a; b ]
            | Types.Ttuple ts -> ts
            | Types.Tpoly (t', _) -> [ t' ]
            | _ -> []
          in
          List.iter go children
      end
    end
  in
  go ty;
  !found

let type_head t u ty = constr_name t u ty

let type_mentions t u name ty = guarded_type_exists (fun ty' -> constr_name t u ty' = name) ty

let file_loc u (loc : Location.t) =
  let line, col = Src_ast.start_line_col loc in
  Diagnostics.File { path = u.u_source; line; col }

(* ---------- extraction ---------- *)

let label_string = function
  | Asttypes.Nolabel -> ""
  | Asttypes.Labelled s -> "~" ^ s
  | Asttypes.Optional s -> "?" ^ s

(* The arrow spine of a binding's type: one param record per arrow. *)
let params_of_type t u ty =
  let rec go acc ty =
    match Types.get_desc ty with
    | Types.Tarrow (label, a, b, _) ->
      let p =
        { p_label = label_string label; p_budget = type_mentions t u "Budget.t" a }
      in
      go (p :: acc) b
    | Types.Tlink ty' | Types.Tsubst (ty', _) -> go acc ty'
    | _ -> List.rev acc
  in
  go [] ty

(* An optional argument the elaborator filled in (or the caller spelled
   [?x:None]) is "not passed": for budget threading both mean the callee
   runs without the caller's budget. *)
let arg_passed label (arg : Typedtree.expression option) =
  match arg with
  | None -> false
  | Some e -> (
    match (label, e.Typedtree.exp_desc) with
    | Asttypes.Optional _, Typedtree.Texp_construct (_, cd, []) ->
      cd.Types.cstr_name <> "None"
    | _ -> true)

let resolve_callee t u path =
  match canon_parts t u (String.split_on_char '.' (Path.name path)) with
  | [] -> ("", false)
  | [ n ] -> (
    match find_unit t u.u_name with
    | Some du when List.exists (fun fn -> fn.t_name = n) du.u_fns ->
      (u.u_name ^ "." ^ n, true)
    | _ -> (n, false))
  | parts -> (
    let callee = String.concat "." parts in
    match List.rev parts with
    | f :: m :: _ -> (
      let short = m ^ "." ^ f in
      match find_unit t m with
      | Some du when List.exists (fun fn -> fn.t_name = f) du.u_fns -> (short, true)
      | _ -> (short, false))
    | _ -> (callee, false))

let calls_of_body t u body =
  let calls = ref [] in
  let open Tast_iterator in
  let iter =
    {
      default_iterator with
      expr =
        (fun self e ->
          (match e.Typedtree.exp_desc with
          | Typedtree.Texp_apply
              ({ Typedtree.exp_desc = Typedtree.Texp_ident (p, { loc; _ }, _); _ }, args)
            ->
            let callee, internal = resolve_callee t u p in
            let c_args =
              List.map
                (fun (label, arg) ->
                  let passed = arg_passed label arg in
                  let budget =
                    passed
                    &&
                    match arg with
                    | Some (a : Typedtree.expression) ->
                      type_mentions t u "Budget.t" a.Typedtree.exp_type
                    | None -> false
                  in
                  { a_label = label_string label; a_passed = passed; a_budget = budget })
                args
            in
            calls := { c_callee = callee; c_internal = internal; c_loc = loc; c_args }
                     :: !calls
          | _ -> ());
          default_iterator.expr self e);
    }
  in
  iter.expr iter body;
  List.rev !calls

(* Every identifier the body mentions, canonically resolved — a strict
   superset of the call heads in [calls_of_body]. The purity pass scans
   these so an eta-passed impure function ([List.map Sys.getenv ...]) or
   a bare mutable-global read is seen even though it is not a call. *)
let refs_of_body t u body =
  let refs = ref [] in
  let open Tast_iterator in
  let iter =
    {
      default_iterator with
      expr =
        (fun self e ->
          (match e.Typedtree.exp_desc with
          | Typedtree.Texp_ident (p, { loc; _ }, _) ->
            let name, internal = resolve_callee t u p in
            if name <> "" then
              refs := { r_name = name; r_internal = internal; r_loc = loc } :: !refs
          | _ -> ());
          default_iterator.expr self e);
    }
  in
  iter.expr iter body;
  List.rev !refs

let rec binding_name (p : Typedtree.pattern) =
  match p.Typedtree.pat_desc with
  | Typedtree.Tpat_var (id, _) -> Some (Ident.name id)
  | Typedtree.Tpat_alias (p', id, _) -> (
    (* a constrained binding [let x : t = e] elaborates to an alias
       whose *alias ident* is the binder (the inner pattern is a
       wildcard), so fall back to it *)
    match binding_name p' with
    | Some _ as n -> n
    | None -> Some (Ident.name id))
  | _ -> None

let aliases_of_structure (str : Typedtree.structure) =
  List.filter_map
    (fun (item : Typedtree.structure_item) ->
      match item.Typedtree.str_desc with
      | Typedtree.Tstr_module mb -> (
        let rec target (me : Typedtree.module_expr) =
          match me.Typedtree.mod_desc with
          | Typedtree.Tmod_ident (p, _) -> Some (String.split_on_char '.' (Path.name p))
          | Typedtree.Tmod_constraint (me', _, _, _) -> target me'
          | _ -> None
        in
        match (mb.Typedtree.mb_id, target mb.Typedtree.mb_expr) with
        | Some id, Some parts -> Some (Ident.name id, parts)
        | _ -> None)
      | _ -> None)
    str.Typedtree.str_items

(* ---------- loading ---------- *)

type raw = { r_modname : string; r_source : string; r_structure : Typedtree.structure }

(* [Skip]: a cmt that is well-formed but not analysable source — library
   wrapper / exe aggregator modules generated by dune ([.ml-gen], no
   source path). Only genuine read failures surface in [load_errors]. *)
type read_result = Raw of raw | Skip | Failed of string

let read_raw path =
  match Cmt_format.read_cmt path with
  | exception e -> Failed (Printexc.to_string_default e)
  | cmt -> (
    match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
    | Cmt_format.Implementation str, Some src when Filename.check_suffix src ".ml" ->
      let src =
        if String.length src > 1 && String.sub src 0 2 = "./" then
          String.sub src 2 (String.length src - 2)
        else src
      in
      Raw { r_modname = cmt.Cmt_format.cmt_modname; r_source = src; r_structure = str }
    | _ -> Skip)

let under_root root path =
  root = path
  || String.length path > String.length root
     && String.sub path 0 (String.length root) = root
     && path.[String.length root] = '/'

let fns_of_unit t u_skeleton structure =
  let fns = ref [] in
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.Typedtree.str_desc with
      | Typedtree.Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            match binding_name vb.Typedtree.vb_pat with
            | None -> ()
            | Some name ->
              let body = vb.Typedtree.vb_expr in
              fns :=
                {
                  t_name = name;
                  t_loc = vb.Typedtree.vb_loc;
                  t_params = params_of_type t u_skeleton body.Typedtree.exp_type;
                  t_calls = [];
                  t_refs = [];
                  t_body = body;
                }
                :: !fns)
          vbs
      | _ -> ())
    structure.Typedtree.str_items;
  List.rev !fns

let of_raw raws =
  let t = { by_name = Hashtbl.create 64; errors = [] } in
  (* pass 1: skeleton units, so canonicalization knows every unit name *)
  let raws =
    List.filter
      (fun (path, raw) ->
        let name = canon_unit_of_modname raw.r_modname in
        if Hashtbl.mem t.by_name name then begin
          t.errors <-
            (path, Fmt.str "duplicate unit name %s (kept the first)" name) :: t.errors;
          false
        end
        else begin
          Hashtbl.replace t.by_name name
            {
              u_name = name;
              u_modname = raw.r_modname;
              u_source = raw.r_source;
              u_aliases = aliases_of_structure raw.r_structure;
              u_fns = [];
              u_str = raw.r_structure;
            };
          true
        end)
      raws
  in
  (* pass 2: function tables (names only), so callee resolution works *)
  List.iter
    (fun (_, raw) ->
      let name = canon_unit_of_modname raw.r_modname in
      let u = Hashtbl.find t.by_name name in
      Hashtbl.replace t.by_name name { u with u_fns = fns_of_unit t u raw.r_structure })
    raws;
  (* pass 3: resolved calls *)
  List.iter
    (fun (_, raw) ->
      let name = canon_unit_of_modname raw.r_modname in
      let u = Hashtbl.find t.by_name name in
      let fns =
        List.map
          (fun fn ->
            { fn with
              t_calls = calls_of_body t u fn.t_body;
              t_refs = refs_of_body t u fn.t_body })
          u.u_fns
      in
      Hashtbl.replace t.by_name name { u with u_fns = fns })
    raws;
  t

let of_cmt_files paths =
  let raws, errors =
    List.fold_left
      (fun (raws, errors) path ->
        match read_raw path with
        | Raw raw -> ((path, raw) :: raws, errors)
        | Skip -> (raws, errors)
        | Failed msg -> (raws, (path, msg) :: errors))
      ([], []) paths
  in
  let t = of_raw (List.rev raws) in
  t.errors <- t.errors @ errors;
  t

let default_build_dir () =
  if Sys.file_exists "_build/default" && Sys.is_directory "_build/default" then
    "_build/default"
  else "."

let collect_cmts dir =
  let files = ref [] in
  let rec walk path =
    match Sys.is_directory path with
    | exception Sys_error _ -> ()
    | true -> (
      match Sys.readdir path with
      | entries ->
        Array.sort String.compare entries;
        Array.iter (fun e -> walk (Filename.concat path e)) entries
      | exception Sys_error _ -> ())
    | false -> if Filename.check_suffix path ".cmt" then files := path :: !files
  in
  walk dir;
  List.rev !files

let scan ?build_dir ?(exclude = []) ?roots () =
  let dir = match build_dir with Some d -> d | None -> default_build_dir () in
  let paths = collect_cmts dir in
  let keep raw =
    (match roots with
    | None -> true
    | Some roots -> List.exists (fun root -> under_root root raw.r_source) roots)
    && not (Source_lint.path_under ~fragments:exclude raw.r_source)
  in
  let raws, errors =
    List.fold_left
      (fun (raws, errors) path ->
        match read_raw path with
        | Raw raw when keep raw -> ((path, raw) :: raws, errors)
        | Raw _ | Skip -> (raws, errors)
        | Failed msg -> (raws, (path, msg) :: errors))
      ([], []) paths
  in
  let t = of_raw (List.rev raws) in
  t.errors <- t.errors @ errors;
  t
