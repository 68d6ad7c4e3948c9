(* The analyzer's one program index: load the .cmt files dune already
   produced and turn them into a queryable typed index.

   Everything downstream (Domain_safety, Exn_escape, Budget_threading,
   Typed_rules, the layer-5 passes) wants the same things: top-level
   functions with their typed bodies, call sites with resolved callees
   and per-argument passing facts, the module-level mutable state and
   how it is guarded, raise sites and handlers, fan-out sites, and a
   canonical spelling for paths and type constructors that survives
   dune's name mangling ([Dwv_taylor__Taylor_model]), library wrapper
   modules ([Dwv_taylor.Taylor_model]) and structure-local aliases
   ([module Tm = Dwv_taylor.Taylor_model]). This module owns all of it
   so the passes stay declarative. *)

type param = { p_label : string; p_budget : bool }

type call_arg = { a_label : string; a_passed : bool; a_budget : bool }

type call = {
  c_callee : string;
  c_internal : bool;
  c_loc : Location.t;
  c_args : call_arg list;
}

type ref_site = { r_name : string; r_internal : bool; r_loc : Location.t }

type raise_class =
  | Rfailure of string   (* failwith / raise (Failure _) *)
  | Rinvalid of string   (* invalid_arg / raise (Invalid_argument _) *)
  | Rexit                (* Stdlib.exit *)
  | Rexn of string       (* raise Constructor *)

type raise_site = { rs_class : raise_class; rs_loc : Location.t }

type tfn = {
  t_name : string;
  t_loc : Location.t;
  t_params : param list;
  t_calls : call list;
  t_refs : ref_site list;
  t_raises : raise_site list;
  t_caught : string list;
  t_handled : (int * int) list;
  t_speaks_result : bool;
  t_body : Typedtree.expression;
}

type state_kind =
  | Ref
  | Hashtable
  | Array
  | Buffer
  | Queue
  | Stack
  | Bytes
  | Mutable_record
  | Atomic
  | Publish_once
  | Counter
  | Dls
  | Lock

type state = {
  s_name : string;
  s_kind : state_kind;
  s_loc : Location.t;
  s_init : ref_site list;
}

type fanout = {
  fo_callee : string;
  fo_loc : Location.t;
  fo_tasks : Typedtree.expression list;
}

type unit_info = {
  u_name : string;
  u_modname : string;
  u_source : string;
  u_aliases : (string * string list) list;
  u_fns : tfn list;
  u_state : state list;
  u_fanouts : fanout list;
  u_locals : (Ident.t * Typedtree.expression) list;
  u_str : Typedtree.structure;
}

type type_fact =
  | Has_mutable_field                       (* a record type *)
  | Abbreviates of string * Types.type_expr (* declaring unit, manifest *)
  | Table_instance                          (* [t] of a [Hashtbl.Make] instance *)

type t = {
  by_name : (string, unit_info) Hashtbl.t;
  types : (string, type_fact) Hashtbl.t;
      (* what the state inventory needs of every unit's type declarations,
         by canonical name ("Expr.t", "Expr.Node_tbl.t") *)
  mutable errors : (string * string) list;
}

let units t =
  Hashtbl.fold (fun _ u acc -> u :: acc) t.by_name []
  |> List.sort (fun a b -> String.compare a.u_name b.u_name)

let find_unit t name = Hashtbl.find_opt t.by_name name
let load_errors t = List.rev t.errors
let fn_key u fn = u.u_name ^ "." ^ fn.t_name

(* "Unit.name" -> the unit and the first of its entries [get] finds. *)
let find_keyed get t key =
  match String.rindex_opt key '.' with
  | None -> None
  | Some i -> (
    let m = String.sub key 0 i in
    let name = String.sub key (i + 1) (String.length key - i - 1) in
    match find_unit t m with
    | None -> None
    | Some u -> Option.map (fun x -> (u, x)) (get u name))

let find_fn =
  find_keyed (fun u name -> List.find_opt (fun fn -> fn.t_name = name) u.u_fns)

let find_state =
  find_keyed (fun u name -> List.find_opt (fun s -> s.s_name = name) u.u_state)

let restrict t keep =
  let by_name = Hashtbl.create 64 in
  Hashtbl.iter (fun n u -> if keep u then Hashtbl.replace by_name n u) t.by_name;
  { t with by_name; errors = [] }

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

let rec module_path (me : Typedtree.module_expr) =
  match me.Typedtree.mod_desc with
  | Typedtree.Tmod_ident (p, _) -> Some p
  | Typedtree.Tmod_constraint (me', _, _, _) -> module_path me'
  | _ -> None

let aliases_of_structure (str : Typedtree.structure) =
  List.filter_map
    (fun (item : Typedtree.structure_item) ->
      match item.Typedtree.str_desc with
      | Typedtree.Tstr_module mb -> (
        match (mb.Typedtree.mb_id, module_path mb.Typedtree.mb_expr) with
        | Some id, Some p -> Some (Ident.name id, String.split_on_char '.' (Path.name p))
        | _ -> None)
      | _ -> None)
    str.Typedtree.str_items

(* ---------- raise sites, handlers, the result taxonomy ---------- *)

let rec exn_names (p : Typedtree.pattern) =
  match p.Typedtree.pat_desc with
  | Typedtree.Tpat_construct (_, cd, _, _) -> [ cd.Types.cstr_name ]
  | Typedtree.Tpat_or (a, b, _) -> exn_names a @ exn_names b
  | Typedtree.Tpat_alias (a, _, _) -> exn_names a
  | _ -> [ "*" ]

(* The [exception P] arms of a match, possibly under or-patterns. *)
let rec exception_arms (p : Typedtree.computation Typedtree.general_pattern) =
  match p.Typedtree.pat_desc with
  | Typedtree.Tpat_exception v -> exn_names v
  | Typedtree.Tpat_or (a, b, _) -> exception_arms a @ exception_arms b
  | Typedtree.Tpat_value _ -> []

(* A [raise] of a bound exception value ([with e -> ... raise e]) is a
   handler forwarding what it caught; it is not a raise site. *)
let raise_of t u path (args : (Asttypes.arg_label * Typedtree.expression option) list) =
  match canon_ident t u path with
  | "failwith" -> Some (Rfailure "failwith")
  | "invalid_arg" -> Some (Rinvalid "invalid_arg")
  | "exit" -> Some Rexit
  | "raise" | "raise_notrace" -> (
    match args with
    | (_, Some { Typedtree.exp_desc = Typedtree.Texp_construct (_, cd, _); _ }) :: _ -> (
      match cd.Types.cstr_name with
      | "Failure" -> Some (Rfailure "raise Failure")
      | "Invalid_argument" -> Some (Rinvalid "raise Invalid_argument")
      | c -> Some (Rexn c))
    | _ -> None)
  | _ -> None

(* [fn] with its raise sites, handlers and result taxonomy filled in
   from one walk of its body ([t_refs] already resolved). *)
let with_effects t u fn =
  let raises = ref [] and caught = ref [] and handled = ref [] in
  let builds_result = ref false in
  let result_constructor (cd : Types.constructor_description) =
    match cd.Types.cstr_name with "Ok" | "Error" -> builds_result := true | _ -> ()
  in
  let open Tast_iterator in
  let iter =
    {
      default_iterator with
      expr =
        (fun self e ->
          (match e.Typedtree.exp_desc with
          | Typedtree.Texp_apply
              ({ Typedtree.exp_desc = Typedtree.Texp_ident (p, { loc; _ }, _); _ }, args) ->
            Option.iter
              (fun rs_class -> raises := { rs_class; rs_loc = loc } :: !raises)
              (raise_of t u p args)
          | Typedtree.Texp_try (protected, cases) ->
            handled := Src_ast.span protected.Typedtree.exp_loc :: !handled;
            List.iter
              (fun (c : Typedtree.value Typedtree.case) ->
                caught := exn_names c.Typedtree.c_lhs @ !caught)
              cases
          | Typedtree.Texp_match (scrutinee, cases, _) -> (
            match
              List.concat_map
                (fun (c : Typedtree.computation Typedtree.case) ->
                  exception_arms c.Typedtree.c_lhs)
                cases
            with
            | [] -> ()
            | names ->
              handled := Src_ast.span scrutinee.Typedtree.exp_loc :: !handled;
              caught := names @ !caught)
          | Typedtree.Texp_construct (_, cd, _) -> result_constructor cd
          | _ -> ());
          default_iterator.expr self e);
      pat =
        (fun (type k) self (p : k Typedtree.general_pattern) ->
          (match p.Typedtree.pat_desc with
          | Typedtree.Tpat_construct (_, cd, _, _) -> result_constructor cd
          | _ -> ());
          default_iterator.pat self p);
    }
  in
  iter.expr iter fn.t_body;
  {
    fn with
    t_raises = List.rev !raises;
    t_caught = !caught;
    t_handled = !handled;
    t_speaks_result =
      !builds_result
      || List.exists (fun r -> String.starts_with ~prefix:"Result." r.r_name) fn.t_refs;
  }

(* Raise sites outside every handled span and of no constructor some
   handler in the same function catches (that second clause covers the
   [let fail e = ...; raise Exit] helper paired with [try ... with Exit]). *)
let escaping_raises fn =
  let caught name = List.mem name fn.t_caught || List.mem "*" fn.t_caught in
  List.filter
    (fun site ->
      let at = fst (Src_ast.span site.rs_loc) in
      (not (List.exists (fun (lo, hi) -> at >= lo && at < hi) fn.t_handled))
      &&
      match site.rs_class with
      | Rfailure _ -> not (caught "Failure")
      | Rinvalid _ -> not (caught "Invalid_argument")
      | Rexit -> true
      | Rexn c -> not (caught c))
    fn.t_raises

let takes_lock refs =
  List.exists
    (fun r -> List.mem r.r_name [ "Mutex.lock"; "Mutex.protect"; "Mutex.try_lock" ])
    refs

(* ---------- module-level mutable state ---------- *)

let kind_label = function
  | Ref -> "ref cell"
  | Hashtable -> "hash table"
  | Array -> "array"
  | Buffer -> "buffer"
  | Queue -> "queue"
  | Stack -> "stack"
  | Bytes -> "byte buffer"
  | Mutable_record -> "record with mutable fields"
  | Atomic -> "atomic"
  | Publish_once -> "publish-once registry"
  | Counter -> "telemetry counter"
  | Dls -> "domain-local key"
  | Lock -> "synchronization primitive"

let unguarded = function
  | Ref | Hashtable | Array | Buffer | Queue | Stack | Bytes | Mutable_record -> true
  | Atomic | Publish_once | Counter | Dls | Lock -> false

(* [h] names [suffix] through any wrapper ("Dwv_util.Counters.handle"
   when lib/util is not scanned). *)
let names_type h suffix = h = suffix || String.ends_with ~suffix:("." ^ suffix) h

(* The kind of state a top-level value of type [ty] is, by its type: a
   table made behind a helper ([let t = make_table ()]) is a table.
   Abbreviations declared in scanned units are expanded, in the
   declaring unit's vocabulary. *)
let rec state_kind_of ?(depth = 0) t u ty =
  match type_head t u ty with
  | "ref" -> Some Ref
  | "Hashtbl.t" -> Some Hashtable
  | "array" | "floatarray" -> Some Array
  | "Buffer.t" -> Some Buffer
  | "Queue.t" -> Some Queue
  | "Stack.t" -> Some Stack
  | "bytes" -> Some Bytes
  | "Atomic.t" -> Some Atomic
  | "Domain.DLS.key" -> Some Dls
  | "Mutex.t" | "Condition.t" | "Semaphore.Counting.t" | "Semaphore.Binary.t" ->
    Some Lock
  | h when names_type h "Publish_once.t" -> Some Publish_once
  | h when names_type h "Counters.handle" -> Some Counter
  | h -> (
    (* a path into a submodule of this unit ("Node_tbl.t") is keyed
       with the unit's name *)
    let fact =
      match Hashtbl.find_opt t.types h with
      | Some _ as f -> f
      | None -> Hashtbl.find_opt t.types (u.u_name ^ "." ^ h)
    in
    match fact with
    | Some Has_mutable_field -> Some Mutable_record
    | Some Table_instance -> Some Hashtable
    | Some (Abbreviates (du, manifest)) when depth < 8 ->
      Option.bind (find_unit t du) (fun du -> state_kind_of ~depth:(depth + 1) t du manifest)
    | _ -> None)

(* The type facts one unit declares at its top level: record types with
   a mutable field, abbreviations, and [Hashtbl.Make]/[MakeSeeded]
   instances. *)
let type_facts t u =
  List.concat_map
    (fun (item : Typedtree.structure_item) ->
      match item.Typedtree.str_desc with
      | Typedtree.Tstr_type (_, decls) ->
        List.filter_map
          (fun (d : Typedtree.type_declaration) ->
            let name = u.u_name ^ "." ^ d.Typedtree.typ_name.Location.txt in
            match (d.Typedtree.typ_kind, d.Typedtree.typ_manifest) with
            | Typedtree.Ttype_record labels, _
              when List.exists
                     (fun (l : Typedtree.label_declaration) ->
                       l.Typedtree.ld_mutable = Asttypes.Mutable)
                     labels ->
              Some (name, Has_mutable_field)
            | Typedtree.Ttype_abstract, Some manifest ->
              Some (name, Abbreviates (u.u_name, manifest.Typedtree.ctyp_type))
            | _ -> None)
          decls
      | Typedtree.Tstr_module
          {
            Typedtree.mb_id = Some id;
            mb_expr = { Typedtree.mod_desc = Typedtree.Tmod_apply (functor_, _, _); _ };
            _;
          } -> (
        match
          Option.map
            (fun p -> canon_parts t u (String.split_on_char '.' (Path.name p)))
            (module_path functor_)
        with
        | Some [ "Hashtbl"; ("Make" | "MakeSeeded") ] ->
          [ (u.u_name ^ "." ^ Ident.name id ^ ".t", Table_instance) ]
        | _ -> [])
      | _ -> [])
    u.u_str.Typedtree.str_items

(* ---------- fan-out sites and local definitions ---------- *)

let is_function ty = match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false

let fan_out_callees = [ "Pool.map"; "Pool.mapi"; "Pool.map_reduce"; "Domain.spawn" ]

(* One walk of the whole structure (submodules and functor arguments
   included): every fan-out call with the arguments that run on other
   domains (every function-typed one but [map_reduce]'s [~reduce],
   which folds on the caller), and every local [let x = e]. *)
let fanouts_and_locals t u (str : Typedtree.structure) =
  let fanouts = ref [] and locals = ref [] in
  let open Tast_iterator in
  let iter =
    {
      default_iterator with
      expr =
        (fun self e ->
          (match e.Typedtree.exp_desc with
          | Typedtree.Texp_apply
              ({ Typedtree.exp_desc = Typedtree.Texp_ident (p, _, _); _ }, args) ->
            let callee, _ = resolve_callee t u p in
            if List.mem callee fan_out_callees then
              let tasks =
                List.filter_map
                  (fun (label, arg) ->
                    match (label, arg) with
                    | Asttypes.Labelled "reduce", _ -> None
                    | _, Some (a : Typedtree.expression) when is_function a.Typedtree.exp_type
                      ->
                      Some a
                    | _ -> None)
                  args
              in
              fanouts :=
                { fo_callee = callee; fo_loc = e.Typedtree.exp_loc; fo_tasks = tasks }
                :: !fanouts
          | Typedtree.Texp_let (_, vbs, _) ->
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                match vb.Typedtree.vb_pat.Typedtree.pat_desc with
                | Typedtree.Tpat_var (id, _) | Typedtree.Tpat_alias (_, id, _) ->
                  locals := (id, vb.Typedtree.vb_expr) :: !locals
                | _ -> ())
              vbs
          | _ -> ());
          default_iterator.expr self e);
    }
  in
  iter.structure iter str;
  (List.rev !fanouts, !locals)

let local_def u id =
  List.find_map (fun (id', e) -> if Ident.same id id' then Some e else None) u.u_locals

(* The canonical references of a task, and of every local function it
   mentions, transitively. *)
let task_refs t u task =
  let seen = ref [] and acc = ref [] in
  let rec go e =
    acc := refs_of_body t u e :: !acc;
    let open Tast_iterator in
    let iter =
      {
        default_iterator with
        expr =
          (fun self e ->
            (match e.Typedtree.exp_desc with
            | Typedtree.Texp_ident (Path.Pident id, _, _)
              when not (List.exists (Ident.same id) !seen) -> (
              seen := id :: !seen;
              match local_def u id with Some def -> go def | None -> ())
            | _ -> ());
            default_iterator.expr self e);
      }
    in
    iter.expr iter e
  in
  go task;
  List.concat (List.rev !acc)

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
  root = "."
  || root = path
  || String.length path > String.length root
     && String.sub path 0 (String.length root) = root
     && path.[String.length root] = '/'

(* ---------- the project root ----------

   A .cmt records its source path relative to the dune project root,
   while command-line roots are relative to the working directory, so
   both are brought to the project root before they are compared. *)

(* [path] as components of an absolute path, "." and ".." resolved
   textually against the working directory. *)
let absolute_components path =
  let path = if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path in
  List.fold_left
    (fun acc c ->
      match c with
      | "" | "." -> acc
      | ".." -> ( match acc with _ :: up -> up | [] -> [])
      | c -> c :: acc)
    [] (String.split_on_char '/' path)
  |> List.rev

let of_components cs = "/" ^ String.concat "/" cs

(* Inside a dune build context (a path through _build/<context>) the
   context directory, which mirrors the source tree; elsewhere the
   nearest ancestor of the working directory holding a dune-project
   file; failing both, the working directory. *)
let project_root_components () =
  let cwd = absolute_components "." in
  let rec context prefix = function
    | "_build" :: ctx :: _ -> Some (List.rev_append prefix [ "_build"; ctx ])
    | c :: rest -> context (c :: prefix) rest
    | [] -> None
  in
  match context [] cwd with
  | Some root -> (root, true)
  | None ->
    let rec up dir =
      if Sys.file_exists (Filename.concat (of_components dir) "dune-project") then Some dir
      else match List.rev dir with [] -> None | _ :: parent -> up (List.rev parent)
    in
    (Option.value ~default:cwd (up cwd), false)

let source_path path =
  let root, _ = project_root_components () in
  let rec strip r p =
    match (r, p) with
    | [], rest -> Some rest
    | a :: r, b :: p when a = b -> strip r p
    | _ -> None
  in
  match strip root (absolute_components path) with
  | Some [] -> "."
  | Some rest -> String.concat "/" rest
  | None -> path

(* Every top-level value binding, names and parameter spines only; the
   bodies are resolved once every unit's table exists. *)
let fns_of_unit t u_skeleton structure =
  List.concat_map
    (fun (item : Typedtree.structure_item) ->
      match item.Typedtree.str_desc with
      | Typedtree.Tstr_value (_, vbs) ->
        List.filter_map
          (fun (vb : Typedtree.value_binding) ->
            Option.map
              (fun name ->
                let body = vb.Typedtree.vb_expr in
                {
                  t_name = name;
                  t_loc = vb.Typedtree.vb_loc;
                  t_params = params_of_type t u_skeleton body.Typedtree.exp_type;
                  t_calls = [];
                  t_refs = [];
                  t_raises = [];
                  t_caught = [];
                  t_handled = [];
                  t_speaks_result = false;
                  t_body = body;
                })
              (binding_name vb.Typedtree.vb_pat))
          vbs
      | _ -> [])
    structure.Typedtree.str_items

let resolve_unit t u =
  let fns =
    List.map
      (fun fn ->
        with_effects t u
          {
            fn with
            t_calls = calls_of_body t u fn.t_body;
            t_refs = refs_of_body t u fn.t_body;
          })
      u.u_fns
  in
  let state =
    List.filter_map
      (fun fn ->
        Option.map
          (fun kind ->
            { s_name = fn.t_name; s_kind = kind; s_loc = fn.t_loc; s_init = fn.t_refs })
          (if fn.t_params = [] then
             state_kind_of t u fn.t_body.Typedtree.exp_type
           else None))
      fns
  in
  let fanouts, locals = fanouts_and_locals t u u.u_str in
  { u with u_fns = fns; u_state = state; u_fanouts = fanouts; u_locals = locals }

let of_raw raws =
  let t = { by_name = Hashtbl.create 64; types = Hashtbl.create 64; errors = [] } in
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
              u_state = [];
              u_fanouts = [];
              u_locals = [];
              u_str = raw.r_structure;
            };
          true
        end)
      raws
  in
  let names = List.map (fun (_, raw) -> canon_unit_of_modname raw.r_modname) raws in
  (* pass 2: function tables (names only), so callee resolution works,
     and the type facts the state inventory reads *)
  List.iter
    (fun name ->
      let u = Hashtbl.find t.by_name name in
      List.iter (fun (ty, fact) -> Hashtbl.replace t.types ty fact) (type_facts t u);
      Hashtbl.replace t.by_name name { u with u_fns = fns_of_unit t u u.u_str })
    names;
  (* pass 3: resolved calls, references, effects, state and fan-outs *)
  List.iter
    (fun name -> Hashtbl.replace t.by_name name (resolve_unit t (Hashtbl.find t.by_name name)))
    names;
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

(* The project root's _build/default, or the root itself inside a
   build context; spelled relative when the root is the working
   directory. *)
let default_build_dir () =
  let root, in_context = project_root_components () in
  let here = root = absolute_components "." in
  let build = root @ [ "_build"; "default" ] in
  if in_context then if here then "." else of_components root
  else if Sys.file_exists (of_components build) && Sys.is_directory (of_components build) then
    if here then "_build/default" else of_components build
  else if here then "."
  else of_components root

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
  let roots = Option.map (List.map source_path) roots in
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
