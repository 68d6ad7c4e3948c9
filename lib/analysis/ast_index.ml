(* Per-module inventory over the Parsetree: which top-level bindings are
   mutable state (and how they are guarded), what every top-level
   function references (an approximate intra-library call graph keyed by
   flattened identifiers), where exceptions are raised and caught, and
   where work is fanned out to other domains (Pool.map / Domain.spawn).

   The call graph is deliberately name-based, not type-based: an
   identifier [M.f] links to module [M]'s binding [f] when a file named
   m.ml is in the scanned set, with local [module X = ...] aliases
   resolved one level. That over-approximates (a shadowed name links to
   the top-level one) and under-approximates (calls through function
   arguments or first-class modules are invisible) — DESIGN.md §10 spells
   out both directions. It is exactly enough to follow the shapes the
   hot paths actually use: closures calling top-level helpers, helpers
   touching module-level tables. *)

module SSet = Set.Make (String)

type mutable_kind =
  | Ref
  | Hashtable
  | Buffer_t
  | Array_t
  | Queue_t
  | Stack_t
  | Bytes_t
  | Record_mutable
  | Atomic_t
  | Dls_t
  | Sync_t

type guard =
  | Unguarded        (* raw shared state: needs external mediation *)
  | Atomic_guarded   (* Atomic.t: every access is a primitive *)
  | Dls_guarded      (* Domain.DLS: per-domain by construction *)
  | Sync_primitive   (* Mutex/Condition/Semaphore themselves *)

type mutable_binding = {
  m_name : string;
  m_kind : mutable_kind;
  m_guard : guard;
  m_loc : Location.t;
  m_init_idents : SSet.t;
      (* identifiers in the creator's arguments — for a Domain.DLS key,
         the initializer closure: per-domain state is only as private as
         what that closure returns *)
}

type raise_class =
  | Rfailure of string   (* failwith / raise (Failure _) *)
  | Rinvalid of string   (* invalid_arg / Invalid_argument / assert-like *)
  | Rexit                (* Stdlib.exit *)
  | Rexn of string       (* raise Constructor *)

type raise_site = {
  r_class : raise_class;
  r_loc : Location.t;
  r_offset : int;        (* absolute char offset, for try containment *)
}

type fn = {
  f_name : string;
  f_loc : Location.t;
  idents : SSet.t;                  (* every identifier in the body *)
  constructs : SSet.t;              (* constructor names (exprs + patterns) *)
  raises : raise_site list;
  caught : SSet.t;                  (* exn constructors matched by a handler;
                                       "*" when a wildcard handler exists *)
  try_spans : (int * int) list;     (* protected char ranges *)
  locals : (string * SSet.t) list;  (* let-bound names inside the body *)
  uses_mutex : bool;
}

type pool_site = {
  p_callee : string;     (* "Pool.map", "Domain.spawn", ... *)
  p_loc : Location.t;
  p_fn : string;         (* enclosing top-level binding, "" at module init *)
  p_seeds : SSet.t;      (* identifiers of the task argument *)
}

type module_info = {
  path : string;
  module_name : string;
  aliases : (string * string) list;
  mutable_fields : SSet.t;
  mutables : mutable_binding list;
  fns : fn list;
  pool_sites : pool_site list;
}

type t = { modules : (string, module_info) Hashtbl.t }

let kind_label = function
  | Ref -> "ref cell"
  | Hashtable -> "hash table"
  | Buffer_t -> "buffer"
  | Array_t -> "array"
  | Queue_t -> "queue"
  | Stack_t -> "stack"
  | Bytes_t -> "byte buffer"
  | Record_mutable -> "record with mutable fields"
  | Atomic_t -> "atomic"
  | Dls_t -> "domain-local key"
  | Sync_t -> "synchronization primitive"

(* ---------- identifier normalization ---------- *)

let drop_stdlib parts =
  match parts with "Stdlib" :: (_ :: _ as rest) -> rest | parts -> parts

let normalize_name name = String.concat "." (drop_stdlib (String.split_on_char '.' name))

(* ---------- light scan: every ident / constructor in an expression ---------- *)

let scan_idents expr =
  let idents = ref SSet.empty and constructs = ref SSet.empty in
  let open Ast_iterator in
  let iter =
    {
      default_iterator with
      expr =
        (fun self e ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_ident { txt; _ } ->
            idents := SSet.add (normalize_name (Src_ast.name_of txt)) !idents
          | Parsetree.Pexp_construct ({ txt; _ }, _) ->
            constructs := SSet.add (Longident.last txt) !constructs
          | _ -> ());
          default_iterator.expr self e);
      pat =
        (fun self p ->
          (match p.Parsetree.ppat_desc with
          | Parsetree.Ppat_construct ({ txt; _ }, _) ->
            constructs := SSet.add (Longident.last txt) !constructs
          | _ -> ());
          default_iterator.pat self p);
    }
  in
  iter.expr iter expr;
  (!idents, !constructs)

(* ---------- full scan of one top-level binding body ---------- *)

let exn_constructor_of_pattern p =
  let rec go (p : Parsetree.pattern) =
    match p.Parsetree.ppat_desc with
    | Parsetree.Ppat_construct ({ txt; _ }, _) -> [ Longident.last txt ]
    | Parsetree.Ppat_or (a, b) -> go a @ go b
    | Parsetree.Ppat_alias (a, _) -> go a
    | Parsetree.Ppat_any | Parsetree.Ppat_var _ -> [ "*" ]
    | _ -> [ "*" ]
  in
  go p

let raise_of_apply fn_name (args : (Asttypes.arg_label * Parsetree.expression) list) =
  match fn_name with
  | "failwith" -> Some (Rfailure "failwith")
  | "invalid_arg" -> Some (Rinvalid "invalid_arg")
  | "exit" -> Some Rexit
  | "raise" | "raise_notrace" -> (
    match args with
    | (_, { Parsetree.pexp_desc = Parsetree.Pexp_construct ({ txt; _ }, _); _ }) :: _ -> (
      match Longident.last txt with
      | "Failure" -> Some (Rfailure "raise Failure")
      | "Invalid_argument" -> Some (Rinvalid "raise Invalid_argument")
      | c -> Some (Rexn c))
    | _ -> None (* re-raise of a bound exception value: almost always a
                   handler forwarding; skipped (documented) *))
  | _ -> None

(* Identify Pool fan-out / Domain.spawn call sites and pull out the task
   argument. [resolve_alias] maps a local module alias to the referenced
   module's name (one level). *)
let pool_task ~resolve_alias fn_name (args : (Asttypes.arg_label * Parsetree.expression) list) =
  let parts = String.split_on_char '.' fn_name in
  match List.rev parts with
  | fname :: mname :: _ -> (
    let m = resolve_alias mname in
    let positional = List.filter (fun (l, _) -> l = Asttypes.Nolabel) args in
    match (m, fname) with
    | "Pool", ("map" | "mapi") -> (
      (* Pool.map pool task items: the task is the second positional *)
      match positional with
      | _ :: (_, task) :: _ -> Some (m ^ "." ^ fname, task)
      | _ -> None)
    | "Pool", "map_reduce" -> (
      match List.assoc_opt (Asttypes.Labelled "map") args with
      | Some task -> Some (m ^ "." ^ fname, task)
      | None -> None)
    | "Domain", "spawn" -> (
      match positional with (_, task) :: _ -> Some ("Domain.spawn", task) | _ -> None)
    | _ -> None)
  | _ -> None

type body_scan = {
  b_idents : SSet.t;
  b_constructs : SSet.t;
  b_raises : raise_site list;
  b_caught : SSet.t;
  b_try_spans : (int * int) list;
  b_locals : (string * SSet.t) list;
  b_pool_sites : (string * Location.t * SSet.t) list;
}

let scan_body ~resolve_alias expr =
  let idents = ref SSet.empty and constructs = ref SSet.empty in
  let raises = ref [] and caught = ref SSet.empty and try_spans = ref [] in
  let locals = ref [] and pool_sites = ref [] in
  let open Ast_iterator in
  let iter =
    {
      default_iterator with
      expr =
        (fun self e ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_ident { txt; _ } ->
            idents := SSet.add (normalize_name (Src_ast.name_of txt)) !idents
          | Parsetree.Pexp_construct ({ txt; _ }, _) ->
            constructs := SSet.add (Longident.last txt) !constructs
          | Parsetree.Pexp_try (body, cases) ->
            try_spans := Src_ast.span body.Parsetree.pexp_loc :: !try_spans;
            List.iter
              (fun (c : Parsetree.case) ->
                List.iter
                  (fun name -> caught := SSet.add name !caught)
                  (exn_constructor_of_pattern c.Parsetree.pc_lhs))
              cases
          | Parsetree.Pexp_match (scrutinee, cases) ->
            let exn_cases =
              List.concat_map
                (fun (c : Parsetree.case) ->
                  match c.Parsetree.pc_lhs.Parsetree.ppat_desc with
                  | Parsetree.Ppat_exception p -> exn_constructor_of_pattern p
                  | _ -> [])
                cases
            in
            if exn_cases <> [] then begin
              try_spans := Src_ast.span scrutinee.Parsetree.pexp_loc :: !try_spans;
              List.iter (fun name -> caught := SSet.add name !caught) exn_cases
            end
          | Parsetree.Pexp_let (_, vbs, _) ->
            List.iter
              (fun (vb : Parsetree.value_binding) ->
                match vb.Parsetree.pvb_pat.Parsetree.ppat_desc with
                | Parsetree.Ppat_var { txt = name; _ } ->
                  let ids, _ = scan_idents vb.Parsetree.pvb_expr in
                  locals := (name, ids) :: !locals
                | _ -> ())
              vbs
          | Parsetree.Pexp_apply
              ({ Parsetree.pexp_desc = Parsetree.Pexp_ident { txt; loc }; _ }, args) -> (
            let name = normalize_name (Src_ast.name_of txt) in
            (match raise_of_apply name args with
            | Some r_class ->
              raises :=
                { r_class; r_loc = loc; r_offset = fst (Src_ast.span loc) } :: !raises
            | None -> ());
            match pool_task ~resolve_alias name args with
            | Some (callee, task) ->
              let seeds, _ = scan_idents task in
              pool_sites := (callee, loc, seeds) :: !pool_sites
            | None -> ())
          | _ -> ());
          default_iterator.expr self e);
      pat =
        (fun self p ->
          (match p.Parsetree.ppat_desc with
          | Parsetree.Ppat_construct ({ txt; _ }, _) ->
            constructs := SSet.add (Longident.last txt) !constructs
          | _ -> ());
          default_iterator.pat self p);
    }
  in
  iter.expr iter expr;
  {
    b_idents = !idents;
    b_constructs = !constructs;
    b_raises = !raises;
    b_caught = !caught;
    b_try_spans = !try_spans;
    b_locals = !locals;
    b_pool_sites = !pool_sites;
  }

(* ---------- top-level binding classification ---------- *)

let rec unwrap_expr (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_constraint (e, _) | Parsetree.Pexp_coerce (e, _, _) -> unwrap_expr e
  | _ -> e

let rec binding_name (p : Parsetree.pattern) =
  match p.Parsetree.ppat_desc with
  | Parsetree.Ppat_var { txt; _ } -> Some txt
  | Parsetree.Ppat_constraint (p, _) -> Some (Option.value ~default:"" (binding_name p))
  | _ -> None

(* Creator applications whose result is shared mutable state (or a
   guarded flavor of it). Creations hidden behind helper functions
   ([let t = make_table ()]) are NOT recognized — a documented
   false-negative shape — except the repo's own publish-once registry
   ([Dwv_util.Publish_once.create], an Atomic behind an API), which is
   recognized as Atomic-guarded state so the cache-purity pass still
   sees it. [table_modules] holds local functor instances
   of [Hashtbl.Make]/[MakeSeeded], whose [create] is a hashtable maker
   under a non-standard module name. *)
let creation_of_std name =
  match normalize_name name with
  | "ref" -> Some (Ref, Unguarded)
  | "Hashtbl.create" -> Some (Hashtable, Unguarded)
  | "Buffer.create" -> Some (Buffer_t, Unguarded)
  | "Array.make" | "Array.create_float" | "Array.init" | "Array.copy" | "Array.of_list"
    -> Some (Array_t, Unguarded)
  | "Queue.create" -> Some (Queue_t, Unguarded)
  | "Stack.create" -> Some (Stack_t, Unguarded)
  | "Bytes.create" | "Bytes.make" -> Some (Bytes_t, Unguarded)
  | "Atomic.make" -> Some (Atomic_t, Atomic_guarded)
  | "Domain.DLS.new_key" -> Some (Dls_t, Dls_guarded)
  | "Mutex.create" | "Condition.create" | "Semaphore.Counting.make"
  | "Semaphore.Binary.make" ->
    Some (Sync_t, Sync_primitive)
  | n when n = "Publish_once.create" || String.ends_with ~suffix:".Publish_once.create" n ->
    Some (Atomic_t, Atomic_guarded)
  | _ -> None

let creation_of ?(table_modules = SSet.empty) name =
  match creation_of_std name with
  | Some _ as r -> r
  | None -> (
    match String.rindex_opt name '.' with
    | Some i
      when String.sub name (i + 1) (String.length name - i - 1) = "create"
           && SSet.mem (String.sub name 0 i) table_modules ->
      Some (Hashtable, Unguarded)
    | _ -> None)

let classify_binding ~mutable_fields ~table_modules (vb : Parsetree.value_binding) =
  match binding_name vb.Parsetree.pvb_pat with
  | None | Some "" -> `Skip
  | Some name -> (
    let e = unwrap_expr vb.Parsetree.pvb_expr in
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_apply
        ({ Parsetree.pexp_desc = Parsetree.Pexp_ident { txt; _ }; _ }, args) -> (
      match creation_of ~table_modules (Src_ast.name_of txt) with
      | Some (kind, guard) ->
        let init_idents =
          List.fold_left
            (fun acc (_, arg) -> SSet.union acc (fst (scan_idents arg)))
            SSet.empty args
        in
        `Mutable (name, kind, guard, init_idents)
      | None -> `Fn name)
    | Parsetree.Pexp_record (fields, _) ->
      let has_mutable_field =
        List.exists
          (fun (({ txt; _ } : Longident.t Location.loc), _) ->
            SSet.mem (Longident.last txt) mutable_fields)
          fields
      in
      if has_mutable_field then `Mutable (name, Record_mutable, Unguarded, SSet.empty)
      else `Fn name
    | _ -> `Fn name)

let mutex_names = [ "Mutex.lock"; "Mutex.protect"; "Mutex.try_lock" ]

let of_parsed (file : Src_ast.parsed) =
  let module_name = Src_ast.module_of_path file.Src_ast.path in
  (* pass 1: module aliases and mutable record fields *)
  let aliases = ref [] and mutable_fields = ref SSet.empty in
  let table_modules = ref SSet.empty in
  List.iter
    (fun (item : Parsetree.structure_item) ->
      match item.Parsetree.pstr_desc with
      | Parsetree.Pstr_module
          {
            Parsetree.pmb_name = { txt = Some alias; _ };
            pmb_expr = { Parsetree.pmod_desc = Parsetree.Pmod_ident { txt; _ }; _ };
            _;
          } ->
        aliases := (alias, Longident.last txt) :: !aliases
      | Parsetree.Pstr_module
          {
            Parsetree.pmb_name = { txt = Some m; _ };
            pmb_expr =
              {
                Parsetree.pmod_desc =
                  Parsetree.Pmod_apply
                    ( { Parsetree.pmod_desc = Parsetree.Pmod_ident { txt; _ }; _ },
                      _ );
                _;
              };
            _;
          }
        when List.mem (Src_ast.name_of txt) [ "Hashtbl.Make"; "Hashtbl.MakeSeeded" ]
        ->
        table_modules := SSet.add m !table_modules
      | Parsetree.Pstr_type (_, decls) ->
        List.iter
          (fun (d : Parsetree.type_declaration) ->
            match d.Parsetree.ptype_kind with
            | Parsetree.Ptype_record labels ->
              List.iter
                (fun (l : Parsetree.label_declaration) ->
                  if l.Parsetree.pld_mutable = Asttypes.Mutable then
                    mutable_fields := SSet.add l.Parsetree.pld_name.txt !mutable_fields)
                labels
            | _ -> ())
          decls
      | _ -> ())
    file.Src_ast.ast;
  let resolve_alias m =
    match List.assoc_opt m !aliases with Some target -> target | None -> m
  in
  (* pass 2: bindings *)
  let mutables = ref [] and fns = ref [] and pool_sites = ref [] in
  List.iter
    (fun (item : Parsetree.structure_item) ->
      match item.Parsetree.pstr_desc with
      | Parsetree.Pstr_value (_, vbs) ->
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            match
              classify_binding ~mutable_fields:!mutable_fields
                ~table_modules:!table_modules vb
            with
            | `Skip -> ()
            | `Mutable (name, kind, guard, init_idents) ->
              mutables :=
                { m_name = name; m_kind = kind; m_guard = guard;
                  m_loc = vb.Parsetree.pvb_loc; m_init_idents = init_idents }
                :: !mutables
            | `Fn name ->
              let b = scan_body ~resolve_alias vb.Parsetree.pvb_expr in
              let fn =
                {
                  f_name = name;
                  f_loc = vb.Parsetree.pvb_loc;
                  idents = b.b_idents;
                  constructs = b.b_constructs;
                  raises = b.b_raises;
                  caught = b.b_caught;
                  try_spans = b.b_try_spans;
                  locals = b.b_locals;
                  uses_mutex =
                    List.exists (fun m -> SSet.mem m b.b_idents) mutex_names;
                }
              in
              fns := fn :: !fns;
              List.iter
                (fun (callee, loc, seeds) ->
                  pool_sites :=
                    { p_callee = callee; p_loc = loc; p_fn = name; p_seeds = seeds }
                    :: !pool_sites)
                b.b_pool_sites)
          vbs
      | _ -> ())
    file.Src_ast.ast;
  {
    path = file.Src_ast.path;
    module_name;
    aliases = !aliases;
    mutable_fields = !mutable_fields;
    mutables = List.rev !mutables;
    fns = List.rev !fns;
    pool_sites = List.rev !pool_sites;
  }

let of_files files =
  let modules = Hashtbl.create 64 in
  List.iter
    (fun file ->
      let info = of_parsed file in
      Hashtbl.replace modules info.module_name info)
    files;
  { modules }

let find_module t name = Hashtbl.find_opt t.modules name
let modules t = Hashtbl.fold (fun _ m acc -> m :: acc) t.modules []

let find_fn mi name = List.find_opt (fun f -> f.f_name = name) mi.fns
let find_mutable mi name = List.find_opt (fun m -> m.m_name = name) mi.mutables

let resolve_alias mi name =
  match List.assoc_opt name mi.aliases with Some t -> t | None -> name

(* ---------- name resolution over the index ---------- *)

type target =
  | Tfn of module_info * fn
  | Tmutable of module_info * mutable_binding

(* Resolve a (normalized) dotted identifier as seen from [mi]. Unqualified
   names resolve against [mi]'s own top level; [M.x] resolves through
   [mi]'s aliases to a scanned module. Anything else (locals, parameters,
   stdlib) resolves to nothing. *)
let resolve t mi name =
  match List.rev (String.split_on_char '.' name) with
  | [] -> None
  | [ n ] -> (
    match find_mutable mi n with
    | Some m -> Some (Tmutable (mi, m))
    | None -> ( match find_fn mi n with Some f -> Some (Tfn (mi, f)) | None -> None))
  | n :: m :: _ -> (
    match find_module t (resolve_alias mi m) with
    | None -> None
    | Some dm -> (
      match find_mutable dm n with
      | Some mb -> Some (Tmutable (dm, mb))
      | None -> ( match find_fn dm n with Some f -> Some (Tfn (dm, f)) | None -> None)))

(* Escaped raise sites of a function: not lexically inside a protected
   try/match-exception range, and not of a constructor some handler in
   the same function catches (that second clause covers the common
   [let fail e = ...; raise Exit] helper + [try ... with Exit] pairing). *)
let escaping_raises fn =
  let caught name = SSet.mem name fn.caught || SSet.mem "*" fn.caught in
  List.filter
    (fun site ->
      let protected =
        List.exists
          (fun (lo, hi) -> site.r_offset >= lo && site.r_offset < hi)
          fn.try_spans
      in
      (not protected)
      &&
      match site.r_class with
      | Rfailure _ -> not (caught "Failure")
      | Rinvalid _ -> not (caught "Invalid_argument")
      | Rexit -> true
      | Rexn c -> not (caught c))
    fn.raises

(* Does [fn] participate in the result taxonomy? Constructing or matching
   Ok/Error (or touching the Result module) is the signature of a
   function that reports failure as data; its precondition raises are
   accepted. *)
let speaks_result fn =
  SSet.mem "Ok" fn.constructs
  || SSet.mem "Error" fn.constructs
  || SSet.exists (fun id -> String.length id > 7 && String.sub id 0 7 = "Result.") fn.idents
