(* Type-aware rules over the Cmt_index. See the .mli. *)

module D = Diagnostics

let phys_ops = [ "=="; "!=" ]

let expr_phys_eq_allow idx =
  let hits = ref [] in
  List.iter
    (fun (u : Cmt_index.unit_info) ->
      let open Tast_iterator in
      let iter =
        {
          default_iterator with
          expr =
            (fun self e ->
              (match e.Typedtree.exp_desc with
              | Typedtree.Texp_apply
                  ( { Typedtree.exp_desc = Typedtree.Texp_ident (p, { loc; _ }, _); _ },
                    (_, Some first) :: _ )
                when List.mem (Cmt_index.canon_ident idx u p) phys_ops
                     && Cmt_index.type_head idx u first.Typedtree.exp_type = "Expr.t" ->
                let line, _ = Src_ast.start_line_col loc in
                hits := (u.Cmt_index.u_source, line) :: !hits
              | _ -> ());
              default_iterator.expr self e);
        }
      in
      (* the whole structure, not just u_fns: the Expr intern table's
         depth-1 equality lives inside a functor argument *)
      iter.structure iter u.Cmt_index.u_str)
    (Cmt_index.units idx);
  List.sort_uniq compare !hits

(* ---------- pool-capture ---------- *)

(* Every function-typed argument of these runs as a task, on whichever
   domain picks it up. *)
let fan_outs = [ "Pool.map"; "Pool.mapi"; "Pool.map_reduce" ]

(* Mutable values with no synchronization of their own. *)
let unsynchronized = [ "ref"; "Hashtbl.t" ]

let is_function ty =
  match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false

let pool_captures idx =
  List.concat_map
    (fun (u : Cmt_index.unit_info) ->
      let open Tast_iterator in
      (* module-level bindings are domain-safety's; every other
         [let x = e] is a local the task may have captured *)
      let toplevel = ref [] and locals = ref [] in
      let collect =
        {
          default_iterator with
          structure_item =
            (fun self si ->
              (match si.Typedtree.str_desc with
              | Typedtree.Tstr_value (_, vbs) ->
                toplevel := Typedtree.let_bound_idents vbs @ !toplevel
              | _ -> ());
              default_iterator.structure_item self si);
          expr =
            (fun self e ->
              (match e.Typedtree.exp_desc with
              | Typedtree.Texp_let (_, vbs, _) ->
                List.iter
                  (fun (vb : Typedtree.value_binding) ->
                    match vb.Typedtree.vb_pat.Typedtree.pat_desc with
                    | Typedtree.Tpat_var (id, _) ->
                      locals := (id, vb.Typedtree.vb_expr) :: !locals
                    | _ -> ())
                  vbs
              | _ -> ());
              default_iterator.expr self e);
        }
      in
      collect.structure collect u.Cmt_index.u_str;
      let is_toplevel id = List.exists (Ident.same id) !toplevel in
      let local_fn id =
        List.find_map
          (fun (id', e) -> if Ident.same id id' then Some e else None)
          !locals
      in
      (* The captured mutable locals a task reads: identifiers neither
         bound inside the task nor module-level, following local helper
         functions the task calls (a visited set bounds the walk). *)
      let captures task =
        let visited = ref [] and found = ref [] in
        let rec scan e =
          let bound = ref [] and refs = ref [] in
          let it =
            {
              default_iterator with
              pat =
                (fun (type k) self (p : k Typedtree.general_pattern) ->
                  (match p.Typedtree.pat_desc with
                  | Typedtree.Tpat_var (id, _) -> bound := id :: !bound
                  | Typedtree.Tpat_alias (_, id, _) -> bound := id :: !bound
                  | _ -> ());
                  default_iterator.pat self p);
              expr =
                (fun self e ->
                  (match e.Typedtree.exp_desc with
                  | Typedtree.Texp_ident (Path.Pident id, _, _) ->
                    refs := (id, e.Typedtree.exp_type) :: !refs
                  | Typedtree.Texp_for (id, _, _, _, _, _) -> bound := id :: !bound
                  | _ -> ());
                  default_iterator.expr self e);
            }
          in
          it.expr it e;
          List.iter
            (fun (id, ty) ->
              if
                not
                  (List.exists (Ident.same id) !bound
                  || is_toplevel id
                  || List.exists (Ident.same id) !visited)
              then begin
                visited := id :: !visited;
                let head = Cmt_index.type_head idx u ty in
                if List.mem head unsynchronized then
                  found := (Ident.name id, head) :: !found
                else Option.iter scan (local_fn id)
              end)
            (List.rev !refs)
        in
        scan task;
        List.rev !found
      in
      let diags = ref [] in
      let find =
        {
          default_iterator with
          expr =
            (fun self e ->
              (match e.Typedtree.exp_desc with
              | Typedtree.Texp_apply
                  ({ Typedtree.exp_desc = Typedtree.Texp_ident (p, _, _); _ }, args) ->
                let callee = Cmt_index.canon_ident idx u p in
                if List.mem callee fan_outs then
                  List.iter
                    (fun ((_, arg) : Asttypes.arg_label * Typedtree.expression option) ->
                      match arg with
                      | Some task when is_function task.Typedtree.exp_type ->
                        List.iter
                          (fun (name, head) ->
                            diags :=
                              D.error ~check:Registry.pool_capture
                                ~loc:(Cmt_index.file_loc u e.Typedtree.exp_loc)
                                (Fmt.str
                                   "%s task reads %s (%s), a local captured from the \
                                    enclosing scope; tasks run on other domains"
                                   callee name head)
                                ~hint:"return per-task results and combine them on \
                                       the caller (index-addressed arrays, map_reduce), \
                                       or use Atomic"
                              :: !diags)
                          (captures task)
                      | _ -> ())
                    args
              | _ -> ());
              default_iterator.expr self e);
        }
      in
      find.structure find u.Cmt_index.u_str;
      List.rev !diags)
    (Cmt_index.units idx)
