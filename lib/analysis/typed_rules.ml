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

(* Mutable values with no synchronization of their own. *)
let unsynchronized = [ "ref"; "Hashtbl.t" ]

let pool_captures idx =
  List.concat_map
    (fun (u : Cmt_index.unit_info) ->
      let open Tast_iterator in
      (* module-level bindings are domain-safety's; every other binding
         is a local (or parameter) the task may have captured *)
      let toplevel = ref [] in
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
        }
      in
      collect.structure collect u.Cmt_index.u_str;
      let is_toplevel id = List.exists (Ident.same id) !toplevel in
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
                else Option.iter scan (Cmt_index.local_def u id)
              end)
            (List.rev !refs)
        in
        scan task;
        List.rev !found
      in
      List.concat_map
        (fun (site : Cmt_index.fanout) ->
          List.concat_map
            (fun task ->
              List.map
                (fun (name, head) ->
                  D.error ~check:Registry.pool_capture
                    ~loc:(Cmt_index.file_loc u site.Cmt_index.fo_loc)
                    (Fmt.str
                       "%s task reads %s (%s), a local captured from the enclosing \
                        scope; tasks run on other domains"
                       site.Cmt_index.fo_callee name head)
                    ~hint:
                      "return per-task results and combine them on the caller \
                       (index-addressed arrays, map_reduce), or use Atomic")
                (captures task))
            site.Cmt_index.fo_tasks)
        u.Cmt_index.u_fanouts)
    (Cmt_index.units idx)
