(* Allocation-hotspot profile. See the .mli for the contract.

   Two halves: a BFS over the Cmt_index call graph from the numeric
   entry points (recording the discovery path, so every site can say how
   a hot loop reaches it), then a typed body walk per reachable function
   that tracks loop-nesting depth — syntactic for/while loops and the
   function arguments of the usual iteration combinators both count —
   and classifies the allocation sites the flat-kernels refactor cares
   about. *)

module D = Diagnostics

type site = {
  s_class : string;
  s_weight : int;
  s_depth : int;
  s_score : int;
  s_file : string;
  s_line : int;
  s_col : int;
  s_fn : string;
  s_detail : string;
  s_path : string;
}

let default_entries =
  [
    "Taylor_model.mul";
    "Taylor_model.bound";
    "Taylor_reach.step";
    "Closed_loop.run";
    "Verifier.nn_flowpipe_outcome";
    "Rk45.integrate";
    "Bernstein.approximate";
    "Bernstein.remainder";
    "Bernstein.remainder_sampled";
    "Cert.encode";
    "Cert.decode";
    "Cert_check.validate_cert";
    "Cert_ival.eval_vec";
    "Scn_verify.verify_robust";
    "Scn_fuzz.run";
  ]

(* Function arguments of these run once per element: allocation inside
   them is allocation in a loop. Pool combinators additionally mark
   their task closures (mutable captures there are cross-domain). *)
let loop_combinators =
  [
    "Array.iter"; "Array.iteri"; "Array.map"; "Array.mapi"; "Array.map2";
    "Array.iter2"; "Array.fold_left"; "Array.fold_right"; "Array.init";
    "Array.exists"; "Array.for_all"; "List.iter"; "List.iteri"; "List.map";
    "List.mapi"; "List.map2"; "List.fold_left"; "List.fold_right";
    "List.filter"; "List.filter_map"; "List.concat_map"; "List.init";
    "List.exists"; "List.for_all";
  ]

let is_pool_combinator callee =
  String.length callee > 5 && String.sub callee 0 5 = "Pool."

let is_loop_combinator callee =
  List.mem callee loop_combinators || is_pool_combinator callee

(* Callees that return a fresh array every call. Array.map/mapi double as
   loop combinators above; here they count as the allocation they are. *)
let array_allocators =
  [
    "Array.make"; "Array.init"; "Array.create_float"; "Array.make_matrix";
    "Array.copy"; "Array.append"; "Array.sub"; "Array.concat";
    "Array.of_list"; "Array.to_list"; "Array.map"; "Array.mapi"; "Array.map2";
  ]

let poly_compare_ops = [ "="; "<>"; "<"; ">"; "<="; ">="; "compare"; "min"; "max" ]

(* ocamlopt specializes the comparison *operators* at statically-known
   scalar float type; it never specializes the *functions* compare/min/
   max without inlining. So scalar float escapes the operator class but
   not the function class. *)
let scalar_specialized = [ "="; "<>"; "<"; ">"; "<="; ">=" ]

let weight_of = function
  | "float-poly-compare" -> 8
  | "float-ref" -> 6
  | "task-mutable-state" -> 5
  | "closure-in-loop" | "tuple-in-loop" | "record-in-loop" -> 4
  | "list-cons-in-loop" | "array-alloc-in-loop" -> 3
  | "option-alloc-in-loop" | "boxed-float-let" -> 2
  | _ -> 1

let sort sites =
  List.sort
    (fun a b ->
      let c = compare b.s_score a.s_score in
      if c <> 0 then c
      else
        compare
          (a.s_file, a.s_line, a.s_col, a.s_class)
          (b.s_file, b.s_line, b.s_col, b.s_class))
    sites

(* ---------- reachability ---------- *)

(* BFS from the entry points over internal call edges, parents recorded
   at first discovery; [launches_pool] functions are extra roots (their
   closures run on worker domains regardless of who calls them). *)
let reachable idx entries =
  let parent : (string, string option) Hashtbl.t = Hashtbl.create 64 in
  let queue = Queue.create () in
  let push key from =
    if not (Hashtbl.mem parent key) then begin
      Hashtbl.add parent key from;
      Queue.add key queue
    end
  in
  let resolved, missing =
    List.partition (fun e -> Cmt_index.find_fn idx e <> None) entries
  in
  List.iter (fun e -> push e None) resolved;
  List.iter
    (fun (u : Cmt_index.unit_info) ->
      List.iter
        (fun (fn : Cmt_index.tfn) ->
          if
            List.exists
              (fun (c : Cmt_index.call) -> is_pool_combinator c.Cmt_index.c_callee)
              fn.Cmt_index.t_calls
          then push (Cmt_index.fn_key u fn) None)
        u.Cmt_index.u_fns)
    (Cmt_index.units idx);
  while not (Queue.is_empty queue) do
    let key = Queue.take queue in
    match Cmt_index.find_fn idx key with
    | None -> ()
    | Some (_, fn) ->
      List.iter
        (fun (c : Cmt_index.call) ->
          if c.Cmt_index.c_internal && Cmt_index.find_fn idx c.Cmt_index.c_callee <> None
          then push c.Cmt_index.c_callee (Some key))
        fn.Cmt_index.t_calls
  done;
  let path_of key =
    let rec up acc key =
      match Hashtbl.find_opt parent key with
      | Some (Some from) -> up (key :: acc) from
      | _ -> key :: acc
    in
    String.concat " -> " (up [] key)
  in
  (parent, path_of, missing)

(* ---------- the body walk ---------- *)

type walk_state = {
  mutable depth : int;
  mutable in_task : bool;
  mutable suppress_fun : bool;  (* inside a fun-chain: count the closure once *)
}

let profile_fn idx (u : Cmt_index.unit_info) (fn : Cmt_index.tfn) ~path =
  let sites = ref [] in
  let emit st s_class loc detail =
    let weight = weight_of s_class in
    let line, col = Src_ast.start_line_col loc in
    sites :=
      {
        s_class;
        s_weight = weight;
        s_depth = st.depth;
        s_score = weight * (1 + st.depth);
        s_file = u.Cmt_index.u_source;
        s_line = line;
        s_col = col;
        s_fn = Cmt_index.fn_key u fn;
        s_detail = detail;
        s_path = path;
      }
      :: !sites
  in
  let st = { depth = 0; in_task = false; suppress_fun = true } in
  let head_name e =
    match e.Typedtree.exp_desc with
    | Typedtree.Texp_ident (p, _, _) -> Some (Cmt_index.canon_ident idx u p)
    | _ -> None
  in
  let open Tast_iterator in
  let with_state ~depth ~in_task ~suppress_fun k =
    let d, t, s = (st.depth, st.in_task, st.suppress_fun) in
    st.depth <- depth;
    st.in_task <- in_task;
    st.suppress_fun <- suppress_fun;
    k ();
    st.depth <- d;
    st.in_task <- t;
    st.suppress_fun <- s
  in
  let iter =
    {
      default_iterator with
      expr =
        (fun self e ->
          let walk e' = self.expr self e' in
          match e.Typedtree.exp_desc with
          | Typedtree.Texp_for (_, _, lo, hi, _, body) ->
            walk lo;
            walk hi;
            with_state ~depth:(st.depth + 1) ~in_task:st.in_task ~suppress_fun:true
              (fun () -> walk body)
          | Typedtree.Texp_while (cond, body) ->
            walk cond;
            with_state ~depth:(st.depth + 1) ~in_task:st.in_task ~suppress_fun:true
              (fun () -> walk body)
          | Typedtree.Texp_function { cases; _ } ->
            if st.depth >= 1 && not st.suppress_fun then
              emit st "closure-in-loop" e.Typedtree.exp_loc
                "closure allocated per iteration";
            List.iter
              (fun (c : Typedtree.value Typedtree.case) ->
                Option.iter walk c.Typedtree.c_guard;
                let chained =
                  match c.Typedtree.c_rhs.Typedtree.exp_desc with
                  | Typedtree.Texp_function _ -> true
                  | _ -> false
                in
                with_state ~depth:st.depth ~in_task:st.in_task ~suppress_fun:chained
                  (fun () -> walk c.Typedtree.c_rhs))
              cases
          | Typedtree.Texp_apply (head, args) -> (
            let callee = match head_name head with Some n -> n | None -> "" in
            (* classification at the call site *)
            (match args with
            | (_, Some first) :: _ when List.mem callee poly_compare_ops ->
              let ty = first.Typedtree.exp_type in
              let head_ty = Cmt_index.type_head idx u ty in
              if
                Cmt_index.type_mentions_float ty
                && not (head_ty = "float" && List.mem callee scalar_specialized)
              then
                emit st "float-poly-compare" e.Typedtree.exp_loc
                  (Fmt.str "polymorphic %s at %s" callee
                     (if head_ty = "" then "a composite float type" else head_ty))
            | _ -> ());
            (match args with
            | [ (_, Some arg) ] when callee = "ref" ->
              if Cmt_index.type_mentions_float arg.Typedtree.exp_type then
                emit st "float-ref" e.Typedtree.exp_loc "ref cell holding floats"
            | _ -> ());
            if st.depth >= 1 && List.mem callee array_allocators then
              emit st "array-alloc-in-loop" e.Typedtree.exp_loc
                (Fmt.str "%s allocates a fresh array per iteration" callee);
            (* recursion: function args of loop combinators run per
               element, so their bodies walk one level deeper *)
            walk head;
            let combinator = is_loop_combinator callee in
            let task = is_pool_combinator callee in
            List.iter
              (fun ((_, arg) : Asttypes.arg_label * Typedtree.expression option) ->
                match arg with
                | None -> ()
                | Some a -> (
                  match a.Typedtree.exp_desc with
                  | Typedtree.Texp_function _ when combinator ->
                    with_state ~depth:(st.depth + 1)
                      ~in_task:(st.in_task || task)
                      ~suppress_fun:true
                      (fun () -> walk a)
                  | _ -> walk a))
              args)
          | Typedtree.Texp_ident (p, _, _) ->
            if st.in_task then begin
              let head_ty = Cmt_index.type_head idx u e.Typedtree.exp_type in
              if head_ty = "ref" || head_ty = "Hashtbl.t" then
                emit st "task-mutable-state" e.Typedtree.exp_loc
                  (Fmt.str "task closure reads %s (%s) across domains"
                     (Cmt_index.canon_ident idx u p)
                     head_ty)
            end;
            default_iterator.expr self e
          | Typedtree.Texp_array _ ->
            if st.depth >= 1 then
              emit st "array-alloc-in-loop" e.Typedtree.exp_loc
                "array literal allocated per iteration";
            st.suppress_fun <- false;
            default_iterator.expr self e
          | Typedtree.Texp_tuple _ ->
            if st.depth >= 1 then
              emit st "tuple-in-loop" e.Typedtree.exp_loc "tuple allocated per iteration";
            st.suppress_fun <- false;
            default_iterator.expr self e
          | Typedtree.Texp_record _ ->
            if st.depth >= 1 then begin
              let head_ty = Cmt_index.type_head idx u e.Typedtree.exp_type in
              emit st "record-in-loop" e.Typedtree.exp_loc
                (Fmt.str "%s record allocated per iteration"
                   (if head_ty = "" then "a" else head_ty))
            end;
            st.suppress_fun <- false;
            default_iterator.expr self e
          | Typedtree.Texp_construct (_, cd, _ :: _) ->
            (if st.depth >= 1 then
               match cd.Types.cstr_name with
               | "::" ->
                 emit st "list-cons-in-loop" e.Typedtree.exp_loc
                   "list cell allocated per iteration"
               | "Some" ->
                 emit st "option-alloc-in-loop" e.Typedtree.exp_loc
                   "option allocated per iteration"
               | _ -> ());
            st.suppress_fun <- false;
            default_iterator.expr self e
          | Typedtree.Texp_let (_, vbs, _) ->
            if st.depth >= 1 then
              List.iter
                (fun (vb : Typedtree.value_binding) ->
                  let trivial =
                    match vb.Typedtree.vb_expr.Typedtree.exp_desc with
                    | Typedtree.Texp_constant _ | Typedtree.Texp_ident _ -> true
                    | _ -> false
                  in
                  if
                    (not trivial)
                    && Cmt_index.type_head idx u vb.Typedtree.vb_expr.Typedtree.exp_type
                       = "float"
                  then
                    emit st "boxed-float-let" vb.Typedtree.vb_loc
                      "float result boxed by the let binding")
                vbs;
            st.suppress_fun <- false;
            default_iterator.expr self e
          | _ ->
            st.suppress_fun <- false;
            default_iterator.expr self e);
    }
  in
  iter.expr iter fn.Cmt_index.t_body;
  !sites

let profile ?(entries = default_entries) idx =
  let parent, path_of, missing = reachable idx entries in
  let diags =
    List.map
      (fun e ->
        D.info ~check:Registry.alloc_hotspot ~loc:(D.Model ("alloc-profile/" ^ e))
          (Fmt.str "entry point %s not found in the typed index; skipped" e))
      missing
  in
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) parent [] |> List.sort compare in
  let sites =
    List.concat_map
      (fun key ->
        match Cmt_index.find_fn idx key with
        | None -> []
        | Some (u, fn) -> profile_fn idx u fn ~path:(path_of key))
      keys
  in
  (sort sites, diags)

(* ---------- serialization & baseline ---------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Fmt.str "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let baseline_key s =
  Fmt.str "%s|%s|%s|%s" s.s_class s.s_file s.s_fn s.s_detail

let site_to_json s =
  Fmt.str
    "{\"key\":\"%s\",\"class\":\"%s\",\"score\":%d,\"weight\":%d,\"depth\":%d,\"file\":\"%s\",\"line\":%d,\"col\":%d,\"fn\":\"%s\",\"detail\":\"%s\",\"path\":\"%s\"}"
    (json_escape (baseline_key s))
    (json_escape s.s_class) s.s_score s.s_weight s.s_depth (json_escape s.s_file)
    s.s_line s.s_col (json_escape s.s_fn) (json_escape s.s_detail)
    (json_escape s.s_path)

let report_to_json sites =
  let sites = sort sites in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"version\":1,\"tool\":\"dwv_lint alloc-profile\",\"sites\":[\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b (site_to_json s))
    sites;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let count_keys keys =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun k -> Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    keys;
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl [] |> List.sort compare

let key_re = Str.regexp {|"key":"\([^"]*\)"|}

let baseline_keys doc =
  let keys = ref [] in
  List.iter
    (fun line ->
      match Str.search_forward key_re line 0 with
      | _ -> keys := Str.matched_group 1 line :: !keys
      | exception Not_found -> ())
    (String.split_on_char '\n' doc);
  count_keys (List.rev !keys)

let diff_against_baseline ~baseline sites =
  let allowed = baseline_keys baseline in
  let sites = sort sites in
  let counts = count_keys (List.map baseline_key sites) in
  List.filter_map
    (fun (key, n) ->
      let budget = Option.value ~default:0 (List.assoc_opt key allowed) in
      if n <= budget then None
      else
        let s = List.find (fun s -> baseline_key s = key) sites in
        Some
          (D.error ~check:Registry.alloc_hotspot
             ~loc:(D.File { path = s.s_file; line = s.s_line; col = s.s_col })
             (Fmt.str
                "new hot-loop allocation: %s in %s (%s), %d site(s) vs %d in the \
                 baseline; reachable via %s"
                s.s_class s.s_fn s.s_detail n budget s.s_path)
             ~hint:"flatten the allocation (see ROADMAP: flat numeric kernels) or \
                    re-baseline with dwv_lint --engine typed --alloc-baseline"))
    counts
