(* Budget-discipline check. See the .mli for the contract.

   Per entry: a monotone fixpoint computes, for every function reachable
   over internal call edges, whether a budget can be in scope there —
   scope propagates across an edge only when the caller has scope and
   the call site actually passes a budget-typed argument. Violations are
   then read off the settled graph, so transient not-yet-propagated
   states never emit. *)

module D = Diagnostics

let default_entries =
  [
    "Acc.verify_robust"; "Acc.verify_robust_from";
    "Nn_system.verify_robust"; "Nn_system.verify_robust_from";
    "Learner.learn"; "Initset.search";
    "Cert_check.validate"; "Cert_check.validate_cert";
    "Scn_verify.verify_robust"; "Scn_fuzz.run";
  ]

let targets =
  [
    "Taylor_reach.step"; "Interval_reach.step";
    "Closed_loop.taylor_kernel"; "Verifier.nn_flowpipe_outcome";
    "Verifier.nn_flowpipe"; "Verifier.nn_flowpipe_robust";
  ]

let sinks = [ "Budget.check"; "Budget.spend_call"; "Budget.spend_steps" ]

let accepts_budget (fn : Cmt_index.tfn) =
  List.exists (fun (p : Cmt_index.param) -> p.Cmt_index.p_budget) fn.Cmt_index.t_params

let call_passes_budget (c : Cmt_index.call) =
  List.exists (fun (a : Cmt_index.call_arg) -> a.Cmt_index.a_budget) c.Cmt_index.c_args

let calls_sink (fn : Cmt_index.tfn) =
  List.exists
    (fun (c : Cmt_index.call) -> List.mem c.Cmt_index.c_callee sinks)
    fn.Cmt_index.t_calls

(* Functions that consult the budget themselves or through any chain of
   internal calls: the set an omitted [?budget] actually starves.
   Fixpoint over the reversed graph. *)
let consumers idx =
  let consuming = Hashtbl.create 64 in
  let all_fns =
    List.concat_map
      (fun (u : Cmt_index.unit_info) ->
        List.map (fun fn -> (Cmt_index.fn_key u fn, fn)) u.Cmt_index.u_fns)
      (Cmt_index.units idx)
  in
  List.iter
    (fun (key, fn) -> if calls_sink fn then Hashtbl.replace consuming key ())
    all_fns;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (key, (fn : Cmt_index.tfn)) ->
        if
          (not (Hashtbl.mem consuming key))
          && List.exists
               (fun (c : Cmt_index.call) ->
                 c.Cmt_index.c_internal && Hashtbl.mem consuming c.Cmt_index.c_callee)
               fn.Cmt_index.t_calls
        then begin
          Hashtbl.replace consuming key ();
          changed := true
        end)
      all_fns
  done;
  fun key -> Hashtbl.mem consuming key

let analyze ?(entries = default_entries) idx =
  let consumes = consumers idx in
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let check_entry entry =
    match Cmt_index.find_fn idx entry with
    | None ->
      emit
        (D.error ~check:Registry.budget_threading
           ~loc:(D.Model ("budget-threading/" ^ entry))
           (Fmt.str
              "entry point %s not found in the typed index; the budget invariant \
               cannot be verified for it"
              entry))
    | Some (eu, efn) ->
      if not (accepts_budget efn) then
        emit
          (D.error ~check:Registry.budget_threading
             ~loc:(Cmt_index.file_loc eu efn.Cmt_index.t_loc)
             (Fmt.str "entry point %s does not accept a Budget.t parameter" entry)
             ~hint:"add ?budget and thread it to the kernels (DESIGN.md §8)");
      (* scope fixpoint from this entry *)
      let scope : (string, bool) Hashtbl.t = Hashtbl.create 64 in
      Hashtbl.replace scope entry true;
      let queue = Queue.create () in
      Queue.add entry queue;
      while not (Queue.is_empty queue) do
        let key = Queue.take queue in
        let here = Hashtbl.find scope key in
        match Cmt_index.find_fn idx key with
        | None -> ()
        | Some (_, fn) ->
          List.iter
            (fun (c : Cmt_index.call) ->
              if
                c.Cmt_index.c_internal
                && Cmt_index.find_fn idx c.Cmt_index.c_callee <> None
              then begin
                let callee = c.Cmt_index.c_callee in
                let callee_fn =
                  match Cmt_index.find_fn idx callee with
                  | Some (_, f) -> f
                  | None -> assert false
                in
                let passed =
                  here && accepts_budget callee_fn && call_passes_budget c
                in
                match Hashtbl.find_opt scope callee with
                | None ->
                  Hashtbl.replace scope callee passed;
                  Queue.add callee queue
                | Some old when (not old) && passed ->
                  Hashtbl.replace scope callee true;
                  Queue.add callee queue
                | Some _ -> ()
              end)
            fn.Cmt_index.t_calls
      done;
      (* read violations off the settled graph *)
      let consulted = ref false in
      Hashtbl.iter
        (fun key here ->
          match Cmt_index.find_fn idx key with
          | None -> ()
          | Some (u, fn) ->
            List.iter
              (fun (c : Cmt_index.call) ->
                let callee = c.Cmt_index.c_callee in
                if here && List.mem callee sinks then consulted := true;
                let drops =
                  here && c.Cmt_index.c_internal
                  && (match Cmt_index.find_fn idx callee with
                     | Some (_, f) -> accepts_budget f && consumes callee
                     | None -> false)
                  && not (call_passes_budget c)
                in
                if drops then
                  emit
                    (D.error ~check:Registry.budget_threading
                       ~loc:(Cmt_index.file_loc u c.Cmt_index.c_loc)
                       (Fmt.str
                          "budget dropped on the path from %s: %s accepts a Budget.t \
                           and consults it, but this call in %s omits it"
                          entry callee (Cmt_index.fn_key u fn))
                       ~hint:"pass ?budget through; an omitted optional severs the \
                              chain silently");
                if List.mem callee targets && ((not here) || not (call_passes_budget c))
                then
                  emit
                    (D.error ~check:Registry.budget_threading
                       ~loc:(Cmt_index.file_loc u c.Cmt_index.c_loc)
                       (Fmt.str
                          "unbudgeted kernel call on the path from %s: %s is invoked \
                           in %s with no Budget.t in scope"
                          entry callee (Cmt_index.fn_key u fn))
                       ~hint:"thread ?budget from the entry point down to this call"))
              fn.Cmt_index.t_calls)
        scope;
      if accepts_budget efn && not !consulted then
        emit
          (D.error ~check:Registry.budget_threading
             ~loc:(Cmt_index.file_loc eu efn.Cmt_index.t_loc)
             (Fmt.str
                "%s accepts a Budget.t but no Budget.check/spend site is reachable \
                 with the budget in scope"
                entry)
             ~hint:"the parameter is decorative; consult the budget or drop it")
  in
  List.iter check_entry entries;
  (* several entries can expose one violation; report each site once *)
  List.sort_uniq compare !diags |> D.sort
