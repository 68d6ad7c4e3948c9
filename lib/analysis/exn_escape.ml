(* Exception-escape analysis: hot-path functions must speak the
   Dwv_error.t result taxonomy, not throw.

   A function in a hot module is flagged when it can raise — directly or
   through one hop of the typed call graph — without the raise being
   handled. A raise is "handled" when it sits inside a
   try/match-exception span, when its constructor is caught elsewhere in
   the same function (the [fail]/[try ... with Exit] helper pairing), or
   when the function itself constructs Ok/Error results (precondition
   raises of a result-speaking function are its contract, not an
   escape).

   Severity tiers:
     - Error: failwith / exit / an uncaught custom constructor raised
       directly in a hot function that does not speak result;
     - Info: invalid_arg-class raises (programming-contract violations
       that indicate a caller bug, not an environment fault);
     - Warn: the hot function itself is raise-free but directly calls an
       in-scope function with an Error-tier escaping raise.

   One hop only: deeper chains through the allowlisted leaf modules
   (serialize, interval, ...) are judged at those modules' own boundary,
   not re-reported at every caller. This is the lint that keeps bare
   failwith/exit out of the verification loop. *)

module D = Diagnostics
module CI = Cmt_index

let check_name = Registry.exn_escape

(* Modules on the verification fast path: their failures must flow
   through the Dwv_error.t taxonomy so the fault-tolerant loop can apply
   its budget/fallback ladder instead of dying mid-fan-out. *)
let default_hot_modules =
  [
    "Learner";
    "Initset";
    "Evaluate";
    "Verifier";
    "Closed_loop";
    "Taylor_reach";
    "Robust_verify";
    "Flowpipe";
    "Interval_reach";
    "Linear_reach";
    "Nn_reach_taylor";
    "Nn_reach_bernstein";
    "Cert_check";
    "Cert_cache";
    "Scn_verify";
    "Scn_fuzz";
    "Scn_registry";
  ]

(* Leaf modules whose raises are their documented contract (parse/IO
   front ends and invariant checks that signal a programming error):
   callers are not warned for reaching them.
   [Cert] belongs here like [Serialize]: its reader helpers raise Parse
   internally and [decode] is total; [Cert_ival] raises Undefined by
   contract and the checker catches it per obligation. *)
let default_allow =
  [ "Serialize"; "Controller"; "Interval"; "Taylor_model"; "Mat"; "Cert";
    "Cert_ival" ]

let class_label = function
  | CI.Rfailure what | CI.Rinvalid what -> what
  | CI.Rexit -> "exit"
  | CI.Rexn c -> "raise " ^ c

(* Error-tier escaping raises of [fn]: what makes it unsafe to call bare
   from the verification loop. invalid_arg-class sites are excluded —
   they are reported at Info on the function itself, never propagated. *)
let error_tier_raises fn =
  List.filter
    (fun (s : CI.raise_site) ->
      match s.CI.rs_class with
      | CI.Rfailure _ | CI.Rexit | CI.Rexn _ -> true
      | CI.Rinvalid _ -> false)
    (CI.escaping_raises fn)

let analyze ?(hot_modules = default_hot_modules) ?(allow = default_allow) idx =
  let ds = ref [] in
  let hint =
    "return a Dwv_error.t result (or catch and classify) so the \
     verification loop's fault ladder can handle the failure"
  in
  List.iter
    (fun (u : CI.unit_info) ->
      if List.mem u.CI.u_name hot_modules then
        List.iter
          (fun (fn : CI.tfn) ->
            let result_speaking = fn.CI.t_speaks_result in
            let escapes = CI.escaping_raises fn in
            (* direct raises *)
            List.iter
              (fun (s : CI.raise_site) ->
                let loc = CI.file_loc u s.CI.rs_loc in
                match s.CI.rs_class with
                | CI.Rinvalid what ->
                  ds :=
                    D.info ~check:check_name ~loc
                      (Fmt.str
                         "hot-path function '%s' can escape with %s (caller-contract \
                          violation; confirm callers validate inputs)"
                         fn.CI.t_name what)
                    :: !ds
                | (CI.Rfailure _ | CI.Rexit | CI.Rexn _) as c ->
                  if not result_speaking then
                    ds :=
                      D.error ~check:check_name ~loc
                        (Fmt.str
                           "hot-path function '%s' can escape with %s, outside the \
                            Dwv_error.t result taxonomy"
                           fn.CI.t_name (class_label c))
                        ~hint
                      :: !ds)
              escapes;
            (* one hop: a referenced function with an Error-tier escape *)
            if escapes = [] && not result_speaking then
              List.iter
                (fun name ->
                  match CI.find_fn idx name with
                  | Some (du, g)
                    when (not (List.mem du.CI.u_name allow)) && not g.CI.t_speaks_result
                    -> (
                    match error_tier_raises g with
                    | [] -> ()
                    | s :: _ ->
                      let line, _ = Src_ast.start_line_col s.CI.rs_loc in
                      ds :=
                        D.warn ~check:check_name
                          ~loc:(CI.file_loc u fn.CI.t_loc)
                          (Fmt.str
                             "hot-path function '%s' calls %s, which can escape with %s \
                              (%s:%d)"
                             fn.CI.t_name name (class_label s.CI.rs_class)
                             du.CI.u_source line)
                          ~hint
                        :: !ds)
                  | _ -> ())
                (List.sort_uniq String.compare
                   (List.filter_map
                      (fun (r : CI.ref_site) ->
                        if r.CI.r_internal then Some r.CI.r_name else None)
                      fn.CI.t_refs)))
          u.CI.u_fns)
    (CI.units idx);
  List.rev !ds
