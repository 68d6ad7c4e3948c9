(* Exception-escape analysis: hot-path functions must speak the
   Dwv_error.t result taxonomy, not throw.

   A function in a hot module is flagged when it can raise — directly or
   through one call-graph hop — without the raise being handled. A raise
   is "handled" when it sits inside a try/match-exception span, when its
   constructor is caught elsewhere in the same function (the [fail]/
   [try ... with Exit] helper pairing), or when the function itself
   constructs Ok/Error results (precondition raises of a result-speaking
   function are its contract, not an escape).

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
module SSet = Ast_index.SSet

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
  | Ast_index.Rfailure what -> what
  | Ast_index.Rinvalid what -> what
  | Ast_index.Rexit -> "exit"
  | Ast_index.Rexn c -> "raise " ^ c

(* Error-tier escaping raises of [fn]: what makes it unsafe to call bare
   from the verification loop. invalid_arg-class sites are excluded —
   they are reported at Info on the function itself, never propagated. *)
let error_tier_raises fn =
  List.filter
    (fun (s : Ast_index.raise_site) ->
      match s.Ast_index.r_class with
      | Ast_index.Rfailure _ | Ast_index.Rexit | Ast_index.Rexn _ -> true
      | Ast_index.Rinvalid _ -> false)
    (Ast_index.escaping_raises fn)

let analyze ?(hot_modules = default_hot_modules) ?(allow = default_allow) index =
  let ds = ref [] in
  let hint =
    "return a Dwv_error.t result (or catch and classify) so the \
     verification loop's fault ladder can handle the failure"
  in
  List.iter
    (fun (mi : Ast_index.module_info) ->
      if List.mem mi.Ast_index.module_name hot_modules then
        List.iter
          (fun (fn : Ast_index.fn) ->
            let result_speaking = Ast_index.speaks_result fn in
            let escapes = Ast_index.escaping_raises fn in
            (* direct raises *)
            List.iter
              (fun (s : Ast_index.raise_site) ->
                let loc = Src_ast.file_loc ~path:mi.Ast_index.path s.Ast_index.r_loc in
                match s.Ast_index.r_class with
                | Ast_index.Rinvalid what ->
                  ds :=
                    D.info ~check:check_name ~loc
                      (Fmt.str
                         "hot-path function '%s' can escape with %s (caller-contract \
                          violation; confirm callers validate inputs)"
                         fn.Ast_index.f_name what)
                    :: !ds
                | (Ast_index.Rfailure _ | Ast_index.Rexit | Ast_index.Rexn _) as c ->
                  if not result_speaking then
                    ds :=
                      D.error ~check:check_name ~loc
                        (Fmt.str
                           "hot-path function '%s' can escape with %s, outside the \
                            Dwv_error.t result taxonomy"
                           fn.Ast_index.f_name (class_label c))
                        ~hint
                      :: !ds)
              escapes;
            (* one hop: a direct callee with an Error-tier escape *)
            if escapes = [] && not result_speaking then
              SSet.iter
                (fun id ->
                  match Ast_index.resolve index mi id with
                  | Some (Ast_index.Tfn (dm, g))
                    when (not (List.mem dm.Ast_index.module_name allow))
                         && not (Ast_index.speaks_result g) -> (
                    match error_tier_raises g with
                    | [] -> ()
                    | s :: _ ->
                      let line, _ = Src_ast.start_line_col s.Ast_index.r_loc in
                      ds :=
                        D.warn ~check:check_name
                          ~loc:
                            (Src_ast.file_loc ~path:mi.Ast_index.path
                               fn.Ast_index.f_loc)
                          (Fmt.str
                             "hot-path function '%s' calls %s.%s, which can escape \
                              with %s (%s:%d)"
                             fn.Ast_index.f_name dm.Ast_index.module_name
                             g.Ast_index.f_name
                             (class_label s.Ast_index.r_class)
                             dm.Ast_index.path line)
                          ~hint
                        :: !ds)
                  | _ -> ())
                fn.Ast_index.idents)
          mi.Ast_index.fns)
    (Ast_index.modules index);
  List.rev !ds
