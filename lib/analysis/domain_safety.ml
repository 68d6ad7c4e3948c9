(* Domain-safety lint: no parallel task may reach unguarded module-level
   mutable state.

   For every fan-out site of the index (Pool.map / mapi / map_reduce /
   Domain.spawn), take the task's references — following the local
   functions it calls — and close them over the typed call graph. Every
   reachable reference to module-level state of the inventory is then
   judged by its kind:

     - Atomic, publish-once registries, telemetry counters and locks are
       safe by construction, and the [read_only] entries are never
       written;
     - a Domain.DLS key is safe when its initializer builds fresh state —
       the initializer's references are walked like task code, so a key
       whose closure returns a shared unguarded table is still flagged;
     - otherwise the access is MEDIATED when the body containing the
       reference takes a lock itself or directly references a function
       that does — the shape of the memo tables in taylor_model.ml, where
       the table is passed to a locking helper;
     - anything else is a data race waiting for a schedule, reported as
       an error at the fan-out site.

   The traversal is transitive (a visited set bounds it); the *guard*
   judgment is one hop, which over-accepts (a lock anywhere in a callee
   counts) and never over-rejects — the remaining false-negative shapes
   are catalogued in DESIGN.md §10. *)

module D = Diagnostics
module CI = Cmt_index

let check_name = Registry.domain_safety

let hint =
  "guard the state with Atomic/Mutex/Domain.DLS, or make it per-task (see \
   DESIGN.md §10)"

(* Module-level state the program only reads. Arrays are mutable by
   type, so the inventory lists every array-typed global; these are
   built once at module initialization and never written, so tasks may
   share them. Each entry names the binding and why it is never written. *)
let read_only =
  [
    ( "Oscillator.dynamics",
      "the system's dynamics, projected once from its scenario and never written" );
    ("Scn_fuzz.deltas", "a constant table of candidate time steps, only read by index");
  ]

(* Is an access from a body with references [refs] mediated? *)
let mediated idx refs =
  CI.takes_lock refs
  || List.exists
       (fun (r : CI.ref_site) ->
         r.CI.r_internal
         &&
         match CI.find_fn idx r.CI.r_name with
         | Some (_, g) -> CI.takes_lock g.CI.t_refs
         | None -> false)
       refs

let analyze idx =
  let ds = ref [] in
  List.iter
    (fun (u : CI.unit_info) ->
      List.iter
        (fun (site : CI.fanout) ->
          let visited = Hashtbl.create 32 and reported = Hashtbl.create 8 in
          let report (su : CI.unit_info) (s : CI.state) chain =
            let key = su.CI.u_name ^ "." ^ s.CI.s_name in
            if not (Hashtbl.mem reported key) then begin
              Hashtbl.add reported key ();
              let def_line, _ = Src_ast.start_line_col s.CI.s_loc in
              let via =
                match chain with
                | [] -> "directly"
                | c -> "via " ^ String.concat " -> " (List.rev c)
              in
              ds :=
                D.error ~check:check_name
                  ~loc:(CI.file_loc u site.CI.fo_loc)
                  (Fmt.str
                     "task passed to %s reaches module-level mutable state '%s' (%s, \
                      %s:%d) %s without Atomic/Mutex/Domain.DLS mediation"
                     site.CI.fo_callee s.CI.s_name (CI.kind_label s.CI.s_kind)
                     su.CI.u_source def_line via)
                  ~hint
                :: !ds
            end
          in
          (* Walk one body's references; [chain] is the call path from
             the task to that body. *)
          let rec walk ~chain refs =
            let med = lazy (mediated idx refs) in
            List.iter
              (fun (r : CI.ref_site) ->
                if r.CI.r_internal && not (Hashtbl.mem visited r.CI.r_name) then
                  match CI.find_state idx r.CI.r_name with
                  | Some (su, s) -> (
                    match s.CI.s_kind with
                    | CI.Dls ->
                      (* per-domain only if the key's initializer builds
                         fresh state: a closure returning a shared table
                         hands every domain the same object *)
                      Hashtbl.add visited r.CI.r_name ();
                      walk ~chain:((r.CI.r_name ^ "[init]") :: chain) s.CI.s_init
                    | k ->
                      if
                        CI.unguarded k
                        && (not (List.mem_assoc r.CI.r_name read_only))
                        && not (Lazy.force med)
                      then report su s chain)
                  | None -> (
                    match CI.find_fn idx r.CI.r_name with
                    | Some (_, g) ->
                      Hashtbl.add visited r.CI.r_name ();
                      walk ~chain:(r.CI.r_name :: chain) g.CI.t_refs
                    | None -> ()))
              refs
          in
          List.iter (fun task -> walk ~chain:[] (CI.task_refs idx u task)) site.CI.fo_tasks)
        u.CI.u_fanouts)
    (CI.units idx);
  List.rev !ds
