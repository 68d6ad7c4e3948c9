(* Layer-5 cache-determinism analysis. See the .mli for the model.

   BFS over the typed reference graph: from each entry point, follow
   every internal reference that resolves to a top-level *function*
   (non-function top-level values are instead classified as data — see
   the mutable-global check). Each visited function's full reference
   set ([t_refs], a superset of its call heads) is screened against the
   forbidden read lists, so an eta-passed [Sys.getenv] is caught even
   though it is never the head of an application.

   Mutable module-level globals are recognized by joining the typed
   reference (canonical "Unit.name") against the layer-3 [Ast_index]
   mutable-state inventory of that unit. Classification:
   - [Dls_guarded]: accepted — per-domain memo caches; genuineness
     (fresh initializer, no shared backing) is already enforced by the
     layer-3 domain-safety pass, which this analysis assumes green.
   - telemetry counters (initializer calls [Counters.counter]):
     accepted — they are write-only in reachable code, and the *read*
     API ([Counters.value]/[snapshot]) is itself on the forbidden list,
     so any verdict-affecting read is flagged by name instead.
   - anything else ([Atomic], mutex-guarded, unguarded): flagged unless
     an allow entry justifies it.

   Boundary functions are not descended into: the certificate cache
   ([Cert_cache.find]/[store]) sits *behind* the fingerprint key, and
   [Cert_check.validate] independently re-checks whatever the cache
   returns, so cache-internal impurity (file mtimes, eviction clocks)
   cannot alter a verdict. The boundary list makes that trust split
   explicit and keeps it audited here. *)

module D = Diagnostics
module CI = Cmt_index

type allow = { a_fn : string; a_what : string; a_reason : string }

type config = {
  entries : string list;
  boundary : string list;
  forbidden : (string * string) list;         (* exact canonical name, category *)
  forbidden_prefix : (string * string) list;  (* name prefix, category *)
  allow : allow list;
}

let default_entries =
  [
    "Cert_key.fingerprint"; "Cert_key.expr_fingerprint"; "Cert_check.validate";
    "Cert_check.validate_cert"; "Verifier.cert_of_pipe"; "Verifier.cert_hook";
  ]

let default_allow =
  [
    {
      a_fn = "Expr.intern";
      a_what = "Expr.intern_table";
      a_reason =
        "hash-consing store: contents are a deterministic function of the \
         terms constructed; intern ids never enter fingerprints (Cert_key \
         hashes structure, not ids)";
    };
    {
      a_fn = "Expr.intern";
      a_what = "Expr.next_id";
      a_reason =
        "id counter for the hash-consing store; ids never enter fingerprints";
    };
  ]

let default_config =
  {
    entries = default_entries;
    boundary = [ "Cert_cache.find"; "Cert_cache.store" ];
    forbidden =
      [
        ("Mono.now", "clock");
        ("Unix.gettimeofday", "clock");
        ("Unix.time", "clock");
        ("Unix.gmtime", "clock");
        ("Unix.localtime", "clock");
        ("Sys.time", "clock");
        ("Domain.self", "domain identity");
        ("Domain.recommended_domain_count", "domain identity");
        ("Domain.is_main_domain", "domain identity");
        ("Sys.getenv", "environment");
        ("Sys.getenv_opt", "environment");
        ("Sys.getcwd", "environment");
        ("Sys.argv", "environment");
        ("Unix.getenv", "environment");
        ("Unix.environment", "environment");
        ("Unix.getpid", "environment");
        ("Unix.gethostname", "environment");
        ("Counters.value", "counter read");
        ("Counters.get", "counter read");
        ("Counters.snapshot", "counter read");
      ];
    forbidden_prefix = [ ("Random.", "RNG state") ];
    allow = default_allow;
  }

(* A top-level value is a telemetry counter when its initializer calls
   [Counters.counter] (possibly through an alias or the wrapper path). *)
let is_counter_init (mb : Ast_index.mutable_binding) =
  Ast_index.SSet.exists
    (fun s ->
      s = "Counters.counter"
      || (String.length s > 16
          && String.sub s (String.length s - 17) 17 = ".Counters.counter"))
    mb.Ast_index.m_init_idents

let short_name key =
  match String.rindex_opt key '.' with
  | Some i -> String.sub key (i + 1) (String.length key - i - 1)
  | None -> key

let unit_name key =
  match String.rindex_opt key '.' with Some i -> String.sub key 0 i | None -> ""

(* Entry-to-offender path from the BFS parent map, for the message. *)
let rec path_to parents key =
  match Hashtbl.find_opt parents key with
  | None | Some "" -> [ key ]
  | Some p -> key :: path_to parents p

let analyze ?(config = default_config) ?ast idx =
  let diags = ref [] in
  let used_allow = Hashtbl.create 8 in
  let allowed fn what =
    match
      List.find_opt (fun a -> a.a_fn = fn && a.a_what = what) config.allow
    with
    | Some a ->
      Hashtbl.replace used_allow (a.a_fn, a.a_what) ();
      true
    | None -> false
  in
  let parents : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let visited = Hashtbl.create 64 in
  let queue = Queue.create () in
  List.iter
    (fun e ->
      match CI.find_fn idx e with
      | Some _ ->
        Hashtbl.replace parents e "";
        Queue.add e queue
      | None ->
        diags :=
          D.error ~check:Registry.cache_purity
            ~loc:(D.Model ("sound/cache-purity/entry/" ^ e))
            (Fmt.str "unknown entry point %s: not a top-level binding of any \
                      scanned unit" e)
            ~hint:"fix the entry list (function renamed or unit excluded?)"
          :: !diags)
    config.entries;
  let describe key =
    String.concat " -> " (List.rev (path_to parents key))
  in
  while not (Queue.is_empty queue) do
    let key = Queue.pop queue in
    if not (Hashtbl.mem visited key) then begin
      Hashtbl.replace visited key ();
      match CI.find_fn idx key with
      | None -> ()
      | Some (u, fn) ->
        List.iter
          (fun (r : CI.ref_site) ->
            let category =
              match List.assoc_opt r.CI.r_name config.forbidden with
              | Some c -> Some c
              | None ->
                List.fold_left
                  (fun acc (p, c) ->
                    if
                      acc = None
                      && String.length r.CI.r_name >= String.length p
                      && String.sub r.CI.r_name 0 (String.length p) = p
                    then Some c
                    else acc)
                  None config.forbidden_prefix
            in
            match category with
            | Some cat ->
              if not (allowed key r.CI.r_name) then
                diags :=
                  D.error ~check:Registry.cache_purity
                    ~loc:(CI.file_loc u r.CI.r_loc)
                    (Fmt.str "%s read %s reachable from a certificate path: %s"
                       cat r.CI.r_name (describe key))
                    ~hint:
                      "certificate fingerprints and validation must be pure \
                       functions of the keyed inputs; inject the value through \
                       a parameter or add a justified Cache_purity allow entry"
                  :: !diags
            | None ->
              if r.CI.r_internal && not (List.mem r.CI.r_name config.boundary)
              then
                match CI.find_fn idx r.CI.r_name with
                | Some (_, target) when target.CI.t_params <> [] ->
                  if not (Hashtbl.mem visited r.CI.r_name) then begin
                    if not (Hashtbl.mem parents r.CI.r_name) then
                      Hashtbl.replace parents r.CI.r_name key;
                    Queue.add r.CI.r_name queue
                  end
                | Some _ -> (
                  (* a top-level *value*: mutable global? *)
                  match ast with
                  | None -> ()
                  | Some ast -> (
                    match Ast_index.find_module ast (unit_name r.CI.r_name) with
                    | None -> ()
                    | Some m -> (
                      match Ast_index.find_mutable m (short_name r.CI.r_name) with
                      | None -> ()
                      | Some mb ->
                        if
                          (not (mb.Ast_index.m_guard = Ast_index.Dls_guarded))
                          && mb.Ast_index.m_kind <> Ast_index.Sync_t
                             (* a bare lock carries no data *)
                          && (not (is_counter_init mb))
                          && not (allowed key r.CI.r_name)
                        then
                          diags :=
                            D.error ~check:Registry.cache_purity
                              ~loc:(CI.file_loc u r.CI.r_loc)
                              (Fmt.str
                                 "unkeyed mutable global %s (%s, %s) reachable \
                                  from a certificate path: %s"
                                 r.CI.r_name
                                 (Ast_index.kind_label mb.Ast_index.m_kind)
                                 (match mb.Ast_index.m_guard with
                                 | Ast_index.Unguarded -> "unguarded"
                                 | Ast_index.Atomic_guarded -> "atomic"
                                 | Ast_index.Dls_guarded -> "dls"
                                 | Ast_index.Sync_primitive -> "mutex-guarded")
                                 (describe key))
                              ~hint:
                                "key the state into the fingerprint, move it \
                                 into Domain.DLS with a fresh initializer, or \
                                 add a justified Cache_purity allow entry"
                            :: !diags)))
                | None -> ())
          fn.CI.t_refs
    end
  done;
  let stale =
    List.filter_map
      (fun a ->
        if Hashtbl.mem used_allow (a.a_fn, a.a_what) then None
        else
          Some
            (D.error ~check:Registry.sound_allow
               ~loc:(D.Model ("sound/cache-purity/allow/" ^ a.a_fn ^ "/" ^ a.a_what))
               (Fmt.str
                  "stale allow entry %s -> %s: the reference no longer occurs \
                   on any reachable certificate path"
                  a.a_fn a.a_what)
               ~hint:"delete the entry or fix its spelling"))
      config.allow
  in
  D.sort (!diags @ stale)
