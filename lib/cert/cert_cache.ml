(* Crash-safe bounded certificate store: in-memory table of encoded
   bytes in front of one file per fingerprint, written atomically
   (unique tmp file, then rename) so a crash mid-write can never leave a
   half-certificate under the final name and concurrent domains never
   observe a torn write. Both tiers hold the *encoded* bytes: every hit
   — memory or disk — goes through the same decode + Quick validation,
   so a corrupted entry is rejected identically wherever it lives.

   Degradation contract: every failure in here (IO, decode, validation,
   injected fault) surfaces as a miss or a reject, never an exception —
   the caller then recomputes fresh. *)

module Fault = Dwv_robust.Fault
module Counters = Dwv_util.Counters

let c_hits = Counters.counter "cache_hits"
let c_fast_hits = Counters.counter "cache_fast_hits"
let c_misses = Counters.counter "cache_misses"
let c_rejects = Counters.counter "cache_rejects"
let c_stores = Counters.counter "cache_stores"
let c_io = Counters.counter "cache_io_failures"

type stats = {
  hits : int;          (* fast hits included *)
  fast_hits : int;
  misses : int;
  rejects : int;
  stores : int;
  io_failures : int;
}

let pp_stats ppf s =
  Fmt.pf ppf "hits=%d (fast=%d) misses=%d rejects=%d stores=%d io_failures=%d"
    s.hits s.fast_hits s.misses s.rejects s.stores s.io_failures

type t = {
  dir : string option;
  mem_cap : int;
  mu : Mutex.t;
  mem : (int64, string) Hashtbl.t;
  order : int64 Queue.t;
  (* Probe-adjacency fast tier: entries whose bytes this process has
     already decoded AND Quick-validated. A repeat lookup of the same
     fingerprint — the learner re-probing an unchanged (theta, X0) —
     only compares the stored bytes for equality before reusing the
     decoded certificate: validation is a pure function of the bytes
     (the cache-purity analysis machine-checks that), so equal bytes
     revalidate to the same Valid. Any armed cert fault bypasses this
     tier entirely, keeping the fault paths on the full decode+validate
     route. Same mutex, FIFO-bounded like [mem]. *)
  validated : (int64, string * Cert.t) Hashtbl.t;
  vorder : int64 Queue.t;
  mutable last_path : string option;
  s_hits : int Atomic.t;
  s_fast_hits : int Atomic.t;
  s_misses : int Atomic.t;
  s_rejects : int Atomic.t;
  s_stores : int Atomic.t;
  s_io : int Atomic.t;
}

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let rec ensure_dir d =
  if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
    ensure_dir (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let create ?dir ?(mem_cap = 512) () =
  Option.iter ensure_dir dir;
  {
    dir;
    mem_cap = max 1 mem_cap;
    mu = Mutex.create ();
    mem = Hashtbl.create 64;
    order = Queue.create ();
    validated = Hashtbl.create 64;
    vorder = Queue.create ();
    last_path = None;
    s_hits = Atomic.make 0;
    s_fast_hits = Atomic.make 0;
    s_misses = Atomic.make 0;
    s_rejects = Atomic.make 0;
    s_stores = Atomic.make 0;
    s_io = Atomic.make 0;
  }

let suffix = ".dwvcert"

let path_of t fp =
  Option.map (fun d -> Filename.concat d (Cert.fingerprint_hex fp ^ suffix)) t.dir

let last_store_path t = locked t (fun () -> t.last_path)

let bump local global =
  Atomic.incr local;
  Counters.incr global

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

let tmp_seq = Atomic.make 0

(* the pid is printed at a fixed width, so the name's length (and the
   words it allocates) does not depend on the process *)
let write_file t path bytes =
  let tmp =
    Printf.sprintf "%s.tmp.%010d.%d.%d" path (Unix.getpid ())
      (Domain.self () :> int)
      (Atomic.fetch_and_add tmp_seq 1)
  in
  try
    Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc bytes);
    Sys.rename tmp path;
    locked t (fun () -> t.last_path <- Some path)
  with Sys_error _ ->
    (try Sys.remove tmp with Sys_error _ -> ());
    bump t.s_io c_io

let raw_lookup t fp =
  match locked t (fun () -> Hashtbl.find_opt t.mem fp) with
  | Some bytes -> Some bytes
  | None -> (
    match path_of t fp with
    | None -> None
    | Some path -> read_file path)

let find t ~fingerprint : Cert.t option =
  match Fault.current () with
  | Some Fault.Cert_io ->
    (* injected read failure: degrade to a miss *)
    bump t.s_io c_io;
    bump t.s_misses c_misses;
    None
  | fault -> (
    match raw_lookup t fingerprint with
    | None ->
      bump t.s_misses c_misses;
      None
    | Some raw -> (
      let raw =
        if fault = Some Fault.Cert_corrupt then Fault.byte_corrupt raw else raw
      in
      let expected =
        if fault = Some Fault.Cert_stale then Int64.lognot fingerprint
        else fingerprint
      in
      let reject () =
        bump t.s_rejects c_rejects;
        (* drop only the memory copy: under an injected fault the stored
           bytes are still clean, and a genuinely bad disk file is
           simply overwritten by the next store *)
        locked t (fun () ->
            Hashtbl.remove t.mem fingerprint;
            Hashtbl.remove t.validated fingerprint);
        None
      in
      (* fast tier: only with no fault armed (an injected corruption /
         staleness / IO fault must travel the full decode+validate route
         it targets), and only when the bytes are the very ones this
         process already validated *)
      let fast =
        if fault <> None then None
        else
          match locked t (fun () -> Hashtbl.find_opt t.validated fingerprint) with
          | Some (vraw, cert) when String.equal vraw raw -> Some cert
          | _ -> None
      in
      match fast with
      | Some cert ->
        bump t.s_fast_hits c_fast_hits;
        bump t.s_hits c_hits;
        Some cert
      | None -> (
        match Cert.decode raw with
        | Error _ -> reject ()
        | Ok cert -> (
          match Cert_check.validate_cert ~level:Cert_check.Quick ~expected cert with
          | Cert_check.Valid, _ ->
            bump t.s_hits c_hits;
            if fault = None then
              locked t (fun () ->
                  if not (Hashtbl.mem t.validated fingerprint) then
                    Queue.push fingerprint t.vorder;
                  Hashtbl.replace t.validated fingerprint (raw, cert);
                  while
                    Hashtbl.length t.validated > t.mem_cap
                    && not (Queue.is_empty t.vorder)
                  do
                    Hashtbl.remove t.validated (Queue.pop t.vorder)
                  done);
            Some cert
          | _ -> reject ()))))

let store t (cert : Cert.t) =
  if Fault.current () = Some Fault.Cert_io then bump t.s_io c_io
  else begin
    let fp = cert.Cert.fingerprint in
    let raw = Cert.encode cert in
    bump t.s_stores c_stores;
    locked t (fun () ->
        if not (Hashtbl.mem t.mem fp) then Queue.push fp t.order;
        Hashtbl.replace t.mem fp raw;
        (* the fresh bytes were never validated: drop any fast-tier
           entry so the next lookup revalidates them *)
        Hashtbl.remove t.validated fp;
        while Hashtbl.length t.mem > t.mem_cap && not (Queue.is_empty t.order) do
          Hashtbl.remove t.mem (Queue.pop t.order)
        done);
    match path_of t fp with
    | None -> ()
    | Some path -> write_file t path raw
  end

let disk_entries t =
  match t.dir with
  | None -> []
  | Some d ->
    (try Array.to_list (Sys.readdir d) with Sys_error _ -> [])
    |> List.filter (fun f -> Filename.check_suffix f suffix)
    |> List.filter_map (fun f ->
           let path = Filename.concat d f in
           try Some (path, (Unix.stat path).Unix.st_mtime)
           with Unix.Unix_error _ | Sys_error _ -> None)

let gc t ~keep =
  let entries =
    disk_entries t |> List.sort (fun (_, a) (_, b) -> compare b a (* newest first *))
  in
  let victims = if keep <= 0 then entries else List.filteri (fun i _ -> i >= keep) entries in
  let deleted =
    List.fold_left
      (fun n (path, _) ->
        try
          Sys.remove path;
          n + 1
        with Sys_error _ ->
          bump t.s_io c_io;
          n)
      0 victims
  in
  locked t (fun () ->
      Hashtbl.reset t.mem;
      Queue.clear t.order;
      Hashtbl.reset t.validated;
      Queue.clear t.vorder);
  deleted

let stats t =
  {
    hits = Atomic.get t.s_hits;
    fast_hits = Atomic.get t.s_fast_hits;
    misses = Atomic.get t.s_misses;
    rejects = Atomic.get t.s_rejects;
    stores = Atomic.get t.s_stores;
    io_failures = Atomic.get t.s_io;
  }

let reset_stats t =
  List.iter
    (fun a -> Atomic.set a 0)
    [ t.s_hits; t.s_fast_hits; t.s_misses; t.s_rejects; t.s_stores; t.s_io ]
