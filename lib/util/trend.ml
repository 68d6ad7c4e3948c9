(* Counter trend ratchet. See the .mli for the contract.

   The history file is line-oriented JSON — one entry object per line
   inside a top-level "entries" array — so it can be read back with a
   plain substring scanner (no JSON dependency) and diffs stay
   one-line-per-change in review. *)

type entry = {
  section : string;
  workload : string;
  profile : string;
  counters : (string * int) list;
}

(* Entries written before profiles were recorded all came from the
   default build. *)
let default_profile = "dev"

(* ---------- scanning ---------- *)

let quoted_field line field =
  let needle = "\"" ^ field ^ "\":\"" in
  let nlen = String.length needle and len = String.length line in
  let rec find i =
    if i + nlen > len then None
    else if String.sub line i nlen = needle then Some (i + nlen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start -> (
    match String.index_from_opt line start '"' with
    | Some stop -> Some (String.sub line start (stop - start))
    | None -> None)

let counters_field line =
  let needle = "\"counters\":{" in
  let nlen = String.length needle and len = String.length line in
  let rec find i =
    if i + nlen > len then None
    else if String.sub line i nlen = needle then Some (i + nlen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start -> (
    match String.index_from_opt line start '}' with
    | None -> None
    | Some stop ->
      let body = String.sub line start (stop - start) in
      let pair chunk =
        match String.index_opt chunk ':' with
        | None -> None
        | Some colon ->
          let name = String.trim (String.sub chunk 0 colon) in
          let value =
            String.trim
              (String.sub chunk (colon + 1) (String.length chunk - colon - 1))
          in
          if String.length name >= 2 && name.[0] = '"' then
            Option.map
              (fun v -> (String.sub name 1 (String.length name - 2), v))
              (int_of_string_opt value)
          else None
      in
      Some (List.filter_map pair (String.split_on_char ',' body)))

let parse_line line =
  match (quoted_field line "section", quoted_field line "workload") with
  | Some section, Some workload ->
    Some
      {
        section;
        workload;
        profile = Option.value ~default:default_profile (quoted_field line "profile");
        counters = Option.value ~default:[] (counters_field line);
      }
  | _ -> None

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | content ->
    List.filter_map parse_line (String.split_on_char '\n' content)
  | exception Sys_error _ -> []

let last history ~section ~workload ~profile =
  List.fold_left
    (fun acc e ->
      if e.section = section && e.workload = workload && e.profile = profile then
        Some e.counters
      else acc)
    None history

(* ---------- the ratchet rule ---------- *)

let value counters name = Option.value ~default:0 (List.assoc_opt name counters)

(* hit counters are where more is better; everything else in the
   registry measures work done (flowpipes, abstraction builds, cache
   misses/rejects, IO failures). For the benefit counters the ratchet
   points the other way: losing previously-achieved warm starts or
   fast-tier cache hits on the same deterministic workload is the
   regression. *)
let benefit = [ "cache_hits"; "cache_fast_hits"; "warm_hits" ]
let is_work name = not (List.mem name benefit)

let hit_rate counters =
  let h = value counters "cache_hits" and m = value counters "cache_misses" in
  if h + m = 0 then None else Some (float_of_int h /. float_of_int (h + m))

let regressions ~prev cur =
  let names =
    List.sort_uniq compare (List.map fst prev @ List.map fst cur)
  in
  let work =
    List.filter_map
      (fun n ->
        let p = value prev n and c = value cur n in
        if is_work n && c > p then
          Some (Printf.sprintf "%s increased %d -> %d" n p c)
        else None)
      names
  in
  (* cache_hits decreases surface through the hit-rate check below; the
     other benefit counters have no natural denominator, so any drop on
     the same deterministic workload is flagged directly *)
  let lost =
    List.filter_map
      (fun n ->
        let p = value prev n and c = value cur n in
        if List.mem n benefit && n <> "cache_hits" && c < p then
          Some (Printf.sprintf "%s decreased %d -> %d" n p c)
        else None)
      names
  in
  let rate =
    match (hit_rate prev, hit_rate cur) with
    | Some rp, Some rc when rc < rp ->
      [ Printf.sprintf "cache hit rate decreased %.4f -> %.4f" rp rc ]
    | _ -> []
  in
  work @ lost @ rate

(* ---------- persistence ---------- *)

let entry_to_json e =
  let b = Buffer.create 128 in
  Printf.bprintf b
    "{\"section\":\"%s\",\"workload\":\"%s\",\"profile\":\"%s\",\"counters\":{"
    e.section e.workload e.profile;
  List.iteri
    (fun i (k, v) ->
      Printf.bprintf b "%s\"%s\":%d" (if i = 0 then "" else ",") k v)
    e.counters;
  Buffer.add_string b "}}";
  Buffer.contents b

let write path history =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "{\"version\":1,\"tool\":\"dwv bench counters ratchet\",\"entries\":[\n";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b (entry_to_json e))
    history;
  Buffer.add_string b "\n]}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc

(* A regressed snapshot is reported and NOT appended: appending it
   would make it the baseline, and a rerun in the same checkout would
   pass against it. *)
let record ~path ~section workloads =
  let profile = Build_profile.name in
  let history = load path in
  let msgs = ref [] in
  let additions =
    List.filter_map
      (fun (workload, counters) ->
        let counters = List.sort compare counters in
        match last history ~section ~workload ~profile with
        | Some prev when prev = counters -> None
        | Some prev -> (
          match regressions ~prev counters with
          | [] -> Some { section; workload; profile; counters }
          | found ->
            List.iter
              (fun m ->
                msgs := Printf.sprintf "[%s/%s] %s" section workload m :: !msgs)
              found;
            None)
        | None -> Some { section; workload; profile; counters })
      workloads
  in
  if additions <> [] then write path (history @ additions);
  List.rev !msgs
