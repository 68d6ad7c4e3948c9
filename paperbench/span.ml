(* In-memory nested spans, recorded by the benchmark around its own calls
   into the library's layers (the library itself is not instrumented).

   A span has a name, a start, a stop and the span that caused it. Each
   domain keeps its own stack of open spans, so a span opened inside a
   pool task on a worker domain still gets the right parent when the
   caller passes it explicitly. Spans are kept in memory and written out
   once, when the pass ends. With tracing disabled [with_span] is a plain
   call: no clock read, no allocation. *)

type t = { id : int; parent : int; name : string; start : float; stop : float }

let enabled = ref false
let recorded : t list ref = ref []
let mu = Mutex.create ()
let next_id = Atomic.make 1
let stack : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

(* Innermost span open on this domain, 0 at top level. *)
let current () = match Domain.DLS.get stack with id :: _ -> id | [] -> 0

let with_span ?parent name f =
  if not !enabled then f ()
  else begin
    let parent = match parent with Some p -> p | None -> current () in
    let id = Atomic.fetch_and_add next_id 1 in
    let saved = Domain.DLS.get stack in
    Domain.DLS.set stack (id :: saved);
    let start = Dwv_util.Mono.now () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Dwv_util.Mono.now () in
        Domain.DLS.set stack saved;
        Mutex.protect mu (fun () ->
            recorded := { id; parent; name; start; stop } :: !recorded))
      f
  end

let all () = List.rev !recorded
let duration s = s.stop -. s.start
let children spans s = List.filter (fun c -> c.parent = s.id) spans

(* Length of the union of [s]'s children's intervals: children on
   different domains overlap, so their durations must not be summed. *)
let covered spans s =
  let ivs =
    List.sort compare (List.map (fun c -> (c.start, c.stop)) (children spans s))
  in
  let rec go acc (lo, hi) = function
    | [] -> acc +. (hi -. lo)
    | (a, b) :: rest ->
      if a > hi then go (acc +. (hi -. lo)) (a, b) rest else go acc (lo, Float.max hi b) rest
  in
  match ivs with [] -> 0.0 | first :: rest -> go 0.0 first rest

(* Self time: the span's duration minus the part its children cover. *)
let self_time spans s = duration s -. covered spans s

(* Spans aggregated by their name path ("pass/learn/verify"): count,
   summed duration and summed self time, in first-seen order. *)
let aggregate spans =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec path s =
    match Hashtbl.find_opt by_id s.parent with
    | Some p -> path p ^ "/" ^ s.name
    | None -> s.name
  in
  let order = ref [] and rows = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let key = path s in
      let n, wall, self =
        match Hashtbl.find_opt rows key with
        | Some r -> r
        | None ->
          order := key :: !order;
          (0, 0.0, 0.0)
      in
      Hashtbl.replace rows key (n + 1, wall +. duration s, self +. self_time spans s))
    spans;
  List.rev_map (fun k -> (k, Hashtbl.find rows k)) !order

let to_json spans =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[";
  List.iteri
    (fun i s ->
      Printf.bprintf b "%s\n {\"id\": %d, \"parent\": %d, \"name\": %S, \"start\": %.9f, \"stop\": %.9f}"
        (if i = 0 then "" else ",")
        s.id s.parent s.name s.start s.stop)
    spans;
  Buffer.add_string b "\n]\n";
  Buffer.contents b
