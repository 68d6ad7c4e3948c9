(* An immutable association list behind one Atomic: publication is a
   compare-and-set of the list head, so a reader never observes a torn
   entry and a domain that loses the race retries against the list that
   beat it. *)

type ('k, 'v) t = ('k * 'v) list Atomic.t

let create () = Atomic.make []

let find_or_publish t key build =
  match List.assoc_opt key (Atomic.get t) with
  | Some v -> v
  | None ->
    let v = build () in
    let rec publish () =
      let cur = Atomic.get t in
      match List.assoc_opt key cur with
      | Some existing -> existing
      | None -> if Atomic.compare_and_set t cur ((key, v) :: cur) then v else publish ()
    in
    publish ()

let size t = List.length (Atomic.get t)
