(* Fixture stand-in for Dwv_util.Publish_once: an Atomic behind an API,
   which the state inventory classifies by its type. *)

type ('k, 'v) t = ('k * 'v) list Atomic.t

let create () : ('k, 'v) t = Atomic.make []

let find_or_publish (t : ('k, 'v) t) k f =
  match List.assoc_opt k (Atomic.get t) with
  | Some v -> v
  | None ->
    let v = f () in
    Atomic.set t ((k, v) :: Atomic.get t);
    v
