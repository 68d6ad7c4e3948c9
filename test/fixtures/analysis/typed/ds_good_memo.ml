(* The fixed shape: same memo table, but every access goes through a
   Mutex.protect critical section (the accessor itself locks, as
   taylor_model.ml does). The domain-safety lint must stay silent. *)

let memo : (int, float) Hashtbl.t = Hashtbl.create 64
let memo_mu = Mutex.create ()

let lookup n =
  Mutex.protect memo_mu (fun () ->
      match Hashtbl.find_opt memo n with
      | Some v -> v
      | None ->
        let v = float_of_int n *. 2.0 in
        Hashtbl.add memo n v;
        v)

let hits = Atomic.make 0

(* A publish-once registry is an Atomic behind an API. *)
let plans = Publish_once.create ()

let run pool xs =
  Pool.map pool
    (fun x ->
      Atomic.incr hits;
      Publish_once.find_or_publish plans x (fun () -> lookup x))
    xs
