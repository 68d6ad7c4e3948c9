(* Pool-capture fixture: task closures that share a local mutable value
   across domains, and a clean counterpart. The typed pool-capture check
   must flag [pool_hot] and [pool_helper] and stay silent on
   [pool_clean]. *)

(* The task bumps a ref the enclosing function owns: every domain the
   tasks land on writes the same cell. *)
let pool_hot (p : Pool.t) (xs : float array) =
  let hits = ref 0 in
  let out =
    Pool.mapi p
      (fun i x ->
        if x > 0.0 then incr hits;
        x +. float_of_int i)
      xs
  in
  (out, !hits)

(* The same race one call away, through a local helper. *)
let pool_helper (p : Pool.t) (xs : float array) =
  let seen : (int, float) Hashtbl.t = Hashtbl.create 8 in
  let note i x = Hashtbl.replace seen i x in
  Pool.mapi p (fun i x -> note i x; x) xs

(* Per-task state only: the ref is created inside the task, and the
   count is combined on the caller. *)
let pool_clean (p : Pool.t) (xs : float array) =
  let counts =
    Pool.mapi p
      (fun _ x ->
        let n = ref 0 in
        if x > 0.0 then incr n;
        !n)
      xs
  in
  Array.fold_left ( + ) 0 counts
