(* Shared state created behind a helper: [make_table ()] builds a fresh
   table, but [cache] is ONE module-level table that every task of the
   Pool.map reads and writes. The binding is a function call, not a
   Hashtbl.create, so only an inventory that classifies state by its type
   sees it. The domain-safety lint must flag the Pool.map call site. *)

let make_table () : (int, float) Hashtbl.t = Hashtbl.create 64

let cache = make_table ()

let lookup n =
  match Hashtbl.find_opt cache n with
  | Some v -> v
  | None ->
    let v = float_of_int n *. 2.0 in
    Hashtbl.add cache n v;
    v

let run pool xs = Pool.map pool (fun x -> lookup x) xs
