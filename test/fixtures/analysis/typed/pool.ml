(* Fixture stand-in for the parallel pool: gives the pool-capture and
   domain-safety checks Pool.map/mapi call sites whose task closures
   they must inspect. *)

type t = unit

let create () = ()

let mapi (_ : t) f a = Array.mapi f a

let map (_ : t) f a = Array.map f a
