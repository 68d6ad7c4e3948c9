(* Fixture stand-in for the parallel pool: gives the pool-capture check
   Pool.mapi call sites whose task closures it must inspect. *)

type t = unit

let create () = ()

let mapi (_ : t) f a = Array.mapi f a
