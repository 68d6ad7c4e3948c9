(* The Stdlib-qualified spelling: the float-of-string rule strips the
   qualifier before matching, so this fires exactly like fos_bad.ml. *)

let parse s = Stdlib.float_of_string s
