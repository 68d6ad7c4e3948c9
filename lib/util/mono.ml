(* Monotone-clamped wall clock (Mtime-style counter without the mtime
   dependency): a CAS loop over the latest observed instant makes the
   reading non-decreasing process-wide, so deadline arithmetic and bench
   timings never see time run backwards, from any domain.

   The latest instant is kept as integer nanoseconds in an [int
   Atomic.t], so advancing it boxes nothing: a call allocates the same
   number of minor words whether or not the clock moved since the last
   one, which keeps the bench's minor-word counts exact. *)

let latest_ns = Atomic.make min_int

let rec advance ns =
  let seen = Atomic.get latest_ns in
  if ns <= seen then seen
  else if Atomic.compare_and_set latest_ns seen ns then ns
  else advance ns

let now () = float_of_int (advance (int_of_float (Unix.gettimeofday () *. 1e9))) *. 1e-9
