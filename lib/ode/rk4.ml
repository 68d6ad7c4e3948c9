(* Classical fourth-order Runge-Kutta for the numeric (non-validated)
   simulation side of the reproduction: Monte-Carlo evaluation of learned
   controllers and the environment the RL baselines train in.

   The field is a compiled [Expr.program]; each call allocates its
   scratch (the register file, the four stages and the stage argument)
   once and reuses it for every substep, so concurrent calls share
   nothing mutable. *)

module Expr = Dwv_expr.Expr

type work = {
  regs : float array;
  k1 : float array;
  k2 : float array;
  k3 : float array;
  k4 : float array;
  arg : float array;
}

let work f x =
  let n = Expr.outputs f in
  if Array.length x <> n then invalid_arg "Rk4: state dimension differs from the field's";
  {
    regs = Array.make (Expr.slots f) 0.0;
    k1 = Array.make n 0.0;
    k2 = Array.make n 0.0;
    k3 = Array.make n 0.0;
    k4 = Array.make n 0.0;
    arg = Array.make n 0.0;
  }

(* One RK4 step of x' = f(x, u) from [x] into [out] ([out] may be [x]:
   the last loop reads x.(i) only to write out.(i)). The operation order
   is part of the contract — stage arguments (alpha k_i) + x_i, then
   x_i + (h/6)(((k1 + 2 k2) + 2 k3) + k4) — and the golden simulation
   digests in test/test_ode.ml pin the resulting bits. *)
let step_into w ~f ~u ~h x out =
  let { regs; k1; k2; k3; k4; arg } = w in
  let n = Array.length x in
  let h2 = h /. 2.0 in
  Expr.run f ~regs ~x ~u k1;
  for i = 0 to n - 1 do
    arg.(i) <- (h2 *. k1.(i)) +. x.(i)
  done;
  Expr.run f ~regs ~x:arg ~u k2;
  for i = 0 to n - 1 do
    arg.(i) <- (h2 *. k2.(i)) +. x.(i)
  done;
  Expr.run f ~regs ~x:arg ~u k3;
  for i = 0 to n - 1 do
    arg.(i) <- (h *. k3.(i)) +. x.(i)
  done;
  Expr.run f ~regs ~x:arg ~u k4;
  let h6 = h /. 6.0 in
  for i = 0 to n - 1 do
    out.(i) <- x.(i) +. (h6 *. (k1.(i) +. (2.0 *. k2.(i)) +. (2.0 *. k3.(i)) +. k4.(i)))
  done

let step ~f ~u ~h x =
  let out = Array.make (Array.length x) 0.0 in
  step_into (work f x) ~f ~u ~h x out;
  out

(* Integrate over [0, duration] with [substeps] RK4 steps, returning the
   final state. *)
let integrate ~f ~u ~duration ~substeps x =
  if substeps < 1 then invalid_arg "Rk4.integrate: substeps must be >= 1";
  let h = duration /. float_of_int substeps in
  let w = work f x in
  let x = Array.copy x in
  for _ = 1 to substeps do
    step_into w ~f ~u ~h x x
  done;
  x

(* Same, but also return the intermediate states (for dense safety
   checking of simulated traces); index 0 is [x] itself. *)
let integrate_dense ~f ~u ~duration ~substeps x =
  if substeps < 1 then invalid_arg "Rk4.integrate_dense: substeps must be >= 1";
  let h = duration /. float_of_int substeps in
  let w = work f x in
  let states = Array.make (substeps + 1) x in
  for i = 1 to substeps do
    let next = Array.make (Array.length x) 0.0 in
    step_into w ~f ~u ~h states.(i - 1) next;
    states.(i) <- next
  done;
  states
