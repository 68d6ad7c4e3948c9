(* Classical fourth-order Runge-Kutta for the numeric (non-validated)
   simulation side of the reproduction: Monte-Carlo evaluation of learned
   controllers and the environment the RL baselines train in.

   The field is a compiled [Expr.program], and the stages run inside its
   register file: the constants are loaded once per scratch, the input
   once per {!load_input}, and each stage argument is written straight
   into the state slots, so a substep copies nothing but the four stage
   vectors out of the output slots. Every scratch is private to the
   call that made it, so concurrent calls share nothing mutable. *)

module Expr = Dwv_expr.Expr

type work = {
  f : Expr.program;
  h : float;  (* the step size, boxed once here rather than per call *)
  regs : float array;  (* constants loaded at creation *)
  xs : int;  (* slot of x_0; the program reads x_0 .. x_(nx-1) *)
  nx : int;
  us : int;  (* slot of u_0; the program reads u_0 .. u_(nu-1) *)
  nu : int;
  outs : int array;  (* output slots *)
  k1 : float array;
  k2 : float array;
  k3 : float array;
  k4 : float array;
}

let work f ~n ~h =
  if n <> Expr.outputs f then invalid_arg "Rk4: state dimension differs from the field's";
  if Expr.vars f > n then invalid_arg "Rk4: the field reads a state component beyond its dimension";
  {
    f;
    h;
    regs = Expr.registers f;
    xs = Expr.var_slot f 0;
    nx = Expr.vars f;
    us = Expr.input_slot f 0;
    nu = Expr.inputs f;
    outs = Array.init n (Expr.output_slot f);
    k1 = Array.make n 0.0;
    k2 = Array.make n 0.0;
    k3 = Array.make n 0.0;
    k4 = Array.make n 0.0;
  }

let load_input w u =
  for j = 0 to w.nu - 1 do
    w.regs.(w.us + j) <- u.(j)
  done

(* Evaluate the field at the loaded state slots into [k]. Every output
   is copied out before the caller writes the next stage argument: an
   output slot can be a state slot ([x1' = x2]). *)
let stage w k =
  Expr.exec w.f w.regs;
  let regs = w.regs and outs = w.outs in
  for i = 0 to Array.length k - 1 do
    k.(i) <- regs.(outs.(i))
  done

(* One RK4 step of x' = f(x, u) from [x] into [out] ([out] may be [x]:
   the last loop reads x.(i) only to write out.(i)). The operation order
   is part of the contract — stage arguments (alpha k_i) + x_i, then
   x_i + (h/6)(((k1 + 2 k2) + 2 k3) + k4) — and the golden simulation
   digests in test/test_ode.ml pin the resulting bits. *)
let step_into w x out =
  let { h; regs; xs; nx; k1; k2; k3; k4; _ } = w in
  let h2 = h /. 2.0 in
  for i = 0 to nx - 1 do
    regs.(xs + i) <- x.(i)
  done;
  stage w k1;
  for i = 0 to nx - 1 do
    regs.(xs + i) <- (h2 *. k1.(i)) +. x.(i)
  done;
  stage w k2;
  for i = 0 to nx - 1 do
    regs.(xs + i) <- (h2 *. k2.(i)) +. x.(i)
  done;
  stage w k3;
  for i = 0 to nx - 1 do
    regs.(xs + i) <- (h *. k3.(i)) +. x.(i)
  done;
  stage w k4;
  let h6 = h /. 6.0 in
  for i = 0 to Array.length k1 - 1 do
    out.(i) <- x.(i) +. (h6 *. (k1.(i) +. (2.0 *. k2.(i)) +. (2.0 *. k3.(i)) +. k4.(i)))
  done

let step ~f ~u ~h x =
  let w = work f ~n:(Array.length x) ~h in
  load_input w u;
  let out = Array.make (Array.length x) 0.0 in
  step_into w x out;
  out

(* Integrate over [0, duration] with [substeps] RK4 steps, returning the
   final state. *)
let integrate ~f ~u ~duration ~substeps x =
  if substeps < 1 then invalid_arg "Rk4.integrate: substeps must be >= 1";
  let h = duration /. float_of_int substeps in
  let w = work f ~n:(Array.length x) ~h in
  load_input w u;
  let x = Array.copy x in
  for _ = 1 to substeps do
    step_into w x x
  done;
  x
