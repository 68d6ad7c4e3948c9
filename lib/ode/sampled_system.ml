(* Sampled-data closed-loop systems: the plant x' = f(x, u) driven by a
   feedback controller that reads the state every [delta] seconds and holds
   its output constant in between (zero-order hold), exactly the system
   model of Section 2 of the paper. *)

module Expr = Dwv_expr.Expr

type t = {
  f : Expr.t array;     (* dynamics right-hand side *)
  n : int;              (* state dimension *)
  m : int;              (* input dimension *)
  delta : float;        (* sampling period *)
  prog : Expr.program;  (* [f] compiled once, for every simulation *)
}

let make ~f ~n ~m ~delta =
  if Array.length f <> n then invalid_arg "Sampled_system.make: |f| must equal n";
  if delta <= 0.0 then invalid_arg "Sampled_system.make: delta must be positive";
  { f; n; m; delta; prog = Expr.compile f }

type trace = {
  states : float array array;   (* state at each sample time, length steps+1 *)
  inputs : float array array;   (* ZOH input applied in each period, length steps *)
  dense : float array array;    (* all substep states, for dense checking *)
}

(* Simulate [steps] sampling periods from [x0] under [controller], with
   [substeps] RK4 steps per period. *)
let simulate ?(substeps = 10) sys ~controller ~x0 ~steps =
  if Array.length x0 <> sys.n then invalid_arg "Sampled_system.simulate: bad initial state";
  if steps < 0 then invalid_arg "Sampled_system.simulate: negative steps";
  if substeps < 1 then invalid_arg "Sampled_system.simulate: substeps must be >= 1";
  let states = Array.make (steps + 1) x0 in
  let inputs = Array.make steps [||] in
  (* each period contributes its [substeps + 1] RK4 states, both
     endpoints included *)
  let dense = Array.make (steps * (substeps + 1)) x0 in
  for k = 0 to steps - 1 do
    let u = controller states.(k) in
    if Array.length u <> sys.m then invalid_arg "Sampled_system.simulate: controller arity";
    inputs.(k) <- u;
    let seg = Rk4.integrate_dense ~f:sys.prog ~u ~duration:sys.delta ~substeps states.(k) in
    Array.blit seg 0 dense (k * (substeps + 1)) (substeps + 1);
    states.(k + 1) <- seg.(substeps)
  done;
  { states; inputs; dense }

(* The discrete one-period transition map x -> x(delta); this is the step
   function the RL baselines treat as their environment dynamics. *)
let step ?(substeps = 10) sys ~u x =
  Rk4.integrate ~f:sys.prog ~u ~duration:sys.delta ~substeps x

(* Max-norm bound of f over interval boxes; used to bloat flowpipe
   segments between sampling instants. *)
let field_bound sys ~x ~u =
  let iv = Expr.ieval_vec sys.f ~x ~u in
  Array.fold_left
    (fun acc i ->
      Float.max acc (Float.max (Float.abs (Dwv_interval.Interval.lo i))
                       (Float.abs (Dwv_interval.Interval.hi i))))
    0.0 iv
