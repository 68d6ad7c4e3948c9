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

let check sys ~x0 ~steps ~substeps =
  if Array.length x0 <> sys.n then invalid_arg "Sampled_system: bad initial state";
  if steps < 0 then invalid_arg "Sampled_system: negative steps";
  if substeps < 1 then invalid_arg "Sampled_system: substeps must be >= 1"

(* The closed loop, streamed: one RK4 scratch and one state buffer per
   call, and every dense state handed to [emit] as it is computed —
   each period's start state, then its [substeps] RK4 states, so a
   period end is emitted again as the next period's start. The
   controller's output goes into the input slots before the period's
   first step, so a controller that returns its own argument (the
   scratch state) cannot alias what the steps overwrite. *)
let stream ?(substeps = 10) sys ~controller ~x0 ~steps emit =
  check sys ~x0 ~steps ~substeps;
  let w = Rk4.work sys.prog ~n:sys.n ~h:(sys.delta /. float_of_int substeps) in
  let x = Array.copy x0 in
  for _ = 1 to steps do
    let u = controller x in
    if Array.length u <> sys.m then invalid_arg "Sampled_system: controller arity";
    Rk4.load_input w u;
    emit x;
    for _ = 1 to substeps do
      Rk4.step_into w x x;
      emit x
    done
  done

type trace = {
  states : float array array;   (* state at each sample time, length steps+1 *)
  inputs : float array array;   (* ZOH input applied in each period, length steps *)
  dense : float array array;    (* all substep states, for dense checking *)
}

(* Simulate [steps] sampling periods from [x0] under [controller], with
   [substeps] RK4 steps per period: [stream] with a callback that keeps
   a copy of every dense state and a controller wrapper that keeps a
   copy of every input. The sample-instant states are the period
   starts, then the last period's end. *)
let simulate ?(substeps = 10) sys ~controller ~x0 ~steps =
  check sys ~x0 ~steps ~substeps;
  let inputs = Array.make steps [||] in
  let dense = Array.make (steps * (substeps + 1)) x0 in
  let k = ref 0 and j = ref 0 in
  stream ~substeps sys
    ~controller:(fun x ->
      let u = controller x in
      inputs.(!k) <- Array.copy u;
      incr k;
      u)
    ~x0 ~steps
    (fun x ->
      dense.(!j) <- Array.copy x;
      incr j);
  let states =
    Array.init (steps + 1) (fun k ->
        if k < steps then dense.(k * (substeps + 1))
        else if steps = 0 then x0
        else dense.((steps * (substeps + 1)) - 1))
  in
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
