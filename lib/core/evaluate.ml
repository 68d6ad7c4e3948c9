(* Experimental (simulation-based) evaluation: the SC and GR columns of
   Table 1. The system is discretized with zero-order hold and simulated
   from random initial states; a rollout is SAFE when no (densely sampled)
   state enters the unsafe box, and GOAL-REACHING when some state enters
   the goal box within the horizon. The paper uses 500 rollouts. *)

module Box = Dwv_interval.Box
module Sampled_system = Dwv_ode.Sampled_system
module Rng = Dwv_util.Rng
module Stats = Dwv_util.Stats
module Pool = Dwv_parallel.Pool

type rollout = { safe : bool; reached : bool }

(* Allocation-free loops: they run on every dense state of every
   rollout. *)
let point_finite p =
  let i = ref 0 in
  while !i < Array.length p && Float.is_finite p.(!i) do
    incr i
  done;
  !i = Array.length p

let rec in_any p = function [] -> false | b :: rest -> Box.contains b p || in_any p rest

(* The checks run on the states as the simulator streams them; no trace
   is built. *)
let rollout ?substeps ?avoid ~sys ~controller ~(spec : Spec.t) x0 =
  let avoid = match avoid with Some l -> l | None -> [ spec.Spec.unsafe ] in
  let safe = ref true and reached = ref false in
  (* a NaN state would vacuously pass the box membership tests (NaN
     compares false against every bound), counting a blown-up simulation
     as safe; a non-finite trajectory is unsafe and never goal-reaching *)
  Sampled_system.stream ?substeps sys ~controller ~x0 ~steps:spec.Spec.steps (fun p ->
      let finite = point_finite p in
      if not finite || in_any p avoid then safe := false;
      if finite && Box.contains spec.Spec.goal p then reached := true);
  { safe = !safe; reached = !reached }

type rates = { safe_percent : float; goal_percent : float; n : int }

let rates ?(n = 500) ?substeps ?avoid ?pool ~rng ~sys ~controller ~spec () =
  if n < 1 then invalid_arg "Evaluate.rates: need at least one rollout";
  (* one child stream per rollout, split from [rng] before any simulation:
     rollout i's initial state is a pure function of the parent seed and i,
     so the rates are bit-identical whether the rollouts run sequentially
     or sharded across domains (and the parent stream advances the same
     either way) *)
  let streams = Rng.split_n rng n in
  let one i =
    let x0 = Box.sample streams.(i) spec.Spec.x0 in
    let r = rollout ?substeps ?avoid ~sys ~controller ~spec x0 in
    (r.safe, r.reached)
  in
  let indices = Array.init n (fun i -> i) in
  let outcomes =
    match pool with
    | Some pool when Pool.domains pool > 1 && n > 1 -> Pool.map pool one indices
    | _ -> Array.map one indices
  in
  {
    safe_percent = Stats.rate_percent (Array.map fst outcomes);
    goal_percent = Stats.rate_percent (Array.map snd outcomes);
    n;
  }

(* A single concrete counterexample to safety, if one of [n] random
   rollouts finds it (used to justify "Unsafe" verdicts for baselines the
   formal analysis cannot decide). *)
let find_unsafe_rollout ?(n = 500) ?substeps ~rng ~sys ~controller ~spec () =
  let rec loop i =
    if i >= n then None
    else begin
      let x0 = Box.sample rng spec.Spec.x0 in
      let r = rollout ?substeps ~sys ~controller ~spec x0 in
      if not r.safe then Some x0 else loop (i + 1)
    end
  in
  loop 0

let pp_rates ppf r =
  Fmt.pf ppf "SC = %.1f%%, GR = %.1f%% (n = %d)" r.safe_percent r.goal_percent r.n
