(* Falsification: search for a concrete counterexample trajectory. The
   related-work section of the paper contrasts verification-in-the-loop
   with falsification-driven design (VerifAI-style); this module provides
   the falsification half: a robustness metric over simulated traces,
   minimized by random multistart plus coordinate hill climbing over the
   initial state. A negative-robustness witness refutes safety (or
   goal-reaching) definitively - useful to justify "Unsafe" verdicts for
   baseline controllers that over-approximate verification cannot decide. *)

module Box = Dwv_interval.Box
module I = Dwv_interval.Interval
module Sampled_system = Dwv_ode.Sampled_system
module Rng = Dwv_util.Rng

(* Signed distance from a point to a box: negative inside (depth to the
   nearest face), positive outside (Euclidean gap). It is written into
   [cell.(k)] rather than returned, because a float returned from a call
   is boxed and the robustness monitor runs this on every dense state. *)
let signed_distance_into cell k (box : Box.t) x =
  let n = Box.dim box in
  if Box.contains box x then begin
    let depth = ref infinity in
    for i = 0 to n - 1 do
      let iv = box.(i) in
      let d = Float.min (x.(i) -. iv.I.lo) (iv.I.hi -. x.(i)) in
      if d < !depth then depth := d
    done;
    cell.(k) <- -. !depth
  end
  else begin
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      let iv = box.(i) in
      let gap = Float.max 0.0 (Float.max (iv.I.lo -. x.(i)) (x.(i) -. iv.I.hi)) in
      acc := !acc +. (gap *. gap)
    done;
    cell.(k) <- sqrt !acc
  end

let signed_distance box x =
  let cell = [| 0.0 |] in
  signed_distance_into cell 0 box x;
  cell.(0)

type property =
  | Safety          (* falsified when some state enters the avoid set *)
  | Goal_reaching   (* falsified when no state ever enters the goal box *)

(* Signed distance to a union of boxes: the minimum of the per-box signed
   distances (negative inside any member, positive Euclidean gap to the
   nearest member outside all of them), folded in list order into
   [cell.(0)], which the caller starts at infinity; [cell.(1)] holds
   each box's distance. *)
let rec avoid_distance_into cell x = function
  | [] -> ()
  | box :: rest ->
    signed_distance_into cell 1 box x;
    cell.(0) <- Float.min cell.(0) cell.(1);
    avoid_distance_into cell x rest

let avoid_distance avoid x =
  let cell = [| infinity; 0.0 |] in
  avoid_distance_into cell x avoid;
  cell.(0)

(* Trace robustness, computed on the states as the simulator streams
   them. Safety: min over the dense trace of the distance to the avoid
   set ([avoid] defaults to the spec's single unsafe box; obstacle-rich
   scenarios pass their whole multi-box avoid list). Goal-reaching:
   -(min distance to the goal box). Both boxes are closed
   (Box.contains / Verifier.goal_step semantics), so the boundary cases
   differ: robustness 0 means *touching* — which already violates safety
   but still counts as reaching the goal. See [falsified] below. The
   running minimum lives in [cell.(2)]: a float ref captured by the
   callback would be boxed on every update. *)
let robustness ?avoid ~sys ~controller ~(spec : Spec.t) ~property x0 =
  let avoid = match avoid with Some l -> l | None -> [ spec.Spec.unsafe ] in
  let cell = [| 0.0; 0.0; infinity |] in
  let steps = spec.Spec.steps in
  match property with
  | Safety ->
    Sampled_system.stream sys ~controller ~x0 ~steps (fun x ->
        cell.(0) <- infinity;
        avoid_distance_into cell x avoid;
        cell.(2) <- Float.min cell.(2) cell.(0));
    cell.(2)
  | Goal_reaching ->
    let goal = spec.Spec.goal in
    Sampled_system.stream sys ~controller ~x0 ~steps (fun x ->
        signed_distance_into cell 0 goal x;
        cell.(2) <- Float.min cell.(2) cell.(0));
    -.cell.(2)

type counterexample = {
  x0 : float array;        (* falsifying initial state (inside X_0) *)
  robustness : float;      (* the (negative) achieved robustness *)
  property : property;
}

(* Coordinate hill climbing within X_0, shrinking the step geometrically,
   from [x0] whose robustness is [rob0]. *)
let refine_from ?avoid ~sys ~controller ~spec ~property ~iters x0 rob0 =
  let x = Array.copy x0 in
  let n = Array.length x in
  let rob = ref rob0 in
  let widths = Box.widths spec.Spec.x0 in
  let lo = Box.lo spec.Spec.x0 and hi = Box.hi spec.Spec.x0 in
  let step = ref 0.25 in
  for _ = 1 to iters do
    for i = 0 to n - 1 do
      let try_delta d =
        let old = x.(i) in
        x.(i) <- Dwv_util.Floatx.clamp ~lo:lo.(i) ~hi:hi.(i) (old +. d);
        let r = robustness ?avoid ~sys ~controller ~spec ~property x in
        if r < !rob then rob := r else x.(i) <- old
      in
      let d = !step *. widths.(i) in
      try_delta d;
      try_delta (-.d)
    done;
    step := !step *. 0.6
  done;
  (x, !rob)

let refine ?avoid ~sys ~controller ~spec ~property ~iters x0 =
  refine_from ?avoid ~sys ~controller ~spec ~property ~iters x0
    (robustness ?avoid ~sys ~controller ~spec ~property x0)

(* Closed-box boundary semantics: a trace touching the avoid set is
   unsafe (r = 0 falsifies Safety), but a trace touching the goal box has
   reached it (Goal_reaching needs r < 0 strictly — otherwise the hill
   climber "falsifies" scenarios whose trajectories merely graze a goal
   face, e.g. an uncertain parameter pushed to its range edge inside the
   augmented goal). *)
let falsified ~property r =
  match property with Safety -> r <= 0.0 | Goal_reaching -> r < 0.0

let search ?(attempts = 50) ?(refine_iters = 8) ?avoid ~rng ~sys ~controller
    ~(spec : Spec.t) ~property () =
  (* random multistart, keep the most promising candidate *)
  let best_x = ref (Box.center spec.Spec.x0) in
  let best_r = ref (robustness ?avoid ~sys ~controller ~spec ~property !best_x) in
  for _ = 2 to attempts do
    let x0 = Box.sample rng spec.Spec.x0 in
    let r = robustness ?avoid ~sys ~controller ~spec ~property x0 in
    if r < !best_r then begin
      best_r := r;
      best_x := x0
    end
  done;
  let x, r =
    if falsified ~property !best_r then (!best_x, !best_r)
    else
      (* robustness is a pure function of the state: the winner's score
         is the hill climb's starting value, not a second rollout *)
      refine_from ?avoid ~sys ~controller ~spec ~property ~iters:refine_iters !best_x !best_r
  in
  if falsified ~property r then Some { x0 = x; robustness = r; property }
  else None

let pp_counterexample ppf c =
  Fmt.pf ppf "%s falsified from x0 = [%a] (robustness %.4g)"
    (match c.property with Safety -> "safety" | Goal_reaching -> "goal-reaching")
    Fmt.(array ~sep:comma (fmt "%g"))
    c.x0 c.robustness
