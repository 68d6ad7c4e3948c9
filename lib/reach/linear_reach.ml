(* Flow*-style reachability for LTI systems under linear state feedback.

   The continuous plant x' = A x + B u is sampled with period delta and
   zero-order hold, giving the exact discrete closed loop
       x[k+1] = (A_d + B_d K) x[k],
   with A_d = e^{A delta} and B_d = (int_0^delta e^{A s} ds) B. Zonotopes
   are closed under this linear map, so the sample-instant reach sets are
   computed EXACTLY (up to floating point). Between samples the flow is
   enclosed with a Picard-style box argument, which adds the conservatism
   a continuous-time tool like Flow* would.

   The flowpipe is one kernel over float arrays the call owns: the
   zonotope is a center and a row-major generator matrix, every box a
   pair of lo/hi arrays, and each operation performs the IEEE operations
   of the Box/Interval code it replaces in the same order (DESIGN.md
   §11.3 has the contract and the soundness argument). Interval records
   are built only for the returned flowpipe. *)

module Mat = Dwv_la.Mat
module I = Dwv_interval.Interval
module Box = Dwv_interval.Box
module Zonotope = Dwv_geometry.Zonotope

type lti = { a : Mat.t; b : Mat.t }

type plant = {
  delta : float;
  n : int;
  m : int;
  ad : Mat.t;
  bd : Mat.t;
  a_flat : float array;  (* A, n×n row-major *)
  b_flat : float array;  (* B, n×m row-major *)
}

(* ZOH discretisation (exact, via the augmented-matrix integral), once
   per (plant, delta). *)
let prepare ~delta { a; b } =
  let ad = Mat.expm (Mat.scale delta a) in
  let bd = Mat.matmul (Mat.integral_expm a delta) b in
  {
    delta;
    n = fst (Mat.dims a);
    m = snd (Mat.dims b);
    ad;
    bd;
    a_flat = Mat.to_flat a;
    b_flat = Mat.to_flat b;
  }

let discretize ~delta sys =
  let (p : plant) = prepare ~delta sys in
  (p.ad, p.bd)

(* Interval range of K x over a zonotope (tight per output row via the
   support function). *)
let gain_range ~gain z = Zonotope.to_box (Zonotope.linear_map gain z)

(* ---------- the kernel ---------- *)

(* Scratch of the inter-sample enclosure: the plant's flat A (n×n) and
   B (n×m), the period, the field-range accumulator, and the boxes of
   one step as lo/hi pairs: the sample box x, the next sample box, the
   control box u, the Picard box e and its candidate. *)
type work = {
  n : int;
  m : int;
  a : float array;
  b : float array;
  dt : float;
  acc : float array;
  xlo : float array;
  xhi : float array;
  nlo : float array;
  nhi : float array;
  ulo : float array;
  uhi : float array;
  elo : float array;
  ehi : float array;
  clo : float array;
  chi : float array;
}

let work ~n ~m ~a ~b ~dt =
  let v k = Array.make k 0.0 in
  {
    n; m; a; b; dt; acc = v 2;
    xlo = v n; xhi = v n; nlo = v n; nhi = v n; ulo = v m; uhi = v m;
    elo = v n; ehi = v n; clo = v n; chi = v n;
  }

(* [acc := Interval.add acc (Interval.scale s [tlo, thi])] on the pair
   acc.(0), acc.(1), each result widened as those functions widen it. *)
let[@inline] add_scaled acc s tlo thi =
  let sl = if s >= 0.0 then s *. tlo else s *. thi
  and sh = if s >= 0.0 then s *. thi else s *. tlo in
  let ss = I.widen_slack I.widen_eps sl sh in
  let al = acc.(0) +. (sl -. ss) and ah = acc.(1) +. (sh +. ss) in
  let sa = I.widen_slack I.widen_eps al ah in
  acc.(0) <- al -. sa;
  acc.(1) <- ah +. sa

(* The Picard candidate x + [0, dt] f(e, u), row by row: the field
   range (A e + B u) summed from [0, 0] over A's terms, then B's, and
   the candidate's bounds validated and widened as [widen (make lo hi)].
   Raw bounds go to [raw_lo]/[raw_hi], widened ones to [clo]/[chi]. *)
let candidate w ~raw_lo ~raw_hi =
  let n = w.n and m = w.m and acc = w.acc in
  for i = 0 to n - 1 do
    acc.(0) <- 0.0;
    acc.(1) <- 0.0;
    for j = 0 to n - 1 do
      add_scaled acc w.a.((i * n) + j) w.elo.(j) w.ehi.(j)
    done;
    for k = 0 to m - 1 do
      add_scaled acc w.b.((i * m) + k) w.ulo.(k) w.uhi.(k)
    done;
    let l = w.xlo.(i) +. Float.min 0.0 (w.dt *. acc.(0))
    and h = w.xhi.(i) +. Float.max 0.0 (w.dt *. acc.(1)) in
    let s = I.checked_slack I.widen_eps l h in
    raw_lo.(i) <- l;
    raw_hi.(i) <- h;
    w.clo.(i) <- l -. s;
    w.chi.(i) <- h +. s
  done

(* [Box.bloat 1e-9] on e, in place. Rounding_flow allow: additive
   outward padding; rounding lo -. eps to nearest can never land above
   lo, so the result still contains the input box. *)
let bloat w =
  for i = 0 to w.n - 1 do
    let l = w.elo.(i) -. 1e-9 and h = w.ehi.(i) +. 1e-9 in
    I.check l h;
    w.elo.(i) <- l;
    w.ehi.(i) <- h
  done

(* [Box.scale_about_center 1.2] on e, in place. Rounding_flow allow: an
   inflation heuristic seeding Picard iteration; the downstream subset
   test certifies the candidate, not this step. *)
let inflate w =
  for i = 0 to w.n - 1 do
    let lo = w.elo.(i) and hi = w.ehi.(i) in
    let c = 0.5 *. (lo +. hi) and r = 0.5 *. (hi -. lo) *. 1.2 in
    let l = c -. r and h = c +. r in
    I.check l h;
    w.elo.(i) <- l;
    w.ehi.(i) <- h
  done

(* [Box.subset candidate e]. *)
let settled w =
  let ok = ref true in
  for i = 0 to w.n - 1 do
    if not (w.elo.(i) <= w.clo.(i) && w.chi.(i) <= w.ehi.(i)) then ok := false
  done;
  !ok

(* Up to 31 candidates: the first that lies inside its e encloses the
   flow; otherwise e grows to [inflate (bloat (hull candidate e))]. *)
let rec refine w ~raw_lo ~raw_hi iter =
  if iter > 30 then false
  else begin
    candidate w ~raw_lo ~raw_hi;
    if settled w then true
    else begin
      for i = 0 to w.n - 1 do
        w.elo.(i) <- Float.min w.clo.(i) w.elo.(i);
        w.ehi.(i) <- Float.max w.chi.(i) w.ehi.(i)
      done;
      bloat w;
      inflate w;
      refine w ~raw_lo ~raw_hi (iter + 1)
    end
  end

(* Enclosure of x(t), t in [0, dt], from the box x under a constant
   input in u: x + [0, dt] f(E) ⊆ E for a candidate E, seeded with
   [bloat (hull x x_next)]. True when found; the enclosure's raw bounds
   are then in [raw_lo]/[raw_hi] and its widened ones in [clo]/[chi].
   False when the inflation loop fails (divergence). *)
let enclose w ~raw_lo ~raw_hi =
  for i = 0 to w.n - 1 do
    w.elo.(i) <- Float.min w.xlo.(i) w.nlo.(i);
    w.ehi.(i) <- Float.max w.xhi.(i) w.nhi.(i)
  done;
  bloat w;
  refine w ~raw_lo ~raw_hi 0

(* Every bound of the next sample box finite, and its widest side at
   most [blowup_width] ([Box.max_width]'s fold). *)
let next_is_sane ~blowup_width w =
  let finite = ref true in
  for i = 0 to w.n - 1 do
    if not (Float.is_finite w.nlo.(i) && Float.is_finite w.nhi.(i)) then finite := false
  done;
  !finite
  &&
  let widest = ref 0.0 in
  for i = 0 to w.n - 1 do
    widest := Float.max !widest (w.nhi.(i) -. w.nlo.(i))
  done;
  !widest <= blowup_width

(* The box of raw bounds, each interval [widen (make lo hi)] as the
   bounds were validated and widened. *)
let box_of_raw ~raw_lo ~raw_hi =
  Array.init (Array.length raw_lo) (fun i -> I.widen (I.make raw_lo.(i) raw_hi.(i)))

(* Sound enclosure of the one-period flow from [x_box] under a constant
   input in [u_box]. *)
let intersample_enclosure (sys : lti) ~x_box ~x_next_box ~u_box ~delta =
  let n = Box.dim x_box and m = Box.dim u_box in
  if Box.dim x_next_box <> n then invalid_arg "Box.hull: dimension mismatch";
  let w = work ~n ~m ~a:(Mat.to_flat sys.a) ~b:(Mat.to_flat sys.b) ~dt:delta in
  let load lo hi box = Array.iteri (fun i iv -> lo.(i) <- I.lo iv; hi.(i) <- I.hi iv) box in
  load w.xlo w.xhi x_box;
  load w.nlo w.nhi x_next_box;
  load w.ulo w.uhi u_box;
  let raw_lo = Array.make n 0.0 and raw_hi = Array.make n 0.0 in
  if enclose w ~raw_lo ~raw_hi then Some (box_of_raw ~raw_lo ~raw_hi) else None

let c_linear_flowpipes = Dwv_util.Counters.counter "linear_flowpipes"

(* Full flowpipe for [steps] periods under u = gain * x (ZOH). Each
   period: the control box (gain image of z), the next zonotope (the
   closed-loop image of z) and its box, the blow-up test, then the
   inter-sample enclosure. The zonotope z and its successor are a
   center and n×n generators each, the gain image a center and m×n
   generators. The returned boxes are built from the raw bounds of each
   completed period. *)
let flowpipe ?(blowup_width = 1e7) ~(plant : plant) ~gain ~x0 ~steps () =
  Dwv_util.Counters.incr c_linear_flowpipes;
  (* a negative horizon runs no period, as a [for] loop to it would *)
  let steps = max steps 0 in
  let n = plant.n and m = plant.m in
  let acl = Mat.to_flat (Mat.add plant.ad (Mat.matmul plant.bd gain)) in
  let gain_flat = Mat.to_flat gain in
  if Box.dim x0 <> n then invalid_arg "Linear_reach.flowpipe: x0 dimension mismatch";
  let w = work ~n ~m ~a:plant.a_flat ~b:plant.b_flat ~dt:plant.delta in
  let c = ref (Array.make n 0.0) and g = ref (Array.make (n * n) 0.0) in
  let c2 = ref (Array.make n 0.0) and g2 = ref (Array.make (n * n) 0.0) in
  let uc = Array.make m 0.0 and ug = Array.make (m * n) 0.0 in
  let u_raw_lo = Array.make m 0.0 and u_raw_hi = Array.make m 0.0 in
  let step_lo = Array.make n 0.0 and step_hi = Array.make n 0.0 in
  let seg_lo = Array.make n 0.0 and seg_hi = Array.make n 0.0 in
  Zonotope.of_box_flat x0 ~c:!c ~g:!g;
  Zonotope.to_box_flat ~n ~p:n ~c:!c ~g:!g ~raw_lo:step_lo ~raw_hi:step_hi ~lo:w.xlo ~hi:w.xhi;
  let step_boxes = Array.make (steps + 1) (box_of_raw ~raw_lo:step_lo ~raw_hi:step_hi) in
  let segment_boxes = Array.make steps [||] in
  let completed = ref 0 and diverged = ref false in
  while (not !diverged) && !completed < steps do
    let s = !completed in
    Zonotope.linear_map_flat ~rows:m ~n ~p:n ~a:gain_flat ~c:!c ~g:!g ~c':uc ~g':ug;
    Zonotope.to_box_flat ~n:m ~p:n ~c:uc ~g:ug ~raw_lo:u_raw_lo ~raw_hi:u_raw_hi ~lo:w.ulo
      ~hi:w.uhi;
    Zonotope.linear_map_flat ~rows:n ~n ~p:n ~a:acl ~c:!c ~g:!g ~c':!c2 ~g':!g2;
    Zonotope.to_box_flat ~n ~p:n ~c:!c2 ~g:!g2 ~raw_lo:step_lo ~raw_hi:step_hi ~lo:w.nlo
      ~hi:w.nhi;
    if
      (not (next_is_sane ~blowup_width w))
      || not (enclose w ~raw_lo:seg_lo ~raw_hi:seg_hi)
    then diverged := true
    else begin
      let c0 = !c and g0 = !g in
      c := !c2;
      g := !g2;
      c2 := c0;
      g2 := g0;
      for i = 0 to n - 1 do
        w.xlo.(i) <- w.nlo.(i);
        w.xhi.(i) <- w.nhi.(i)
      done;
      step_boxes.(s + 1) <- box_of_raw ~raw_lo:step_lo ~raw_hi:step_hi;
      segment_boxes.(s) <- box_of_raw ~raw_lo:seg_lo ~raw_hi:seg_hi;
      completed := s + 1
    end
  done;
  Flowpipe.make
    ~step_boxes:(Array.sub step_boxes 0 (!completed + 1))
    ~segment_boxes:(Array.sub segment_boxes 0 !completed)
    ~delta:plant.delta ~diverged:!diverged
