(* Interval arithmetic over IEEE doubles.

   Soundness model: operations use round-to-nearest and then widen the
   result outward by [slack] ulp-scale epsilons (see [widen_eps]). This is
   the standard compromise for research reimplementations of Flow*-style
   tools on platforms without directed rounding control; the paper's
   reachable-set over-approximations dominate this error by many orders of
   magnitude.

   Since PR 9 the model is machine-checked by the layer-5 Rounding_flow
   analysis (run by `dune build @lint`): every bound produced with a
   rounding operation must route through [widen] (whose slack dominates
   the 1/2-ulp round-to-nearest error of the ops it covers) or through
   the Cert_ival ulp steppers. Exact IEEE operations — negation, abs,
   min/max selection, comparisons — need no compensation and are not
   widened. *)

type t = { lo : float; hi : float }

let make lo hi =
  if not (Float.is_finite lo && Float.is_finite hi) then
    invalid_arg "Interval.make: non-finite bound";
  if lo > hi then invalid_arg "Interval.make: lo > hi";
  { lo; hi }

let of_point x = make x x

let zero = of_point 0.0
let one = of_point 1.0

let lo t = t.lo
let hi t = t.hi
let mid t = 0.5 *. (t.lo +. t.hi)
let rad t = 0.5 *. (t.hi -. t.lo)
let width t = t.hi -. t.lo

let is_point t = t.lo = t.hi

let widen_eps = 1e-14

(* Outward widening proportional to magnitude: the audited primitive
   every rounding operation below discharges through. The body itself is
   allowlisted in Rounding_flow (the root of trust): s >= eps >= 1e-14
   dominates the 1/2 ulp the final round-to-nearest subtraction can lose,
   and rounding lo -. s to nearest can never land above lo, so the result
   always strictly contains [t]. *)
let widen ?(eps = widen_eps) t =
  let s = eps *. Float.max 1.0 (Float.max (Float.abs t.lo) (Float.abs t.hi)) in
  { lo = t.lo -. s; hi = t.hi +. s }

let contains t x = t.lo <= x && x <= t.hi

let subset a b = b.lo <= a.lo && a.hi <= b.hi

let intersect a b =
  let lo = Float.max a.lo b.lo and hi = Float.min a.hi b.hi in
  if lo > hi then None else Some { lo; hi }

let intersects a b = a.lo <= b.hi && b.lo <= a.hi

let hull a b = { lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi }

let neg t = { lo = -.t.hi; hi = -.t.lo }

let add a b = widen { lo = a.lo +. b.lo; hi = a.hi +. b.hi }

let sub a b = widen { lo = a.lo -. b.hi; hi = a.hi -. b.lo }

let scale s t =
  if s >= 0.0 then widen { lo = s *. t.lo; hi = s *. t.hi }
  else widen { lo = s *. t.hi; hi = s *. t.lo }

let shift s t = widen { lo = t.lo +. s; hi = t.hi +. s }

let mul a b =
  let p1 = a.lo *. b.lo and p2 = a.lo *. b.hi and p3 = a.hi *. b.lo and p4 = a.hi *. b.hi in
  widen
    { lo = Float.min (Float.min p1 p2) (Float.min p3 p4);
      hi = Float.max (Float.max p1 p2) (Float.max p3 p4) }

let inv t =
  if contains t 0.0 then failwith "Interval.inv: interval contains zero";
  widen { lo = 1.0 /. t.hi; hi = 1.0 /. t.lo }

let div a b = mul a (inv b)

(* The true range of x^2 over any interval is non-negative, so clamping
   the widened lower bound back up to 0 stays an enclosure. *)
let sqr t =
  let l = Float.abs t.lo and h = Float.abs t.hi in
  let m = Float.max l h in
  let w =
    if contains t 0.0 then widen { lo = 0.0; hi = m *. m }
    else (let small = Float.min l h in widen { lo = small *. small; hi = m *. m })
  in
  { w with lo = Float.max 0.0 w.lo }

let rec pow_int t n =
  if n < 0 then inv (pow_int t (-n))
  else if n = 0 then one
  else if n = 1 then t
  else if n mod 2 = 0 then sqr (pow_int t (n / 2))
  else mul t (sqr (pow_int t (n / 2)))

let abs t =
  if t.lo >= 0.0 then t
  else if t.hi <= 0.0 then neg t
  else { lo = 0.0; hi = Float.max (-.t.lo) t.hi }

(* sqrt ranges are non-negative, so the widened lower bound clamps back
   up to 0 like [sqr]'s. *)
let sqrt_ t =
  if t.lo < 0.0 then failwith "Interval.sqrt: negative lower bound";
  let w = widen { lo = sqrt t.lo; hi = sqrt t.hi } in
  { w with lo = Float.max 0.0 w.lo }

(* Monotone increasing functions lift directly. Raw (round-to-nearest at
   the endpoints): every caller must widen the result — Rounding_flow
   classifies this lift itself as a raw computation. *)
let mono_incr f t = { lo = f t.lo; hi = f t.hi }

let exp_ t = widen (mono_incr exp t)

let log_ t =
  if t.lo <= 0.0 then failwith "Interval.log: non-positive lower bound";
  widen (mono_incr log t)

let tanh_ t = widen (mono_incr tanh t)

let sigmoid_ t = widen (mono_incr Dwv_util.Floatx.sigmoid t)

let arctan_ t = widen (mono_incr atan t)

(* sin over an interval: check whether any critical point pi/2 + k*pi lies
   inside; otherwise evaluate at endpoints. *)
let sin_ t =
  if width t >= 2.0 *. Float.pi then make (-1.0) 1.0
  else begin
    let contains_crit c =
      (* is there an integer k with t.lo <= c + 2k*pi <= t.hi ? *)
      let k = Float.round ((t.lo -. c) /. (2.0 *. Float.pi)) in
      let candidates = [ k -. 1.0; k; k +. 1.0 ] in
      List.exists
        (fun k -> let x = c +. (2.0 *. Float.pi *. k) in t.lo <= x && x <= t.hi)
        candidates
    in
    let slo = sin t.lo and shi = sin t.hi in
    let lo = if contains_crit (-.Float.pi /. 2.0) then -1.0 else Float.min slo shi in
    let hi = if contains_crit (Float.pi /. 2.0) then 1.0 else Float.max slo shi in
    widen (make lo hi)
  end

let cos_ t = sin_ (shift (Float.pi /. 2.0) t)

let max_ a b = { lo = Float.max a.lo b.lo; hi = Float.max a.hi b.hi }
let min_ a b = { lo = Float.min a.lo b.lo; hi = Float.min a.hi b.hi }

(* relu(x) = max(x, 0) pointwise. *)
let relu t = { lo = Float.max t.lo 0.0; hi = Float.max t.hi 0.0 }

(* Distance between intervals as sets (0 when they overlap). *)
let distance a b = Float.max 0.0 (Float.max (a.lo -. b.hi) (b.lo -. a.hi))

(* Length of the overlap (0 when disjoint). *)
let overlap_length a b =
  Float.max 0.0 (Float.min a.hi b.hi -. Float.max a.lo b.lo)

let sample a ~t = Dwv_util.Floatx.lerp a.lo a.hi t

let equal ?(eps = 0.0) a b =
  Float.abs (a.lo -. b.lo) <= eps && Float.abs (a.hi -. b.hi) <= eps

let pp ppf t = Fmt.pf ppf "[%.6g, %.6g]" t.lo t.hi
