(* Zonotopes: affine images of the unit hypercube,
   Z = { c + G zeta | zeta in [-1,1]^m }.

   Closed under linear maps and Minkowski sums, which makes them exact for
   the discretized LTI closed loop x+ = (A_d + B_d theta^T) x that the
   Flow*-style linear verifier propagates. *)

module Mat = Dwv_la.Mat
module Vec = Dwv_la.Vec
module I = Dwv_interval.Interval
module Box = Dwv_interval.Box

type t = { center : float array; generators : Mat.t (* n rows, m columns *) }

let make ~center ~generators =
  let n, _m = Mat.dims generators in
  if Array.length center <> n then invalid_arg "Zonotope.make: dimension mismatch";
  { center = Array.copy center; generators = Mat.copy generators }

let dim z = Array.length z.center

let num_generators z = snd (Mat.dims z.generators)

let center z = Array.copy z.center

(* ---------- flat kernels ----------

   The same operations on caller-owned float arrays: a zonotope of
   dimension n with p generators is its center [c] (n floats) and its
   generator matrix [g] (n×p, row-major). They allocate nothing, and
   [of_box], [to_box] and [linear_map] below are these routines on
   fresh arrays, so both forms give the same bits. *)

(* A box is a zonotope with one axis-aligned generator per dimension:
   [g] (n×n) gets the radii on its diagonal and 0.0 elsewhere. *)
let of_box_flat (box : Box.t) ~c ~g =
  let n = Box.dim box in
  Array.fill g 0 (n * n) 0.0;
  for i = 0 to n - 1 do
    c.(i) <- I.mid box.(i);
    g.((i * n) + i) <- I.rad box.(i)
  done

(* Interval hull, row i: center_i -+ sum_j |G_ij| summed from 0.0 in j
   order (these bounds go to [raw_lo.(i)]/[raw_hi.(i)]), validated
   as [Interval.make] validates them, then widened outward into
   [lo.(i)]/[hi.(i)]. The generator-magnitude sum and the endpoint
   arithmetic round to nearest; the eps-scale widening restores
   outwardness. *)
let to_box_flat ~n ~p ~c ~g ~raw_lo ~raw_hi ~lo ~hi =
  for i = 0 to n - 1 do
    let r = ref 0.0 in
    for j = 0 to p - 1 do
      r := !r +. Float.abs g.((i * p) + j)
    done;
    let l = c.(i) -. !r and h = c.(i) +. !r in
    let s = I.checked_slack I.widen_eps l h in
    raw_lo.(i) <- l;
    raw_hi.(i) <- h;
    lo.(i) <- l -. s;
    hi.(i) <- h +. s
  done

(* Exact image under the map [a] (rows×n): [Mat.matvec] and
   [Mat.matmul]'s sums into [c'] (rows) and [g'] (rows×p). *)
let linear_map_flat ~rows ~n ~p ~a ~c ~g ~c' ~g' =
  Mat.matvec_flat ~rows ~cols:n a c c';
  Mat.matmul_flat ~rows ~inner:n ~cols:p a g g'

let of_box (box : Box.t) =
  let n = Box.dim box in
  let center = Array.make n 0.0 and g = Array.make (n * n) 0.0 in
  of_box_flat box ~c:center ~g;
  { center; generators = Mat.init n n (fun i j -> g.((i * n) + j)) }

let to_box z =
  let n = dim z and p = num_generators z in
  let raw_lo = Array.make n 0.0 and raw_hi = Array.make n 0.0 in
  let lo = Array.make n 0.0 and hi = Array.make n 0.0 in
  to_box_flat ~n ~p ~c:z.center ~g:(Mat.to_flat z.generators) ~raw_lo ~raw_hi ~lo ~hi;
  Array.init n (fun i -> I.widen (I.make raw_lo.(i) raw_hi.(i)))

(* Exact image under a linear map; [Mat.matvec] and [Mat.matmul] are
   the loops of [linear_map_flat]. *)
let linear_map a z =
  { center = Mat.matvec a z.center; generators = Mat.matmul a z.generators }

let translate v z =
  if Array.length v <> dim z then invalid_arg "Zonotope.translate: dimension mismatch";
  { z with center = Vec.add z.center v }

let affine_map a b z = translate b (linear_map a z)

(* Exact Minkowski sum: concatenate generator lists. *)
let minkowski_sum a b =
  if dim a <> dim b then invalid_arg "Zonotope.minkowski_sum: dimension mismatch";
  let n = dim a in
  let ma = num_generators a and mb = num_generators b in
  let generators =
    Mat.init n (ma + mb) (fun i j ->
        if j < ma then Mat.get a.generators i j else Mat.get b.generators i (j - ma))
  in
  { center = Vec.add a.center b.center; generators }

(* Support function in direction d: h(d) = <c, d> + sum_j |<g_j, d>|. *)
let support z d =
  if Array.length d <> dim z then invalid_arg "Zonotope.support: dimension mismatch";
  let m = num_generators z in
  let acc = ref (Vec.dot z.center d) in
  for j = 0 to m - 1 do
    acc := !acc +. Float.abs (Vec.dot (Mat.col z.generators j) d)
  done;
  !acc

(* Girard order reduction: keep the [keep] generators with the largest
   1-norm and over-approximate the rest by an axis-aligned box. Sound. *)
let reduce_order ~max_generators z =
  let n = dim z and m = num_generators z in
  if m <= max_generators || max_generators < n then z
  else begin
    let keep = max_generators - n in
    let norms =
      Array.init m (fun j ->
          let g = Mat.col z.generators j in
          (Array.fold_left (fun acc x -> acc +. Float.abs x) 0.0 g, j))
    in
    Array.sort (fun (a, _) (b, _) -> compare b a) norms;
    let kept = Array.sub norms 0 keep in
    let rest = Array.sub norms keep (m - keep) in
    (* absorb the small generators into per-axis radii *)
    let radii = Array.make n 0.0 in
    Array.iter
      (fun (_, j) ->
        for i = 0 to n - 1 do
          radii.(i) <- radii.(i) +. Float.abs (Mat.get z.generators i j)
        done)
      rest;
    let generators =
      Mat.init n (keep + n) (fun i j ->
          if j < keep then Mat.get z.generators i (snd kept.(j))
          else if j - keep = i then radii.(i)
          else 0.0)
    in
    { z with generators }
  end

(* A point of the zonotope for a given coefficient vector in [-1,1]^m. *)
let point z zeta =
  if Array.length zeta <> num_generators z then invalid_arg "Zonotope.point: bad coefficients";
  Vec.add z.center (Mat.matvec z.generators zeta)

let sample rng z =
  let m = num_generators z in
  point z (Array.init m (fun _ -> Dwv_util.Rng.uniform rng ~lo:(-1.0) ~hi:1.0))

let pp ppf z =
  Fmt.pf ppf "@[<hov 2>{center = %a;@ generators =@ %a}@]" Vec.pp z.center Mat.pp z.generators
