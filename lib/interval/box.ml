(* Axis-aligned boxes (interval vectors). Boxes are the workhorse set
   representation of the reproduction: initial sets, unsafe and goal regions
   of the reach-avoid specification are boxes (exactly as in the paper's
   experiments), and flowpipe segments are reduced to boxes for the
   geometric-distance metric of Eq. (2)/(3). *)

type t = Interval.t array

let of_intervals a =
  if Array.length a = 0 then invalid_arg "Box.of_intervals: empty";
  Array.copy a

let make ~lo ~hi =
  let n = Array.length lo in
  if n = 0 || Array.length hi <> n then invalid_arg "Box.make: bad corner dimensions";
  Array.init n (fun i -> Interval.make lo.(i) hi.(i))

let of_point x = Array.map Interval.of_point x

let dim (b : t) = Array.length b

let get (b : t) i = b.(i)

let lo b = Array.map Interval.lo b
let hi b = Array.map Interval.hi b
let center b = Array.map Interval.mid b
let widths b = Array.map Interval.width b
let radii b = Array.map Interval.rad b

let max_width b = Array.fold_left (fun acc iv -> Float.max acc (Interval.width iv)) 0.0 b

let is_finite b =
  Array.for_all
    (fun iv -> Float.is_finite (Interval.lo iv) && Float.is_finite (Interval.hi iv))
    b

let volume b = Array.fold_left (fun acc iv -> acc *. Interval.width iv) 1.0 b

(* A plain loop over the bounds: the rollout monitors call this on every
   dense state, so it allocates nothing. *)
let contains (b : t) x =
  let n = Array.length b in
  n = Array.length x
  &&
  let i = ref 0 in
  while !i < n && b.(!i).Interval.lo <= x.(!i) && x.(!i) <= b.(!i).Interval.hi do
    incr i
  done;
  !i = n

let subset a b =
  dim a = dim b
  && (let ok = ref true in
      Array.iteri (fun i iv -> if not (Interval.subset iv b.(i)) then ok := false) a;
      !ok)

let intersects a b =
  dim a = dim b
  && (let ok = ref true in
      Array.iteri (fun i iv -> if not (Interval.intersects iv b.(i)) then ok := false) a;
      !ok)

let intersect a b =
  if dim a <> dim b then invalid_arg "Box.intersect: dimension mismatch";
  let exception Disjoint in
  try
    Some
      (Array.init (dim a) (fun i ->
           match Interval.intersect a.(i) b.(i) with
           | Some iv -> iv
           | None -> raise Disjoint))
  with Disjoint -> None

(* Volume of the overlap; 0 when disjoint. This is the |X_r ∩ X_u| term of
   the geometric metric (Eq. (2)). *)
let intersection_volume a b =
  if dim a <> dim b then invalid_arg "Box.intersection_volume: dimension mismatch";
  let acc = ref 1.0 in
  Array.iteri (fun i iv -> acc := !acc *. Interval.overlap_length iv b.(i)) a;
  !acc

(* Minimum squared Euclidean distance between the two boxes as point sets;
   0 when they intersect. This is the inf ||x_r - x_u||^2 term of Eq. (2). *)
let sq_distance a b =
  if dim a <> dim b then invalid_arg "Box.sq_distance: dimension mismatch";
  let acc = ref 0.0 in
  Array.iteri
    (fun i iv ->
      let gap = Interval.distance iv b.(i) in
      acc := !acc +. (gap *. gap))
    a;
  !acc

let distance a b = sqrt (sq_distance a b)

let hull a b =
  if dim a <> dim b then invalid_arg "Box.hull: dimension mismatch";
  Array.init (dim a) (fun i -> Interval.hull a.(i) b.(i))

let hull_list = function
  | [] -> invalid_arg "Box.hull_list: empty list"
  | b :: rest -> List.fold_left hull b rest

let translate v b =
  if dim b <> Array.length v then invalid_arg "Box.translate: dimension mismatch";
  Array.mapi (fun i iv -> Interval.shift v.(i) iv) b

(* Uniform additive bloating by [eps] in every direction (inter-sample
   flowpipe padding). Rounding_flow allow: rounding lo -. eps to nearest
   can never land above lo, so the result still contains the input. *)
let bloat eps b =
  if eps < 0.0 then invalid_arg "Box.bloat: negative epsilon";
  Array.map (fun iv -> Interval.make (Interval.lo iv -. eps) (Interval.hi iv +. eps)) b

(* Per-dimension bloating; same outward-padding argument as [bloat]. *)
let bloat_vec eps b =
  if dim b <> Array.length eps then invalid_arg "Box.bloat_vec: dimension mismatch";
  Array.mapi
    (fun i iv ->
      if eps.(i) < 0.0 then invalid_arg "Box.bloat_vec: negative epsilon";
      Interval.make (Interval.lo iv -. eps.(i)) (Interval.hi iv +. eps.(i)))
    b

(* Multiplicative inflation about the center, factor >= 1 grows the box.
   Rounding_flow allow: an inflation heuristic seeding Picard iteration —
   the downstream subset test certifies the candidate, not this step. *)
let scale_about_center factor b =
  Array.map
    (fun iv ->
      let c = Interval.mid iv and r = Interval.rad iv *. factor in
      Interval.make (c -. r) (c +. r))
    b

(* Split along the widest dimension into two halves. Rounding_flow
   allow: the split point need not be the exact midpoint — both halves
   share the same computed value, so their union is the input box. *)
let bisect b =
  let widest = ref 0 in
  Array.iteri
    (fun i iv -> if Interval.width iv > Interval.width b.(!widest) then widest := i)
    b;
  let iv = b.(!widest) in
  let m = Interval.mid iv in
  let left = Array.copy b and right = Array.copy b in
  left.(!widest) <- Interval.make (Interval.lo iv) m;
  right.(!widest) <- Interval.make m (Interval.hi iv);
  (left, right)

(* Even grid partition: [parts.(i)] cells along dimension i. Used by the
   X_I search (Algorithm 2) and by the Bernstein remainder sampling.
   Rounding_flow allow: every cell is separately certified by the
   downstream subset tests, so rounded cell edges cannot leak. *)
let partition parts b =
  if dim b <> Array.length parts then invalid_arg "Box.partition: dimension mismatch";
  Array.iter (fun p -> if p < 1 then invalid_arg "Box.partition: parts must be >= 1") parts;
  let n = dim b in
  let rec go i prefix =
    if i = n then [ Array.of_list (List.rev prefix) ]
    else begin
      let iv = b.(i) in
      let w = Interval.width iv /. float_of_int parts.(i) in
      List.concat_map
        (fun k ->
          let lo = Interval.lo iv +. (w *. float_of_int k) in
          let cell = Interval.make lo (lo +. w) in
          go (i + 1) (cell :: prefix))
        (List.init parts.(i) Fun.id)
    end
  in
  go 0 []

(* All 2^n corner points. *)
let corners b =
  let n = dim b in
  let rec go i prefix =
    if i = n then [ Array.of_list (List.rev prefix) ]
    else
      go (i + 1) (Interval.lo b.(i) :: prefix) @ go (i + 1) (Interval.hi b.(i) :: prefix)
  in
  go 0 []

let sample rng b = Dwv_util.Rng.uniform_in_box rng ~lo:(lo b) ~hi:(hi b)

(* Map normalized coordinates in [-1,1]^n to the box (Taylor-model domain
   convention). *)
let denormalize b z =
  if dim b <> Array.length z then invalid_arg "Box.denormalize: dimension mismatch";
  Array.mapi (fun i iv -> Interval.mid iv +. (Interval.rad iv *. z.(i))) b

let normalize b x =
  if dim b <> Array.length x then invalid_arg "Box.normalize: dimension mismatch";
  Array.mapi
    (fun i iv ->
      let r = Interval.rad iv in
      if r < 1e-300 then 0.0 else (x.(i) -. Interval.mid iv) /. r)
    b

let equal ?(eps = 0.0) a b =
  dim a = dim b
  && (let ok = ref true in
      Array.iteri (fun i iv -> if not (Interval.equal ~eps iv b.(i)) then ok := false) a;
      !ok)

let pp ppf b = Fmt.pf ppf "@[%a@]" Fmt.(array ~sep:(any " x ") Interval.pp) b
