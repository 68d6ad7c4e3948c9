(* Tensor-product Bernstein approximation over a box.

   This is the ReachNN-style polynomial abstraction of a neural-network
   controller: sample the network on the Bernstein grid, take the induced
   Bernstein polynomial, and bound the approximation error with a Lipschitz
   argument (optionally tightened by a finer sampling pass, mirroring
   ReachNN's sampling-based remainder estimation). *)

module I = Dwv_interval.Interval
module Box = Dwv_interval.Box

let binomial n k =
  if k < 0 || k > n then 0.0
  else begin
    let k = min k (n - k) in
    let acc = ref 1.0 in
    for i = 0 to k - 1 do
      acc := !acc *. float_of_int (n - i) /. float_of_int (i + 1)
    done;
    !acc
  end

(* B_{k,d}(t) over t in [0,1]. *)
let basis ~degree ~k t =
  if k < 0 || k > degree then invalid_arg "Bernstein.basis: k out of range";
  binomial degree k *. (t ** float_of_int k) *. ((1.0 -. t) ** float_of_int (degree - k))

type approx = {
  box : Box.t;                (* domain of approximation *)
  degrees : int array;        (* per-dimension degree d_i *)
  coeffs : float array;       (* tensor of f values on the grid, mixed radix *)
}

(* Mixed-radix indexing of the coefficient tensor: index i ranges over
   prod (d_j + 1) combinations. *)
let tensor_size degrees = Array.fold_left (fun acc d -> acc * (d + 1)) 1 degrees

let multi_index degrees flat =
  let n = Array.length degrees in
  let idx = Array.make n 0 in
  let rem = ref flat in
  for i = n - 1 downto 0 do
    let base = degrees.(i) + 1 in
    idx.(i) <- !rem mod base;
    rem := !rem / base
  done;
  idx

(* Chunked parallel tabulation with index-ordered recombination: each
   entry is a pure function of its flat index, so the pool schedule is
   invisible in the output (bit-identical to the sequential loop). The
   size floor keeps tiny grids off the queue. *)
let par_tabulate pool size f =
  match pool with
  | Some p when size >= 64 ->
    Dwv_parallel.Pool.mapi p (fun flat () -> f flat) (Array.make size ())
  | _ -> Array.init size f

let approximate ?pool ~f ~degrees box =
  if Array.length degrees <> Box.dim box then
    invalid_arg "Bernstein.approximate: dimension mismatch";
  Array.iter (fun d -> if d < 1 then invalid_arg "Bernstein.approximate: degree >= 1 required") degrees;
  let lo = Box.lo box and w = Box.widths box in
  let size = tensor_size degrees in
  let coeffs =
    par_tabulate pool size (fun flat ->
        let k = multi_index degrees flat in
        let x =
          Array.mapi
            (fun i ki -> lo.(i) +. (w.(i) *. float_of_int ki /. float_of_int degrees.(i)))
            k
        in
        f x)
  in
  { box; degrees; coeffs }

(* Evaluate the Bernstein polynomial at a point of the box: for each
   coefficient in flat order, the product over axes of its basis values
   at the normalized point, times the coefficient, summed. Each axis's
   d_i + 1 basis values are computed once per point into [bv] (axis i's
   from offset sum_{j<i} (d_j + 1)), and the coefficient's multi-index
   [idx] advances like an odometer, last axis fastest ([multi_index]'s
   order), so a point costs no allocation and the same products and
   sums in the same order as one [basis] call per factor. *)
let eval_into a ~bv ~idx x =
  let n = Array.length a.degrees in
  let off = ref 0 in
  for i = 0 to n - 1 do
    let l = I.lo a.box.(i) and w = I.width a.box.(i) in
    let t = if w < 1e-300 then 0.0 else (x.(i) -. l) /. w in
    let d = a.degrees.(i) in
    for k = 0 to d do
      bv.(!off + k) <- basis ~degree:d ~k t
    done;
    off := !off + d + 1
  done;
  Array.fill idx 0 n 0;
  let acc = ref 0.0 in
  for flat = 0 to Array.length a.coeffs - 1 do
    let weight = ref 1.0 and off = ref 0 in
    for i = 0 to n - 1 do
      weight := !weight *. bv.(!off + idx.(i));
      off := !off + a.degrees.(i) + 1
    done;
    acc := !acc +. (a.coeffs.(flat) *. !weight);
    let i = ref (n - 1) in
    while !i >= 0 && idx.(!i) = a.degrees.(!i) do
      idx.(!i) <- 0;
      decr i
    done;
    if !i >= 0 then idx.(!i) <- idx.(!i) + 1
  done;
  !acc

let eval_scratch a =
  (Array.make (Array.fold_left (fun acc d -> acc + d + 1) 0 a.degrees) 0.0,
   Array.make (Array.length a.degrees) 0)

let eval a x =
  let bv, idx = eval_scratch a in
  eval_into a ~bv ~idx x

(* The Bernstein polynomial's range lies within the hull of its
   coefficients (convex-combination property). *)
let coeff_range a =
  let lo = ref a.coeffs.(0) and hi = ref a.coeffs.(0) in
  Array.iter
    (fun c ->
      if c < !lo then lo := c;
      if c > !hi then hi := c)
    a.coeffs;
  I.make !lo !hi

(* 1-D Bernstein basis polynomial in the power basis:
   B_{k,d}(t) = sum_j C(d,k) C(d-k,j) (-1)^j t^{k+j}. *)
let basis_power_coeffs ~degree ~k =
  let c = Array.make (degree + 1) 0.0 in
  for j = 0 to degree - k do
    c.(k + j) <- binomial degree k *. binomial (degree - k) j *. (if j mod 2 = 0 then 1.0 else -1.0)
  done;
  c

(* Convert to a sparse power-basis polynomial in the normalized grid
   coordinates t in [0,1]^n. The Taylor-model verifier substitutes
   t_i = (x_i - lo_i)/w_i as Taylor models. *)
let to_poly a =
  let n = Array.length a.degrees in
  let p = ref (Poly.zero n) in
  Array.iteri
    (fun flat c ->
      if c <> 0.0 then begin
        let k = multi_index a.degrees flat in
        (* tensor product of 1-D basis expansions *)
        let term = ref (Poly.const n c) in
        Array.iteri
          (fun i ki ->
            let pc = basis_power_coeffs ~degree:a.degrees.(i) ~k:ki in
            let axis = ref (Poly.zero n) in
            Array.iteri
              (fun pow coeff ->
                if coeff <> 0.0 then begin
                  let e = Array.make n 0 in
                  e.(i) <- pow;
                  axis := Poly.add_term !axis e coeff
                end)
              pc;
            term := Poly.mul !term !axis)
          k;
        p := Poly.add !p !term
      end)
    a.coeffs;
  !p

(* Classical Lipschitz remainder: for f with partial Lipschitz constants
   L_i on the box, |B f - f| <= (3/2) sum_i L_i w_i / sqrt(d_i). *)
let remainder_lipschitz ~lipschitz a =
  let w = Box.widths a.box in
  let acc = ref 0.0 in
  Array.iteri
    (fun i d -> acc := !acc +. (lipschitz *. w.(i) /. sqrt (float_of_int d)))
    a.degrees;
  1.5 *. !acc

(* ReachNN-style sampled remainder: measure |f - B| on a finer grid of
   [samples_per_dim]^n points and pad with the Lipschitz variation between
   neighbouring sample points (both f and B are Lipschitz, B with constant
   <= L_B bounded by L via the convex-combination property up to grid
   effects; we conservatively use 2L). The result is a sound bound. *)
let c_sample_sweeps = Dwv_util.Counters.counter "bernstein_sample_sweeps"

let check_samples samples_per_dim =
  if samples_per_dim < 2 then invalid_arg "Bernstein.remainder_sampled: need >= 2 samples"

(* The pad L·sqrt(Σ (w_i / (s - 1))²) of the sampled remainder. *)
let sample_pad ~lipschitz ~samples_per_dim a =
  let h2 = ref 0.0 in
  Array.iter
    (fun wi -> h2 := !h2 +. Dwv_util.Floatx.sq (wi /. float_of_int (samples_per_dim - 1)))
    (Box.widths a.box);
  lipschitz *. sqrt !h2

let remainder_sampled ?pool ~lipschitz ~f ~samples_per_dim a =
  check_samples samples_per_dim;
  Dwv_util.Counters.incr c_sample_sweeps;
  let w = Box.widths a.box in
  let n = Box.dim a.box in
  let pad = sample_pad ~lipschitz ~samples_per_dim a in
  let lo = Box.lo a.box in
  (* The sample grid is enumerated by flat index (mixed radix, base
     [samples_per_dim], last dimension fastest — the same point order as
     the nested loops it replaces) so contiguous ranges can be swept by
     different domains. Each range reports its own maximum; the ranges'
     maxima combine to the grid maximum regardless of split, so the
     parallel and sequential sweeps agree bitwise. *)
  let total =
    let acc = ref 1 in
    for _ = 1 to n do acc := !acc * samples_per_dim done;
    !acc
  in
  let decode flat x =
    let rem = ref flat in
    for i = n - 1 downto 0 do
      let k = !rem mod samples_per_dim in
      rem := !rem / samples_per_dim;
      x.(i) <- lo.(i) +. (w.(i) *. float_of_int k /. float_of_int (samples_per_dim - 1))
    done
  in
  let range_max (first, last) =
    let x = Array.make n 0.0 in
    let bv, idx = eval_scratch a in
    let worst = ref 0.0 in
    for flat = first to last - 1 do
      decode flat x;
      let err = Float.abs (f x -. eval_into a ~bv ~idx x) in
      if err > !worst then worst := err
    done;
    !worst
  in
  let worst =
    match pool with
    | Some p when total >= 64 ->
      let chunks = min total (Dwv_parallel.Pool.domains p * 4) in
      let ranges =
        Array.init chunks (fun c -> (c * total / chunks, (c + 1) * total / chunks))
      in
      let maxima = Dwv_parallel.Pool.map p range_max ranges in
      let acc = ref 0.0 in
      Array.iter (fun m -> if m > !acc then acc := m) maxima;
      !acc
    | _ -> range_max (0, total)
  in
  worst +. pad

(* Curvature (second-order) remainder: for f in C^2, the classical 1-D
   estimate |B_d f - f| <= w^2 sup|f''| / (8 d) tensorizes to
   sum_i w_i^2 M_i / (8 d_i) with M_i = sup |d^2 f/dx_i^2| over the box
   (Bernstein operators are positive with unit mass, so applying the
   operator along one axis cannot increase the other axes' derivative
   bounds). Quadratic in the box width, so unlike the Lipschitz pad it
   does not feed back into reachable-set growth. *)
let remainder_curvature ~hessian_diag a =
  if Array.length hessian_diag <> Box.dim a.box then
    invalid_arg "Bernstein.remainder_curvature: dimension mismatch";
  let w = Box.widths a.box in
  let acc = ref 0.0 in
  Array.iteri
    (fun i d ->
      acc := !acc +. (w.(i) *. w.(i) *. hessian_diag.(i) /. (8.0 *. float_of_int d)))
    a.degrees;
  !acc

(* Best available sound remainder: the least of the Lipschitz, sampled
   and (given a Hessian bound) curvature remainders.

   The sampled remainder is [worst +. pad] with [worst >= +0.0] (a
   maximum of absolute errors, started at +0.0), so it is never below
   [pad]. When the cheaper of the other two is already <= [pad], the
   sweep cannot win the minimum, and that cheaper value is the result,
   bit for bit: a tie between equal non-zero values picks the same bits,
   and the sweep's value is never -0.0. A NaN in either operand makes
   the comparison false, so such calls still run the sweep and return
   what it returns. *)
let remainder ?pool ?hessian_diag ~lipschitz ~f ~samples_per_dim a =
  check_samples samples_per_dim;
  let lip = remainder_lipschitz ~lipschitz a in
  let curvature = Option.map (fun h -> remainder_curvature ~hessian_diag:h a) hessian_diag in
  let cheap = match curvature with Some c -> Float.min lip c | None -> lip in
  if cheap <= sample_pad ~lipschitz ~samples_per_dim a then cheap
  else begin
    let base = Float.min lip (remainder_sampled ?pool ~lipschitz ~f ~samples_per_dim a) in
    match curvature with Some c -> Float.min base c | None -> base
  end
