(* Product plans: the monomial layout of a Taylor model's polynomial and
   the kernels that work on it.

   A plan for (nvars, order) lists the n_in monomials of total degree
   <= order in ascending packed-key order (4 bits per variable exponent,
   the highest variable most significant); a monomial's index in that
   list is its rank. A Taylor model stores its polynomial as a float
   array indexed by rank, where ±0 means the monomial is absent and
   ranks past the array's end are absent too, so ascending rank is
   ascending key order and every sum below runs in the order the sparse
   representation summed its terms.

   The plan also tabulates, for each pair of ranks whose degrees sum to
   <= order, the rank of their product as a 16-bit entry of a byte
   table:

     prod[2 (ra * n_in + rb)] = rank (key_ra + key_rb)

   (the entries of the other pairs are never read), each rank's degree
   and its class over [-1,1]^n (the constant, every exponent even, some
   exponent odd), and the ranks grouped by degree. With it the
   truncating product needs no ranking, no hashing and no sorting.

   Plans are a pure function of (nvars, order), built once per process
   and shared by every domain through a publish-once registry. A shape
   whose product table would pass [max_plan_words] pairs, or with
   2 order > 15 (a key sum of two kept monomials must stay within its
   nibbles), has no plan, and no Taylor model of that shape exists. *)

module I = Dwv_interval.Interval

let max_vars = 15
let bits_per_var = 4
let max_exponent = 15

(* Covers every arity up to order 3, and up to 10 / 7 / 6 / 5 variables
   at orders 4 / 5 / 6 / 7. Every such plan has n_in <= 1,024, so its
   ranks fit 16 bits. *)
let max_plan_words = 1 lsl 20

let exponent_of key i = (key lsr (i * bits_per_var)) land max_exponent

(* C(n, k) for the small arguments of plan sizing (exact: each partial
   product is itself a binomial coefficient). *)
let binomial n k =
  let c = ref 1 in
  for i = 0 to k - 1 do
    c := !c * (n - i) / (i + 1)
  done;
  !c

let shape ~nvars ~order =
  if nvars < 1 || nvars > max_vars || order < 0 || 2 * order > max_exponent then None
  else begin
    let n_in = binomial (order + nvars) nvars in
    if n_in * n_in > max_plan_words then None else Some n_in
  end

(* Monomials of total degree <= d in ascending key order: the key
   compares exponent vectors lexicographically from the highest variable
   down, so a depth-first walk that raises the highest exponent slowest
   emits them sorted. *)
let monomials nvars d =
  let keys = Array.make (binomial (d + nvars) nvars) 0 in
  let m = ref 0 in
  let rec walk v key budget =
    if v < 0 then begin
      keys.(!m) <- key;
      incr m
    end
    else
      for e = 0 to budget do
        walk (v - 1) (key lor (e lsl (v * bits_per_var))) (budget - e)
      done
  in
  walk (nvars - 1) 0 d;
  keys

let key_degree nvars key =
  let d = ref 0 in
  for i = 0 to nvars - 1 do
    d := !d + exponent_of key i
  done;
  !d

(* Classes of a monomial's range over [-1,1]^n. *)
let cls_const = '\000'
let cls_even = '\001'
let cls_odd = '\002'

type t = {
  nvars : int;
  order : int;
  n_in : int;
  keys : int array;      (* packed key of each rank, ascending *)
  deg : Bytes.t;         (* degree of each rank *)
  cls : Bytes.t;         (* [cls_const] / [cls_even] / [cls_odd] *)
  by_deg : int array;    (* ranks by degree, ascending within a degree *)
  deg_start : int array; (* by_deg.(deg_start.(d) .. deg_start.(d+1) - 1) have degree d *)
  prod : Bytes.t;        (* n_in * n_in product ranks, 16 bits each *)
}

let nvars pl = pl.nvars
let order pl = pl.order
let size pl = pl.n_in
let degree pl r = Char.code (Bytes.unsafe_get pl.deg r)
let exponent pl r i = exponent_of pl.keys.(r) i

(* Rank of the first monomial with key >= [k] (n_in when there is
   none). *)
let first_at_least pl k =
  let lo = ref 0 and hi = ref pl.n_in in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Array.unsafe_get pl.keys mid < k then lo := mid + 1 else hi := mid
  done;
  !lo

let rank pl expts =
  if Array.length expts <> pl.nvars then invalid_arg "Tm_plan.rank: arity mismatch";
  let key = ref 0 and d = ref 0 in
  for i = pl.nvars - 1 downto 0 do
    let e = expts.(i) in
    if e < 0 then invalid_arg "Tm_plan.rank: negative exponent";
    d := !d + e;
    key := (!key lsl bits_per_var) lor min e max_exponent
  done;
  if !d > pl.order then None else Some (first_at_least pl !key)

(* An entry of the product table, in native byte order (the table is
   written by [Bytes.set_uint16_ne] and never leaves the process),
   without a bounds check: every offset is a rank pair scaled by 2 n_in
   and 2. *)
external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"

let build nvars order n_in =
  assert (n_in < 1 lsl 16);
  let keys = monomials nvars order in
  let deg = Bytes.init n_in (fun r -> Char.chr (key_degree nvars keys.(r))) in
  let cls =
    Bytes.init n_in (fun r ->
        let k = keys.(r) in
        if k = 0 then cls_const
        else if List.for_all (fun i -> exponent_of k i land 1 = 0) (List.init nvars Fun.id)
        then cls_even
        else cls_odd)
  in
  let d r = Char.code (Bytes.get deg r) in
  let deg_start = Array.make (order + 2) 0 in
  for r = 0 to n_in - 1 do
    deg_start.(d r + 1) <- deg_start.(d r + 1) + 1
  done;
  for e = 1 to order + 1 do
    deg_start.(e) <- deg_start.(e) + deg_start.(e - 1)
  done;
  let by_deg = Array.make n_in 0 and fill = Array.sub deg_start 0 (order + 1) in
  for r = 0 to n_in - 1 do
    by_deg.(fill.(d r)) <- r;
    fill.(d r) <- fill.(d r) + 1
  done;
  let pl = { nvars; order; n_in; keys; deg; cls; by_deg; deg_start; prod = Bytes.empty } in
  let prod = Bytes.make (2 * n_in * n_in) '\000' in
  for i = 0 to n_in - 1 do
    for j = 0 to n_in - 1 do
      if d i + d j <= order then
        Bytes.set_uint16_ne prod (2 * ((i * n_in) + j)) (first_at_least pl (keys.(i) + keys.(j)))
    done
  done;
  { pl with prod }

let plans : (int, t) Dwv_util.Publish_once.t = Dwv_util.Publish_once.create ()

let find ~nvars ~order =
  match shape ~nvars ~order with
  | None ->
    invalid_arg
      (Printf.sprintf "Tm_plan.find: no product plan for %d variables at order %d" nvars order)
  | Some n_in ->
    Dwv_util.Publish_once.find_or_publish plans ((order * (max_vars + 1)) + nvars) (fun () ->
        build nvars order n_in)

(* ---- Range bounds over [-1,1]^n ----

   A term ranges exactly over [c, c] (the constant monomial), [0, c] or
   [c, 0] (every exponent even, some positive) or [-|c|, |c|] (some
   exponent odd), and a polynomial's bounds are the sums of its terms'
   bounds, accumulated in ascending rank. Recursive summation of k terms
   after the first loses at most gamma_k * sum |c| (gamma_k =
   k u / (1 - k u), u = 2^-53; Higham, Accuracy and Stability of
   Numerical Algorithms, 4.2), and 2 k u times the computed sum of |c|
   dominates it while k u <= 1/4, so each summed bound moves out by that
   much, plus one ulp for the rounding of the move itself. A polynomial
   of one term needs no move: 0.0 +. c is exact. k counts the present
   coefficients.

   One pass computes the whole polynomial's bounds and those of each
   homogeneous part (its terms of one total degree): [graded] returns
   [| lo; hi; lo_0; hi_0; n_0; ...; lo_order; hi_order; n_order |], n_d
   being the part's number of terms. A part of positive degree adds
   every |c| into its lower bound, its upper bound or both, so its sum
   of |c| is at most |lo_d| + |hi_d| (over 1 - 2 gamma_k >= 2/3 once
   rounded, for k u <= 1/8), and 2 k u times the sum is at most
   k eps (|lo_d| + |hi_d|) with k the whole polynomial's count; the
   constant part is one term.

   The bounds live in array cells, which @lint's rounding-flow analysis
   does not follow; the argument above is what makes them outward. *)
let graded pl c =
  let g = Array.make (2 + (3 * (pl.order + 1))) 0.0 in
  let s = ref 0.0 and n = ref 0 in
  for r = 0 to Array.length c - 1 do
    let x = Array.unsafe_get c r in
    if x <> 0.0 then begin
      let i = 2 + (3 * degree pl r) in
      let k = Bytes.unsafe_get pl.cls r in
      if k = cls_const then begin
        g.(0) <- g.(0) +. x;
        g.(1) <- g.(1) +. x;
        g.(i) <- g.(i) +. x;
        g.(i + 1) <- g.(i + 1) +. x
      end
      else if k = cls_even then begin
        if x >= 0.0 then begin
          g.(1) <- g.(1) +. x;
          g.(i + 1) <- g.(i + 1) +. x
        end
        else begin
          g.(0) <- g.(0) +. x;
          g.(i) <- g.(i) +. x
        end
      end
      else begin
        let a = Float.abs x in
        g.(0) <- g.(0) -. a;
        g.(1) <- g.(1) +. a;
        g.(i) <- g.(i) -. a;
        g.(i + 1) <- g.(i + 1) +. a
      end;
      g.(i + 2) <- g.(i + 2) +. 1.0;
      s := !s +. Float.abs x;
      incr n
    end
  done;
  if !n > 1 then begin
    let k = float_of_int (!n - 1) *. epsilon_float in
    let slack = Float.succ (k *. !s) in
    g.(0) <- Float.pred (g.(0) -. slack);
    g.(1) <- Float.succ (g.(1) +. slack);
    for d = 1 to pl.order do
      let i = 2 + (3 * d) in
      if g.(i + 2) > 0.0 then begin
        let slack = Float.succ (k *. (Float.abs g.(i) +. Float.abs g.(i + 1))) in
        g.(i) <- Float.pred (g.(i) -. slack);
        g.(i + 1) <- Float.succ (g.(i + 1) +. slack)
      end
    done
  end;
  g

(* Enclosure over [-1,1]^n of the terms of a b of degree > order, from
   the factors' graded bounds: the sum over d + e > order of a_d b_e,
   which lies in sum_d B(a_d) * (sum_{e > order - d} B(b_e)). The inner
   sums are suffix sums over b's parts, so the tail costs O(order)
   interval operations, whatever the number of terms. The interval sums
   and products run on floats with every rounded result stepped one ulp
   outward (round-to-nearest errs by at most half an ulp). Raises
   [Invalid_argument] when a part that enters the tail, or the tail
   itself, is not finite; b's parts are only checked up to a's degree
   ([da]), where the sum stops. *)
let tail pl ga gb =
  let order = pl.order in
  let tlo = ref 0.0 and thi = ref 0.0 and slo = ref 0.0 and shi = ref 0.0 in
  let suffix = ref false and next = ref order and da = ref order in
  while !da >= 0 && ga.(4 + (3 * !da)) = 0.0 do
    decr da
  done;
  for d = 0 to !da do
    (* b's parts of degree >= order + 1 - d pair with a_d into the tail *)
    while !next >= 0 && !next >= order + 1 - d do
      let j = 2 + (3 * !next) in
      let lo = gb.(j) and hi = gb.(j + 1) in
      if gb.(j + 2) > 0.0 then begin
        if not (Float.is_finite lo && Float.is_finite hi) then
          invalid_arg "Taylor_model.mul: non-finite tail";
        slo := Float.pred (!slo +. lo);
        shi := Float.succ (!shi +. hi);
        suffix := true
      end;
      decr next
    done;
    let i = 2 + (3 * d) in
    let alo = ga.(i) and ahi = ga.(i + 1) in
    if !suffix && ga.(i + 2) > 0.0 then begin
      if not (Float.is_finite alo && Float.is_finite ahi) then
        invalid_arg "Taylor_model.mul: non-finite tail";
      let p1 = alo *. !slo and p2 = alo *. !shi and p3 = ahi *. !slo and p4 = ahi *. !shi in
      tlo := Float.pred (!tlo +. Float.pred (Float.min (Float.min p1 p2) (Float.min p3 p4)));
      thi := Float.succ (!thi +. Float.succ (Float.max (Float.max p1 p2) (Float.max p3 p4)))
    end
  done;
  if not (Float.is_finite !tlo && Float.is_finite !thi) then
    invalid_arg "Taylor_model.mul: non-finite tail";
  I.make !tlo !thi

(* ---- The truncating product ----

   Row i (a's rank r_a, of degree d) multiplies out exactly b's present
   terms of degree <= order - d, each into the result at the product's
   rank; no dropped pair is formed ([tail] bounds them). Rows run in
   ascending rank of a and within one row each result rank gets at most
   one contribution (key addition is injective), so every coefficient
   sees the sparse product's sums in the sparse product's order. Every
   result slot starts at -0.0, and -0.0 +. c is c bit for bit; a sum
   that cancels to ±0 is an absent monomial, as the sparse product
   dropped it. *)

(* Per-domain scratch, grown to the largest plan seen: b's present terms
   grouped by degree, as byte offsets within a product-table row and
   their coefficients, and upto.(e) = the number of them of degree
   <= e. *)
type scratch = { mutable sb : int array; mutable sc : float array; mutable upto : int array }

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { sb = [||]; sc = [||]; upto = [||] })

let scratch pl =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.sb < pl.n_in then begin
    s.sb <- Array.make pl.n_in 0;
    s.sc <- Array.make pl.n_in 0.0
  end;
  if Array.length s.upto <= pl.order then s.upto <- Array.make (pl.order + 1) 0;
  s

(* Work counters: per product, the monomial pairs multiplied out and
   those of them whose product has degree <= order. The first keeps the
   count of the sparse representation's product, which multiplied out
   every pair of a sparse pair of factors (see [mul]). *)
let c_pairs = Dwv_util.Counters.counter "poly_pairs"
let c_kept_pairs = Dwv_util.Counters.counter "poly_kept_pairs"

(* A product whose result span is this many times its pair count was
   formed pair by pair, with [poly_pairs] counting every pair. *)
let max_span_per_product = 8

(* One row: out.(prod[row + sb_j]) +.= a.(ra) *. sc.(j) for every
   j < nb. Within a row the ranks are distinct, so an unrolled step
   loads its four slots before storing any of them. (The factor comes
   as an array and an index: a float argument would be boxed.) *)
let accumulate_row prod out sb sc a ra row nb =
  let ai = Array.unsafe_get a ra in
  let j = ref 0 in
  while !j + 3 < nb do
    let j0 = !j in
    let r0 = get16 prod (row + Array.unsafe_get sb j0) in
    let r1 = get16 prod (row + Array.unsafe_get sb (j0 + 1)) in
    let r2 = get16 prod (row + Array.unsafe_get sb (j0 + 2)) in
    let r3 = get16 prod (row + Array.unsafe_get sb (j0 + 3)) in
    let s0 = Array.unsafe_get out r0 +. (ai *. Array.unsafe_get sc j0) in
    let s1 = Array.unsafe_get out r1 +. (ai *. Array.unsafe_get sc (j0 + 1)) in
    let s2 = Array.unsafe_get out r2 +. (ai *. Array.unsafe_get sc (j0 + 2)) in
    let s3 = Array.unsafe_get out r3 +. (ai *. Array.unsafe_get sc (j0 + 3)) in
    Array.unsafe_set out r0 s0;
    Array.unsafe_set out r1 s1;
    Array.unsafe_set out r2 s2;
    Array.unsafe_set out r3 s3;
    j := j0 + 4
  done;
  while !j < nb do
    let r = get16 prod (row + Array.unsafe_get sb !j) in
    Array.unsafe_set out r (Array.unsafe_get out r +. (ai *. Array.unsafe_get sc !j));
    incr j
  done

let first_present c =
  let r = ref 0 in
  while !r < Array.length c && Array.unsafe_get c !r = 0.0 do
    incr r
  done;
  !r

let last_present c =
  let r = ref (Array.length c - 1) in
  while !r >= 0 && Array.unsafe_get c !r = 0.0 do
    decr r
  done;
  !r

(* The kept part of a b: an array long enough for every kept rank. *)
let mul pl a b =
  let la = last_present a and lb = last_present b in
  if la < 0 || lb < 0 then [||]
  else begin
    let fa = first_present a and fb = first_present b in
    (* key addition is monotone (and carry-free within a plan), so every
       kept product key lies between the smallest and the largest
       product key *)
    let keys = pl.keys in
    let r_lo = first_at_least pl (keys.(fa) + keys.(fb)) in
    let r_hi = first_at_least pl (keys.(la) + keys.(lb) + 1) - 1 in
    let s = scratch pl in
    let sb = s.sb and sc = s.sc and upto = s.upto in
    let nb = ref 0 in
    for d = 0 to pl.order do
      let k = ref pl.deg_start.(d) and stop = pl.deg_start.(d + 1) in
      while !k < stop && Array.unsafe_get pl.by_deg !k <= lb do
        let r = Array.unsafe_get pl.by_deg !k in
        let x = Array.unsafe_get b r in
        if x <> 0.0 then begin
          Array.unsafe_set sb !nb (2 * r);
          Array.unsafe_set sc !nb x;
          incr nb
        end;
        incr k
      done;
      upto.(d) <- !nb
    done;
    let out = Array.make (r_hi + 1) (-0.0) in
    let row_bytes = 2 * pl.n_in and kept = ref 0 and na = ref 0 in
    for r = fa to la do
      if Array.unsafe_get a r <> 0.0 then begin
        let nbr = upto.(pl.order - degree pl r) in
        accumulate_row pl.prod out sb sc a r (r * row_bytes) nbr;
        kept := !kept + nbr;
        incr na
      end
    done;
    let pairs = !na * !nb in
    Dwv_util.Counters.add c_pairs
      (if r_hi - r_lo < max_span_per_product * pairs then !kept else pairs);
    Dwv_util.Counters.add c_kept_pairs !kept;
    out
  end
