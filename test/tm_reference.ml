(* Reference Taylor models for the bit-identity property in
   test_taylor.ml: the sparse, Poly-backed model that Taylor_model was
   before it stored one coefficient per rank of its product plan. The
   pieces of Poly that only Taylor models used (truncation, the [-1,1]^n
   bound and its graded parts, the truncating product and its tail,
   splitting by variable or by coefficient size) are kept here, written
   over Poly's public term API, so the property compares the plan-native
   kernel with code that shares none of its routines. Every coefficient
   bit, every remainder bit and every exception must come out the same.

   The truncating product is the generic one: the sparse [Poly.mul] of
   the factors, truncated to the order, less its ±0 coefficients. The
   dense plan kernel gave the same bits by contract, and so must its
   successor. *)

module I = Dwv_interval.Interval
module Poly = Dwv_poly.Poly

type t = { poly : Poly.t; rem : I.t; order : int }

(* ---- Poly's former Taylor-model API, over ascending terms ---- *)

(* Terms in ascending packed-key order ([to_terms] lists them
   descending). *)
let terms p = List.rev (Poly.to_terms p)

let degree e = Array.fold_left ( + ) 0 e

let of_terms nvars ts = Poly.of_terms nvars ts

let partition keep p =
  let a, b = List.partition (fun (e, c) -> keep e c) (terms p) in
  (of_terms (Poly.nvars p) a, of_terms (Poly.nvars p) b)

let truncate ~order p = partition (fun e _ -> degree e <= order) p

let split_var p i =
  if i < 0 || i >= Poly.nvars p then invalid_arg "Poly.split_var: index out of range";
  partition (fun e _ -> e.(i) = 0) p

let partition_coeffs ~cutoff p = partition (fun _ c -> Float.abs c > cutoff) p

let max_abs_coeff p =
  List.fold_left (fun m (_, c) -> Float.max m (Float.abs c)) 0.0 (terms p)

(* [| lo; hi; lo_0; hi_0; n_0; ... |] up to the largest degree present,
   as the historical [Poly.scan ~parts:true] computed it. *)
let graded p =
  let ts = terms p in
  let dmax = List.fold_left (fun m (e, _) -> max m (degree e)) (-1) ts in
  let g = Array.make (2 + (3 * (dmax + 1))) 0.0 in
  let s = ref 0.0 and n = List.length ts in
  List.iter
    (fun (e, c) ->
      let i = 2 + (3 * degree e) in
      if degree e = 0 then begin
        g.(0) <- g.(0) +. c;
        g.(1) <- g.(1) +. c;
        g.(i) <- g.(i) +. c;
        g.(i + 1) <- g.(i + 1) +. c
      end
      else if Array.for_all (fun k -> k mod 2 = 0) e then begin
        if c >= 0.0 then begin
          g.(1) <- g.(1) +. c;
          g.(i + 1) <- g.(i + 1) +. c
        end
        else begin
          g.(0) <- g.(0) +. c;
          g.(i) <- g.(i) +. c
        end
      end
      else begin
        let a = Float.abs c in
        g.(0) <- g.(0) -. a;
        g.(1) <- g.(1) +. a;
        g.(i) <- g.(i) -. a;
        g.(i + 1) <- g.(i + 1) +. a
      end;
      g.(i + 2) <- g.(i + 2) +. 1.0;
      s := !s +. Float.abs c)
    ts;
  if n > 1 then begin
    let k = float_of_int (n - 1) *. epsilon_float in
    let slack = Float.succ (k *. !s) in
    g.(0) <- Float.pred (g.(0) -. slack);
    g.(1) <- Float.succ (g.(1) +. slack);
    for d = 1 to dmax do
      let i = 2 + (3 * d) in
      if g.(i + 2) > 0.0 then begin
        let slack = Float.succ (k *. (Float.abs g.(i) +. Float.abs g.(i + 1))) in
        g.(i) <- Float.pred (g.(i) -. slack);
        g.(i + 1) <- Float.succ (g.(i + 1) +. slack)
      end
    done
  end;
  g

let bound_unit p =
  let g = graded p in
  I.make g.(0) g.(1)

let part_degree g = ((Array.length g - 2) / 3) - 1

let graded_tail ~order a b =
  let ga = graded a and gb = graded b in
  let tlo = ref 0.0 and thi = ref 0.0 and slo = ref 0.0 and shi = ref 0.0 in
  let suffix = ref false and next = ref (part_degree gb) in
  for d = 0 to part_degree ga do
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

(* Pairs of terms whose degrees sum to <= order: what the product's
   [poly_kept_pairs] counter adds, here summed into [kept_pair_count]. *)
let kept_pair_count = ref 0

let kept_pairs ~order a b =
  List.fold_left
    (fun n (ea, _) ->
      List.fold_left (fun n (eb, _) -> if degree ea + degree eb <= order then n + 1 else n) n (terms b))
    0 (terms a)

let mul_trunc ~order a b =
  let tail = graded_tail ~order a b in
  kept_pair_count := !kept_pair_count + kept_pairs ~order a b;
  let full = Poly.mul a b in
  (fst (partition (fun e c -> c <> 0.0 && degree e <= order) full), tail)

(* ---- the model ---- *)

let max_order = 7

let make ~poly ~rem ~order =
  if order < 1 || order > max_order then
    invalid_arg "Taylor_model.make: order must be within [1, 7]";
  let low, high = truncate ~order poly in
  if Poly.is_zero high then { poly = low; rem; order }
  else { poly = low; rem = I.add rem (bound_unit high); order }

let nvars tm = Poly.nvars tm.poly
let poly tm = tm.poly
let remainder tm = tm.rem
let order tm = tm.order

let const ~nvars ~order c = { poly = Poly.const nvars c; rem = I.zero; order }
let var ~nvars ~order i = { poly = Poly.var nvars i; rem = I.zero; order }

let of_interval ~nvars ~order iv =
  { poly = Poly.const nvars (I.mid iv); rem = I.widen (I.make (-.I.rad iv) (I.rad iv)); order }

let bound tm = I.add (bound_unit tm.poly) tm.rem
let eval tm z = I.shift (Poly.eval tm.poly z) tm.rem
let constant_term tm = Poly.constant_term tm.poly
let neg tm = { tm with poly = Poly.neg tm.poly; rem = I.neg tm.rem }

let join_order name a b =
  if nvars a <> nvars b then invalid_arg ("Taylor_model." ^ name ^ ": arity mismatch");
  min a.order b.order

let add a b =
  let order = join_order "add" a b in
  { poly = Poly.add a.poly b.poly; rem = I.add a.rem b.rem; order }

let sub a b =
  let order = join_order "sub" a b in
  { poly = Poly.sub a.poly b.poly; rem = I.sub a.rem b.rem; order }

let scale s tm = { tm with poly = Poly.scale s tm.poly; rem = I.scale s tm.rem }
let shift c tm = { tm with poly = Poly.add tm.poly (Poly.const (nvars tm) c) }
let add_remainder iv tm = { tm with rem = I.add tm.rem iv }

let sweep ?(tol = 1e-10) tm =
  let scale = Float.max 1e-30 (max_abs_coeff tm.poly) in
  let cutoff = tol *. scale in
  let kept, dropped = partition_coeffs ~cutoff tm.poly in
  if Poly.is_zero dropped then tm
  else { tm with poly = kept; rem = I.add tm.rem (bound_unit dropped) }

let absorb_var i tm =
  let keep, drop = split_var tm.poly i in
  if Poly.is_zero drop then tm else { tm with poly = keep; rem = I.add tm.rem (bound_unit drop) }

let symbolize_remainder ~slot tm =
  let keep, stale = split_var tm.poly slot in
  if not (Poly.is_zero stale) then
    invalid_arg "Taylor_model.symbolize_remainder: slot still in use";
  let m = I.mid tm.rem and r = I.rad tm.rem in
  if r = 0.0 then { tm with poly = Poly.add_term keep (Array.make (nvars tm) 0) m; rem = I.zero }
  else begin
    let e = Array.make (nvars tm) 0 in
    e.(slot) <- 1;
    let poly = Poly.add_term (Poly.add_term keep (Array.make (nvars tm) 0) m) e r in
    { tm with poly; rem = I.zero }
  end

let mul a b =
  let order = join_order "mul" a b in
  let keep, drop_bound = mul_trunc ~order a.poly b.poly in
  let bp1 = bound_unit a.poly and bp2 = bound_unit b.poly in
  let rem =
    I.add drop_bound (I.add (I.mul bp1 b.rem) (I.add (I.mul bp2 a.rem) (I.mul a.rem b.rem)))
  in
  { poly = keep; rem; order }

let rec pow tm n =
  if n < 0 then invalid_arg "Taylor_model.pow: negative exponent"
  else if n = 0 then const ~nvars:(nvars tm) ~order:tm.order 1.0
  else if n = 1 then tm
  else begin
    let half = pow tm (n / 2) in
    let sq = mul half half in
    if n mod 2 = 0 then sq else mul tm sq
  end

type scalar_fn = { deriv_at : float -> int -> float; deriv_bound : I.t -> int -> I.t }

let factorial k =
  let acc = ref 1.0 in
  for i = 2 to k do
    acc := !acc *. float_of_int i
  done;
  !acc

let compose fn tm =
  let order = tm.order in
  let c = constant_term tm in
  let d = shift (-.c) tm in
  let range = bound tm in
  let acc = ref (const ~nvars:(nvars tm) ~order (fn.deriv_at c 0)) in
  let dk = ref (const ~nvars:(nvars tm) ~order 1.0) in
  for k = 1 to order do
    dk := mul !dk d;
    acc := add !acc (scale (fn.deriv_at c k /. factorial k) !dk)
  done;
  let d_pow = I.pow_int (bound d) (order + 1) in
  let lagrange =
    I.scale (1.0 /. factorial (order + 1)) (I.mul (fn.deriv_bound range (order + 1)) d_pow)
  in
  add_remainder lagrange !acc

let rec deriv_poly step k =
  if k = 0 then Poly.var 1 0 else Poly.mul (Poly.diff (deriv_poly step (k - 1)) 0) step

let tanh_step = Poly.sub (Poly.const 1 1.0) (Poly.pow (Poly.var 1 0) 2)
let sigmoid_step = Poly.mul (Poly.var 1 0) (Poly.sub (Poly.const 1 1.0) (Poly.var 1 0))

let tanh_fn =
  { deriv_at = (fun c n -> Poly.eval (deriv_poly tanh_step n) [| tanh c |]);
    deriv_bound = (fun iv n -> Poly.ieval (deriv_poly tanh_step n) [| I.tanh_ iv |]) }

let sigmoid_fn =
  { deriv_at = (fun c n -> Poly.eval (deriv_poly sigmoid_step n) [| Dwv_util.Floatx.sigmoid c |]);
    deriv_bound = (fun iv n -> Poly.ieval (deriv_poly sigmoid_step n) [| I.sigmoid_ iv |]) }

let exp_fn = { deriv_at = (fun c _ -> exp c); deriv_bound = (fun iv _ -> I.exp_ iv) }

let sin_fn =
  { deriv_at =
      (fun c n -> match n mod 4 with 0 -> sin c | 1 -> cos c | 2 -> -.sin c | _ -> -.cos c);
    deriv_bound =
      (fun iv n ->
        match n mod 4 with
        | 0 -> I.sin_ iv
        | 1 -> I.cos_ iv
        | 2 -> I.neg (I.sin_ iv)
        | _ -> I.neg (I.cos_ iv)) }

let cos_fn =
  { deriv_at =
      (fun c n -> match n mod 4 with 0 -> cos c | 1 -> -.sin c | 2 -> -.cos c | _ -> sin c);
    deriv_bound =
      (fun iv n ->
        match n mod 4 with
        | 0 -> I.cos_ iv
        | 1 -> I.neg (I.sin_ iv)
        | 2 -> I.neg (I.cos_ iv)
        | _ -> I.sin_ iv) }

let inv_fn =
  { deriv_at =
      (fun c n ->
        let sign = if n mod 2 = 0 then 1.0 else -1.0 in
        sign *. factorial n /. (c ** float_of_int (n + 1)));
    deriv_bound =
      (fun iv n ->
        let sign = if n mod 2 = 0 then 1.0 else -1.0 in
        I.scale (sign *. factorial n) (I.inv (I.pow_int iv (n + 1)))) }

let tanh_ tm = compose tanh_fn tm
let sigmoid_ tm = compose sigmoid_fn tm
let exp_ tm = compose exp_fn tm
let sin_ tm = compose sin_fn tm
let cos_ tm = compose cos_fn tm

let inv tm =
  if I.contains (bound tm) 0.0 then failwith "Taylor_model.inv: range contains zero";
  compose inv_fn tm

let div a b = mul a (inv b)

let relu tm =
  let range = bound tm in
  let lo = I.lo range and hi = I.hi range in
  if lo >= 0.0 then tm
  else if hi <= 0.0 then const ~nvars:(nvars tm) ~order:tm.order 0.0
  else begin
    let lambda = hi /. (hi -. lo) in
    let gap = hi *. -.lo /. (hi -. lo) in
    let chord = shift (-.(lambda *. lo)) (scale lambda tm) in
    let centered = shift (-.(gap /. 2.0)) chord in
    add_remainder (I.widen (I.make (-.(gap /. 2.0)) (gap /. 2.0))) centered
  end

(* No memo: [Taylor_model.of_expr] gives the same bits with or without
   one. *)
let of_expr ~x ~u e =
  if Array.length x = 0 then invalid_arg "Taylor_model.of_expr: empty state";
  let nv = nvars x.(0) and ord = x.(0).order in
  let module E = Dwv_expr.Expr in
  let rec go e =
    match e.E.node with
    | E.Const c -> const ~nvars:nv ~order:ord c
    | E.Var i -> x.(i)
    | E.Input j -> u.(j)
    | E.Add (a, b) -> add (go a) (go b)
    | E.Sub (a, b) -> sub (go a) (go b)
    | E.Mul (a, b) -> mul (go a) (go b)
    | E.Div (a, b) -> div (go a) (go b)
    | E.Neg a -> neg (go a)
    | E.Pow (a, n) -> pow (go a) n
    | E.Sin a -> sin_ (go a)
    | E.Cos a -> cos_ (go a)
    | E.Exp a -> exp_ (go a)
    | E.Tanh a -> tanh_ (go a)
  in
  go e
