(* Tests for dwv_poly: polynomial arithmetic (including the packed
   monomial representation), range enclosures, Bernstein approximation. *)

module Poly = Dwv_poly.Poly
module Bernstein = Dwv_poly.Bernstein
module Tm = Dwv_taylor.Taylor_model
module Tm_plan = Dwv_taylor.Tm_plan
module I = Dwv_interval.Interval
module Box = Dwv_interval.Box

let check_float = Alcotest.(check (float 1e-9))

(* p(z0, z1) = 2 + 3 z0 - z0 z1^2 *)
let sample_poly () =
  Poly.of_terms 2 [ ([| 0; 0 |], 2.0); ([| 1; 0 |], 3.0); ([| 1; 2 |], -1.0) ]

let test_eval () =
  let p = sample_poly () in
  check_float "at (1,2)" (2.0 +. 3.0 -. 4.0) (Poly.eval p [| 1.0; 2.0 |]);
  check_float "at (0,5)" 2.0 (Poly.eval p [| 0.0; 5.0 |])

let test_degree_terms () =
  let p = sample_poly () in
  Alcotest.(check int) "degree" 3 (Poly.degree p);
  Alcotest.(check int) "terms" 3 (Poly.num_terms p);
  check_float "constant" 2.0 (Poly.constant_term p)

let test_add_cancel () =
  let p = sample_poly () in
  let z = Poly.sub p p in
  Alcotest.(check bool) "cancellation" true (Poly.is_zero z)

let test_mul_known () =
  (* (1 + z0)(1 - z0) = 1 - z0^2 *)
  let one_plus = Poly.of_terms 1 [ ([| 0 |], 1.0); ([| 1 |], 1.0) ] in
  let one_minus = Poly.of_terms 1 [ ([| 0 |], 1.0); ([| 1 |], -1.0) ] in
  let expected = Poly.of_terms 1 [ ([| 0 |], 1.0); ([| 2 |], -1.0) ] in
  Alcotest.(check bool) "product" true (Poly.equal (Poly.mul one_plus one_minus) expected)

let test_pow () =
  (* (z0 + 1)^3 evaluated matches *)
  let p = Poly.of_terms 1 [ ([| 0 |], 1.0); ([| 1 |], 1.0) ] in
  let cube = Poly.pow p 3 in
  check_float "at 2" 27.0 (Poly.eval cube [| 2.0 |]);
  Alcotest.(check int) "degree" 3 (Poly.degree cube)

(* Truncation and splitting by variable left Poly with the Taylor
   models that used them: a model of order 1 keeps the terms of degree
   <= 1 and bounds - z0 z1^2 into its remainder, and retiring z1 bounds
   the one term with z1. *)
let test_truncate () =
  let p = sample_poly () in
  let tm = Tm.make ~poly:p ~rem:I.zero ~order:1 in
  let low = Tm.poly tm in
  Alcotest.(check int) "low degree" 1 (Poly.degree low);
  Alcotest.(check int) "kept terms" 2 (Poly.num_terms low);
  Alcotest.(check bool) "dropped term bounded" true (I.subset (I.make (-1.0) 1.0) (Tm.remainder tm));
  Alcotest.(check bool) "kept part" true
    (Poly.equal (Poly.add low (Poly.of_terms 2 [ ([| 1; 2 |], -1.0) ])) p)

let test_split_var () =
  let p = sample_poly () in
  let tm = Tm.absorb_var 1 (Tm.make ~poly:p ~rem:I.zero ~order:3) in
  let without = Tm.poly tm in
  Alcotest.(check int) "terms without z1" 2 (Poly.num_terms without);
  Alcotest.(check bool) "term with z1 bounded" true (I.subset (I.make (-1.0) 1.0) (Tm.remainder tm));
  Alcotest.(check bool) "partition" true
    (Poly.equal (Poly.add without (Poly.of_terms 2 [ ([| 1; 2 |], -1.0) ])) p)

let test_diff () =
  let p = sample_poly () in
  (* dp/dz1 = -2 z0 z1 *)
  let d = Poly.diff p 1 in
  check_float "at (1,3)" (-6.0) (Poly.eval d [| 1.0; 3.0 |])

(* The [-1,1]^n bound left Poly with the Taylor models: [bound_unit p]
   is the bound [Tm_plan.graded] gives [p]'s coefficients laid out on
   the plan of [p]'s arity at [order]. *)
let dense pl p =
  let c = Array.make (Tm_plan.size pl) (-0.0) in
  List.iter (fun (e, x) -> c.(Option.get (Tm_plan.rank pl e)) <- x) (Poly.to_terms p);
  c

let bound_unit ?(order = 3) p =
  let pl = Tm_plan.find ~nvars:(Poly.nvars p) ~order in
  let g = Tm_plan.graded pl (dense pl p) in
  I.make g.(0) g.(1)

let test_bound_unit_exact_constant () =
  let p = Poly.const 2 5.0 in
  let b = bound_unit p in
  check_float "lo" 5.0 (I.lo b);
  check_float "hi" 5.0 (I.hi b)

let test_bound_unit_even_odd () =
  (* z0^2 over [-1,1]: [0,1]; z0 over [-1,1]: [-1,1] *)
  let even = Poly.of_terms 1 [ ([| 2 |], 3.0) ] in
  Alcotest.(check bool) "even" true (I.equal (bound_unit even) (I.make 0.0 3.0));
  let odd = Poly.of_terms 1 [ ([| 1 |], 3.0) ] in
  Alcotest.(check bool) "odd" true (I.equal (bound_unit odd) (I.make (-3.0) 3.0))

let test_exponent_range_guard () =
  Alcotest.check_raises "too large" (Invalid_argument "Poly: exponent out of range [0, 15]")
    (fun () -> ignore (Poly.of_terms 1 [ ([| 16 |], 1.0) ]))

let test_nvars_guard () =
  Alcotest.check_raises "too many vars" (Invalid_argument "Poly: nvars must be between 1 and 15")
    (fun () -> ignore (Poly.zero 16))

let prop_bound_unit_sound =
  QCheck.Test.make ~name:"bound_unit contains point values" ~count:300
    QCheck.(pair (float_range (-1.0) 1.0) (float_range (-1.0) 1.0))
    (fun (a, b) ->
      let p = sample_poly () in
      let v = Poly.eval p [| a; b |] in
      I.contains (I.widen (bound_unit p)) v)

let prop_mul_eval_homomorphism =
  QCheck.Test.make ~name:"eval (p*q) = eval p * eval q" ~count:300
    QCheck.(pair (float_range (-2.0) 2.0) (float_range (-2.0) 2.0))
    (fun (a, b) ->
      let p = sample_poly () in
      let q = Poly.of_terms 2 [ ([| 0; 1 |], 1.0); ([| 2; 0 |], -0.5) ] in
      let x = [| a; b |] in
      Float.abs (Poly.eval (Poly.mul p q) x -. (Poly.eval p x *. Poly.eval q x)) < 1e-7)

let prop_ieval_sound =
  QCheck.Test.make ~name:"ieval over box contains samples" ~count:200
    QCheck.(pair (float_range 0.0 1.0) (float_range 0.0 1.0))
    (fun (t0, t1) ->
      let p = sample_poly () in
      let box = Box.make ~lo:[| -0.5; 1.0 |] ~hi:[| 2.0; 3.0 |] in
      let x = Box.denormalize box [| (2.0 *. t0) -. 1.0; (2.0 *. t1) -. 1.0 |] in
      I.contains (I.widen (Poly.ieval p box)) (Poly.eval p x))

(* Exponent sums past 15 used to carry into the next variable's nibble:
   z0^16 came out as z1, and (z0^8 + z1)^2 evaluated to the wrong value. *)
let test_exponent_carry_guard () =
  let carry = Invalid_argument "Poly.mul: exponent out of range [0, 15]" in
  Alcotest.check_raises "z0^16" carry (fun () -> ignore (Poly.pow (Poly.var 2 0) 16));
  let p = Poly.add (Poly.pow (Poly.var 2 0) 8) (Poly.var 2 1) in
  Alcotest.check_raises "(z0^8 + z1)^2" carry (fun () -> ignore (Poly.mul p p));
  Alcotest.check_raises "pow (z0^8 + z1) 2" carry (fun () -> ignore (Poly.pow p 2));
  (* exponent 15 is still representable, and high total degree spread
     over several variables is not a carry *)
  let x = [| 1.1; 0.7 |] in
  check_float "z0^15" (Float.pow 1.1 15.0) (Poly.eval (Poly.pow (Poly.var 2 0) 15) x);
  let q = Poly.mul (Poly.pow (Poly.var 2 0) 9) (Poly.pow (Poly.var 2 1) 9) in
  check_float "z0^9 z1^9" (Float.pow 1.1 9.0 *. Float.pow 0.7 9.0) (Poly.eval q x)

(* Keys of the 15th variable sit in bits 56-59: the radix sort behind
   [mul] used to shift past the word size there and never finish. *)
let test_mul_top_variable () =
  let z14 = Poly.var 15 14 and z0 = Poly.var 15 0 in
  let a = Poly.add (Poly.add (Poly.const 15 0.5) z14) (Poly.mul z0 z14) in
  let b = Poly.sub (Poly.add z0 z14) (Poly.const 15 2.0) in
  let x = Array.init 15 (fun i -> 0.1 *. float_of_int (i + 1)) in
  check_float "eval (a*b)" (Poly.eval a x *. Poly.eval b x) (Poly.eval (Poly.mul a b) x)

(* ---- The truncating product: the kept part is
   [truncate ~order (mul a b)]'s, bit for bit, less its ±0
   coefficients; kept part plus tail contains the full product at
   sampled points of [-1,1]^n ----

   The product left Poly for the Taylor layer ([Tm_plan], behind
   [Taylor_model.mul]); these cases pin it there. [mul_trunc] runs it
   on zero-remainder models, whose product's remainder encloses the
   dropped tail. A model's coefficients are its polynomial's less the
   ±0 ones and less the terms above the order, which [make] bounds
   into the remainder; [canon] is that polynomial. *)

let mul_trunc ~order a b =
  let m = Tm.mul (Tm.make ~poly:a ~rem:I.zero ~order) (Tm.make ~poly:b ~rem:I.zero ~order) in
  (Tm.poly m, Tm.remainder m)

let canon p = Poly.of_terms (Poly.nvars p) (Poly.to_terms p)

let nonzero_bits p =
  ( Poly.nvars p,
    List.filter_map
      (fun (e, c) -> if c = 0.0 then None else Some (Array.to_list e, Int64.bits_of_float c))
      (Poly.to_terms p) )

let result_bits (p, iv) = (nonzero_bits p, Int64.bits_of_float (I.lo iv), Int64.bits_of_float (I.hi iv))

let outcome f =
  match f () with r -> Ok r | exception Invalid_argument m -> Error m

let all_finite p = List.for_all (fun (_, c) -> Float.is_finite c) (Poly.to_terms p)

(* Sample points: the centre, the corners' pattern of ±1 in every
   coordinate, points with a zero coordinate, and random interior
   points, all drawn from a fixed stream. *)
let sample_points nvars =
  let st = Random.State.make [| nvars; 7 |] in
  [ Array.make nvars 0.0; Array.make nvars 1.0; Array.make nvars (-1.0) ]
  @ List.init 6 (fun k ->
        Array.init nvars (fun i ->
            if k < 2 then (if Random.State.bool st then 1.0 else -1.0)
            else if k = 2 && i = 0 then 0.0
            else Random.State.float st 2.0 -. 1.0))

(* At each sample point z, with k = keep(z) and v = (mul a b)(z): a
   non-finite k is matched by v (both NaN, or the same infinity); a
   finite k needs a finite v whose point enclosure meets
   [keep](z) + tail. *)
let encloses_at ~keep ~tail full z =
  let k = Poly.eval keep z and v = Poly.eval full z in
  if not (Float.is_finite k) then (Float.is_nan k && Float.is_nan v) || k = v
  else
    Float.is_finite v
    &&
    let pt = Box.make ~lo:z ~hi:z in
    I.intersects (I.add (Poly.ieval keep pt) tail) (Poly.ieval full pt)

(* The two halves of the contract for one product. [mul_trunc] may only
   raise when a coefficient of a factor or of the full product is not
   finite. *)
let kept_as_reference ~order a b =
  let expected = nonzero_bits (fst (Tm_reference.truncate ~order (Poly.mul (canon a) (canon b)))) in
  match outcome (fun () -> mul_trunc ~order a b) with
  | Ok (keep, _) -> Poly.to_terms keep |> List.for_all (fun (_, c) -> c <> 0.0) && nonzero_bits keep = expected
  | Error _ -> not (all_finite a && all_finite b && all_finite (Poly.mul a b))

let tail_encloses ~order a b =
  let full = Poly.mul a b in
  match outcome (fun () -> mul_trunc ~order a b) with
  | Ok (keep, tail) -> List.for_all (encloses_at ~keep ~tail full) (sample_points (Poly.nvars a))
  | Error _ -> not (all_finite a && all_finite b && all_finite full)

let same_contract ~order a b = kept_as_reference ~order a b && tail_encloses ~order a b

(* A random monomial of total degree <= d. *)
let gen_monomial nvars d st =
  let e = Array.make nvars 0 in
  for _ = 1 to Random.State.int st (d + 1) do
    let i = Random.State.int st nvars in
    e.(i) <- e.(i) + 1
  done;
  e

(* 1e-12 ... 1 in magnitude, either sign. *)
let gen_wide_coeff st =
  let m = Float.pow 10.0 (-.Random.State.float st 12.0) in
  if Random.State.bool st then m else -.m

(* Few distinct magnitudes, so many products cancel exactly. *)
let gen_small_coeff st =
  let m = [| 0.5; 1.0; 2.0; 0.25 |].(Random.State.int st 4) in
  if Random.State.bool st then m else -.m

let gen_poly nvars ~deg ~terms coeff st =
  Poly.of_terms nvars (List.init terms (fun _ -> (gen_monomial nvars deg st, coeff st)))

type mt_case = { shape : string; order : int; a : Poly.t; b : Poly.t }

(* Flowpipe-sized factors: 8/10/11 variables, order 3, up to ~165 terms. *)
let gen_realistic st =
  let nvars = [| 8; 10; 11 |].(Random.State.int st 3) in
  let terms () = 100 + Random.State.int st 80 in
  let g () = gen_poly nvars ~deg:3 ~terms:(terms ()) gen_wide_coeff st in
  { shape = "realistic"; order = 3; a = g (); b = g () }

(* b is a with some signs flipped: every cross term of a flipped and an
   unflipped monomial cancels exactly, exercising the eviction rule. *)
let gen_cancelling st =
  let nvars = 1 + Random.State.int st 8 and order = 1 + Random.State.int st 4 in
  let terms = List.init (2 + Random.State.int st 30) (fun _ ->
      (gen_monomial nvars order st, gen_small_coeff st)) in
  let a = Poly.of_terms nvars terms in
  let b =
    Poly.of_terms nvars
      (List.map (fun (e, c) -> (e, if Random.State.bool st then -.c else c)) terms)
  in
  { shape = "cancelling"; order; a; b }

(* One factor has terms of degree > order: not in the plan. *)
let gen_over_order st =
  let nvars = 2 + Random.State.int st 6 and order = 1 + Random.State.int st 3 in
  let a = gen_poly nvars ~deg:(order + 2) ~terms:(5 + Random.State.int st 40) gen_wide_coeff st in
  let b = gen_poly nvars ~deg:order ~terms:(5 + Random.State.int st 40) gen_wide_coeff st in
  if Random.State.bool st then { shape = "over-order"; order; a; b }
  else { shape = "over-order"; order; a = b; b = a }

(* An arity and an order with a plan. *)
let rec gen_shape st =
  let nvars = 1 + Random.State.int st 15 and order = 1 + Random.State.int st 7 in
  if Tm_plan.shape ~nvars ~order = None then gen_shape st else (nvars, order)

(* 0- and 1-term factors. *)
let gen_tiny st =
  let nvars, order = gen_shape st in
  let a = gen_poly nvars ~deg:order ~terms:(Random.State.int st 2) gen_wide_coeff st in
  let b = gen_poly nvars ~deg:order ~terms:(Random.State.int st 20) gen_wide_coeff st in
  if Random.State.bool st then { shape = "tiny"; order; a; b }
  else { shape = "tiny"; order; a = b; b = a }

(* Any arity and order with a plan: plans of every size, and sparse
   factors whose rank span is wide. *)
let gen_sparse st =
  let nvars, order = gen_shape st in
  let g () = gen_poly nvars ~deg:order ~terms:(1 + Random.State.int st 12) gen_small_coeff st in
  { shape = "sparse"; order; a = g (); b = g () }

(* Magnitudes around 1e-170: products land near 1e-340, so they flush
   to 0.0 of either sign or to subnormals, and running sums reach ±0
   with no cancellation. *)
let gen_underflow_coeff st =
  let m = Float.pow 10.0 (-.(155.0 +. Random.State.float st 30.0)) in
  if Random.State.bool st then m else -.m

let gen_underflow st =
  let nvars = 1 + Random.State.int st 9 and order = 1 + Random.State.int st 3 in
  let g () = gen_poly nvars ~deg:order ~terms:(1 + Random.State.int st 40) gen_underflow_coeff st in
  { shape = "underflow"; order; a = g (); b = g () }

(* [of_terms] drops zero coefficients; a product by a tiny constant keeps
   the terms whose coefficients underflow, as 0.0 of either sign, which
   a model reads as absent monomials. *)
let scale_down nvars p = Poly.mul (Poly.const nvars 1e-200) p

(* Before [scale_down]: ±1e-200 becomes ±0.0, ±1e200 a small coefficient
   (so products still cancel exactly), NaN and ±inf stay. *)
let gen_special_coeff st =
  match Random.State.int st 30 with
  | 0 -> Float.nan
  | 1 -> Float.infinity
  | 2 -> Float.neg_infinity
  | 3 | 4 | 5 | 6 | 7 | 8 -> if Random.State.bool st then 1e-200 else -1e-200
  | _ -> 1e200 *. gen_small_coeff st

let gen_special st =
  let nvars = 1 + Random.State.int st 6 and order = 1 + Random.State.int st 3 in
  let g () =
    scale_down nvars
      (gen_poly nvars ~deg:order ~terms:(1 + Random.State.int st 12) gen_special_coeff st)
  in
  { shape = "special"; order; a = g (); b = g () }

let arb_mt_case =
  let gen st =
    match Random.State.int st 7 with
    | 0 -> gen_realistic st
    | 1 -> gen_cancelling st
    | 2 -> gen_over_order st
    | 3 -> gen_tiny st
    | 4 -> gen_underflow st
    | 5 -> gen_special st
    | _ -> gen_sparse st
  in
  let print c =
    Fmt.str "%s order=%d@.a = %a@.b = %a" c.shape c.order Poly.pp c.a Poly.pp c.b
  in
  QCheck.make ~print gen

let prop_mul_trunc_kept_bits =
  QCheck.Test.make ~name:"mul_trunc kept part = truncate (mul a b), bit for bit" ~count:560
    arb_mt_case (fun c -> kept_as_reference ~order:c.order c.a c.b)

let prop_mul_trunc_tail_encloses =
  QCheck.Test.make ~name:"mul_trunc kept part + tail contains mul a b" ~count:560 arb_mt_case
    (fun c -> tail_encloses ~order:c.order c.a c.b)

(* The flowpipe's own factor shape: every monomial of degree <= 3 in 8
   variables (the dense 165-term case), with a few exact cancellations. *)
let test_mul_trunc_dense_full () =
  let st = Random.State.make [| 17 |] in
  let full = Poly.add (Poly.pow (Poly.add (Poly.const 8 1.0)
    (List.fold_left Poly.add (Poly.zero 8) (List.init 8 (Poly.var 8)))) 3) (Poly.zero 8) in
  Alcotest.(check int) "165 terms" 165 (Poly.num_terms full);
  let noisy = gen_poly 8 ~deg:3 ~terms:165 gen_wide_coeff st in
  let a = Poly.add full noisy and b = Poly.sub full noisy in
  Alcotest.(check bool) "a*b" true (same_contract ~order:3 a b);
  Alcotest.(check bool) "a*a" true (same_contract ~order:3 a a);
  Alcotest.(check bool) "full*noisy" true (same_contract ~order:3 full noisy)

(* Products whose slots come out ±0 (an exact cancellation, an
   underflow) and one whose tail raises, each followed by a clean
   product on the same domain, plan and ranks: the sweep returns every
   slot to -0.0, and a raising tail is computed before the accumulator
   is touched, so the clean products still meet the contract. *)
let test_mul_trunc_fallback_then_fast () =
  let x = Poly.var 2 0 and y = Poly.var 2 1 in
  let s = Poly.add x y and d = Poly.sub x y in
  let tiny = Poly.add (Poly.scale 1e-170 x) y in
  let nan_x = Poly.scale Float.nan x in
  List.iteri
    (fun k (name, order, a, b) ->
      Alcotest.(check bool) (Fmt.str "%d: %s" k name) true (same_contract ~order a b))
    [ ("xy - xy cancels", 2, s, d);
      ("clean", 2, s, s);
      ("x^2 underflows to 0", 2, tiny, tiny);
      ("clean", 2, s, s);
      ("NaN tail raises", 1, nan_x, y);
      ("clean", 1, s, s) ];
  Alcotest.(check bool) "NaN tail raised" true
    (Result.is_error (outcome (fun () -> mul_trunc ~order:1 nan_x y)))

(* One plan serves every domain: the same products computed
   concurrently in 4 domains (racing to build a plan no earlier test
   used) and then in 1 are bit-identical, kept parts and tails, and meet
   the contract. Every third product cancels exactly, so each domain's
   accumulator holds ±0 slots again and again. *)
let test_mul_trunc_domains () =
  let st = Random.State.make [| 23 |] in
  let realistic () = gen_poly 9 ~deg:3 ~terms:(60 + Random.State.int st 100) gen_wide_coeff st in
  (* noise free of z0 and z1: only z0 * (-z1) and then z1 * z0 reach
     z0 z1, whose running sum goes -1 -> 0 *)
  let noise () =
    Poly.of_terms 9
      (List.init (40 + Random.State.int st 80) (fun _ ->
           let e = gen_monomial 9 3 st in
           e.(0) <- 0;
           e.(1) <- 0;
           (e, gen_wide_coeff st)))
  in
  let z0 = Poly.var 9 0 and z1 = Poly.var 9 1 in
  let cases =
    List.init 18 (fun k ->
        if k mod 3 = 1 then (Poly.add (Poly.add z0 z1) (noise ()), Poly.add (Poly.sub z0 z1) (noise ()))
        else (realistic (), realistic ()))
  in
  let run () = List.map (fun (a, b) -> result_bits (mul_trunc ~order:3 a b)) cases in
  let workers = List.init 4 (fun _ -> Domain.spawn run) in
  let par = List.map Domain.join workers in
  let seq = run () in
  List.iteri (fun d r -> Alcotest.(check bool) (Fmt.str "domain %d" d) true (r = seq)) par;
  List.iteri
    (fun k (a, b) -> Alcotest.(check bool) (Fmt.str "case %d" k) true (same_contract ~order:3 a b))
    cases

(* Dropped monomials with every exponent even and a negative
   coefficient: nothing is kept, and the tail, which bounds each pair of
   factor parts by its interval product, must contain the dropped values
   [-1, 0] (of -x0^2, -x0^2 x1^2, -3 x0^2 x1^2) and stay within the
   parts' product. *)
let test_mul_trunc_even_negative_tail () =
  let x0 = Poly.var 2 0 and x1 = Poly.var 2 1 in
  let cases =
    [ ("-x0 * x0", 1, Poly.neg x0, x0, 1.0);
      ("-x0^2 * (x0^2 + x1^2)", 2, Poly.neg (Poly.mul x0 x0),
       Poly.add (Poly.mul x0 x0) (Poly.mul x1 x1), 2.0);
      ("-(x0 x1) * 3 x0 x1", 2, Poly.neg (Poly.mul x0 x1), Poly.scale 3.0 (Poly.mul x0 x1), 3.0) ]
  in
  List.iter
    (fun (name, order, a, b, m) ->
      Alcotest.(check bool) (name ^ ": contract") true (same_contract ~order a b);
      let keep, tail = mul_trunc ~order a b in
      Alcotest.(check bool) (name ^ ": nothing kept") true (Poly.is_zero keep);
      Alcotest.(check bool) (name ^ ": contains [-m, 0]") true
        (I.subset (I.make (-.m) 0.0) tail);
      Alcotest.(check bool) (name ^ ": within the parts' product") true
        (I.subset tail (I.make (-.m -. 1e-12) (m +. 1e-12))))
    cases

(* A NaN in a factor part that enters the tail raises; one in a part
   that only meets kept degrees stays in the kept part, bit for bit,
   beside a finite tail: the plan kernel on coefficient arrays (the
   model's product then raises on the factor's non-finite bound). The
   next product on the same domain and plan is clean. *)
let plan_mul_trunc ~order a b =
  let pl = Tm_plan.find ~nvars:(Poly.nvars a) ~order in
  let ca = dense pl a and cb = dense pl b in
  let tail = Tm_plan.tail pl (Tm_plan.graded pl ca) (Tm_plan.graded pl cb) in
  let keep = Tm_plan.mul pl ca cb in
  let terms = ref [] in
  Array.iteri
    (fun r x ->
      if x <> 0.0 then terms := (Array.init (Poly.nvars a) (Tm_plan.exponent pl r), x) :: !terms)
    keep;
  (Poly.of_terms (Poly.nvars a) !terms, tail)

let test_mul_trunc_nan_even_tail () =
  let x0 = Poly.var 2 0 and x1 = Poly.var 2 1 in
  let s = Poly.add x0 x1 in
  Alcotest.(check bool) "NaN x0 * x0 raises" true
    (Result.is_error (outcome (fun () -> plan_mul_trunc ~order:1 (Poly.scale Float.nan x0) x0)));
  Alcotest.(check bool) "NaN x0^2 beside x1^2 raises" true
    (Result.is_error
       (outcome (fun () -> plan_mul_trunc ~order:1 (Poly.add (Poly.scale Float.nan x0) x1) s)));
  let nan_const = Poly.add (Poly.const 2 Float.nan) x1 in
  (match plan_mul_trunc ~order:1 nan_const x0 with
  | keep, tail ->
    Alcotest.(check bool) "kept NaN x0" true
      (List.exists (fun (e, c) -> e = [| 1; 0 |] && Float.is_nan c) (Poly.to_terms keep));
    Alcotest.(check bool) "finite tail" true (Float.is_finite (I.lo tail) && Float.is_finite (I.hi tail)));
  Alcotest.(check bool) "NaN constant: the model raises" true
    (Result.is_error (outcome (fun () -> mul_trunc ~order:1 nan_const x0)));
  Alcotest.(check bool) "NaN constant: contract" true (same_contract ~order:1 nan_const x0);
  Alcotest.(check bool) "clean" true (same_contract ~order:1 s s)

(* One plan (8 variables, order 3: 165 monomials) reached by a sparse
   factor and by a dense one, each also with a term of degree > order in
   the middle of its key range, which the model bounds into its
   remainder. *)
let test_mul_trunc_rank_and_merge () =
  let st = Random.State.make [| 41 |] in
  let full = Poly.pow (Poly.add (Poly.const 8 1.0)
    (List.fold_left Poly.add (Poly.zero 8) (List.init 8 (Poly.var 8)))) 3 in
  let dense = Poly.add full (gen_poly 8 ~deg:3 ~terms:165 gen_wide_coeff st) in
  let sparse = gen_poly 8 ~deg:3 ~terms:3 gen_wide_coeff st in
  let x0_4 = Poly.pow (Poly.var 8 0) 4 in
  let dense_over = Poly.add dense x0_4 in
  let sparse_over = Poly.add (Poly.add (Poly.const 8 0.5) x0_4) (Poly.pow (Poly.var 8 7) 3) in
  Alcotest.(check bool) "dense factor is dense" true (Poly.num_terms dense * 8 >= 165);
  Alcotest.(check bool) "sparse factor is sparse" true (Poly.num_terms sparse * 8 < 165);
  List.iter
    (fun (name, a, b) -> Alcotest.(check bool) name true (same_contract ~order:3 a b))
    [ ("sparse * dense", sparse, dense);
      ("dense * sparse", dense, sparse);
      ("dense * dense", dense, full);
      ("dense with x0^4 * sparse", dense_over, sparse);
      ("sparse * dense with x0^4", sparse, dense_over);
      ("sparse with x0^4 * dense", sparse_over, dense);
      ("dense * sparse with x0^4", dense, sparse_over) ]

(* The product table stores ranks in 16 bits: every plan that is built
   must have fewer than 2^16 input monomials. *)
let test_plan_ranks_fit_16_bits () =
  let built = ref 0 and largest = ref 0 in
  for nvars = 1 to 15 do
    for order = 0 to 7 do
      match Tm_plan.shape ~nvars ~order with
      | None -> ()
      | Some n_in ->
        incr built;
        largest := max !largest n_in;
        if n_in >= 1 lsl 16 then
          Alcotest.failf "plan (%d vars, order %d): %d ranks" nvars order n_in
    done
  done;
  (* every arity up to order 3, and 10 / 7 / 6 / 5 variables at orders
     4 / 5 / 6 / 7 *)
  Alcotest.(check int) "plans built" ((4 * 15) + 10 + 7 + 6 + 5) !built;
  Alcotest.(check int) "largest n_in" 1_001 !largest;
  Alcotest.(check bool) "order 8 has no plan" true (Tm_plan.shape ~nvars:1 ~order:8 = None)

(* [bound_unit] charges the summation error: a constant 1.0 plus the
   695 odd monomials of degree <= 3 in 15 variables, each of coefficient
   1e-16, ranges over [1 - 6.95e-14, 1 + 6.95e-14] exactly, but each
   1e-16 rounds away when added to 1.0, so uncharged sums would report
   [1, 1] (and [Interval.widen]'s 1e-14 would not reach 1 + 6.9e-14). *)
let test_bound_unit_charges_summation () =
  let terms = ref [ (Array.make 15 0, 1.0) ] in
  let add e = if Array.fold_left ( + ) 0 e mod 2 = 1 then terms := (e, 1e-16) :: !terms in
  for i = 0 to 14 do
    for j = i to 14 do
      for k = j to 14 do
        let e = Array.make 15 0 in
        e.(i) <- e.(i) + 1;
        e.(j) <- e.(j) + 1;
        e.(k) <- e.(k) + 1;
        add e
      done
    done;
    let e = Array.make 15 0 in
    e.(i) <- 1;
    add e
  done;
  let p = Poly.of_terms 15 !terms in
  Alcotest.(check int) "696 terms" 696 (Poly.num_terms p);
  let b = bound_unit p in
  Alcotest.(check bool) "hi >= 1 + 6.9e-14" true (I.hi b >= 1.0 +. 6.9e-14);
  Alcotest.(check bool) "lo <= 1 - 6.9e-14" true (I.lo b <= 1.0 -. 6.9e-14);
  Alcotest.(check bool) "still tight" true (I.width b < 1e-12)

(* ---------------- Bernstein ---------------- *)

let test_binomial () =
  check_float "C(5,2)" 10.0 (Bernstein.binomial 5 2);
  check_float "C(n,0)" 1.0 (Bernstein.binomial 7 0);
  check_float "outside" 0.0 (Bernstein.binomial 3 5)

let test_basis_partition_of_unity () =
  let d = 4 in
  List.iter
    (fun t ->
      let sum = ref 0.0 in
      for k = 0 to d do
        sum := !sum +. Bernstein.basis ~degree:d ~k t
      done;
      check_float "partition of unity" 1.0 !sum)
    [ 0.0; 0.3; 0.5; 0.77; 1.0 ]

let test_bernstein_reproduces_linear () =
  (* Bernstein operators reproduce affine functions exactly *)
  let f x = (2.0 *. x.(0)) -. (3.0 *. x.(1)) +. 1.0 in
  let box = Box.make ~lo:[| 0.0; -1.0 |] ~hi:[| 2.0; 1.0 |] in
  let a = Bernstein.approximate ~f ~degrees:[| 3; 3 |] box in
  List.iter
    (fun p -> Alcotest.(check (float 1e-9)) "affine exact" (f p) (Bernstein.eval a p))
    [ [| 0.0; -1.0 |]; [| 1.0; 0.0 |]; [| 2.0; 1.0 |]; [| 0.5; 0.25 |] ]

let test_bernstein_interpolates_corners () =
  let f x = sin x.(0) *. cos x.(1) in
  let box = Box.make ~lo:[| 0.0; 0.0 |] ~hi:[| 1.0; 1.0 |] in
  let a = Bernstein.approximate ~f ~degrees:[| 4; 4 |] box in
  (* Bernstein approximations interpolate the corner samples *)
  List.iter
    (fun p -> Alcotest.(check (float 1e-9)) "corner" (f p) (Bernstein.eval a p))
    (Box.corners box)

let test_bernstein_to_poly_consistent () =
  let f x = (x.(0) *. x.(0)) +. (0.5 *. x.(1)) in
  let box = Box.make ~lo:[| -1.0; 0.0 |] ~hi:[| 1.0; 2.0 |] in
  let a = Bernstein.approximate ~f ~degrees:[| 3; 2 |] box in
  let p = Bernstein.to_poly a in
  (* to_poly lives in normalized coordinates t in [0,1]^2 *)
  List.iter
    (fun (t0, t1) ->
      let x = [| -1.0 +. (2.0 *. t0); 2.0 *. t1 |] in
      Alcotest.(check (float 1e-8)) "power basis agrees" (Bernstein.eval a x)
        (Poly.eval p [| t0; t1 |]))
    [ (0.0, 0.0); (0.5, 0.5); (1.0, 1.0); (0.2, 0.9) ]

let test_bernstein_coeff_range_bounds_eval () =
  let f x = tanh x.(0) in
  let box = Box.make ~lo:[| -2.0 |] ~hi:[| 2.0 |] in
  let a = Bernstein.approximate ~f ~degrees:[| 5 |] box in
  let range = Bernstein.coeff_range a in
  List.iter
    (fun x ->
      Alcotest.(check bool) "in coeff hull" true
        (I.contains (I.widen range) (Bernstein.eval a [| x |])))
    [ -2.0; -1.0; 0.0; 0.5; 2.0 ]

let test_bernstein_remainder_sound_1d () =
  (* |f - B| on a dense grid must stay below the computed remainder *)
  let f x = sin (2.0 *. x.(0)) in
  let box = Box.make ~lo:[| 0.0 |] ~hi:[| 1.0 |] in
  let a = Bernstein.approximate ~f ~degrees:[| 4 |] box in
  let rem = Bernstein.remainder ~lipschitz:2.0 ~f ~samples_per_dim:12 a in
  for i = 0 to 100 do
    let x = [| float_of_int i /. 100.0 |] in
    let err = Float.abs (f x -. Bernstein.eval a x) in
    if err > rem +. 1e-9 then
      Alcotest.failf "remainder violated at %g: err %g > rem %g" x.(0) err rem
  done

let test_bernstein_remainder_decreases_with_samples () =
  let f x = exp x.(0) in
  let box = Box.make ~lo:[| 0.0 |] ~hi:[| 1.0 |] in
  let a = Bernstein.approximate ~f ~degrees:[| 3 |] box in
  let coarse = Bernstein.remainder_sampled ~lipschitz:3.0 ~f ~samples_per_dim:3 a in
  let fine = Bernstein.remainder_sampled ~lipschitz:3.0 ~f ~samples_per_dim:30 a in
  Alcotest.(check bool) "finer grid tightens" true (fine < coarse)

(* [remainder] skips the sample sweep only when the Lipschitz or
   curvature bound is already within the sweep's pad; either way it
   returns the bits of the full minimum, computed here from the three
   bounds with the sweep always run. Boxes from narrow to wide move the
   winner from the cheap bounds to the sweep. *)
let test_bernstein_early_out_bit_identical () =
  let f x = tanh (1.5 *. x.(0)) *. cos x.(1) in
  let sweeps () = Dwv_util.Counters.get "bernstein_sample_sweeps" in
  let fired = ref 0 and swept = ref 0 in
  List.iter
    (fun (w, lipschitz, hessian_diag) ->
      let box = Box.make ~lo:[| -0.3; 0.1 |] ~hi:[| -0.3 +. w; 0.1 +. (0.5 *. w) |] in
      let a = Bernstein.approximate ~f ~degrees:[| 2; 2 |] box in
      let samples_per_dim = 12 in
      let full =
        let base =
          Float.min (Bernstein.remainder_lipschitz ~lipschitz a)
            (Bernstein.remainder_sampled ~lipschitz ~f ~samples_per_dim a)
        in
        match hessian_diag with
        | Some h -> Float.min base (Bernstein.remainder_curvature ~hessian_diag:h a)
        | None -> base
      in
      let before = sweeps () in
      let r = Bernstein.remainder ?hessian_diag ~lipschitz ~f ~samples_per_dim a in
      if sweeps () = before then incr fired else incr swept;
      Alcotest.(check int64)
        (Fmt.str "w=%g L=%g hessian=%b" w lipschitz (Option.is_some hessian_diag))
        (Int64.bits_of_float full) (Int64.bits_of_float r))
    [ (0.01, 1.5, Some [| 4.0; 2.0 |]); (0.2, 1.5, Some [| 4.0; 2.0 |]);
      (1.0, 1.5, Some [| 4.0; 2.0 |]); (3.0, 1.5, Some [| 4.0; 2.0 |]);
      (0.01, 1.5, None); (1.0, 1.5, None); (1.0, 0.0, None);
      (1.0, Float.nan, None); (1.0, 1.5, Some [| Float.nan; 2.0 |]) ];
  Alcotest.(check bool) "the early-out fired" true (!fired > 0);
  Alcotest.(check bool) "the sweep ran" true (!swept > 0);
  Alcotest.check_raises "samples_per_dim < 2"
    (Invalid_argument "Bernstein.remainder_sampled: need >= 2 samples") (fun () ->
      let a = Bernstein.approximate ~f ~degrees:[| 2; 2 |] (Box.make ~lo:[| 0.0; 0.0 |] ~hi:[| 1.0; 1.0 |]) in
      ignore (Bernstein.remainder ~lipschitz:0.0 ~f ~samples_per_dim:1 a))

(* [eval] computes each axis's basis values once per point and walks
   the coefficients with an odometer; it must give the bits of the
   direct sum over coefficients of c times the product of one [basis]
   call per axis, in flat order. *)
let test_bernstein_eval_bit_identical () =
  let st = Random.State.make [| 5 |] in
  for _ = 1 to 40 do
    let n = 1 + Random.State.int st 3 in
    let degrees = Array.init n (fun _ -> 1 + Random.State.int st 4) in
    let lo = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) in
    let hi = Array.mapi (fun i l -> if i = 0 && Random.State.int st 5 = 0 then l else l +. Random.State.float st 2.0) lo in
    let box = Box.make ~lo ~hi in
    let f x = Array.fold_left (fun acc v -> (acc *. 1.3) +. sin v) 0.2 x in
    let a = Bernstein.approximate ~f ~degrees box in
    let x = Array.init n (fun i -> lo.(i) +. (Random.State.float st 1.0 *. (hi.(i) -. lo.(i)))) in
    let t = Array.init n (fun i -> let w = hi.(i) -. lo.(i) in if w < 1e-300 then 0.0 else (x.(i) -. lo.(i)) /. w) in
    let size = Array.fold_left (fun acc d -> acc * (d + 1)) 1 degrees in
    let expected = ref 0.0 in
    for flat = 0 to size - 1 do
      let k = Array.make n 0 and rem = ref flat in
      for i = n - 1 downto 0 do
        k.(i) <- !rem mod (degrees.(i) + 1);
        rem := !rem / (degrees.(i) + 1)
      done;
      let c = f (Array.init n (fun i -> lo.(i) +. ((hi.(i) -. lo.(i)) *. float_of_int k.(i) /. float_of_int degrees.(i)))) in
      let weight = ref 1.0 in
      Array.iteri (fun i ki -> weight := !weight *. Bernstein.basis ~degree:degrees.(i) ~k:ki t.(i)) k;
      expected := !expected +. (c *. !weight)
    done;
    Alcotest.(check int64) "eval bits" (Int64.bits_of_float !expected)
      (Int64.bits_of_float (Bernstein.eval a x))
  done

let suite =
  [
    Alcotest.test_case "eval" `Quick test_eval;
    Alcotest.test_case "degree/terms" `Quick test_degree_terms;
    Alcotest.test_case "add cancellation" `Quick test_add_cancel;
    Alcotest.test_case "mul known" `Quick test_mul_known;
    Alcotest.test_case "pow" `Quick test_pow;
    Alcotest.test_case "truncate" `Quick test_truncate;
    Alcotest.test_case "split_var" `Quick test_split_var;
    Alcotest.test_case "diff" `Quick test_diff;
    Alcotest.test_case "bound_unit constant exact" `Quick test_bound_unit_exact_constant;
    Alcotest.test_case "bound_unit even/odd" `Quick test_bound_unit_even_odd;
    Alcotest.test_case "exponent guard" `Quick test_exponent_range_guard;
    Alcotest.test_case "nvars guard" `Quick test_nvars_guard;
    Alcotest.test_case "exponent carry guard" `Quick test_exponent_carry_guard;
    Alcotest.test_case "mul in the 15th variable" `Quick test_mul_top_variable;
    Alcotest.test_case "mul_trunc dense 165-term" `Quick test_mul_trunc_dense_full;
    Alcotest.test_case "mul_trunc 1 vs 4 domains" `Quick test_mul_trunc_domains;
    Alcotest.test_case "mul_trunc fallback then fast" `Quick test_mul_trunc_fallback_then_fast;
    Alcotest.test_case "mul_trunc even negative tail" `Quick test_mul_trunc_even_negative_tail;
    Alcotest.test_case "mul_trunc NaN even tail" `Quick test_mul_trunc_nan_even_tail;
    Alcotest.test_case "mul_trunc rank and merge" `Quick test_mul_trunc_rank_and_merge;
    Alcotest.test_case "plan ranks fit 16 bits" `Quick test_plan_ranks_fit_16_bits;
    QCheck_alcotest.to_alcotest prop_mul_trunc_kept_bits;
    QCheck_alcotest.to_alcotest prop_mul_trunc_tail_encloses;
    QCheck_alcotest.to_alcotest prop_bound_unit_sound;
    QCheck_alcotest.to_alcotest prop_mul_eval_homomorphism;
    QCheck_alcotest.to_alcotest prop_ieval_sound;
    Alcotest.test_case "binomial" `Quick test_binomial;
    Alcotest.test_case "basis partition of unity" `Quick test_basis_partition_of_unity;
    Alcotest.test_case "bernstein linear exact" `Quick test_bernstein_reproduces_linear;
    Alcotest.test_case "bernstein corners" `Quick test_bernstein_interpolates_corners;
    Alcotest.test_case "bernstein to_poly" `Quick test_bernstein_to_poly_consistent;
    Alcotest.test_case "bernstein coeff range" `Quick test_bernstein_coeff_range_bounds_eval;
    Alcotest.test_case "bernstein remainder sound" `Quick test_bernstein_remainder_sound_1d;
    Alcotest.test_case "bernstein remainder tightens" `Quick
      test_bernstein_remainder_decreases_with_samples;
    Alcotest.test_case "bernstein remainder early-out" `Quick
      test_bernstein_early_out_bit_identical;
    Alcotest.test_case "bound_unit charges summation" `Quick test_bound_unit_charges_summation;
    Alcotest.test_case "bernstein eval bit identical" `Quick test_bernstein_eval_bit_identical;
  ]
