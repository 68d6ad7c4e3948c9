(* Tests for dwv_poly: polynomial arithmetic (including the packed
   monomial representation), range enclosures, Bernstein approximation. *)

module Poly = Dwv_poly.Poly
module Bernstein = Dwv_poly.Bernstein
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

let test_truncate () =
  let p = sample_poly () in
  let low, high = Poly.truncate ~order:1 p in
  Alcotest.(check int) "low degree" 1 (Poly.degree low);
  Alcotest.(check int) "dropped terms" 1 (Poly.num_terms high);
  Alcotest.(check bool) "partition" true (Poly.equal (Poly.add low high) p)

let test_split_var () =
  let p = sample_poly () in
  let without, with_ = Poly.split_var p 1 in
  Alcotest.(check int) "terms without z1" 2 (Poly.num_terms without);
  Alcotest.(check int) "terms with z1" 1 (Poly.num_terms with_);
  Alcotest.(check bool) "partition" true (Poly.equal (Poly.add without with_) p)

let test_diff () =
  let p = sample_poly () in
  (* dp/dz1 = -2 z0 z1 *)
  let d = Poly.diff p 1 in
  check_float "at (1,3)" (-6.0) (Poly.eval d [| 1.0; 3.0 |])

let test_bound_unit_exact_constant () =
  let p = Poly.const 2 5.0 in
  let b = Poly.bound_unit p in
  check_float "lo" 5.0 (I.lo b);
  check_float "hi" 5.0 (I.hi b)

let test_bound_unit_even_odd () =
  (* z0^2 over [-1,1]: [0,1]; z0 over [-1,1]: [-1,1] *)
  let even = Poly.of_terms 1 [ ([| 2 |], 3.0) ] in
  Alcotest.(check bool) "even" true (I.equal (Poly.bound_unit even) (I.make 0.0 3.0));
  let odd = Poly.of_terms 1 [ ([| 1 |], 3.0) ] in
  Alcotest.(check bool) "odd" true (I.equal (Poly.bound_unit odd) (I.make (-3.0) 3.0))

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
      I.contains (I.widen (Poly.bound_unit p)) v)

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

(* ---- mul_trunc = truncate (mul a b) + bound_unit of the dropped part,
   compared bit for bit ---- *)

let reference_mul_trunc ~order a b =
  let keep, drop = Poly.truncate ~order (Poly.mul a b) in
  (keep, Poly.bound_unit drop)

let result_bits (p, iv) =
  ( Poly.nvars p,
    List.map (fun (e, c) -> (Array.to_list e, Int64.bits_of_float c)) (Poly.to_terms p),
    Int64.bits_of_float (I.lo iv),
    Int64.bits_of_float (I.hi iv) )

let same_as_reference ~order a b =
  result_bits (Poly.mul_trunc ~order a b) = result_bits (reference_mul_trunc ~order a b)

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

(* 0- and 1-term factors. *)
let gen_tiny st =
  let nvars = 1 + Random.State.int st 10 and order = 1 + Random.State.int st 6 in
  let a = gen_poly nvars ~deg:order ~terms:(Random.State.int st 2) gen_wide_coeff st in
  let b = gen_poly nvars ~deg:order ~terms:(Random.State.int st 20) gen_wide_coeff st in
  if Random.State.bool st then { shape = "tiny"; order; a; b }
  else { shape = "tiny"; order; a = b; b = a }

(* Any arity and order: plans of every size, including ones over the
   plan memory bound, and sparse factors whose rank span is wide. *)
let gen_sparse st =
  let nvars = 1 + Random.State.int st 15 and order = 1 + Random.State.int st 7 in
  let g () = gen_poly nvars ~deg:order ~terms:(1 + Random.State.int st 12) gen_small_coeff st in
  { shape = "sparse"; order; a = g (); b = g () }

let arb_mt_case =
  let gen st =
    match Random.State.int st 5 with
    | 0 -> gen_realistic st
    | 1 -> gen_cancelling st
    | 2 -> gen_over_order st
    | 3 -> gen_tiny st
    | _ -> gen_sparse st
  in
  let print c =
    Fmt.str "%s order=%d@.a = %a@.b = %a" c.shape c.order Poly.pp c.a Poly.pp c.b
  in
  QCheck.make ~print gen

let prop_mul_trunc_bit_identical =
  QCheck.Test.make ~name:"mul_trunc = truncate (mul a b) + bound_unit, bit for bit"
    ~count:400 arb_mt_case (fun c -> same_as_reference ~order:c.order c.a c.b)

(* The flowpipe's own factor shape: every monomial of degree <= 3 in 8
   variables (the dense 165-term case), with a few exact cancellations. *)
let test_mul_trunc_dense_full () =
  let st = Random.State.make [| 17 |] in
  let full = Poly.add (Poly.pow (Poly.add (Poly.const 8 1.0)
    (List.fold_left Poly.add (Poly.zero 8) (List.init 8 (Poly.var 8)))) 3) (Poly.zero 8) in
  Alcotest.(check int) "165 terms" 165 (Poly.num_terms full);
  let noisy = gen_poly 8 ~deg:3 ~terms:165 gen_wide_coeff st in
  let a = Poly.add full noisy and b = Poly.sub full noisy in
  Alcotest.(check bool) "a*b" true (same_as_reference ~order:3 a b);
  Alcotest.(check bool) "a*a" true (same_as_reference ~order:3 a a);
  Alcotest.(check bool) "full*noisy" true (same_as_reference ~order:3 full noisy)

(* One plan serves every domain: the same products computed in 1 domain
   and concurrently in 4 (racing to build a plan no earlier test used)
   are bit-identical to the reference. *)
let test_mul_trunc_domains () =
  let st = Random.State.make [| 23 |] in
  let cases =
    List.init 12 (fun _ ->
        let g () = gen_poly 9 ~deg:3 ~terms:(60 + Random.State.int st 100) gen_wide_coeff st in
        (g (), g ()))
  in
  let expected = List.map (fun (a, b) -> result_bits (reference_mul_trunc ~order:3 a b)) cases in
  let run () = List.map (fun (a, b) -> result_bits (Poly.mul_trunc ~order:3 a b)) cases in
  let workers = List.init 4 (fun _ -> Domain.spawn run) in
  let par = List.map Domain.join workers in
  List.iteri (fun d r -> Alcotest.(check bool) (Fmt.str "domain %d" d) true (r = expected)) par;
  Alcotest.(check bool) "1 domain" true (run () = expected)

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
    QCheck_alcotest.to_alcotest prop_mul_trunc_bit_identical;
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
  ]
