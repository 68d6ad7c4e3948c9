(* Tests for dwv_taylor: the fundamental Taylor-model invariant (function
   value inside poly(z) + remainder), elementary-function composition,
   symbolic-remainder plumbing. *)

module Tm = Dwv_taylor.Taylor_model
module Tm_vec = Dwv_taylor.Tm_vec
module Poly = Dwv_poly.Poly
module I = Dwv_interval.Interval
module Box = Dwv_interval.Box

let order = 4

let var2 i = Tm.var ~nvars:2 ~order i

(* Check the invariant on a grid: for z in the domain, [truth z] must lie
   inside the model's evaluation at z. *)
let check_sound ~name tm truth =
  for i = -4 to 4 do
    for j = -4 to 4 do
      let z = [| float_of_int i /. 4.0; float_of_int j /. 4.0 |] in
      let enclosure = I.widen ~eps:1e-9 (Tm.eval tm z) in
      let v = truth z in
      if not (I.contains enclosure v) then
        Alcotest.failf "%s: %g not in %a at (%g, %g)" name v I.pp enclosure z.(0) z.(1)
    done
  done

let test_var_identity () =
  check_sound ~name:"var" (var2 0) (fun z -> z.(0))

let test_arith_soundness () =
  let z0 = var2 0 and z1 = var2 1 in
  let tm = Tm.add (Tm.mul z0 z1) (Tm.scale 2.0 (Tm.pow z0 2)) in
  check_sound ~name:"arith" tm (fun z -> (z.(0) *. z.(1)) +. (2.0 *. z.(0) *. z.(0)))

let test_mul_truncation_sound () =
  (* order 2 model of z0^2 * z1^2 (degree 4): dropped terms must be
     covered by the remainder *)
  let z0 = Tm.var ~nvars:2 ~order:2 0 and z1 = Tm.var ~nvars:2 ~order:2 1 in
  let tm = Tm.mul (Tm.mul z0 z0) (Tm.mul z1 z1) in
  check_sound ~name:"truncation" tm (fun z -> z.(0) ** 2.0 *. (z.(1) ** 2.0))

let test_tanh_soundness () =
  let z0 = var2 0 in
  let tm = Tm.tanh_ (Tm.scale 1.5 z0) in
  check_sound ~name:"tanh" tm (fun z -> tanh (1.5 *. z.(0)))

let test_sigmoid_soundness () =
  let z0 = var2 0 in
  let tm = Tm.sigmoid_ (Tm.shift 0.5 z0) in
  check_sound ~name:"sigmoid" tm (fun z -> Dwv_util.Floatx.sigmoid (z.(0) +. 0.5))

let test_exp_soundness () =
  let z0 = var2 0 in
  let tm = Tm.exp_ (Tm.scale 0.5 z0) in
  check_sound ~name:"exp" tm (fun z -> exp (0.5 *. z.(0)))

let test_sin_cos_soundness () =
  let z0 = var2 0 and z1 = var2 1 in
  let arg = Tm.add z0 (Tm.scale 0.5 z1) in
  check_sound ~name:"sin" (Tm.sin_ arg) (fun z -> sin (z.(0) +. (0.5 *. z.(1))));
  check_sound ~name:"cos" (Tm.cos_ arg) (fun z -> cos (z.(0) +. (0.5 *. z.(1))))

let test_relu_cases () =
  (* positive range: identity *)
  let pos = Tm.shift 3.0 (var2 0) in
  check_sound ~name:"relu positive" (Tm.relu pos) (fun z -> z.(0) +. 3.0);
  (* negative range: zero *)
  let neg = Tm.shift (-3.0) (var2 0) in
  check_sound ~name:"relu negative" (Tm.relu neg) (fun _ -> 0.0);
  (* straddling: chord relaxation must still be sound *)
  let mid = Tm.scale 0.8 (var2 0) in
  check_sound ~name:"relu straddle" (Tm.relu mid) (fun z -> Float.max (0.8 *. z.(0)) 0.0)

let test_inv_soundness () =
  let tm = Tm.shift 3.0 (var2 0) in
  check_sound ~name:"inv" (Tm.inv tm) (fun z -> 1.0 /. (z.(0) +. 3.0))

let test_inv_zero_raises () =
  Alcotest.check_raises "range contains zero"
    (Failure "Taylor_model.inv: range contains zero") (fun () ->
      ignore (Tm.inv (var2 0)))

let test_of_interval () =
  let tm = Tm.of_interval ~nvars:2 ~order (I.make 1.0 3.0) in
  (* the remainder is widened outward (layer-5 soundness model), so the
     bound matches up to the widening slack and must still contain the
     original interval *)
  Alcotest.(check bool) "bound" true (I.equal ~eps:1e-12 (Tm.bound tm) (I.make 1.0 3.0));
  Alcotest.(check bool) "bound contains" true (I.subset (I.make 1.0 3.0) (Tm.bound tm))

let test_bound_tighter_than_interval () =
  (* x - x = 0 exactly for models, whereas naive intervals widen *)
  let z0 = var2 0 in
  let diff = Tm.sub z0 z0 in
  Alcotest.(check (float 1e-12)) "cancellation" 0.0 (I.width (Tm.bound diff))

let test_sweep_soundness () =
  let z0 = var2 0 in
  let tm = Tm.add (Tm.scale 1.0 z0) (Tm.scale 1e-14 (Tm.pow z0 3)) in
  let swept = Tm.sweep ~tol:1e-10 tm in
  Alcotest.(check int) "term dropped" 1 (Poly.num_terms (Tm.poly swept));
  check_sound ~name:"sweep" swept (fun z -> z.(0) +. (1e-14 *. (z.(0) ** 3.0)))

let test_absorb_var () =
  let z0 = var2 0 and z1 = var2 1 in
  let tm = Tm.add z0 (Tm.scale 0.5 z1) in
  let absorbed = Tm.absorb_var 1 tm in
  (* z1 gone from the polynomial, bound unchanged (as a superset) *)
  Alcotest.(check bool) "no z1 monomials" true
    (List.for_all (fun (e, _) -> e.(1) = 0) (Poly.to_terms (Tm.poly absorbed)));
  check_sound ~name:"absorb" absorbed (fun z -> z.(0) +. (0.5 *. z.(1)))

let test_symbolize_remainder () =
  let z0 = var2 0 in
  let tm = Tm.add_remainder (I.make (-0.25) 0.75) z0 in
  let sym = Tm.symbolize_remainder ~slot:1 tm in
  Alcotest.(check (float 1e-12)) "zero remainder" 0.0 (I.width (Tm.remainder sym));
  (* bound is preserved: [-1,1] + [-0.25, 0.75] = [-1.25, 1.75] *)
  Alcotest.(check bool) "bound preserved" true
    (I.equal ~eps:1e-12 (Tm.bound sym) (I.make (-1.25) 1.75))

let test_symbolize_busy_slot_raises () =
  let z0 = var2 0 in
  let tm = Tm.add z0 (var2 1) in
  Alcotest.check_raises "slot in use"
    (Invalid_argument "Taylor_model.symbolize_remainder: slot still in use") (fun () ->
      ignore (Tm.symbolize_remainder ~slot:1 tm))

let test_of_expr () =
  let module E = Dwv_expr.Expr in
  let x = [| var2 0; var2 1 |] in
  let u = [| Tm.const ~nvars:2 ~order 0.5 |] in
  let e = E.(add (mul (var 0) (var 1)) (input 0)) in
  let tm = Tm.of_expr ~x ~u e in
  check_sound ~name:"of_expr" tm (fun z -> (z.(0) *. z.(1)) +. 0.5)

let test_of_expr_memo_consistent () =
  let module E = Dwv_expr.Expr in
  let x = [| var2 0; var2 1 |] in
  let u = [||] in
  let shared = E.(mul (var 0) (var 1)) in
  let e = E.(add (tanh_ shared) (pow shared 2)) in
  let plain = Tm.of_expr ~x ~u e in
  let memo = Tm.create_memo () in
  let memoized = Tm.of_expr ~memo ~x ~u e in
  Alcotest.(check bool) "same bound" true
    (I.equal ~eps:1e-12 (Tm.bound plain) (Tm.bound memoized))

(* Regression: the memo table is keyed on structural equality (Expr.equal),
   so structurally identical subtrees built as distinct allocations must hit
   the same entry and still give sound, identical results. Under the old
   physical-equality keying this exercised the silent-miss path. *)
let test_of_expr_memo_structural_duplicates () =
  let module E = Dwv_expr.Expr in
  let x = [| var2 0; var2 1 |] in
  let u = [||] in
  (* two separately-allocated copies of sin(x0 * x1) *)
  let copy () = E.(sin_ (mul (var 0) (var 1))) in
  let a = copy () and b = copy () in
  let e = E.(add (tanh_ a) (pow b 2)) in
  let plain = Tm.of_expr ~x ~u e in
  let memo = Tm.create_memo () in
  let memoized = Tm.of_expr ~memo ~x ~u e in
  Alcotest.(check bool) "same bound across duplicate subtrees" true
    (I.equal ~eps:1e-12 (Tm.bound plain) (Tm.bound memoized));
  check_sound ~name:"memo duplicates" memoized (fun z ->
      let s = Float.sin (z.(0) *. z.(1)) in
      Float.tanh s +. (s *. s))

(* ---------------- Tm_vec ---------------- *)

let test_tm_vec_of_box_roundtrip () =
  let box = Box.make ~lo:[| 1.0; -2.0 |] ~hi:[| 3.0; 0.0 |] in
  let v = Tm_vec.of_box ~order box in
  Alcotest.(check bool) "bound_box = box" true (Box.equal ~eps:1e-12 (Tm_vec.bound_box v) box)

let test_tm_vec_extra_vars () =
  let box = Box.make ~lo:[| 0.0 |] ~hi:[| 1.0 |] in
  let v = Tm_vec.of_box ~total_vars:4 ~order box in
  Alcotest.(check int) "nvars" 4 (Tm.nvars v.(0));
  Alcotest.check_raises "too few"
    (Invalid_argument "Tm_vec.of_box: total_vars below the box dimension") (fun () ->
      ignore (Tm_vec.of_box ~total_vars:0 ~order box))

let test_order_guard () =
  Alcotest.check_raises "order 0" (Invalid_argument "Taylor_model.make: order must be within [1, 7]")
    (fun () -> ignore (Tm.make ~poly:(Poly.zero 2) ~rem:I.zero ~order:0))

(* No caller mixes orders: a binary operation on models of different
   orders (or arities) raises instead of truncating silently. *)
let test_mixed_orders_raise () =
  let a = Tm.var ~nvars:2 ~order:2 0 and b = Tm.var ~nvars:2 ~order:3 1 in
  List.iter
    (fun (name, f) ->
      Alcotest.check_raises name (Invalid_argument ("Taylor_model." ^ name ^ ": order mismatch"))
        (fun () -> ignore (f a b)))
    [ ("add", Tm.add); ("sub", Tm.sub); ("mul", Tm.mul) ];
  Alcotest.check_raises "arity" (Invalid_argument "Taylor_model.mul: arity mismatch") (fun () ->
      ignore (Tm.mul a (Tm.var ~nvars:3 ~order:2 0)))

(* A shape without a product plan has no model: 16 variables, order 8,
   and 11 variables at order 4 (C(15, 4) = 1,365 monomials, past the
   plan's 2^20-pair table). *)
let test_no_plan_raises () =
  let raises name f =
    Alcotest.(check bool) name true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  raises "16 variables" (fun () -> Tm.const ~nvars:16 ~order:3 1.0);
  raises "order 8" (fun () -> Tm.var ~nvars:2 ~order:8 0);
  raises "11 variables at order 4" (fun () -> Tm_vec.of_box ~total_vars:11 ~order:4 (Box.make ~lo:[| 0.0 |] ~hi:[| 1.0 |]));
  Alcotest.(check bool) "10 variables at order 4 has one" true
    (Dwv_taylor.Tm_plan.shape ~nvars:10 ~order:4 <> None)

let prop_compose_soundness =
  QCheck.Test.make ~name:"tanh model sound on random affine arguments" ~count:100
    QCheck.(
      triple (float_range (-1.0) 1.0) (float_range 0.1 1.5) (float_range (-1.0) 1.0))
    (fun (c, s, z) ->
      let tm = Tm.tanh_ (Tm.shift c (Tm.scale s (Tm.var ~nvars:1 ~order:3 0))) in
      let enclosure = I.widen ~eps:1e-9 (Tm.eval tm [| z |]) in
      I.contains enclosure (tanh ((s *. z) +. c)))

(* ---------------- bit identity with the sparse reference ---------------- *)

(* Every operation against [Tm_reference], the sparse Poly-backed model
   the plan-native one replaced: the same coefficient bits, remainder
   bits and order, or the same exception, on random plans (up to 6
   variables, order up to 4) and random models with NaN, infinite,
   underflowing and exactly cancelling coefficients and zero-width,
   wide and non-finite remainders. *)

module Ref = Tm_reference

(* IEEE 754 leaves the sign and payload of a propagated NaN open, and
   the compiler may order the operands of a commutative operation either
   way, so every NaN compares as one value. *)
let bits x = if Float.is_nan x then 0x7ff8000000000000L else Int64.bits_of_float x

let model_bits ~nvars ~poly ~rem ~order =
  ( nvars,
    order,
    List.map (fun (e, c) -> (Array.to_list e, bits c)) (Poly.to_terms poly),
    bits (I.lo rem),
    bits (I.hi rem) )

let tm_bits tm =
  model_bits ~nvars:(Tm.nvars tm) ~poly:(Tm.poly tm) ~rem:(Tm.remainder tm) ~order:(Tm.order tm)

let ref_bits tm =
  model_bits ~nvars:(Ref.nvars tm) ~poly:(Ref.poly tm) ~rem:(Ref.remainder tm) ~order:(Ref.order tm)

let iv_bits iv = (bits (I.lo iv), bits (I.hi iv))

let outcome f =
  match f () with
  | v -> Ok v
  | exception Invalid_argument m -> Error ("Invalid_argument " ^ m)
  | exception Failure m -> Error ("Failure " ^ m)

(* 1e-12 ... 1e2 in magnitude, a few exactly cancelling values, and the
   specials: NaN, infinities, zeros and magnitudes whose products
   underflow. *)
let gen_coeff st =
  match Random.State.int st 40 with
  | 0 -> Float.nan
  | 1 -> Float.infinity
  | 2 -> Float.neg_infinity
  | 3 -> 0.0
  | 4 -> -0.0
  | 5 | 6 -> (if Random.State.bool st then 1e-170 else -1e-170)
  | 7 | 8 | 9 | 10 | 11 | 12 -> [| 0.5; -0.5; 1.0; -1.0; 0.25 |].(Random.State.int st 5)
  | _ ->
    let m = Float.pow 10.0 (2.0 -. Random.State.float st 14.0) in
    if Random.State.bool st then m else -.m

let gen_rem st =
  match Random.State.int st 8 with
  | 0 | 1 -> I.zero
  | 2 -> I.of_point (gen_coeff st |> fun c -> if Float.is_finite c then c else 0.5)
  | 3 -> I.scale 1e300 (I.make (-1e10) 1e10)
  | _ ->
    let r = Float.pow 10.0 (-.Random.State.float st 10.0) in
    I.make (-.r) (r *. Random.State.float st 2.0)

let gen_monomial nvars order st =
  let e = Array.make nvars 0 in
  for _ = 1 to Random.State.int st (order + 1) do
    let i = Random.State.int st nvars in
    e.(i) <- e.(i) + 1
  done;
  e

(* A random model; [over] lets a few terms exceed the order, which
   [make] must fold into the remainder. *)
let gen_poly ?(over = false) nvars order st =
  Poly.of_terms nvars
    (List.init (Random.State.int st 30) (fun _ ->
         let d = if over && Random.State.int st 4 = 0 then order + 2 else order in
         (gen_monomial nvars d st, gen_coeff st)))

type case = {
  nvars : int;
  order : int;
  polys : (Poly.t * I.t) array;  (* operand models, as [make] inputs *)
  scalars : float array;
  point : float array;
  slot : int;
  expo : int;
  seed : int;
}

let gen_case st =
  let nvars = 1 + Random.State.int st 6 and order = 1 + Random.State.int st 4 in
  let polys =
    Array.init 3 (fun k -> (gen_poly ~over:(k = 2) nvars order st, gen_rem st))
  in
  let scalar () =
    match Random.State.int st 8 with
    | 0 -> 0.0
    | 1 -> -0.0
    | 2 -> Float.nan
    | 3 -> Float.infinity
    | 4 -> 1e-300
    | _ -> gen_coeff st
  in
  { nvars;
    order;
    polys;
    scalars = Array.init 3 (fun _ -> scalar ());
    point = Array.init nvars (fun _ -> Random.State.float st 2.0 -. 1.0);
    slot = Random.State.int st nvars;
    expo = Random.State.int st 5;
    seed = Random.State.bits st }

(* A random expression over the case's models as state and input. *)
let gen_expr st =
  let module E = Dwv_expr.Expr in
  let rec go depth =
    if depth = 0 then
      match Random.State.int st 4 with
      | 0 -> E.const (Random.State.float st 2.0 -. 1.0)
      | 1 -> E.input 0
      | _ -> E.var (Random.State.int st 2)
    else
      match Random.State.int st 11 with
      | 0 | 1 -> E.add (go (depth - 1)) (go (depth - 1))
      | 2 -> E.sub (go (depth - 1)) (go (depth - 1))
      | 3 | 4 -> E.mul (go (depth - 1)) (go (depth - 1))
      | 5 -> E.neg (go (depth - 1))
      | 6 -> E.pow (go (depth - 1)) (Random.State.int st 4)
      | 7 -> E.sin_ (go (depth - 1))
      | 8 -> E.cos_ (go (depth - 1))
      | 9 -> E.tanh_ (go (depth - 1))
      | _ -> E.div (go (depth - 1)) (E.add (E.const 3.0) (go 0))
  in
  go 3

let kept_pairs () = Dwv_util.Counters.get "poly_kept_pairs"

(* Each check runs one operation on both sides: [Error] is the
   mismatch's description. *)
let same_case c =
  let ms = Array.map (fun (poly, rem) -> outcome (fun () -> Tm.make ~poly ~rem ~order:c.order)) c.polys in
  let rs = Array.map (fun (poly, rem) -> outcome (fun () -> Ref.make ~poly ~rem ~order:c.order)) c.polys in
  let failures = ref [] in
  let fail name = failures := name :: !failures in
  let same_model name t r =
    if Result.map tm_bits (t ()) <> Result.map ref_bits (r ()) then fail name
  in
  let same_iv name t r = if Result.map iv_bits (t ()) <> Result.map iv_bits (r ()) then fail name in
  Array.iteri (fun k m -> same_model (Fmt.str "make %d" k) (fun () -> m) (fun () -> rs.(k))) ms;
  (match (ms, rs) with
  | [| Ok a; Ok b; Ok h |], [| Ok ra; Ok rb; Ok rh |] ->
    let model name t r = same_model name (fun () -> outcome t) (fun () -> outcome r) in
    let iv name t r = same_iv name (fun () -> outcome t) (fun () -> outcome r) in
    let s0 = c.scalars.(0) and s1 = c.scalars.(1) and s2 = c.scalars.(2) in
    List.iter
      (fun (name, t, r) -> model name t r)
      [ ("add", (fun () -> Tm.add a b), fun () -> Ref.add ra rb);
        ("add h", (fun () -> Tm.add h a), fun () -> Ref.add rh ra);
        ("sub", (fun () -> Tm.sub a b), fun () -> Ref.sub ra rb);
        ("sub self", (fun () -> Tm.sub a a), fun () -> Ref.sub ra ra);
        ("neg", (fun () -> Tm.neg a), fun () -> Ref.neg ra);
        ("scale", (fun () -> Tm.scale s0 a), fun () -> Ref.scale s0 ra);
        ("scale 0", (fun () -> Tm.scale 0.0 h), fun () -> Ref.scale 0.0 rh);
        ("shift", (fun () -> Tm.shift s1 b), fun () -> Ref.shift s1 rb);
        ("shift -c0", (fun () -> Tm.shift (-.Tm.constant_term a) a),
         fun () -> Ref.shift (-.Ref.constant_term ra) ra);
        ("mul", (fun () -> Tm.mul a b), fun () -> Ref.mul ra rb);
        ("mul h", (fun () -> Tm.mul h b), fun () -> Ref.mul rh rb);
        ("mul self", (fun () -> Tm.mul a a), fun () -> Ref.mul ra ra);
        ("pow", (fun () -> Tm.pow b c.expo), fun () -> Ref.pow rb c.expo);
        ("tanh", (fun () -> Tm.tanh_ a), fun () -> Ref.tanh_ ra);
        ("sigmoid", (fun () -> Tm.sigmoid_ b), fun () -> Ref.sigmoid_ rb);
        ("exp", (fun () -> Tm.exp_ a), fun () -> Ref.exp_ ra);
        ("sin", (fun () -> Tm.sin_ b), fun () -> Ref.sin_ rb);
        ("cos", (fun () -> Tm.cos_ a), fun () -> Ref.cos_ ra);
        ("inv", (fun () -> Tm.inv (Tm.shift 4.0 a)), fun () -> Ref.inv (Ref.shift 4.0 ra));
        ("relu", (fun () -> Tm.relu b), fun () -> Ref.relu rb);
        ("relu shifted", (fun () -> Tm.relu (Tm.shift s2 a)), fun () -> Ref.relu (Ref.shift s2 ra));
        ("sweep", (fun () -> Tm.sweep a), fun () -> Ref.sweep ra);
        ("sweep coarse", (fun () -> Tm.sweep ~tol:0.3 b), fun () -> Ref.sweep ~tol:0.3 rb);
        ("absorb_var", (fun () -> Tm.absorb_var c.slot a), fun () -> Ref.absorb_var c.slot ra);
        ("symbolize_remainder", (fun () -> Tm.symbolize_remainder ~slot:c.slot b),
         fun () -> Ref.symbolize_remainder ~slot:c.slot rb);
        ("symbolize absorbed", (fun () -> Tm.symbolize_remainder ~slot:c.slot (Tm.absorb_var c.slot a)),
         fun () -> Ref.symbolize_remainder ~slot:c.slot (Ref.absorb_var c.slot ra)) ];
    List.iter
      (fun (name, t, r) -> iv name t r)
      [ ("bound", (fun () -> Tm.bound a), fun () -> Ref.bound ra);
        ("bound h", (fun () -> Tm.bound h), fun () -> Ref.bound rh);
        ("eval", (fun () -> Tm.eval b c.point), fun () -> Ref.eval rb c.point) ];
    (* the product counts the same pairs, raising or not *)
    let before = kept_pairs () and ref_before = !Ref.kept_pair_count in
    ignore (outcome (fun () -> Tm.mul a b), outcome (fun () -> Ref.mul ra rb));
    if kept_pairs () - before <> !Ref.kept_pair_count - ref_before then fail "kept pairs";
    let e = gen_expr (Random.State.make [| c.seed |]) in
    model "of_expr"
      (fun () -> Tm.of_expr ~memo:(Tm.create_memo ()) ~x:[| a; b |] ~u:[| h |] e)
      (fun () -> Ref.of_expr ~x:[| ra; rb |] ~u:[| rh |] e)
  | _ -> ());
  match !failures with [] -> true | l -> QCheck.Test.fail_reportf "%s" (String.concat ", " (List.rev l))

let arb_case =
  let print c =
    Fmt.str "nvars=%d order=%d@.%a" c.nvars c.order
      Fmt.(array ~sep:cut (pair ~sep:(any " + ") Poly.pp I.pp))
      c.polys
  in
  QCheck.make ~print gen_case

let prop_reference_bits =
  QCheck.Test.make ~name:"every operation = the sparse reference, bit for bit" ~count:300 arb_case
    same_case

let suite =
  [
    Alcotest.test_case "var identity" `Quick test_var_identity;
    Alcotest.test_case "arith soundness" `Quick test_arith_soundness;
    Alcotest.test_case "mul truncation sound" `Quick test_mul_truncation_sound;
    Alcotest.test_case "tanh sound" `Quick test_tanh_soundness;
    Alcotest.test_case "sigmoid sound" `Quick test_sigmoid_soundness;
    Alcotest.test_case "exp sound" `Quick test_exp_soundness;
    Alcotest.test_case "sin/cos sound" `Quick test_sin_cos_soundness;
    Alcotest.test_case "relu cases" `Quick test_relu_cases;
    Alcotest.test_case "inv sound" `Quick test_inv_soundness;
    Alcotest.test_case "inv zero raises" `Quick test_inv_zero_raises;
    Alcotest.test_case "of_interval" `Quick test_of_interval;
    Alcotest.test_case "dependency cancellation" `Quick test_bound_tighter_than_interval;
    Alcotest.test_case "sweep sound" `Quick test_sweep_soundness;
    Alcotest.test_case "absorb_var" `Quick test_absorb_var;
    Alcotest.test_case "symbolize remainder" `Quick test_symbolize_remainder;
    Alcotest.test_case "symbolize busy slot" `Quick test_symbolize_busy_slot_raises;
    Alcotest.test_case "of_expr" `Quick test_of_expr;
    Alcotest.test_case "of_expr memo" `Quick test_of_expr_memo_consistent;
    Alcotest.test_case "of_expr memo structural duplicates" `Quick
      test_of_expr_memo_structural_duplicates;
    Alcotest.test_case "tm_vec of_box" `Quick test_tm_vec_of_box_roundtrip;
    Alcotest.test_case "tm_vec extra vars" `Quick test_tm_vec_extra_vars;
    Alcotest.test_case "order guard" `Quick test_order_guard;
    Alcotest.test_case "mixed orders raise" `Quick test_mixed_orders_raise;
    Alcotest.test_case "no plan raises" `Quick test_no_plan_raises;
    QCheck_alcotest.to_alcotest prop_compose_soundness;
    QCheck_alcotest.to_alcotest prop_reference_bits;
  ]
