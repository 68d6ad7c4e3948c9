(* Tests for dwv_expr: evaluation, smart-constructor folding, symbolic
   differentiation (against finite differences), Lie derivatives, interval
   soundness. *)

module Expr = Dwv_expr.Expr
module I = Dwv_interval.Interval

let check_float = Alcotest.(check (float 1e-9))

let x0 = Expr.var 0
let x1 = Expr.var 1
let u0 = Expr.input 0

let test_eval_basic () =
  let e = Expr.(add (mul x0 x1) (scale 2.0 u0)) in
  check_float "eval" 11.0 (Expr.eval e ~x:[| 3.0; 1.0 |] ~u:[| 4.0 |])

let test_eval_transcendental () =
  let e = Expr.(add (sin_ x0) (mul (cos_ x0) (tanh_ x1))) in
  let x = [| 0.7; -0.3 |] in
  check_float "eval" (sin 0.7 +. (cos 0.7 *. tanh (-0.3))) (Expr.eval e ~x ~u:[||])

let test_constant_folding () =
  Alcotest.(check bool) "add 0" true (Expr.add x0 (Expr.const 0.0) = x0);
  Alcotest.(check bool) "mul 1" true (Expr.mul (Expr.const 1.0) x0 = x0);
  Alcotest.(check bool) "mul 0" true (Expr.mul x0 (Expr.const 0.0) = Expr.const 0.0);
  Alcotest.(check bool) "const prop" true
    (Expr.mul (Expr.const 3.0) (Expr.const 4.0) = Expr.const 12.0);
  Alcotest.(check bool) "pow 0" true (Expr.pow x0 0 = Expr.const 1.0);
  Alcotest.(check bool) "pow 1" true (Expr.pow x0 1 = x0);
  Alcotest.(check bool) "neg neg" true (Expr.neg (Expr.neg x0) = x0)

let test_div_by_zero_const () =
  Alcotest.check_raises "div0" (Invalid_argument "Expr.div: division by constant zero")
    (fun () -> ignore (Expr.div x0 (Expr.const 0.0)))

let finite_diff e ~x ~u i =
  let eps = 1e-6 in
  let xp = Array.copy x and xm = Array.copy x in
  xp.(i) <- xp.(i) +. eps;
  xm.(i) <- xm.(i) -. eps;
  (Expr.eval e ~x:xp ~u -. Expr.eval e ~x:xm ~u) /. (2.0 *. eps)

let test_diff_polynomial () =
  let e = Expr.(add (mul (pow x0 3) x1) (mul (const 2.0) x0)) in
  let d = Expr.diff e ~wrt:(Expr.Wrt_var 0) in
  let x = [| 1.5; -0.7 |] in
  check_float "d/dx0" ((3.0 *. (1.5 ** 2.0) *. -0.7) +. 2.0) (Expr.eval d ~x ~u:[||]);
  Alcotest.(check (float 1e-6)) "matches FD" (finite_diff e ~x ~u:[||] 0)
    (Expr.eval d ~x ~u:[||])

let test_diff_transcendental () =
  let e = Expr.(mul (sin_ x0) (exp_ (mul x0 x1))) in
  let d = Expr.diff e ~wrt:(Expr.Wrt_var 0) in
  let x = [| 0.4; 0.9 |] in
  Alcotest.(check (float 1e-6)) "matches FD" (finite_diff e ~x ~u:[||] 0)
    (Expr.eval d ~x ~u:[||])

let test_diff_input () =
  let e = Expr.(mul u0 (pow x0 2)) in
  let d = Expr.diff e ~wrt:(Expr.Wrt_input 0) in
  check_float "du" 9.0 (Expr.eval d ~x:[| 3.0 |] ~u:[| 5.0 |])

let test_diff_tanh () =
  let e = Expr.tanh_ x0 in
  let d = Expr.diff e ~wrt:(Expr.Wrt_var 0) in
  let x = [| 0.6 |] in
  check_float "1 - tanh^2" (1.0 -. (tanh 0.6 ** 2.0)) (Expr.eval d ~x ~u:[||])

let test_lie_derivative_harmonic () =
  (* harmonic oscillator f = (x1, -x0): L_f of (x0^2 + x1^2)/2 is 0 *)
  let f = [| x1; Expr.neg x0 |] in
  let energy = Expr.(scale 0.5 (add (pow x0 2) (pow x1 2))) in
  let lf = Expr.lie_derivative ~f energy in
  List.iter
    (fun (a, b) -> check_float "invariant" 0.0 (Expr.eval lf ~x:[| a; b |] ~u:[||]))
    [ (1.0, 0.0); (0.3, -0.7); (-2.0, 1.5) ]

let test_lie_derivative_linear () =
  (* f = (x1, -x0): L_f x0 = x1, L_f^2 x0 = -x0 *)
  let f = [| x1; Expr.neg x0 |] in
  let l1 = Expr.lie_derivative ~f x0 in
  let l2 = Expr.lie_derivative ~f l1 in
  check_float "L1" 0.7 (Expr.eval l1 ~x:[| 0.3; 0.7 |] ~u:[||]);
  check_float "L2" (-0.3) (Expr.eval l2 ~x:[| 0.3; 0.7 |] ~u:[||])

let test_jacobians () =
  let f = [| Expr.(mul x0 x1); Expr.(add (pow x0 2) u0) |] in
  let jx = Expr.jacobian_x f ~n:2 in
  let ju = Expr.jacobian_u f ~m:1 in
  let x = [| 2.0; 3.0 |] and u = [| 0.0 |] in
  check_float "df0/dx0" 3.0 (Expr.eval jx.(0).(0) ~x ~u);
  check_float "df0/dx1" 2.0 (Expr.eval jx.(0).(1) ~x ~u);
  check_float "df1/dx0" 4.0 (Expr.eval jx.(1).(0) ~x ~u);
  check_float "df1/dx1" 0.0 (Expr.eval jx.(1).(1) ~x ~u);
  check_float "df1/du0" 1.0 (Expr.eval ju.(1).(0) ~x ~u)

let test_ieval_soundness_fixed () =
  let e = Expr.(add (mul x0 x1) (sin_ x0)) in
  let bx = [| I.make 0.0 1.0; I.make (-1.0) 1.0 |] in
  let range = Expr.ieval e ~x:bx ~u:[||] in
  (* sample points must land inside *)
  List.iter
    (fun (a, b) ->
      let v = Expr.eval e ~x:[| a; b |] ~u:[||] in
      Alcotest.(check bool) "contained" true (I.contains (I.widen range) v))
    [ (0.0, -1.0); (0.5, 0.0); (1.0, 1.0); (0.25, 0.75) ]

let prop_diff_matches_fd =
  QCheck.Test.make ~name:"symbolic diff matches finite differences" ~count:200
    QCheck.(pair (float_range (-1.5) 1.5) (float_range (-1.5) 1.5))
    (fun (a, b) ->
      let e =
        Expr.(
          add
            (mul (pow x0 2) (cos_ x1))
            (sub (exp_ (scale 0.3 x0)) (mul (tanh_ x1) x0)))
      in
      let x = [| a; b |] in
      let d0 = Expr.eval (Expr.diff e ~wrt:(Expr.Wrt_var 0)) ~x ~u:[||] in
      let d1 = Expr.eval (Expr.diff e ~wrt:(Expr.Wrt_var 1)) ~x ~u:[||] in
      Float.abs (d0 -. finite_diff e ~x ~u:[||] 0) < 1e-5
      && Float.abs (d1 -. finite_diff e ~x ~u:[||] 1) < 1e-5)

let prop_ieval_soundness =
  QCheck.Test.make ~name:"interval eval of expr contains point eval" ~count:300
    QCheck.(triple (float_range (-1.0) 1.0) (float_range (-1.0) 1.0) (float_range 0.0 1.0))
    (fun (a, b, t) ->
      let e = Expr.(add (mul (pow x0 3) x1) (cos_ (mul x0 x1))) in
      let bx = [| I.make (Float.min a b) (Float.max a b); I.make (-0.5) 0.5 |] in
      let x = [| I.sample bx.(0) ~t; I.sample bx.(1) ~t:(1.0 -. t) |] in
      let v = Expr.eval e ~x ~u:[||] in
      I.contains (I.widen (Expr.ieval e ~x:bx ~u:[||])) v)

(* ---------------- parser ---------------- *)

module Parser = Dwv_expr.Parser

let parse_ok src = match Parser.parse src with Ok e -> e | Error m -> Alcotest.failf "parse %S: %s" src m

let test_parse_arithmetic () =
  let e = parse_ok "1 + 2 * x0 - x1 / 4" in
  check_float "eval" (1.0 +. (2.0 *. 3.0) -. (8.0 /. 4.0)) (Expr.eval e ~x:[| 3.0; 8.0 |] ~u:[||])

let test_parse_precedence () =
  (* ^ binds tighter than *, * tighter than + *)
  let e = parse_ok "2 * x0^2 + 1" in
  check_float "precedence" 19.0 (Expr.eval e ~x:[| 3.0 |] ~u:[||])

let test_parse_unary_minus () =
  let e = parse_ok "-x0^2" in
  (* -(x0^2), not (-x0)^2... both equal here; use an odd case *)
  check_float "negation" (-9.0) (Expr.eval e ~x:[| 3.0 |] ~u:[||]);
  let e2 = parse_ok "3 - -2" in
  check_float "double minus" 5.0 (Expr.eval e2 ~x:[||] ~u:[||])

let test_parse_functions () =
  let e = parse_ok "sin(x0) * cos(x1) + tanh(u0) - exp(0)" in
  let x = [| 0.3; 0.7 |] and u = [| -0.2 |] in
  check_float "functions" ((sin 0.3 *. cos 0.7) +. tanh (-0.2) -. 1.0) (Expr.eval e ~x ~u)

let test_parse_vanderpol () =
  (* the oscillator x2' exactly as documentation writes it *)
  let e = parse_ok "(1 - x0^2) * x1 - x0 + u0" in
  let x = [| -0.5; 0.5 |] and u = [| 1.3 |] in
  let expected = ((1.0 -. 0.25) *. 0.5) +. 0.5 +. 1.3 in
  check_float "van der pol" expected (Expr.eval e ~x ~u)

let test_parse_scientific_notation () =
  let e = parse_ok "1.5e-2 * x0" in
  check_float "scientific" 0.015 (Expr.eval e ~x:[| 1.0 |] ~u:[||])

let test_parse_pi () =
  let e = parse_ok "sin(pi / 2)" in
  check_float "pi" 1.0 (Expr.eval e ~x:[||] ~u:[||])

let test_parse_errors () =
  List.iter
    (fun src ->
      match Parser.parse src with
      | Ok _ -> Alcotest.failf "expected failure for %S" src
      | Error _ -> ())
    [ "x"; "x0 +"; "(x0"; "x0 ^ x1"; "x0 ^ -2"; "foo(x0)"; "1..2"; "x0 x1"; "" ]

(* Error messages must carry the offending token and its position. *)
let test_parse_error_positions () =
  let contains hay needle =
    let n = String.length needle and m = String.length hay in
    let rec at i = i + n <= m && (String.sub hay i n = needle || at (i + 1)) in
    at 0
  in
  let expect src fragments =
    match Parser.parse src with
    | Ok _ -> Alcotest.failf "expected failure for %S" src
    | Error m ->
      List.iter
        (fun frag ->
          Alcotest.(check bool) (Fmt.str "%S mentions %S (got %S)" src frag m) true
            (contains m frag))
        fragments
  in
  expect "x0 +" [ "at offset 4"; "unexpected end of input" ];
  expect "(x0" [ "offset"; "')'" ];
  expect "x0 x1" [ "offset 3"; "trailing input"; "x1" ];
  expect "foo(x0)" [ "offset 0"; "foo" ];
  expect "x0 ^ x1" [ "offset"; "exponent" ]

let test_equal_structural () =
  let a = parse_ok "sin(x0 * x1) + u0" in
  let b = parse_ok "sin(x0 * x1) + u0" in
  Alcotest.(check bool) "separately parsed copies equal" true (Expr.equal a b);
  Alcotest.(check bool) "different exprs differ" false
    (Expr.equal a (parse_ok "sin(x0 * x1) + u1"));
  Alcotest.(check bool) "pow exponent matters" false
    (Expr.equal (parse_ok "x0^2") (parse_ok "x0^3"));
  (* the memo-table contract: NaN constants are self-equal *)
  Alcotest.(check bool) "nan const self-equal" true
    (Expr.equal (Expr.const Float.nan) (Expr.const Float.nan))

(* ---------------- hash-consing / interning ---------------- *)

(* Random expressions are generated from a RECIPE so the same structure
   can be built twice through the smart constructors: interning must
   map both builds to the same node. *)
type recipe =
  | R_const of float
  | R_var of int
  | R_input of int
  | R_add of recipe * recipe
  | R_sub of recipe * recipe
  | R_mul of recipe * recipe
  | R_div of recipe * recipe
  | R_neg of recipe
  | R_pow of recipe * int
  | R_sin of recipe
  | R_cos of recipe
  | R_exp of recipe
  | R_tanh of recipe

let rec build_recipe = function
  | R_const c -> Expr.const c
  | R_var i -> Expr.var i
  | R_input j -> Expr.input j
  | R_add (a, b) -> Expr.add (build_recipe a) (build_recipe b)
  | R_sub (a, b) -> Expr.sub (build_recipe a) (build_recipe b)
  | R_mul (a, b) -> Expr.mul (build_recipe a) (build_recipe b)
  | R_div (a, b) ->
    (* denominator bounded away from the constant zero so [div] never
       raises: 1 + b^2 folds to a constant >= 1 when b is constant *)
    let d = build_recipe b in
    Expr.div (build_recipe a) (Expr.add (Expr.const 1.0) (Expr.mul d d))
  | R_neg a -> Expr.neg (build_recipe a)
  | R_pow (a, k) -> Expr.pow (build_recipe a) k
  | R_sin a -> Expr.sin_ (build_recipe a)
  | R_cos a -> Expr.cos_ (build_recipe a)
  | R_exp a -> Expr.exp_ (build_recipe a)
  | R_tanh a -> Expr.tanh_ (build_recipe a)

let gen_recipe =
  let open QCheck.Gen in
  (* a small leaf space makes cross-recipe collisions likely, which is
     what exercises the interesting direction of the iff *)
  let leaf =
    oneof
      [
        map (fun c -> R_const c)
          (oneofl [ 0.0; -0.0; 1.0; -1.0; 0.5; 2.0; Float.nan ]);
        map (fun i -> R_var i) (int_bound 2);
        map (fun j -> R_input j) (int_bound 1);
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           let sub = self (n / 2) in
           frequency
             [
               (1, leaf);
               (2, map2 (fun a b -> R_add (a, b)) sub sub);
               (2, map2 (fun a b -> R_sub (a, b)) sub sub);
               (2, map2 (fun a b -> R_mul (a, b)) sub sub);
               (1, map2 (fun a b -> R_div (a, b)) sub sub);
               (1, map (fun a -> R_neg a) sub);
               (1, map2 (fun a k -> R_pow (a, k)) sub (int_bound 3));
               (1, map (fun a -> R_sin a) sub);
               (1, map (fun a -> R_cos a) sub);
               (1, map (fun a -> R_exp a) sub);
               (1, map (fun a -> R_tanh a) sub);
             ])

let rec recipe_to_string = function
  | R_const c -> Fmt.str "%h" c
  | R_var i -> Fmt.str "x%d" i
  | R_input j -> Fmt.str "u%d" j
  | R_add (a, b) -> Fmt.str "(%s + %s)" (recipe_to_string a) (recipe_to_string b)
  | R_sub (a, b) -> Fmt.str "(%s - %s)" (recipe_to_string a) (recipe_to_string b)
  | R_mul (a, b) -> Fmt.str "(%s * %s)" (recipe_to_string a) (recipe_to_string b)
  | R_div (a, b) -> Fmt.str "(%s / %s)" (recipe_to_string a) (recipe_to_string b)
  | R_neg a -> Fmt.str "(- %s)" (recipe_to_string a)
  | R_pow (a, k) -> Fmt.str "%s^%d" (recipe_to_string a) k
  | R_sin a -> Fmt.str "sin(%s)" (recipe_to_string a)
  | R_cos a -> Fmt.str "cos(%s)" (recipe_to_string a)
  | R_exp a -> Fmt.str "exp(%s)" (recipe_to_string a)
  | R_tanh a -> Fmt.str "tanh(%s)" (recipe_to_string a)

let arb_recipe = QCheck.make ~print:recipe_to_string gen_recipe

(* Deep structural equality with bit-pattern constants: the oracle the
   interner must agree with. [Float.equal] would not do — it identifies
   -0. with 0. (IEEE equality), which the interner must keep distinct
   because they are not interchangeable under division. NaN is
   canonicalized by [Expr.const], so bit equality sees all NaNs as one
   constant. Physical identity is observed through [Expr.id], which is
   unique per interned node. *)
let rec structural_eq (a : Expr.t) (b : Expr.t) =
  match (a.Expr.node, b.Expr.node) with
  | Expr.Const x, Expr.Const y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Expr.Var i, Expr.Var j | Expr.Input i, Expr.Input j -> i = j
  | Expr.Add (a1, a2), Expr.Add (b1, b2)
  | Expr.Sub (a1, a2), Expr.Sub (b1, b2)
  | Expr.Mul (a1, a2), Expr.Mul (b1, b2)
  | Expr.Div (a1, a2), Expr.Div (b1, b2) ->
    structural_eq a1 b1 && structural_eq a2 b2
  | Expr.Neg a1, Expr.Neg b1
  | Expr.Sin a1, Expr.Sin b1
  | Expr.Cos a1, Expr.Cos b1
  | Expr.Exp a1, Expr.Exp b1
  | Expr.Tanh a1, Expr.Tanh b1 -> structural_eq a1 b1
  | Expr.Pow (a1, n), Expr.Pow (b1, k) -> n = k && structural_eq a1 b1
  | _, _ -> false

let prop_intern_sound =
  QCheck.Test.make ~name:"interning sound: equal <=> same node <=> structural" ~count:500
    QCheck.(pair arb_recipe arb_recipe)
    (fun (r1, r2) ->
      let a = build_recipe r1 and b = build_recipe r2 in
      let same_node = Expr.id a = Expr.id b in
      Bool.equal (Expr.equal a b) same_node
      && Bool.equal (structural_eq a b) same_node
      && ((not same_node) || Expr.hash a = Expr.hash b))

let prop_intern_rebuild_stable =
  QCheck.Test.make ~name:"interning: rebuild gives the same node and hash" ~count:500
    arb_recipe
    (fun r ->
      let a = build_recipe r in
      let b = build_recipe r in
      Expr.equal a b
      && Expr.id a = Expr.id b
      && Expr.hash a = Expr.hash b
      && Expr.size a = Expr.size b)

let test_rebuild_does_not_grow_intern_table () =
  let src = "sin(x0 * x1) + tanh(x1)^3 - exp(u0) / (1 + x0^2)" in
  let a = parse_ok src in
  let before = Expr.interned () in
  let b = parse_ok src in
  Alcotest.(check int) "no new nodes interned" before (Expr.interned ());
  Alcotest.(check bool) "same node" true (Expr.id a = Expr.id b)

let test_parse_system () =
  match Parser.parse_system [ "x1"; "(1 - x0^2) * x1 - x0 + u0" ] with
  | Error m -> Alcotest.failf "system: %s" m
  | Ok f ->
    Alcotest.(check int) "arity" 2 (Array.length f);
    let d = Expr.eval_vec f ~x:[| -0.5; 0.5 |] ~u:[| 0.0 |] in
    let d_ref = Expr.eval_vec Dwv_systems.Oscillator.dynamics ~x:[| -0.5; 0.5 |] ~u:[| 0.0 |] in
    Alcotest.(check (array (float 1e-12))) "matches built-in" d_ref d

let test_parse_system_error_position () =
  match Parser.parse_system [ "x1"; "x0 +" ] with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error m -> Alcotest.(check bool) "names component" true (String.length m > 0)

let prop_parse_roundtrip_eval =
  QCheck.Test.make ~name:"parsed expression evaluates like the AST" ~count:200
    QCheck.(pair (float_range (-2.0) 2.0) (float_range (-2.0) 2.0))
    (fun (a, b) ->
      let src = "x0^3 * x1 - tanh(x0 * x1) + 0.5" in
      let e = parse_ok src in
      let direct =
        Expr.(
          add
            (sub (mul (pow (var 0) 3) (var 1)) (tanh_ (mul (var 0) (var 1))))
            (const 0.5))
      in
      let x = [| a; b |] in
      Float.abs (Expr.eval e ~x ~u:[||] -. Expr.eval direct ~x ~u:[||]) < 1e-12)

let test_size_and_pp () =
  let e = Expr.(add (mul x0 x1) (const 1.0)) in
  Alcotest.(check int) "size" 5 (Expr.size e);
  Alcotest.(check bool) "pp nonempty" true (String.length (Fmt.str "%a" Expr.pp e) > 0)

(* ---------------- compiled evaluation ---------------- *)

(* A random DAG: node i is a leaf or an operation on earlier nodes, so
   later nodes share subtrees; the outputs are picks from the pool. *)
type dag_node =
  | D_const of float
  | D_var of int
  | D_input of int
  | D_bin of int * int * int  (* 0 add, 1 sub, 2 mul, 3 div; operands *)
  | D_un of int * int         (* 0 neg, 1 sin, 2 cos, 3 exp, 4 tanh; operand *)
  | D_pow of int * int        (* operand, exponent 0-5 *)

type dag = { nodes : dag_node array; outs : int array; x : float array; u : float array }

let gen_special_float =
  QCheck.Gen.(
    frequency
      [
        (4, float_range (-3.0) 3.0);
        (1, float_range (-1e3) 1e3);
        ( 2,
          oneofl
            [ 0.0; -0.0; 1.0; -1.0; Float.nan; Float.infinity; Float.neg_infinity;
              Float.min_float; Float.max_float; 1e-300 ] );
      ])

let gen_dag =
  let open QCheck.Gen in
  let* len = int_range 1 24 in
  let node i =
    let earlier = int_bound (max 0 (i - 1)) in
    let leaf =
      frequency
        [
          (2, map (fun c -> D_const c) gen_special_float);
          (3, map (fun k -> D_var k) (int_bound 2));
          (1, map (fun k -> D_input k) (int_bound 1));
        ]
    in
    if i = 0 then leaf
    else
      frequency
        [
          (1, leaf);
          (4, map3 (fun k a b -> D_bin (k, a, b)) (int_bound 3) earlier earlier);
          (3, map2 (fun k a -> D_un (k, a)) (int_bound 4) earlier);
          (1, map2 (fun a e -> D_pow (a, e)) earlier (int_bound 5));
        ]
  in
  let rec nodes i acc = if i = len then return (Array.of_list (List.rev acc)) else
      let* n = node i in
      nodes (i + 1) (n :: acc)
  in
  let* nodes = nodes 0 [] in
  let* outs = array_size (int_range 1 4) (int_bound (len - 1)) in
  let* x = array_repeat 3 gen_special_float in
  let* u = array_repeat 2 gen_special_float in
  return { nodes; outs; x; u }

let dag_to_string d =
  let node = function
    | D_const c -> Fmt.str "%h" c
    | D_var k -> Fmt.str "x%d" k
    | D_input k -> Fmt.str "u%d" k
    | D_bin (k, a, b) -> Fmt.str "%s(%d,%d)" [| "add"; "sub"; "mul"; "div" |].(k) a b
    | D_un (k, a) -> Fmt.str "%s(%d)" [| "neg"; "sin"; "cos"; "exp"; "tanh" |].(k) a
    | D_pow (a, e) -> Fmt.str "pow(%d,%d)" a e
  in
  let floats a = String.concat ";" (Array.to_list (Array.map (Fmt.str "%h") a)) in
  Fmt.str "nodes=[%s] outs=[%s] x=[%s] u=[%s]"
    (String.concat "; " (Array.to_list (Array.mapi (fun i n -> Fmt.str "%d:%s" i (node n)) d.nodes)))
    (String.concat ";" (Array.to_list (Array.map string_of_int d.outs)))
    (floats d.x) (floats d.u)

let build_dag d =
  let pool = Array.make (Array.length d.nodes) (Expr.const 0.0) in
  Array.iteri
    (fun i n ->
      pool.(i) <-
        (match n with
        | D_const c -> Expr.const c
        | D_var k -> Expr.var k
        | D_input k -> Expr.input k
        | D_bin (0, a, b) -> Expr.add pool.(a) pool.(b)
        | D_bin (1, a, b) -> Expr.sub pool.(a) pool.(b)
        | D_bin (2, a, b) -> Expr.mul pool.(a) pool.(b)
        | D_bin (_, a, b) -> (
          (* the smart constructor rejects a literal zero divisor; a
             divisor that evaluates to zero still reaches run and eval *)
          try Expr.div pool.(a) pool.(b) with Invalid_argument _ -> pool.(a))
        | D_un (0, a) -> Expr.neg pool.(a)
        | D_un (1, a) -> Expr.sin_ pool.(a)
        | D_un (2, a) -> Expr.cos_ pool.(a)
        | D_un (3, a) -> Expr.exp_ pool.(a)
        | D_un (_, a) -> Expr.tanh_ pool.(a)
        | D_pow (a, e) -> Expr.pow pool.(a) e))
    d.nodes;
  Array.map (fun i -> pool.(i)) d.outs

let same_bits a b =
  (Float.is_nan a && Float.is_nan b) || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let prop_compiled_matches_eval =
  QCheck.Test.make ~name:"compiled run equals eval_vec bit for bit" ~count:1000
    (QCheck.make ~print:dag_to_string gen_dag)
    (fun d ->
      let f = build_dag d in
      let p = Expr.compile f in
      let out = Array.make (Expr.outputs p) 0.0 in
      Expr.run p ~regs:(Array.make (Expr.slots p) 0.0) ~x:d.x ~u:d.u out;
      let expected = Expr.eval_vec f ~x:d.x ~u:d.u in
      Array.length out = Array.length expected && Array.for_all2 same_bits out expected)

let test_compile_shares_subtrees () =
  (* (x0 * x1) appears twice but is one interned node: one slot *)
  let s = Expr.(mul (var 0) (var 1)) in
  let p = Expr.compile [| Expr.add s (Expr.sin_ s); Expr.cos_ s |] in
  (* x0, x1, s, sin s, add, cos s *)
  Alcotest.(check int) "slots" 6 (Expr.slots p);
  Alcotest.(check int) "outputs" 2 (Expr.outputs p);
  Alcotest.check_raises "short register file" (Invalid_argument "Expr.run: register file too small")
    (fun () -> Expr.run p ~regs:(Array.make 5 0.0) ~x:[| 1.0; 2.0 |] ~u:[||] (Array.make 2 0.0))

let suite =
  [
    Alcotest.test_case "eval basic" `Quick test_eval_basic;
    Alcotest.test_case "eval transcendental" `Quick test_eval_transcendental;
    Alcotest.test_case "constant folding" `Quick test_constant_folding;
    Alcotest.test_case "div by const zero" `Quick test_div_by_zero_const;
    Alcotest.test_case "diff polynomial" `Quick test_diff_polynomial;
    Alcotest.test_case "diff transcendental" `Quick test_diff_transcendental;
    Alcotest.test_case "diff wrt input" `Quick test_diff_input;
    Alcotest.test_case "diff tanh" `Quick test_diff_tanh;
    Alcotest.test_case "lie derivative invariant" `Quick test_lie_derivative_harmonic;
    Alcotest.test_case "lie derivative linear" `Quick test_lie_derivative_linear;
    Alcotest.test_case "jacobians" `Quick test_jacobians;
    Alcotest.test_case "ieval soundness (fixed)" `Quick test_ieval_soundness_fixed;
    QCheck_alcotest.to_alcotest prop_diff_matches_fd;
    QCheck_alcotest.to_alcotest prop_ieval_soundness;
    Alcotest.test_case "size and pp" `Quick test_size_and_pp;
    Alcotest.test_case "parse arithmetic" `Quick test_parse_arithmetic;
    Alcotest.test_case "parse precedence" `Quick test_parse_precedence;
    Alcotest.test_case "parse unary minus" `Quick test_parse_unary_minus;
    Alcotest.test_case "parse functions" `Quick test_parse_functions;
    Alcotest.test_case "parse van der pol" `Quick test_parse_vanderpol;
    Alcotest.test_case "parse scientific" `Quick test_parse_scientific_notation;
    Alcotest.test_case "parse pi" `Quick test_parse_pi;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "parse error positions" `Quick test_parse_error_positions;
    Alcotest.test_case "structural equality" `Quick test_equal_structural;
    QCheck_alcotest.to_alcotest prop_intern_sound;
    QCheck_alcotest.to_alcotest prop_intern_rebuild_stable;
    Alcotest.test_case "rebuild does not grow intern table" `Quick
      test_rebuild_does_not_grow_intern_table;
    Alcotest.test_case "parse system" `Quick test_parse_system;
    Alcotest.test_case "parse system error" `Quick test_parse_system_error_position;
    QCheck_alcotest.to_alcotest prop_parse_roundtrip_eval;
    QCheck_alcotest.to_alcotest prop_compiled_matches_eval;
    Alcotest.test_case "compile shares subtrees" `Quick test_compile_shares_subtrees;
  ]
