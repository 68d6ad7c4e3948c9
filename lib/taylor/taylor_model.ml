(* Taylor models (Berz & Makino): a polynomial over symbolic variables
   z in [-1,1]^n plus a rigorous interval remainder. The fundamental
   invariant maintained by every operation:

     for every z in [-1,1]^n,  f(z)  in  poly(z) + rem

   where f is the exact function the model abstracts. Taylor models are the
   representation POLAR propagates through neural-network layers and the
   representation our validated flowpipe integrator uses for the reachable
   state. *)

module I = Dwv_interval.Interval
module Poly = Dwv_poly.Poly
module Plan = Tm_plan

(* The polynomial is one coefficient per rank of the (nvars, order)
   product plan ([Tm_plan]): ±0 is an absent monomial and ranks past
   the array's end are absent, so arrays are only as long as their
   highest present rank needs. Every operation performs the same IEEE
   operations in the same order as the sparse representation it
   replaced (ascending rank is ascending key order), so flowpipes,
   certificates and work counters keep their bits.

   [g] memoizes the graded bounds ([Tm_plan.graded]), [[||]] until
   computed: a deterministic value, so domains that race to fill it
   store the same one. The coefficient array of a published model is
   never written. *)
type t = { plan : Plan.t; c : float array; rem : I.t; mutable g : float array }

let max_order = 7

let model plan c rem = { plan; c; rem; g = [||] }

let plan_of ~nvars ~order =
  if order < 1 || order > max_order then
    invalid_arg "Taylor_model: order must be within [1, 7]";
  Plan.find ~nvars ~order

let nvars tm = Plan.nvars tm.plan
let order tm = Plan.order tm.plan
let remainder tm = tm.rem

let graded tm =
  if Array.length tm.g > 0 then tm.g
  else begin
    let g = Plan.graded tm.plan tm.c in
    tm.g <- g;
    g
  end

(* Enclosure of the polynomial alone; raises [Invalid_argument] when a
   bound is not finite. *)
let bound_poly tm =
  let g = graded tm in
  I.make g.(0) g.(1)

let present x = x <> 0.0

(* Whole bound over [-1,1]^n of terms given in ascending key order,
   whatever their degree: [Tm_plan.graded]'s arithmetic, for the terms
   above the order that [make] folds into the remainder. *)
let bound_terms terms =
  let lo = ref 0.0 and hi = ref 0.0 and s = ref 0.0 and n = ref 0 in
  List.iter
    (fun (e, x) ->
      if Array.for_all (fun k -> k = 0) e then begin
        lo := !lo +. x;
        hi := !hi +. x
      end
      else if Array.for_all (fun k -> k land 1 = 0) e then begin
        if x >= 0.0 then hi := !hi +. x else lo := !lo +. x
      end
      else begin
        lo := !lo -. Float.abs x;
        hi := !hi +. Float.abs x
      end;
      s := !s +. Float.abs x;
      incr n)
    terms;
  if !n > 1 then begin
    let slack = Float.succ (float_of_int (!n - 1) *. epsilon_float *. !s) in
    lo := Float.pred (!lo -. slack);
    hi := Float.succ (!hi +. slack)
  end;
  I.make !lo !hi

let make ~poly ~rem ~order =
  if order < 1 || order > max_order then
    invalid_arg "Taylor_model.make: order must be within [1, 7]";
  let plan = Plan.find ~nvars:(Poly.nvars poly) ~order in
  let c = Array.make (Plan.size plan) (-0.0) in
  let high = ref [] in
  (* [to_terms] lists the terms in descending key order *)
  List.iter
    (fun (e, x) ->
      if present x then
        match Plan.rank plan e with Some r -> c.(r) <- x | None -> high := (e, x) :: !high)
    (Poly.to_terms poly);
  let rem = if !high = [] then rem else I.add rem (bound_terms !high) in
  model plan c rem

let poly tm =
  let terms = ref [] in
  Array.iteri
    (fun r x ->
      if present x then
        terms := (Array.init (nvars tm) (Plan.exponent tm.plan r), x) :: !terms)
    tm.c;
  Poly.of_terms (nvars tm) !terms

let const_in plan x = model plan (if x = 0.0 then [||] else [| x |]) I.zero

let const ~nvars ~order x = const_in (plan_of ~nvars ~order) x

(* Rank of the monomial z_i. *)
let var_rank plan i =
  let e = Array.make (Plan.nvars plan) 0 in
  e.(i) <- 1;
  Option.get (Plan.rank plan e)

let var ~nvars ~order i =
  let plan = plan_of ~nvars ~order in
  if i < 0 || i >= nvars then invalid_arg "Taylor_model.var: index out of range";
  let r = var_rank plan i in
  let c = Array.make (r + 1) (-0.0) in
  c.(r) <- 1.0;
  model plan c I.zero

(* Abstract an interval as a Taylor model with no symbolic dependency.
   The symmetrized remainder is widened: mid and rad round to nearest, so
   mid +- rad can undershoot the original bounds by 1/2 ulp each. *)
let of_interval ~nvars ~order iv =
  { (const ~nvars ~order (I.mid iv)) with rem = I.widen (I.make (-.I.rad iv) (I.rad iv)) }

(* Sound range enclosure. *)
let bound tm = I.add (bound_poly tm) tm.rem

(* Evaluate at a concrete z (the result is the interval poly(z) + rem):
   each present term's product of powers, summed in ascending rank. *)
let eval tm z =
  if Array.length z <> nvars tm then invalid_arg "Taylor_model.eval: arity mismatch";
  let acc = ref 0.0 in
  Array.iteri
    (fun r x ->
      if present x then begin
        let term = ref x in
        for i = 0 to nvars tm - 1 do
          for _ = 1 to Plan.exponent tm.plan r i do
            term := !term *. z.(i)
          done
        done;
        acc := !acc +. !term
      end)
    tm.c;
  I.shift !acc tm.rem

let constant_term tm =
  if Array.length tm.c > 0 && present tm.c.(0) then tm.c.(0) else 0.0

let neg tm =
  let a = tm.c in
  let c = Array.make (Array.length a) 0.0 in
  for r = 0 to Array.length a - 1 do
    Array.unsafe_set c r (-.Array.unsafe_get a r)
  done;
  model tm.plan c (I.neg tm.rem)

(* Both operands must share a plan: the same arity and the same order. *)
let join name a b =
  if nvars a <> nvars b then invalid_arg ("Taylor_model." ^ name ^ ": arity mismatch");
  if order a <> order b then invalid_arg ("Taylor_model." ^ name ^ ": order mismatch")

(* a.(r) +. sign b.(r) over the common ranks; a rank only one operand
   has keeps that operand's coefficient (negated for [sub]), as the
   sparse merge did. *)
let combine ~negate a b =
  let na = Array.length a and nb = Array.length b in
  let c = Array.make (max na nb) 0.0 in
  if negate then
    for r = 0 to min na nb - 1 do
      Array.unsafe_set c r (Array.unsafe_get a r +. -.Array.unsafe_get b r)
    done
  else
    for r = 0 to min na nb - 1 do
      Array.unsafe_set c r (Array.unsafe_get a r +. Array.unsafe_get b r)
    done;
  if na > nb then Array.blit a nb c nb (na - nb)
  else
    for r = na to nb - 1 do
      let y = Array.unsafe_get b r in
      Array.unsafe_set c r (if negate then -.y else y)
    done;
  c

let add a b =
  join "add" a b;
  model a.plan (combine ~negate:false a.c b.c) (I.add a.rem b.rem)

let sub a b =
  join "sub" a b;
  model a.plan (combine ~negate:true a.c b.c) (I.sub a.rem b.rem)

(* acc.(r) <- acc.(r) +. s *. m.(r) for every rank of [m] ([acc] is at
   least as long): the coefficients of [add acc (scale s m)]. A finite
   [s] maps an absent ±0 to ±0, which leaves acc.(r) as it was; a
   non-finite one would make it NaN, so only present terms are
   multiplied then. *)
let axpy acc s m =
  if s = 0.0 then ()
  else if Float.is_finite s then
    for r = 0 to Array.length m - 1 do
      Array.unsafe_set acc r (Array.unsafe_get acc r +. (s *. Array.unsafe_get m r))
    done
  else
    for r = 0 to Array.length m - 1 do
      let x = Array.unsafe_get m r in
      if present x then Array.unsafe_set acc r (Array.unsafe_get acc r +. (s *. x))
    done

(* [scale 0.0] is the zero model whatever the coefficients, NaN and
   infinities included. *)
let scale s tm =
  if s = 0.0 then model tm.plan [||] (I.scale s tm.rem)
  else begin
    let c = Array.make (Array.length tm.c) (-0.0) in
    axpy c s tm.c;
    model tm.plan c (I.scale s tm.rem)
  end

let sum_scaled init s ms =
  let len = ref (Array.length init.c) in
  Array.iter
    (fun m ->
      join "add" init m;
      len := max !len (Array.length m.c))
    ms;
  let c = Array.make !len (-0.0) in
  Array.blit init.c 0 c 0 (Array.length init.c);
  let rem = ref init.rem in
  Array.iteri
    (fun j m ->
      axpy c s.(j) m.c;
      rem := I.add !rem (I.scale s.(j) m.rem))
    ms;
  model init.plan c !rem

(* Add a constant to the rank-0 (constant) coefficient: an absent ±0
   plus x is x, and a sum of exactly 0 is absent, as the sparse merge
   dropped it. *)
let shift x tm =
  let c = Array.make (max 1 (Array.length tm.c)) (-0.0) in
  Array.blit tm.c 0 c 0 (Array.length tm.c);
  c.(0) <- c.(0) +. x;
  model tm.plan c tm.rem

let add_remainder iv tm = { tm with rem = I.add tm.rem iv }

(* Split off the present terms [drop] selects into the remainder: the
   kept ones stay in place, the dropped ones are bounded in ascending
   rank. [tm] itself when nothing is dropped. *)
let fold_into_remainder tm drop =
  let n = Array.length tm.c in
  let first = ref 0 in
  while !first < n && not (present tm.c.(!first) && drop !first tm.c.(!first)) do
    incr first
  done;
  if !first = n then tm
  else begin
    let kept = Array.copy tm.c and dropped = Array.make n (-0.0) in
    for r = !first to n - 1 do
      let x = kept.(r) in
      if present x && drop r x then begin
        dropped.(r) <- x;
        kept.(r) <- -0.0
      end
    done;
    let g = Plan.graded tm.plan dropped in
    model tm.plan kept (I.add tm.rem (I.make g.(0) g.(1)))
  end

(* Prune monomials with negligible coefficients into the remainder. The
   closed-loop iteration fills the polynomial with cross-term debris many
   orders of magnitude below the leading coefficients; sweeping keeps the
   representation sparse (and hence the flowpipe fast) at a remainder cost
   bounded by the swept coefficients themselves. The running maximum
   may read absent slots: |±0| never raises it. *)
let sweep ?(tol = 1e-10) tm =
  let m = Array.make 1 0.0 in
  for r = 0 to Array.length tm.c - 1 do
    m.(0) <- Float.max m.(0) (Float.abs (Array.unsafe_get tm.c r))
  done;
  let cutoff = tol *. Float.max 1e-30 m.(0) in
  fold_into_remainder tm (fun _ x -> not (Float.abs x > cutoff))

let check_var name tm i =
  if i < 0 || i >= nvars tm then invalid_arg ("Taylor_model." ^ name ^ ": index out of range")

(* Retire symbol i: bound every monomial involving z_i over the domain and
   fold it into the interval remainder. Used to recycle disturbance
   symbols (POLAR-style symbolic remainders with a bounded symbol
   budget). *)
let absorb_var i tm =
  check_var "absorb_var" tm i;
  fold_into_remainder tm (fun r _ -> Plan.exponent tm.plan r i > 0)

(* Move the interval remainder onto a fresh symbol z_slot (which must not
   occur in the polynomial — absorb it first): the resulting model has a
   zero interval remainder but remembers, symbolically, that subsequent
   steps all see the SAME disturbance value, which lets a contractive
   closed loop cancel it instead of compounding it. *)
let symbolize_remainder ~slot tm =
  check_var "symbolize_remainder" tm slot;
  Array.iteri
    (fun r x ->
      if present x && Plan.exponent tm.plan r slot > 0 then
        invalid_arg "Taylor_model.symbolize_remainder: slot still in use")
    tm.c;
  let m = I.mid tm.rem and rad = I.rad tm.rem in
  let rs = var_rank tm.plan slot in
  let len = if rad = 0.0 then max 1 (Array.length tm.c) else max (rs + 1) (Array.length tm.c) in
  let c = Array.make len (-0.0) in
  Array.blit tm.c 0 c 0 (Array.length tm.c);
  c.(0) <- c.(0) +. m;
  if rad <> 0.0 then c.(rs) <- rad;
  model tm.plan c I.zero

(* (p1 + r1)(p2 + r2) = p1 p2 + p1 r2 + p2 r1 + r1 r2; the product
   polynomial is truncated to the model order and the dropped tail is
   bounded into the remainder from the factors' homogeneous parts
   ([Tm_plan.tail]), whose whole bounds ([bp1], [bp2]) come from the
   same graded scans. *)
let mul a b =
  join "mul" a b;
  let ga = graded a and gb = graded b in
  let drop_bound = Plan.tail a.plan ga gb in
  let keep = Plan.mul a.plan a.c b.c in
  let bp1 = bound_poly a and bp2 = bound_poly b in
  let rem =
    I.add drop_bound (I.add (I.mul bp1 b.rem) (I.add (I.mul bp2 a.rem) (I.mul a.rem b.rem)))
  in
  model a.plan keep rem

let rec pow tm n =
  if n < 0 then invalid_arg "Taylor_model.pow: negative exponent"
  else if n = 0 then const_in tm.plan 1.0
  else if n = 1 then tm
  else begin
    let half = pow tm (n / 2) in
    let sq = mul half half in
    if n mod 2 = 0 then sq else mul tm sq
  end

(* ------------------------------------------------------------------ *)
(* Composition with scalar elementary functions via Taylor expansion
   around the model's constant term, with a Lagrange remainder bounded
   over the model's range. *)

type scalar_fn = {
  deriv_at : float -> int -> float;       (* phi^(k)(c) *)
  deriv_bound : I.t -> int -> I.t;        (* enclosure of phi^(k) over an interval *)
}

let factorial k =
  let acc = ref 1.0 in
  for i = 2 to k do
    acc := !acc *. float_of_int i
  done;
  !acc

(* The Horner sum accumulates in place, in one array as long as the
   longest power of d; every product is formed before any coefficient
   is added, which changes nothing observable (only a product can
   raise). *)
let compose fn tm =
  let order = order tm in
  let c = constant_term tm in
  (* d = tm - c has zero constant term *)
  let d = shift (-.c) tm in
  let range = bound tm in
  (* Taylor polynomial sum phi^(k)(c)/k! d^k *)
  let dk = Array.make (order + 1) (const_in tm.plan 1.0) in
  for k = 1 to order do
    dk.(k) <- mul dk.(k - 1) d
  done;
  let s = Array.init order (fun k -> fn.deriv_at c (k + 1) /. factorial (k + 1)) in
  let acc = sum_scaled (const_in tm.plan (fn.deriv_at c 0)) s (Array.sub dk 1 order) in
  (* Lagrange remainder: phi^(order+1)(xi)/ (order+1)! * d^(order+1),
     xi anywhere in the model's range *)
  let d_pow = I.pow_int (bound d) (order + 1) in
  let lagrange =
    I.scale (1.0 /. factorial (order + 1)) (I.mul (fn.deriv_bound range (order + 1)) d_pow)
  in
  add_remainder lagrange acc

(* The derivative-polynomial memo tables below are the only module-level
   mutable state on the verifier's hot path. Parallel gradient probes hit
   them from several domains at once, so each domain owns its own table
   via Domain.DLS: lookups never contend on a lock, at the cost of each
   domain rebuilding the (tiny, deterministic) polynomial family once.
   The cached values are immutable, so per-domain copies are
   interchangeable. *)
let memo_deriv_poly key n build =
  let table = Domain.DLS.get key in
  match Hashtbl.find_opt table n with
  | Some p -> p
  | None ->
    let p = build n in
    Hashtbl.replace table n p;
    p

(* tanh derivatives: phi^(n)(x) = P_n(tanh x) with P_0(y) = y and
   P_{n+1}(y) = P_n'(y) (1 - y^2). Bounds come from interval-evaluating
   P_n over the tanh image of the interval. *)
let tanh_deriv_polys = Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let tanh_poly n =
  memo_deriv_poly tanh_deriv_polys n @@ fun n ->
  let rec build k =
    if k = 0 then Poly.var 1 0
    else begin
      let prev = build (k - 1) in
      let dp = Poly.diff prev 0 in
      let one_minus_sq = Poly.sub (Poly.const 1 1.0) (Poly.pow (Poly.var 1 0) 2) in
      Poly.mul dp one_minus_sq
    end
  in
  build n

let tanh_fn =
  {
    deriv_at = (fun c n -> Poly.eval (tanh_poly n) [| tanh c |]);
    deriv_bound =
      (fun iv n ->
        let y = I.tanh_ iv in
        Poly.ieval (tanh_poly n) [| y |]);
  }

(* sigmoid derivatives: phi^(n)(x) = Q_n(sigma(x)) with Q_0(s) = s,
   Q_{n+1}(s) = Q_n'(s) s (1 - s). *)
let sigmoid_deriv_polys = Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let sigmoid_poly n =
  memo_deriv_poly sigmoid_deriv_polys n @@ fun n ->
  let rec build k =
    if k = 0 then Poly.var 1 0
    else begin
      let prev = build (k - 1) in
      let dp = Poly.diff prev 0 in
      let s_one_minus_s = Poly.mul (Poly.var 1 0) (Poly.sub (Poly.const 1 1.0) (Poly.var 1 0)) in
      Poly.mul dp s_one_minus_s
    end
  in
  build n

let sigmoid_fn =
  {
    deriv_at = (fun c n -> Poly.eval (sigmoid_poly n) [| Dwv_util.Floatx.sigmoid c |]);
    deriv_bound =
      (fun iv n ->
        let s = I.sigmoid_ iv in
        Poly.ieval (sigmoid_poly n) [| s |]);
  }

let exp_fn =
  {
    deriv_at = (fun c _ -> exp c);
    deriv_bound = (fun iv _ -> I.exp_ iv);
  }

(* sin^(n) cycles through sin, cos, -sin, -cos. *)
let sin_fn =
  let point c n =
    match n mod 4 with
    | 0 -> sin c
    | 1 -> cos c
    | 2 -> -.sin c
    | _ -> -.cos c
  in
  let bound iv n =
    match n mod 4 with
    | 0 -> I.sin_ iv
    | 1 -> I.cos_ iv
    | 2 -> I.neg (I.sin_ iv)
    | _ -> I.neg (I.cos_ iv)
  in
  { deriv_at = point; deriv_bound = bound }

let cos_fn =
  let point c n =
    match n mod 4 with
    | 0 -> cos c
    | 1 -> -.sin c
    | 2 -> -.cos c
    | _ -> sin c
  in
  let bound iv n =
    match n mod 4 with
    | 0 -> I.cos_ iv
    | 1 -> I.neg (I.sin_ iv)
    | 2 -> I.neg (I.cos_ iv)
    | _ -> I.sin_ iv
  in
  { deriv_at = point; deriv_bound = bound }

(* 1/t: phi^(n)(c) = (-1)^n n! / c^(n+1). Requires 0 outside the range. *)
let inv_fn =
  {
    deriv_at =
      (fun c n ->
        let sign = if n mod 2 = 0 then 1.0 else -1.0 in
        sign *. factorial n /. (c ** float_of_int (n + 1)));
    deriv_bound =
      (fun iv n ->
        let sign = if n mod 2 = 0 then 1.0 else -1.0 in
        I.scale (sign *. factorial n) (I.inv (I.pow_int iv (n + 1))));
  }

let tanh_ tm = compose tanh_fn tm
let sigmoid_ tm = compose sigmoid_fn tm
let exp_ tm = compose exp_fn tm
let sin_ tm = compose sin_fn tm
let cos_ tm = compose cos_fn tm

let inv tm =
  if I.contains (bound tm) 0.0 then failwith "Taylor_model.inv: range contains zero";
  compose inv_fn tm

let div a b = mul a (inv b)

(* ReLU: exact when the model's range is sign-definite; otherwise the
   standard chord relaxation over [lo, hi]: relu lies between the chord
   lambda (x - lo) and the chord shifted down by its maximal gap
   d = hi (-lo) / (hi - lo) attained at x = 0. *)
let relu tm =
  let range = bound tm in
  let lo = I.lo range and hi = I.hi range in
  if lo >= 0.0 then tm
  else if hi <= 0.0 then const_in tm.plan 0.0
  else begin
    let lambda = hi /. (hi -. lo) in
    let gap = hi *. -.lo /. (hi -. lo) in
    let chord = shift (-.(lambda *. lo)) (scale lambda tm) in
    let centered = shift (-.(gap /. 2.0)) chord in
    add_remainder (I.widen (I.make (-.(gap /. 2.0)) (gap /. 2.0))) centered
  end

(* Evaluate a dynamics expression with Taylor models substituted for the
   state and input variables. Lie-derivative tables share large subtrees
   (physically, thanks to hash-consing), so evaluation memoizes when
   given a [memo] table — one table per flowpipe step covers all
   coordinates and all derivative orders. Hash-consed expressions make
   both sides of the lookup O(1): [Expr.equal] is a pointer compare and
   [Expr.hash] a precomputed field, so a memo hit costs a bucket probe
   instead of a deep traversal. *)

module Expr_memo = Hashtbl.Make (struct
  type t = Dwv_expr.Expr.t

  let equal = Dwv_expr.Expr.equal
  let hash = Dwv_expr.Expr.hash
end)

type memo = t Expr_memo.t

let create_memo () : memo = Expr_memo.create 256

let of_expr ?memo ~x ~u e =
  if Array.length x = 0 then invalid_arg "Taylor_model.of_expr: empty state";
  let plan = x.(0).plan in
  let module E = Dwv_expr.Expr in
  let rec go e =
    match memo with
    | Some table -> (
      match Expr_memo.find_opt table e with
      | Some tm -> tm
      | None ->
        let tm = compute e in
        Expr_memo.add table e tm;
        tm)
    | None -> compute e
  and compute e =
    match e.E.node with
    | E.Const c -> const_in plan c
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

let pp ppf tm =
  Fmt.pf ppf "@[<hov 2>{poly = %a;@ rem = %a;@ order = %d}@]" Poly.pp (poly tm) I.pp tm.rem
    (order tm)
