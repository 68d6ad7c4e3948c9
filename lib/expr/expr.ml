(* Symbolic expressions for system dynamics.

   A dynamics right-hand side f(x, u) is written once as a vector of [t]
   values and then consumed in four ways:
     - numeric evaluation        (simulation, Monte-Carlo evaluation)
     - interval evaluation       (a-priori enclosures in the verifier)
     - symbolic differentiation  (Lie derivatives for Taylor flowpipes,
                                  exact Jacobians for the SVG baseline)
     - Taylor-model evaluation   (in dwv_taylor, via [fold])

   Nodes are HASH-CONSED: every constructor interns through a global
   table, so structurally equal expressions are physically equal and
   carry a precomputed structural hash. Memo tables keyed on expressions
   (the per-step table in dwv_taylor, the per-domain Lie-table cache in
   dwv_reach) therefore pay O(1) per lookup — a pointer compare and a
   field read — instead of deep structural hashing, and the repeated
   Lie-derivative trees of the flowpipe kernel share storage instead of
   duplicating common subtrees. *)

type t = { node : node; hash : int; id : int }

and node =
  | Const of float
  | Var of int      (* state component x_i *)
  | Input of int    (* control component u_j, held constant within a step *)
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Neg of t
  | Pow of t * int  (* integer power, exponent >= 0 *)
  | Sin of t
  | Cos of t
  | Exp of t
  | Tanh of t

(* Structural hash of a node from the children's precomputed hashes:
   O(1) per node, never O(tree), and independent of intern ids so the
   hash of a structure is stable no matter when (or on which domain) it
   is rebuilt. *)
let mix h k = (h * 0x01000193) lxor k

let fin tag h = (((h lxor (h lsr 16)) * 0x45d9f3b) + tag) land max_int

(* Constants hash and compare by bit pattern: [const] canonicalizes NaN
   below, so every NaN interns to one node, while -0. stays distinct
   from 0. (they are not interchangeable under division, so IEEE
   equality — which identifies them — would be unsound here). *)
let float_bits c = Int64.to_int (Int64.bits_of_float c)

let node_hash = function
  | Const c -> fin 1 (float_bits c)
  | Var i -> fin 2 i
  | Input j -> fin 3 j
  | Add (a, b) -> fin 4 (mix a.hash b.hash)
  | Sub (a, b) -> fin 5 (mix a.hash b.hash)
  | Mul (a, b) -> fin 6 (mix a.hash b.hash)
  | Div (a, b) -> fin 7 (mix a.hash b.hash)
  | Neg a -> fin 8 a.hash
  | Pow (a, n) -> fin 9 (mix a.hash n)
  | Sin a -> fin 10 a.hash
  | Cos a -> fin 11 a.hash
  | Exp a -> fin 12 a.hash
  | Tanh a -> fin 13 a.hash

(* Depth-1 equality: children are already interned, so they compare by
   physical identity; only the spine constructor and scalars are looked
   at. The intern table is the only consumer. *)
module Node_tbl = Hashtbl.Make (struct
  type nonrec t = node

  let equal a b =
    match (a, b) with
    | Const x, Const y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    | Var i, Var j | Input i, Input j -> Int.equal i j
    | Add (a1, a2), Add (b1, b2)
    | Sub (a1, a2), Sub (b1, b2)
    | Mul (a1, a2), Mul (b1, b2)
    | Div (a1, a2), Div (b1, b2) -> a1 == b1 && a2 == b2
    | Neg a1, Neg b1 | Sin a1, Sin b1 | Cos a1, Cos b1 | Exp a1, Exp b1
    | Tanh a1, Tanh b1 -> a1 == b1
    | Pow (a1, n), Pow (b1, k) -> Int.equal n k && a1 == b1
    | ( ( Const _ | Var _ | Input _ | Add _ | Sub _ | Mul _ | Div _ | Neg _ | Pow _
        | Sin _ | Cos _ | Exp _ | Tanh _ ),
        _ ) -> false

  let hash = node_hash
end)

(* The intern table and id counter are module-level mutable state, but
   every access goes through [intern]'s mutex, and construction is off
   the verifier's hot path (dynamics and Lie tables are built once per
   run; flowpipe steps only *read* interned nodes). Which domain interns
   a structure first is immaterial: the stored node is immutable. *)
let intern_table = Node_tbl.create 4096
let next_id = ref 0
let intern_mu = Mutex.create ()

let intern node =
  Mutex.lock intern_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock intern_mu) @@ fun () ->
  match Node_tbl.find_opt intern_table node with
  | Some e -> e
  | None ->
    let e = { node; hash = node_hash node; id = !next_id } in
    incr next_id;
    Node_tbl.add intern_table node e;
    e

let interned () =
  Mutex.lock intern_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock intern_mu) @@ fun () ->
  Node_tbl.length intern_table

(* NaN is canonicalized at construction so all NaN constants intern to
   the same node, matching the [Float.equal] view that nan = nan. *)
let const c = intern (Const (if Float.is_nan c then Float.nan else c))
let var i = intern (Var i)
let input j = intern (Input j)

(* Smart constructors with constant folding; keep expressions small because
   Lie derivatives are taken repeatedly. *)
let rec add a b =
  match (a.node, b.node) with
  | Const 0.0, _ -> b
  | _, Const 0.0 -> a
  | Const x, Const y -> const (x +. y)
  | Const _, _ -> add b a
  | _ -> intern (Add (a, b))

let sub a b =
  match (a.node, b.node) with
  | _, Const 0.0 -> a
  | Const 0.0, _ -> intern (Neg b)
  | Const x, Const y -> const (x -. y)
  | _ -> intern (Sub (a, b))

let rec mul a b =
  match (a.node, b.node) with
  | Const 0.0, _ | _, Const 0.0 -> const 0.0
  | Const 1.0, _ -> b
  | _, Const 1.0 -> a
  | Const x, Const y -> const (x *. y)
  | _, Const _ -> mul b a
  | _ -> intern (Mul (a, b))

let div a b =
  match (a.node, b.node) with
  | _, Const 0.0 -> invalid_arg "Expr.div: division by constant zero"
  | _, Const 1.0 -> a
  | Const x, Const y -> const (x /. y)
  | Const 0.0, _ -> const 0.0
  | _ -> intern (Div (a, b))

let neg e =
  match e.node with
  | Const c -> const (-.c)
  | Neg a -> a
  | _ -> intern (Neg e)

let pow e n =
  if n < 0 then invalid_arg "Expr.pow: negative exponent";
  match (e.node, n) with
  | _, 0 -> const 1.0
  | _, 1 -> e
  | Const c, n -> const (c ** float_of_int n)
  | _, n -> intern (Pow (e, n))

let sin_ e = match e.node with Const c -> const (sin c) | _ -> intern (Sin e)
let cos_ e = match e.node with Const c -> const (cos c) | _ -> intern (Cos e)
let exp_ e = match e.node with Const c -> const (exp c) | _ -> intern (Exp e)
let tanh_ e = match e.node with Const c -> const (tanh c) | _ -> intern (Tanh e)

let scale s e = mul (const s) e

(* Generic catamorphism: interpret the AST in any algebra. Used by the
   Taylor-model evaluator to avoid a dependency cycle. *)
let rec fold ~const ~var ~input ~add ~sub ~mul ~div ~neg ~pow ~sin ~cos ~exp ~tanh e =
  let go = fold ~const ~var ~input ~add ~sub ~mul ~div ~neg ~pow ~sin ~cos ~exp ~tanh in
  match e.node with
  | Const c -> const c
  | Var i -> var i
  | Input j -> input j
  | Add (a, b) -> add (go a) (go b)
  | Sub (a, b) -> sub (go a) (go b)
  | Mul (a, b) -> mul (go a) (go b)
  | Div (a, b) -> div (go a) (go b)
  | Neg a -> neg (go a)
  | Pow (a, n) -> pow (go a) n
  | Sin a -> sin (go a)
  | Cos a -> cos (go a)
  | Exp a -> exp (go a)
  | Tanh a -> tanh (go a)

let rec eval e ~x ~u =
  match e.node with
  | Const c -> c
  | Var i -> x.(i)
  | Input j -> u.(j)
  | Add (a, b) -> eval a ~x ~u +. eval b ~x ~u
  | Sub (a, b) -> eval a ~x ~u -. eval b ~x ~u
  | Mul (a, b) -> eval a ~x ~u *. eval b ~x ~u
  | Div (a, b) -> eval a ~x ~u /. eval b ~x ~u
  | Neg a -> -.eval a ~x ~u
  | Pow (a, n) -> eval a ~x ~u ** float_of_int n
  | Sin a -> sin (eval a ~x ~u)
  | Cos a -> cos (eval a ~x ~u)
  | Exp a -> exp (eval a ~x ~u)
  | Tanh a -> tanh (eval a ~x ~u)

module I = Dwv_interval.Interval

let rec ieval e ~x ~u =
  match e.node with
  | Const c -> I.of_point c
  | Var i -> x.(i)
  | Input j -> u.(j)
  | Add (a, b) -> I.add (ieval a ~x ~u) (ieval b ~x ~u)
  | Sub (a, b) -> I.sub (ieval a ~x ~u) (ieval b ~x ~u)
  | Mul (a, b) -> I.mul (ieval a ~x ~u) (ieval b ~x ~u)
  | Div (a, b) -> I.div (ieval a ~x ~u) (ieval b ~x ~u)
  | Neg a -> I.neg (ieval a ~x ~u)
  | Pow (a, n) -> I.pow_int (ieval a ~x ~u) n
  | Sin a -> I.sin_ (ieval a ~x ~u)
  | Cos a -> I.cos_ (ieval a ~x ~u)
  | Exp a -> I.exp_ (ieval a ~x ~u)
  | Tanh a -> I.tanh_ (ieval a ~x ~u)

type wrt = Wrt_var of int | Wrt_input of int

(* Symbolic partial derivative. *)
let rec diff e ~wrt =
  let d e = diff e ~wrt in
  match e.node with
  | Const _ -> const 0.0
  | Var i -> (match wrt with Wrt_var j when i = j -> const 1.0 | _ -> const 0.0)
  | Input i -> (match wrt with Wrt_input j when i = j -> const 1.0 | _ -> const 0.0)
  | Add (a, b) -> add (d a) (d b)
  | Sub (a, b) -> sub (d a) (d b)
  | Mul (a, b) -> add (mul (d a) b) (mul a (d b))
  | Div (a, b) -> div (sub (mul (d a) b) (mul a (d b))) (pow b 2)
  | Neg a -> neg (d a)
  | Pow (a, n) -> mul (scale (float_of_int n) (pow a (n - 1))) (d a)
  | Sin a -> mul (cos_ a) (d a)
  | Cos a -> neg (mul (sin_ a) (d a))
  | Exp a -> mul (exp_ a) (d a)
  | Tanh a -> mul (sub (const 1.0) (pow (tanh_ a) 2)) (d a)

(* Lie derivative of g along the vector field f (u treated as constant
   within a sampling period, so no Input-derivative term):
   L_f g = sum_i (dg/dx_i) f_i. *)
let lie_derivative ~f g =
  let n = Array.length f in
  let acc = ref (const 0.0) in
  for i = 0 to n - 1 do
    acc := add !acc (mul (diff g ~wrt:(Wrt_var i)) f.(i))
  done;
  !acc

(* Jacobians of a vector field, used for the SVG baseline's exact model
   gradients. *)
let jacobian_x f ~n =
  Array.map (fun fi -> Array.init n (fun j -> diff fi ~wrt:(Wrt_var j))) f

let jacobian_u f ~m =
  Array.map (fun fi -> Array.init m (fun j -> diff fi ~wrt:(Wrt_input j))) f

let eval_vec f ~x ~u = Array.map (fun fi -> eval fi ~x ~u) f

let ieval_vec f ~x ~u = Array.map (fun fi -> ieval fi ~x ~u) f

(* Compiled numeric evaluation. [eval] walks the tree and returns a
   boxed float from every node, and it re-walks a subtree each time the
   DAG shares it. [compile] flattens the DAG once into a register
   program, one slot per distinct interned node (a shared subtree runs
   once), laid out as

     constants | x_0 .. x_(vars-1) | u_0 .. u_(inputs-1) | operations

   Each operation node becomes one closure that captures its operand
   slots and its destination slot and writes that slot; the closures run
   children before parents. There is no instruction variant to dispatch
   on: a run is one indirect call per operation into straight-line code,
   so its speed does not hinge on where a jump table lands in the
   binary. [run] executes the program into a caller-owned register file
   (an unboxed float array), allocating nothing. Every closure applies
   the same IEEE operation to the same operands as the matching [eval]
   case ([**] for [Pow], the same libm calls), so the outputs are
   bit-identical to [eval_vec].

   [exec] checks the register file's length against [slots] once per
   run; every slot a closure captures is below [slots] by construction,
   so the closures index without bounds checks. *)

type program = {
  consts : float array;  (* slot i < |consts| holds consts.(i) *)
  vars : int;  (* state slots: 1 + the largest state index read *)
  inputs : int;  (* input slots: 1 + the largest input index read *)
  ops : (float array -> unit) array;  (* children before parents *)
  outputs : int array;  (* slot of each output *)
  slots : int;
}

(* The closure of operation node [e] writing slot [d]; [slot] gives the
   children's slots. Each arm closes over plain ints, so no partial
   application sits between the call and the arithmetic. *)
let op_closure slot e d =
  match e.node with
  | Add (a, b) ->
    let a = slot a and b = slot b in
    fun (r : float array) -> Array.unsafe_set r d (Array.unsafe_get r a +. Array.unsafe_get r b)
  | Sub (a, b) ->
    let a = slot a and b = slot b in
    fun (r : float array) -> Array.unsafe_set r d (Array.unsafe_get r a -. Array.unsafe_get r b)
  | Mul (a, b) ->
    let a = slot a and b = slot b in
    fun (r : float array) -> Array.unsafe_set r d (Array.unsafe_get r a *. Array.unsafe_get r b)
  | Div (a, b) ->
    let a = slot a and b = slot b in
    fun (r : float array) -> Array.unsafe_set r d (Array.unsafe_get r a /. Array.unsafe_get r b)
  | Neg a ->
    let a = slot a in
    fun (r : float array) -> Array.unsafe_set r d (-.Array.unsafe_get r a)
  | Pow (a, n) ->
    let a = slot a and fn = float_of_int n in
    fun (r : float array) -> Array.unsafe_set r d (Array.unsafe_get r a ** fn)
  | Sin a ->
    let a = slot a in
    fun (r : float array) -> Array.unsafe_set r d (sin (Array.unsafe_get r a))
  | Cos a ->
    let a = slot a in
    fun (r : float array) -> Array.unsafe_set r d (cos (Array.unsafe_get r a))
  | Exp a ->
    let a = slot a in
    fun (r : float array) -> Array.unsafe_set r d (exp (Array.unsafe_get r a))
  | Tanh a ->
    let a = slot a in
    fun (r : float array) -> Array.unsafe_set r d (tanh (Array.unsafe_get r a))
  | Const _ | Var _ | Input _ -> invalid_arg "Expr.compile: a leaf is not an operation"

let compile f =
  (* distinct nodes, children before parents *)
  let seen = Hashtbl.create 64 and order = ref [] in
  let rec visit e =
    if not (Hashtbl.mem seen e.id) then begin
      (match e.node with
      | Const _ -> ()
      | Var i | Input i -> if i < 0 then invalid_arg "Expr.compile: negative index"
      | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) ->
        visit a;
        visit b
      | Neg a | Pow (a, _) | Sin a | Cos a | Exp a | Tanh a -> visit a);
      Hashtbl.add seen e.id ();
      order := e :: !order
    end
  in
  Array.iter visit f;
  let nodes = List.rev !order in
  let consts =
    Array.of_list (List.filter_map (fun e -> match e.node with Const c -> Some c | _ -> None) nodes)
  in
  let vars, inputs =
    List.fold_left
      (fun (v, w) e ->
        match e.node with
        | Var i -> (max v (i + 1), w)
        | Input j -> (v, max w (j + 1))
        | _ -> (v, w))
      (0, 0) nodes
  in
  let nc = Array.length consts in
  let slot_of = Hashtbl.create 64 in
  let slot e = Hashtbl.find slot_of e.id in
  let next_const = ref 0 and next_op = ref (nc + vars + inputs) and ops = ref [] in
  List.iter
    (fun e ->
      let s =
        match e.node with
        | Const _ ->
          incr next_const;
          !next_const - 1
        | Var i -> nc + i
        | Input j -> nc + vars + j
        | _ ->
          let d = !next_op in
          incr next_op;
          (* build the closure first: [op_closure] reads the children's
             slots, which [nodes] has already assigned *)
          let op = op_closure slot e d in
          ops := op :: !ops;
          d
      in
      Hashtbl.add slot_of e.id s)
    nodes;
  {
    consts;
    vars;
    inputs;
    ops = Array.of_list (List.rev !ops);
    outputs = Array.map slot f;
    slots = !next_op;
  }

let slots p = p.slots
let outputs p = Array.length p.outputs
let vars p = p.vars
let inputs p = p.inputs
let var_slot p i = Array.length p.consts + i
let input_slot p j = Array.length p.consts + p.vars + j
let output_slot p k = p.outputs.(k)

let registers p =
  let regs = Array.make p.slots 0.0 in
  Array.blit p.consts 0 regs 0 (Array.length p.consts);
  regs

let exec p regs =
  if Array.length regs < p.slots then invalid_arg "Expr.run: register file too small";
  let ops = p.ops in
  for k = 0 to Array.length ops - 1 do
    (Array.unsafe_get ops k) regs
  done

let run p ~regs ~x ~u out =
  if Array.length regs < p.slots then invalid_arg "Expr.run: register file too small";
  if Array.length out < Array.length p.outputs then invalid_arg "Expr.run: output too small";
  let nc = Array.length p.consts in
  for i = 0 to nc - 1 do
    regs.(i) <- p.consts.(i)
  done;
  for i = 0 to p.vars - 1 do
    regs.(nc + i) <- x.(i)
  done;
  for j = 0 to p.inputs - 1 do
    regs.(nc + p.vars + j) <- u.(j)
  done;
  exec p regs;
  for k = 0 to Array.length p.outputs - 1 do
    out.(k) <- regs.(p.outputs.(k))
  done

(* Post-intern, structural equality IS physical identity: the intern
   table maps each structure (under Float.equal constant semantics:
   every NaN equal thanks to canonicalization, -0. distinct from 0.) to
   exactly one node, so the comparison is a pointer check. *)
let equal (a : t) (b : t) = a == b

let hash e = e.hash
let id e = e.id

let rec size e =
  match e.node with
  | Const _ | Var _ | Input _ -> 1
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) -> 1 + size a + size b
  | Neg a | Sin a | Cos a | Exp a | Tanh a -> 1 + size a
  | Pow (a, _) -> 1 + size a

let rec pp ppf e =
  match e.node with
  | Const c -> Fmt.pf ppf "%.6g" c
  | Var i -> Fmt.pf ppf "x%d" i
  | Input j -> Fmt.pf ppf "u%d" j
  | Add (a, b) -> Fmt.pf ppf "(%a + %a)" pp a pp b
  | Sub (a, b) -> Fmt.pf ppf "(%a - %a)" pp a pp b
  | Mul (a, b) -> Fmt.pf ppf "(%a * %a)" pp a pp b
  | Div (a, b) -> Fmt.pf ppf "(%a / %a)" pp a pp b
  | Neg a -> Fmt.pf ppf "-%a" pp a
  | Pow (a, n) -> Fmt.pf ppf "%a^%d" pp a n
  | Sin a -> Fmt.pf ppf "sin(%a)" pp a
  | Cos a -> Fmt.pf ppf "cos(%a)" pp a
  | Exp a -> Fmt.pf ppf "exp(%a)" pp a
  | Tanh a -> Fmt.pf ppf "tanh(%a)" pp a
