(** Symbolic expressions for system dynamics f(x, u).

    One AST, four interpreters: numeric evaluation, interval evaluation,
    symbolic differentiation (Lie derivatives / Jacobians), and — via
    {!fold} — Taylor-model evaluation in [dwv_taylor].

    Expressions are HASH-CONSED: the smart constructors intern every
    node through a global table, so structurally equal values are
    physically equal, {!equal} is a pointer compare, and {!hash} is a
    precomputed field read. Pattern-match via the [node] field; build
    only through the smart constructors (the record is [private]). *)

type t = private { node : node; hash : int; id : int }

and node =
  | Const of float
  | Var of int      (** state component x_i *)
  | Input of int    (** control component u_j (constant within a step) *)
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Neg of t
  | Pow of t * int
  | Sin of t
  | Cos of t
  | Exp of t
  | Tanh of t

(** {1 Smart constructors (constant folding)} *)

val const : float -> t
val var : int -> t
val input : int -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** Raises [Invalid_argument] on division by the constant zero. *)
val div : t -> t -> t

val neg : t -> t

(** Integer power; raises on a negative exponent. *)
val pow : t -> int -> t

val sin_ : t -> t
val cos_ : t -> t
val exp_ : t -> t
val tanh_ : t -> t

(** Multiply by a scalar constant. *)
val scale : float -> t -> t

(** {1 Interpreters} *)

(** Catamorphism: interpret the AST in an arbitrary algebra. *)
val fold :
  const:(float -> 'a) ->
  var:(int -> 'a) ->
  input:(int -> 'a) ->
  add:('a -> 'a -> 'a) ->
  sub:('a -> 'a -> 'a) ->
  mul:('a -> 'a -> 'a) ->
  div:('a -> 'a -> 'a) ->
  neg:('a -> 'a) ->
  pow:('a -> int -> 'a) ->
  sin:('a -> 'a) ->
  cos:('a -> 'a) ->
  exp:('a -> 'a) ->
  tanh:('a -> 'a) ->
  t ->
  'a

(** Numeric evaluation at state [x] and input [u]. *)
val eval : t -> x:float array -> u:float array -> float

(** Interval evaluation (sound range enclosure). *)
val ieval :
  t ->
  x:Dwv_interval.Interval.t array ->
  u:Dwv_interval.Interval.t array ->
  Dwv_interval.Interval.t

type wrt = Wrt_var of int | Wrt_input of int

(** Symbolic partial derivative. *)
val diff : t -> wrt:wrt -> t

(** Lie derivative of [g] along the field [f] (inputs held constant):
    L_f g = Σᵢ (∂g/∂xᵢ) fᵢ. *)
val lie_derivative : f:t array -> t -> t

(** Symbolic Jacobian ∂f/∂x, [n] the state dimension. *)
val jacobian_x : t array -> n:int -> t array array

(** Symbolic Jacobian ∂f/∂u, [m] the input dimension. *)
val jacobian_u : t array -> m:int -> t array array

val eval_vec : t array -> x:float array -> u:float array -> float array

val ieval_vec :
  t array ->
  x:Dwv_interval.Interval.t array ->
  u:Dwv_interval.Interval.t array ->
  Dwv_interval.Interval.t array

(** {1 Compiled evaluation} *)

(** A vector of expressions flattened into a register program: one slot
    per distinct interned node, so subtrees shared in the DAG are
    computed once. The register file is laid out as the constants, then
    the state slots [x_0 .. x_(vars-1)], then the input slots
    [u_0 .. u_(inputs-1)], then one slot per operation node, written by
    one closure per operation, children before parents. Immutable, so
    one program may be run from several domains at once. *)
type program

(** Compile [f] once; run it with {!run}. Raises [Invalid_argument] on a
    negative variable or input index. *)
val compile : t array -> program

(** Register-file length {!run} needs. *)
val slots : program -> int

(** Number of outputs (the length of the compiled vector). *)
val outputs : program -> int

(** [run p ~regs ~x ~u out] writes output [i] of [p] at state [x] and
    input [u] into [out.(i)]. [regs] is caller-owned scratch of length at
    least [slots p]; nothing is allocated. The results equal
    [eval_vec f ~x ~u] bit for bit: each slot performs the same IEEE
    operation as the matching {!eval} case. Raises [Invalid_argument]
    when [regs] or [out] is too short, or on an out-of-range variable
    or input index (as {!eval} does). *)
val run :
  program -> regs:float array -> x:float array -> u:float array -> float array -> unit

(** {2 Register-level access}

    For an integrator that keeps its state in the register file: load
    the constants once ({!registers}), write the state and input slots
    directly, {!exec}, and read the outputs from their slots. An output
    slot may be a constant, state or input slot ([x1' = x2], a
    parameter's [0] derivative), so copy every output out before
    writing the state slots again. *)

(** State slots: 1 + the largest state index [f] reads (0 if none). *)
val vars : program -> int

(** Input slots: 1 + the largest input index [f] reads (0 if none). *)
val inputs : program -> int

(** Slot of [x_i]; the state slots are contiguous, so it is
    [var_slot p 0 + i]. *)
val var_slot : program -> int -> int

(** Slot of [u_j], [input_slot p 0 + j]. *)
val input_slot : program -> int -> int

(** Slot holding output [k] after {!exec}. *)
val output_slot : program -> int -> int

(** A fresh register file of length [slots p] with the constants
    loaded. *)
val registers : program -> float array

(** Run the operations over [regs], whose constant, state and input
    slots the caller has loaded; allocates nothing. Raises
    [Invalid_argument] when [regs] is shorter than [slots p]. *)
val exec : program -> float array -> unit

(** Structural equality — O(1): hash-consing makes it a physical
    identity check. Float constants keep [Float.equal] semantics (NaN is
    canonicalized at construction so [equal (const nan) (const nan)] is
    true; -0. and 0. stay distinct), so ([equal], [hash]) is a valid
    hashtable equality. *)
val equal : t -> t -> bool

(** Precomputed structural hash (field read). Stable across rebuilds of
    the same structure — it is computed from child hashes, not intern
    ids — so it can key persistent memo tables. *)
val hash : t -> int

(** Unique id of the interned node within this process. Ids are
    allocated globally (one intern table shared by all domains), so two
    expressions are structurally equal iff their ids coincide. *)
val id : t -> int

(** Number of distinct nodes interned so far (diagnostics/tests: a
    rebuild of an already-interned structure must not grow this). *)
val interned : unit -> int

(** Node count (expression size). *)
val size : t -> int

val pp : Format.formatter -> t -> unit
