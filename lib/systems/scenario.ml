(* A scenario is the declarative unit of the farm: dynamics, reach-avoid
   spec (with a possibly multi-box avoid set and uncertain parameters),
   controller shape and verification method, parsed from a small
   s-expression DSL. Uncertain parameters are encoded as extra state
   dimensions with zero dynamics: the spec boxes the rest of the stack
   sees are over [dim + |params|] dimensions, so every existing layer
   (simulation, flowpipes, certificates) handles uncertainty for free. *)

module I = Dwv_interval.Interval
module Box = Dwv_interval.Box
module Expr = Dwv_expr.Expr
module Spec = Dwv_core.Spec
module Controller = Dwv_core.Controller
module Activation = Dwv_nn.Activation
module Mlp = Dwv_nn.Mlp
module Sampled_system = Dwv_ode.Sampled_system

type controller_shape =
  | Affine of float array array
      (* m rows of n_total+1 gains, last entry the bias: u_j = row·[x; 1] *)
  | Net of { sizes : int list; acts : Activation.t list; scale : float }

type method_spec =
  | M_taylor of { order : int }
  | M_interval of { order : int }
  | M_polar of { order : int; slots : int }
  | M_zonotope

type t = {
  name : string;
  dim : int;                  (* physical state dimensions *)
  m : int;                    (* control inputs *)
  delta : float;
  steps : int;
  f : Expr.t array;           (* length dim; params appear as x(dim+i) *)
  init : Box.t;               (* physical (dim-dimensional) boxes *)
  goal : Box.t;
  avoid : Box.t list;
  params : I.t array;         (* uncertain constants, as ranges *)
  controller : controller_shape;
  method_ : method_spec;
}

let fail fmt = Fmt.kstr failwith fmt

(* ------------------------------------------------------------------ *)
(* Exact float literals.  Atoms are read with [float_of_string] (which
   accepts decimal and hex-float syntax) or, for the rare double with no
   shortest-exact decimal form we emit, the [#x] bit pattern.  Printing
   prefers the shortest decimal that round-trips bit-for-bit. *)

let float_lit v =
  (* [s] was just printed with %g, so reading it back cannot fail *)
  let exact s =
    match float_of_string_opt s with
    | Some f -> Int64.bits_of_float f = Int64.bits_of_float v
    | None -> false
  in
  if Float.is_finite v then begin
    let s = Fmt.str "%.12g" v in
    if exact s then s
    else
      let s = Fmt.str "%.17g" v in
      if exact s then s else Fmt.str "#x%016Lx" (Int64.bits_of_float v)
  end
  else Fmt.str "#x%016Lx" (Int64.bits_of_float v)

let float_of_lit s =
  if String.length s > 2 && s.[0] = '#' && s.[1] = 'x' then
    match Int64.of_string_opt ("0x" ^ String.sub s 2 (String.length s - 2)) with
    | Some bits when String.length s = 18 -> Some (Int64.float_of_bits bits)
    | _ -> None
  else float_of_string_opt s

(* ------------------------------------------------------------------ *)
(* Parseable expression text: a printer whose output the Expr parser maps
   back to the *identical* hash-consed node.  Constants print as %.17g
   (always exact for finite doubles and within the lexer's grammar);
   composites are fully parenthesized so precedence never bites. *)

let expr_to_string e =
  let const c =
    if not (Float.is_finite c) then
      fail "Scenario: non-finite constant %h in dynamics" c;
    let s = Fmt.str "%.12g" c in
    let exact =
      match float_of_string_opt s with
      | Some f -> Int64.bits_of_float f = Int64.bits_of_float c
      | None -> false
    in
    let s = if exact then s else Fmt.str "%.17g" c in
    if c < 0.0 then "(" ^ s ^ ")" else s
  in
  Expr.fold e ~const
    ~var:(fun i -> Fmt.str "x%d" i)
    ~input:(fun j -> Fmt.str "u%d" j)
    ~add:(fun a b -> "(" ^ a ^ " + " ^ b ^ ")")
    ~sub:(fun a b -> "(" ^ a ^ " - " ^ b ^ ")")
    ~mul:(fun a b -> "(" ^ a ^ " * " ^ b ^ ")")
    ~div:(fun a b -> "(" ^ a ^ " / " ^ b ^ ")")
    ~neg:(fun a -> "(-" ^ a ^ ")")
    ~pow:(fun a k -> "(" ^ a ^ " ^ " ^ string_of_int k ^ ")")
    ~sin:(fun a -> "sin(" ^ a ^ ")")
    ~cos:(fun a -> "cos(" ^ a ^ ")")
    ~exp:(fun a -> "exp(" ^ a ^ ")")
    ~tanh:(fun a -> "tanh(" ^ a ^ ")")

(* Rebuild an expression with states and inputs substituted — used both
   for closing the loop under an affine controller and for fixing an
   uncertain parameter to a constant when shrinking. *)
let substitute ~var ~input e =
  Expr.fold e ~const:Expr.const ~var ~input ~add:Expr.add ~sub:Expr.sub
    ~mul:Expr.mul ~div:Expr.div ~neg:Expr.neg ~pow:Expr.pow ~sin:Expr.sin_
    ~cos:Expr.cos_ ~exp:Expr.exp_ ~tanh:Expr.tanh_

let max_indices e =
  Expr.fold e
    ~const:(fun _ -> (-1, -1))
    ~var:(fun i -> (i, -1))
    ~input:(fun j -> (-1, j))
    ~add:(fun (a, b) (c, d) -> (max a c, max b d))
    ~sub:(fun (a, b) (c, d) -> (max a c, max b d))
    ~mul:(fun (a, b) (c, d) -> (max a c, max b d))
    ~div:(fun (a, b) (c, d) -> (max a c, max b d))
    ~neg:Fun.id
    ~pow:(fun p _ -> p)
    ~sin:Fun.id ~cos:Fun.id ~exp:Fun.id ~tanh:Fun.id

(* ------------------------------------------------------------------ *)
(* Construction and validation *)

let n_total t = t.dim + Array.length t.params

let validate t =
  if t.name = "" then fail "Scenario: empty name";
  if t.dim < 1 then fail "Scenario %s: dim must be >= 1" t.name;
  if t.m < 1 then fail "Scenario %s: inputs must be >= 1" t.name;
  if not (Float.is_finite t.delta && t.delta > 0.0) then
    fail "Scenario %s: delta must be finite and positive" t.name;
  if t.steps < 1 then fail "Scenario %s: steps must be >= 1" t.name;
  if Array.length t.f <> t.dim then
    fail "Scenario %s: %d dynamics for dim %d" t.name (Array.length t.f) t.dim;
  let nt = n_total t in
  Array.iteri
    (fun i e ->
      let vmax, umax = max_indices e in
      if vmax >= nt then
        fail "Scenario %s: dynamics %d references x%d (only %d states+params)"
          t.name i vmax nt;
      if umax >= t.m then
        fail "Scenario %s: dynamics %d references u%d (only %d inputs)" t.name
          i umax t.m)
    t.f;
  let check_box what b =
    if Box.dim b <> t.dim then
      fail "Scenario %s: %s box has dim %d, expected %d" t.name what (Box.dim b)
        t.dim
  in
  check_box "init" t.init;
  check_box "goal" t.goal;
  List.iteri (fun i b -> check_box (Fmt.str "avoid[%d]" i) b) t.avoid;
  (match t.controller with
  | Affine rows ->
    if Array.length rows <> t.m then
      fail "Scenario %s: affine controller has %d rows, expected %d" t.name
        (Array.length rows) t.m;
    Array.iteri
      (fun j row ->
        if Array.length row <> nt + 1 then
          fail "Scenario %s: affine row %d has %d entries, expected %d (gains + bias)"
            t.name j (Array.length row) (nt + 1);
        if not (Array.for_all Float.is_finite row) then
          fail "Scenario %s: affine row %d has a non-finite gain" t.name j)
      rows
  | Net { sizes; acts; scale } ->
    (match sizes with
    | first :: _ when first <> nt ->
      fail "Scenario %s: net input width %d, expected %d" t.name first nt
    | _ :: _ -> ()
    | [] -> fail "Scenario %s: net needs sizes" t.name);
    (match List.rev sizes with
    | last :: _ when last <> t.m ->
      fail "Scenario %s: net output width %d, expected %d" t.name last t.m
    | _ -> ());
    if List.length acts <> List.length sizes - 1 then
      fail "Scenario %s: net needs %d activations, got %d" t.name
        (List.length sizes - 1) (List.length acts);
    if not (Float.is_finite scale) then
      fail "Scenario %s: non-finite net output scale" t.name);
  (match t.method_ with
  | M_taylor { order } | M_interval { order } ->
    if order < 1 then fail "Scenario %s: method order must be >= 1" t.name
  | M_polar { order; slots } ->
    if order < 1 then fail "Scenario %s: method order must be >= 1" t.name;
    if slots < 1 then fail "Scenario %s: polar slots must be >= 1" t.name
  | M_zonotope -> ());
  t

let make ~name ~dim ~m ~delta ~steps ~f ~init ~goal ~avoid ~params ~controller
    ~method_ () =
  validate
    { name; dim; m; delta; steps; f; init; goal; avoid; params; controller;
      method_ }

(* ------------------------------------------------------------------ *)
(* Derived views: the rest of the stack sees the augmented system where
   each uncertain parameter is a frozen extra state. *)

let f_total t =
  Array.append t.f (Array.map (fun _ -> Expr.const 0.0) t.params)

let augment t b =
  Box.of_intervals (Array.append (Array.init (Box.dim b) (Box.get b)) t.params)

let init_total t = augment t t.init
let goal_total t = augment t t.goal

(* A far-away placeholder when the DSL declares no obstacles: keeps the
   single-unsafe-box Spec honest without ever intersecting anything.
   Rounding_flow allow: built from literals, no computed bound flows in. *)
let far_box n =
  Box.make
    ~lo:(Array.make n 1e12)
    ~hi:(Array.make n (1e12 +. 1.0))

let avoid_total t =
  match List.map (augment t) t.avoid with
  | [] -> [ far_box (n_total t) ]
  | l -> l

let spec t =
  Spec.make ~name:t.name ~x0:(init_total t)
    ~unsafe:(List.hd (avoid_total t))
    ~goal:(goal_total t) ~delta:t.delta ~steps:t.steps

let sampled t =
  Sampled_system.make ~f:(f_total t) ~n:(n_total t) ~m:t.m ~delta:t.delta

let make_controller t rng =
  match t.controller with
  | Affine rows -> Controller.linear (Dwv_la.Mat.of_rows (Array.to_list rows))
  | Net { sizes; acts; scale } ->
    Controller.net ~output_scale:scale (Mlp.create ~sizes ~acts rng)

(* Control law on the augmented simulation state: linear gains act on
   the homogeneous [x; 1] vector (bias in the last column, as everywhere
   in lib/systems); nets take the state directly. *)
let sim _t controller x = Controller.eval_affine controller x

(* u_j as expressions of the state, for closing the loop symbolically. *)
let affine_input_exprs t rows =
  let nt = n_total t in
  Array.map
    (fun row ->
      let acc = ref (Expr.const row.(nt)) in
      for k = nt - 1 downto 0 do
        if row.(k) <> 0.0 then
          acc := Expr.add (Expr.mul (Expr.const row.(k)) (Expr.var k)) !acc
      done;
      !acc)
    rows

(* Autonomous dynamics with an affine controller substituted in; [None]
   for net controllers (those go through the NN flowpipe instead). *)
let closed_loop t =
  match t.controller with
  | Net _ -> None
  | Affine rows ->
    let u = affine_input_exprs t rows in
    Some
      (Array.map
         (substitute ~var:Expr.var ~input:(fun j -> u.(j)))
         (f_total t))

(* ------------------------------------------------------------------ *)
(* Structural equality (used by the DSL round-trip properties). *)

let box_eq a b =
  Box.dim a = Box.dim b
  && Array.for_all Fun.id
       (Array.init (Box.dim a) (fun i ->
            let x = Box.get a i and y = Box.get b i in
            Int64.bits_of_float (I.lo x) = Int64.bits_of_float (I.lo y)
            && Int64.bits_of_float (I.hi x) = Int64.bits_of_float (I.hi y)))

let controller_eq a b =
  match (a, b) with
  | Affine r1, Affine r2 ->
    Array.length r1 = Array.length r2
    && Array.for_all2
         (fun x y ->
           Array.length x = Array.length y
           && Array.for_all2
                (fun u v -> Int64.bits_of_float u = Int64.bits_of_float v)
                x y)
         r1 r2
  | Net n1, Net n2 ->
    n1.sizes = n2.sizes && n1.acts = n2.acts
    && Int64.bits_of_float n1.scale = Int64.bits_of_float n2.scale
  | _ -> false

let equal a b =
  a.name = b.name && a.dim = b.dim && a.m = b.m
  && Int64.bits_of_float a.delta = Int64.bits_of_float b.delta
  && a.steps = b.steps
  && Array.length a.f = Array.length b.f
  && Array.for_all2 Expr.equal a.f b.f
  && box_eq a.init b.init && box_eq a.goal b.goal
  && List.length a.avoid = List.length b.avoid
  && List.for_all2 box_eq a.avoid b.avoid
  && Array.length a.params = Array.length b.params
  && Array.for_all2
       (fun x y ->
         Int64.bits_of_float (I.lo x) = Int64.bits_of_float (I.lo y)
         && Int64.bits_of_float (I.hi x) = Int64.bits_of_float (I.hi y))
       a.params b.params
  && controller_eq a.controller b.controller
  && a.method_ = b.method_

(* ------------------------------------------------------------------ *)
(* DSL reading *)

let atom_name = function
  | Sexpr.List (Sexpr.Atom h :: _) -> Some h
  | _ -> None

let field forms key =
  List.find_opt (fun s -> atom_name s = Some key) forms

let field_exn forms key =
  match field forms key with
  | Some (Sexpr.List (_ :: rest)) -> rest
  | _ -> fail "Scenario: missing (%s ...) field" key

let one_atom key = function
  | [ Sexpr.Atom a ] -> a
  | _ -> fail "Scenario: (%s ...) expects a single atom" key

let parse_float key s =
  match float_of_lit s with
  | Some v -> v
  | None -> fail "Scenario: bad float %S in (%s ...)" s key

let parse_int key s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail "Scenario: bad integer %S in (%s ...)" s key

let parse_range key = function
  | Sexpr.List [ Sexpr.Atom lo; Sexpr.Atom hi ] ->
    let lo = parse_float key lo and hi = parse_float key hi in
    (try I.make lo hi
     with Invalid_argument _ ->
       fail "Scenario: bad range [%g, %g] in (%s ...)" lo hi key)
  | _ -> fail "Scenario: (%s ...) entries must be (lo hi) pairs" key

let parse_box key forms =
  match forms with
  | [] -> fail "Scenario: empty box in (%s ...)" key
  | _ -> Box.of_intervals (Array.of_list (List.map (parse_range key) forms))

let parse_expr_field key forms =
  List.map
    (function
      | Sexpr.Str s | Sexpr.Atom s -> (
        match Dwv_expr.Parser.parse s with
        | Ok e -> e
        | Error msg -> fail "Scenario: bad expression %S: %s" s msg)
      | Sexpr.List _ -> fail "Scenario: (%s ...) expects expression strings" key)
    forms

let act_of_string = function
  | "relu" -> Activation.Relu
  | "tanh" -> Activation.Tanh
  | "sigmoid" -> Activation.Sigmoid
  | "linear" | "id" -> Activation.Linear
  | s -> fail "Scenario: unknown activation %S" s

let act_to_string = function
  | Activation.Relu -> "relu"
  | Activation.Tanh -> "tanh"
  | Activation.Sigmoid -> "sigmoid"
  | Activation.Linear -> "linear"

let parse_controller = function
  | [ Sexpr.List (Sexpr.Atom "affine" :: rows) ] ->
    let row = function
      | Sexpr.List entries ->
        Array.of_list
          (List.map
             (function
               | Sexpr.Atom a -> parse_float "affine" a
               | _ -> fail "Scenario: affine rows hold float atoms")
             entries)
      | _ -> fail "Scenario: (affine ...) expects rows (g0 ... gN bias)"
    in
    Affine (Array.of_list (List.map row rows))
  | [ Sexpr.List (Sexpr.Atom "net" :: net_fields) ] ->
    let ints key =
      List.map (fun s -> parse_int key (one_atom key [ s ])) (field_exn net_fields key)
    in
    let sizes = ints "sizes" in
    let acts =
      List.map
        (function
          | Sexpr.Atom a -> act_of_string a
          | _ -> fail "Scenario: (acts ...) expects atoms")
        (field_exn net_fields "acts")
    in
    let scale =
      match field net_fields "scale" with
      | Some (Sexpr.List [ _; Sexpr.Atom a ]) -> parse_float "scale" a
      | Some _ -> fail "Scenario: (scale ...) expects one float"
      | None -> 1.0
    in
    Net { sizes; acts; scale }
  | _ -> fail "Scenario: (controller ...) expects (affine ...) or (net ...)"

let parse_method = function
  | [ Sexpr.Atom "zonotope" ] | [ Sexpr.List [ Sexpr.Atom "zonotope" ] ] ->
    M_zonotope
  | [ Sexpr.List (Sexpr.Atom kind :: opts) ] ->
    let int_opt key default =
      match field opts key with
      | Some (Sexpr.List [ _; Sexpr.Atom a ]) -> parse_int key a
      | Some _ -> fail "Scenario: (%s ...) expects one integer" key
      | None -> default
    in
    (match kind with
    | "taylor" -> M_taylor { order = int_opt "order" 3 }
    | "interval" -> M_interval { order = int_opt "order" 3 }
    | "polar" -> M_polar { order = int_opt "order" 2; slots = int_opt "slots" 40 }
    | k -> fail "Scenario: unknown method %S" k)
  | _ -> fail "Scenario: (method ...) expects a method form"

let of_sexp = function
  | Sexpr.List (Sexpr.Atom "scenario" :: forms) ->
    let name = one_atom "name" (field_exn forms "name") in
    let dim = parse_int "dim" (one_atom "dim" (field_exn forms "dim")) in
    let m = parse_int "inputs" (one_atom "inputs" (field_exn forms "inputs")) in
    let delta = parse_float "delta" (one_atom "delta" (field_exn forms "delta")) in
    let steps = parse_int "steps" (one_atom "steps" (field_exn forms "steps")) in
    let f = Array.of_list (parse_expr_field "dynamics" (field_exn forms "dynamics")) in
    let init = parse_box "init" (field_exn forms "init") in
    let goal = parse_box "goal" (field_exn forms "goal") in
    let avoid =
      match field forms "avoid" with
      | None -> []
      | Some (Sexpr.List (_ :: members)) ->
        List.map
          (function
            | Sexpr.List ranges -> parse_box "avoid" ranges
            | _ -> fail "Scenario: (avoid ...) members are ((lo hi) ...) boxes")
          members
      | Some _ -> fail "Scenario: malformed (avoid ...)"
    in
    let params =
      match field forms "params" with
      | None -> [||]
      | Some (Sexpr.List (_ :: ranges)) ->
        Array.of_list (List.map (parse_range "params") ranges)
      | Some _ -> fail "Scenario: malformed (params ...)"
    in
    let controller = parse_controller (field_exn forms "controller") in
    let method_ = parse_method (field_exn forms "method") in
    make ~name ~dim ~m ~delta ~steps ~f ~init ~goal ~avoid ~params ~controller
      ~method_ ()
  | _ -> fail "Scenario: expected (scenario ...)"

let of_string src =
  match Sexpr.parse src with
  | Ok s -> of_sexp s
  | Error msg -> fail "Scenario: %s" msg

let of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

(* ------------------------------------------------------------------ *)
(* DSL writing (exact round-trip: [of_string (to_string t)] is [equal]) *)

let range_sexp iv =
  Sexpr.List [ Sexpr.Atom (float_lit (I.lo iv)); Sexpr.Atom (float_lit (I.hi iv)) ]

let box_sexps b = List.init (Box.dim b) (fun i -> range_sexp (Box.get b i))

let controller_sexp = function
  | Affine rows ->
    Sexpr.List
      (Sexpr.Atom "affine"
      :: Array.to_list
           (Array.map
              (fun row ->
                Sexpr.List
                  (Array.to_list
                     (Array.map (fun v -> Sexpr.Atom (float_lit v)) row)))
              rows))
  | Net { sizes; acts; scale } ->
    Sexpr.List
      [
        Sexpr.Atom "net";
        Sexpr.List
          (Sexpr.Atom "sizes"
          :: List.map (fun k -> Sexpr.Atom (string_of_int k)) sizes);
        Sexpr.List
          (Sexpr.Atom "acts" :: List.map (fun a -> Sexpr.Atom (act_to_string a)) acts);
        Sexpr.List [ Sexpr.Atom "scale"; Sexpr.Atom (float_lit scale) ];
      ]

let method_sexp = function
  | M_zonotope -> Sexpr.List [ Sexpr.Atom "zonotope" ]
  | M_taylor { order } ->
    Sexpr.List
      [
        Sexpr.Atom "taylor";
        Sexpr.List [ Sexpr.Atom "order"; Sexpr.Atom (string_of_int order) ];
      ]
  | M_interval { order } ->
    Sexpr.List
      [
        Sexpr.Atom "interval";
        Sexpr.List [ Sexpr.Atom "order"; Sexpr.Atom (string_of_int order) ];
      ]
  | M_polar { order; slots } ->
    Sexpr.List
      [
        Sexpr.Atom "polar";
        Sexpr.List [ Sexpr.Atom "order"; Sexpr.Atom (string_of_int order) ];
        Sexpr.List [ Sexpr.Atom "slots"; Sexpr.Atom (string_of_int slots) ];
      ]

let to_sexp t =
  let fields =
    [
      Sexpr.List [ Sexpr.Atom "name"; Sexpr.Atom t.name ];
      Sexpr.List [ Sexpr.Atom "dim"; Sexpr.Atom (string_of_int t.dim) ];
      Sexpr.List [ Sexpr.Atom "inputs"; Sexpr.Atom (string_of_int t.m) ];
      Sexpr.List [ Sexpr.Atom "delta"; Sexpr.Atom (float_lit t.delta) ];
      Sexpr.List [ Sexpr.Atom "steps"; Sexpr.Atom (string_of_int t.steps) ];
      Sexpr.List
        (Sexpr.Atom "dynamics"
        :: Array.to_list (Array.map (fun e -> Sexpr.Str (expr_to_string e)) t.f));
      Sexpr.List (Sexpr.Atom "init" :: box_sexps t.init);
      Sexpr.List (Sexpr.Atom "goal" :: box_sexps t.goal);
    ]
    @ (match t.avoid with
      | [] -> []
      | boxes ->
        [
          Sexpr.List
            (Sexpr.Atom "avoid"
            :: List.map (fun b -> Sexpr.List (box_sexps b)) boxes);
        ])
    @ (match t.params with
      | [||] -> []
      | ps ->
        [
          Sexpr.List
            (Sexpr.Atom "params" :: Array.to_list (Array.map range_sexp ps));
        ])
    @ [
        Sexpr.List [ Sexpr.Atom "controller"; controller_sexp t.controller ];
        Sexpr.List [ Sexpr.Atom "method"; method_sexp t.method_ ];
      ]
  in
  Sexpr.List (Sexpr.Atom "scenario" :: fields)

let to_string t = Sexpr.to_string (to_sexp t) ^ "\n"

let pp ppf t =
  Fmt.pf ppf "%s: dim %d, %d input%s, %d param%s, %d avoid box%s, %d steps @@ %g"
    t.name t.dim t.m
    (if t.m = 1 then "" else "s")
    (Array.length t.params)
    (if Array.length t.params = 1 then "" else "s")
    (List.length t.avoid)
    (if List.length t.avoid = 1 then "" else "es")
    t.steps t.delta
