(* Activation functions of the neural controllers. The paper's controllers
   use ReLU hidden layers and a Tanh output layer; the framework "can
   address all types of activation functions and their mixture", so we also
   carry sigmoid and identity. *)

type t = Relu | Tanh | Sigmoid | Linear

let apply t x =
  match t with
  | Relu -> Float.max x 0.0
  | Tanh -> tanh x
  | Sigmoid -> Dwv_util.Floatx.sigmoid x
  | Linear -> x

(* Derivative as a function of the pre-activation. *)
let derivative t x =
  match t with
  | Relu -> if x > 0.0 then 1.0 else 0.0
  | Tanh ->
    let y = tanh x in
    1.0 -. (y *. y)
  | Sigmoid ->
    let s = Dwv_util.Floatx.sigmoid x in
    s *. (1.0 -. s)
  | Linear -> 1.0

(* Global Lipschitz constant (all four are 1-Lipschitz; sigmoid is
   1/4-Lipschitz). Used in NN Lipschitz bounds for the Bernstein
   remainder. *)
let lipschitz = function
  | Relu | Tanh | Linear -> 1.0
  | Sigmoid -> 0.25

let apply_vec t v = Array.map (apply t) v

(* [apply_vec] in place: the same function on every entry, one match
   per vector instead of one per entry. *)
let apply_in_place t v =
  match t with
  | Relu -> for i = 0 to Array.length v - 1 do v.(i) <- Float.max v.(i) 0.0 done
  | Tanh -> for i = 0 to Array.length v - 1 do v.(i) <- tanh v.(i) done
  | Sigmoid -> for i = 0 to Array.length v - 1 do v.(i) <- Dwv_util.Floatx.sigmoid v.(i) done
  | Linear -> ()

let to_string = function
  | Relu -> "relu"
  | Tanh -> "tanh"
  | Sigmoid -> "sigmoid"
  | Linear -> "linear"

let of_string = function
  | "relu" -> Relu
  | "tanh" -> Tanh
  | "sigmoid" -> Sigmoid
  | "linear" -> Linear
  | s -> invalid_arg ("Activation.of_string: unknown activation " ^ s)

let pp ppf t = Fmt.string ppf (to_string t)
