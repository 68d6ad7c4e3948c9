(* POLAR-style abstraction of a neural controller: propagate the state
   Taylor models through the network layer by layer. Affine layers are
   exact on Taylor models; activations are composed by Taylor expansion
   with a Lagrange remainder (tanh/sigmoid) or by the sound chord
   relaxation (ReLU). The polynomial part plays the role of POLAR's Taylor
   model, the interval part of its symbolic remainder. *)

module Tm = Dwv_taylor.Taylor_model
module Tm_vec = Dwv_taylor.Tm_vec
module Mat = Dwv_la.Mat
module Mlp = Dwv_nn.Mlp
module Activation = Dwv_nn.Activation

let apply_activation (act : Activation.t) tm =
  match act with
  | Activation.Relu -> Tm.relu tm
  | Activation.Tanh -> Tm.tanh_ tm
  | Activation.Sigmoid -> Tm.sigmoid_ tm
  | Activation.Linear -> tm

(* Affine layer on Taylor models: pre_i = b_i + sum_{W_ij <> 0} W_ij h_j
   (exact), accumulated in place in one array per output. *)
let affine (weights : Mat.t) (bias : float array) (h : Tm.t array) =
  let rows, cols = Mat.dims weights in
  if cols <> Array.length h then invalid_arg "Nn_reach_taylor.affine: arity mismatch";
  Array.init rows (fun i ->
      let js = List.filter (fun j -> Mat.get weights i j <> 0.0) (List.init cols Fun.id) in
      Tm.sum_scaled
        (Tm.const ~nvars:(Tm.nvars h.(0)) ~order:(Tm.order h.(0)) bias.(i))
        (Array.of_list (List.map (Mat.get weights i) js))
        (Array.of_list (List.map (Array.get h) js)))

let c_polar_abstractions = Dwv_util.Counters.counter "polar_abstractions"

(* Control models u = output_scale * net(x) on the symbolic state. *)
let control_models ~net ~output_scale (x : Tm_vec.t) : Tm_vec.t =
  Dwv_util.Counters.incr c_polar_abstractions;
  let h = ref (Array.copy x) in
  Array.iter
    (fun (layer : Mlp.layer) ->
      let pre = affine layer.weights layer.bias !h in
      h := Array.map (apply_activation layer.act) pre)
    (Mlp.layers net);
  Array.map (Tm.scale output_scale) !h
