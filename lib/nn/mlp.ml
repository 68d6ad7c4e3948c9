(* Fully-connected multi-layer perceptrons with explicit parameter
   flattening.

   The flatten/unflatten pair is load-bearing for the paper's method: the
   verification-in-the-loop learner (Algorithm 1) treats the whole
   controller as a parameter vector theta, perturbs it (theta +- p) and
   updates it with approximate gradients, so controllers must round-trip
   through float arrays exactly. *)

module Mat = Dwv_la.Mat

type layer = { weights : Mat.t; bias : float array; act : Activation.t }

type t = { layers : layer array; n_in : int; n_out : int }

let layer_sizes t =
  Array.to_list (Array.map (fun l -> fst (Mat.dims l.weights)) t.layers)

let n_in t = t.n_in
let n_out t = t.n_out

let create ~sizes ~acts rng =
  let n_layers = List.length sizes - 1 in
  if n_layers < 1 then invalid_arg "Mlp.create: need at least one layer";
  if List.length acts <> n_layers then invalid_arg "Mlp.create: one activation per layer";
  let sizes = Array.of_list sizes and acts = Array.of_list acts in
  let layers =
    Array.init n_layers (fun l ->
        let fan_in = sizes.(l) and fan_out = sizes.(l + 1) in
        (* He initialisation for ReLU, Xavier otherwise *)
        let scale =
          match acts.(l) with
          | Activation.Relu -> sqrt (2.0 /. float_of_int fan_in)
          | _ -> sqrt (1.0 /. float_of_int fan_in)
        in
        let weights =
          Mat.init fan_out fan_in (fun _ _ -> scale *. Dwv_util.Rng.gaussian rng)
        in
        let bias = Array.make fan_out 0.0 in
        { weights; bias; act = acts.(l) })
  in
  { layers; n_in = sizes.(0); n_out = sizes.(n_layers) }

let layers t = t.layers

(* The forward pass into caller-owned buffers, one per layer, each
   exactly the layer's output width ([buffers] makes a set): per layer
   the matvec sums, the bias additions and the activation. Returns the
   last buffer, which the next call with the same buffers overwrites.
   [forward] is this pass into fresh buffers, so the two agree bit for
   bit, NaN payloads included (which of two NaN operands an addition
   returns is up to the compiled instruction, so a second copy of the
   loop could differ there). *)
let buffers t = Array.map (fun l -> Array.make (Array.length l.bias) 0.0) t.layers

let fits t bufs =
  let n = Array.length t.layers in
  let ok = ref (Array.length bufs = n) in
  for l = 0 to n - 1 do
    if !ok && Array.length bufs.(l) <> Array.length t.layers.(l).bias then ok := false
  done;
  !ok

let forward_into t bufs x =
  if not (fits t bufs) then invalid_arg "Mlp.forward_into: buffers do not fit the network";
  let h = ref x in
  for l = 0 to Array.length t.layers - 1 do
    let layer = t.layers.(l) and out = bufs.(l) in
    Mat.matvec_into layer.weights !h out;
    for i = 0 to Array.length out - 1 do
      out.(i) <- out.(i) +. layer.bias.(i)
    done;
    Activation.apply_in_place layer.act out;
    h := out
  done;
  !h

(* Plain forward pass. *)
let forward t x = forward_into t (buffers t) x

(* One buffer set per domain, remade when a call brings a network of
   another shape: pool tasks evaluating networks never share buffers. *)
let scratch_key : float array array ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [||])

let domain_buffers t =
  let r = Domain.DLS.get scratch_key in
  if not (fits t !r) then r := buffers t;
  !r

type cache = { inputs : float array array; preacts : float array array }

(* Forward pass retaining per-layer inputs and pre-activations for
   backprop. *)
let forward_cached t x =
  let n = Array.length t.layers in
  let inputs = Array.make n [||] and preacts = Array.make n [||] in
  let h = ref x in
  for l = 0 to n - 1 do
    let layer = t.layers.(l) in
    inputs.(l) <- !h;
    let pre = Array.mapi (fun i wi -> wi +. layer.bias.(i)) (Mat.matvec layer.weights !h) in
    preacts.(l) <- pre;
    h := Activation.apply_vec layer.act pre
  done;
  (!h, { inputs; preacts })

type grads = { d_weights : Mat.t array; d_bias : float array array }

(* Backpropagate d(loss)/d(output) through the cached pass; returns
   parameter gradients and d(loss)/d(input). *)
let backward t cache d_out =
  let n = Array.length t.layers in
  let d_weights = Array.make n (Mat.zeros 0 0) in
  let d_bias = Array.make n [||] in
  let delta = ref d_out in
  for l = n - 1 downto 0 do
    let layer = t.layers.(l) in
    (* gradient wrt pre-activation *)
    let d_pre =
      Array.mapi (fun i d -> d *. Activation.derivative layer.act cache.preacts.(l).(i)) !delta
    in
    d_bias.(l) <- d_pre;
    d_weights.(l) <- Mat.outer d_pre cache.inputs.(l);
    delta := Mat.vecmat d_pre layer.weights
  done;
  ({ d_weights; d_bias }, !delta)

let num_params t =
  Array.fold_left
    (fun acc l ->
      let r, c = Mat.dims l.weights in
      acc + (r * c) + r)
    0 t.layers

(* Deterministic layout: for each layer, weights row-major then bias. *)
let flatten t =
  let out = Array.make (num_params t) 0.0 in
  let pos = ref 0 in
  Array.iter
    (fun l ->
      let r, c = Mat.dims l.weights in
      for i = 0 to r - 1 do
        for j = 0 to c - 1 do
          out.(!pos) <- Mat.get l.weights i j;
          incr pos
        done
      done;
      for i = 0 to r - 1 do
        out.(!pos) <- l.bias.(i);
        incr pos
      done)
    t.layers;
  out

let unflatten t theta =
  if Array.length theta <> num_params t then invalid_arg "Mlp.unflatten: wrong length";
  let pos = ref 0 in
  let layers =
    Array.map
      (fun l ->
        let r, c = Mat.dims l.weights in
        let weights =
          Mat.init r c (fun _ _ ->
              let v = theta.(!pos) in
              incr pos;
              v)
        in
        let bias =
          Array.init r (fun _ ->
              let v = theta.(!pos) in
              incr pos;
              v)
        in
        { l with weights; bias })
      t.layers
  in
  { t with layers }

let flatten_grads t g =
  let out = Array.make (num_params t) 0.0 in
  let pos = ref 0 in
  Array.iteri
    (fun l _ ->
      let r, c = Mat.dims g.d_weights.(l) in
      for i = 0 to r - 1 do
        for j = 0 to c - 1 do
          out.(!pos) <- Mat.get g.d_weights.(l) i j;
          incr pos
        done
      done;
      for i = 0 to r - 1 do
        out.(!pos) <- g.d_bias.(l).(i);
        incr pos
      done)
    t.layers;
  out

let copy t =
  { t with
    layers =
      Array.map (fun l -> { l with weights = Mat.copy l.weights; bias = Array.copy l.bias })
        t.layers }

(* theta' = theta + alpha * g, as networks. *)
let add_scaled t ~alpha g =
  let theta = flatten t in
  let gv = flatten_grads t g in
  unflatten t (Array.mapi (fun i x -> x +. (alpha *. gv.(i))) theta)

(* Soft update for target networks: target <- tau * src + (1 - tau) * target. *)
let soft_update ~tau ~src target =
  let ts = flatten src and tt = flatten target in
  unflatten target (Array.mapi (fun i x -> (tau *. ts.(i)) +. ((1.0 -. tau) *. x)) tt)

let pp ppf t =
  Fmt.pf ppf "mlp(%d" t.n_in;
  Array.iter
    (fun l ->
      let r, _ = Mat.dims l.weights in
      Fmt.pf ppf " -%a-> %d" Activation.pp l.act r)
    t.layers;
  Fmt.pf ppf ")"
