(* Controllers as parameter vectors.

   Algorithm 1 is agnostic to the controller family: it perturbs and
   updates a flat theta. This module gives the two families of the paper —
   linear state feedback (possibly with a bias term, represented on a
   constant-augmented state) and neural networks — a common flatten /
   unflatten / evaluate interface. *)

module Mat = Dwv_la.Mat
module Mlp = Dwv_nn.Mlp

type t =
  | Linear of { gain : Mat.t }                       (* u = K x *)
  | Net of { net : Mlp.t; output_scale : float }     (* u = s * net(x) *)

let linear gain = Linear { gain }

let net ~output_scale n = Net { net = n; output_scale }

let num_params = function
  | Linear { gain } ->
    let r, c = Mat.dims gain in
    r * c
  | Net { net; _ } -> Mlp.num_params net

(* Flat parameter vector (row-major gain, or the MLP layout). *)
let params = function
  | Linear { gain } ->
    let r, c = Mat.dims gain in
    Array.init (r * c) (fun k -> Mat.get gain (k / c) (k mod c))
  | Net { net; _ } -> Mlp.flatten net

let with_params t theta =
  match t with
  | Linear { gain } ->
    let r, c = Mat.dims gain in
    if Array.length theta <> r * c then invalid_arg "Controller.with_params: wrong length";
    Linear { gain = Mat.init r c (fun i j -> theta.((i * c) + j)) }
  | Net { net; output_scale } -> Net { net = Mlp.unflatten net theta; output_scale }

(* Concrete control law, for simulation. *)
let eval t x =
  match t with
  | Linear { gain } -> Mat.matvec gain x
  | Net { net; output_scale } ->
    Array.map (fun v -> output_scale *. v) (Mlp.forward_into net (Mlp.domain_buffers net) x)

let eval_affine t x =
  match t with
  | Linear { gain } -> Mat.matvec_affine gain x
  | Net _ -> eval t x

let n_outputs = function
  | Linear { gain } -> fst (Mat.dims gain)
  | Net { net; _ } -> Mlp.n_out net

let pp ppf = function
  | Linear { gain } -> Fmt.pf ppf "linear%a" Mat.pp gain
  | Net { net; output_scale } -> Fmt.pf ppf "%a * %g" Mlp.pp net output_scale

(* Plain-text persistence, so the CLI can save learned designs and reload
   them for certification or deployment. Exact float round-trips. *)
let to_string = function
  | Linear { gain } ->
    let r, c = Mat.dims gain in
    let buf = Buffer.create 128 in
    Buffer.add_string buf (Printf.sprintf "controller linear %d %d\n" r c);
    for i = 0 to r - 1 do
      for j = 0 to c - 1 do
        if j > 0 then Buffer.add_char buf ' ';
        Buffer.add_string buf (Printf.sprintf "%.17g" (Mat.get gain i j))
      done;
      Buffer.add_char buf '\n'
    done;
    Buffer.contents buf
  | Net { net; output_scale } ->
    Printf.sprintf "controller net %.17g\n%s" output_scale (Dwv_nn.Serialize.mlp_to_string net)

let float_field s =
  match float_of_string_opt s with
  | Some v -> v
  | None -> failwith ("Controller.of_string: invalid float " ^ s)

let of_string text =
  match String.index_opt text '\n' with
  | None -> failwith "Controller.of_string: missing header"
  | Some nl -> (
    let header = String.sub text 0 nl in
    let body = String.sub text (nl + 1) (String.length text - nl - 1) in
    match String.split_on_char ' ' (String.trim header) with
    | [ "controller"; "linear"; r; c ] ->
      let r = int_of_string r and c = int_of_string c in
      let values =
        body
        |> String.split_on_char '\n'
        |> List.concat_map (String.split_on_char ' ')
        |> List.filter (fun s -> String.trim s <> "")
        |> List.map float_field
        |> Array.of_list
      in
      if Array.length values <> r * c then failwith "Controller.of_string: bad gain size";
      Linear { gain = Mat.init r c (fun i j -> values.((i * c) + j)) }
    | [ "controller"; "net"; scale ] ->
      Net { net = Dwv_nn.Serialize.mlp_of_string body; output_scale = float_field scale }
    | _ -> failwith "Controller.of_string: unrecognized header")

let save path t =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string t))

let load path =
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_string text
