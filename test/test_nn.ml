(* Tests for dwv_nn: forward pass, backprop against finite differences,
   parameter flattening round-trips, Adam, Lipschitz bounds, behavior
   cloning. *)

module Mlp = Dwv_nn.Mlp
module Activation = Dwv_nn.Activation
module Adam = Dwv_nn.Adam
module Lipschitz = Dwv_nn.Lipschitz
module Pretrain = Dwv_nn.Pretrain
module Rng = Dwv_util.Rng
module Box = Dwv_interval.Box

let make_net ?(seed = 5) ?(sizes = [ 2; 6; 1 ]) ?(acts = [ Activation.Tanh; Activation.Linear ])
    () =
  Mlp.create ~sizes ~acts (Rng.create seed)

let test_activation_values () =
  Alcotest.(check (float 1e-12)) "relu+" 2.0 (Activation.apply Relu 2.0);
  Alcotest.(check (float 1e-12)) "relu-" 0.0 (Activation.apply Relu (-2.0));
  Alcotest.(check (float 1e-12)) "tanh" (tanh 0.5) (Activation.apply Tanh 0.5);
  Alcotest.(check (float 1e-12)) "linear" 0.3 (Activation.apply Linear 0.3)

let test_activation_derivatives_fd () =
  List.iter
    (fun act ->
      List.iter
        (fun x ->
          let eps = 1e-6 in
          let fd = (Activation.apply act (x +. eps) -. Activation.apply act (x -. eps)) /. (2.0 *. eps) in
          Alcotest.(check (float 1e-5))
            (Activation.to_string act) fd (Activation.derivative act x))
        [ -1.3; 0.4; 2.0 ])
    [ Activation.Tanh; Activation.Sigmoid; Activation.Linear ]

let test_activation_of_string_roundtrip () =
  List.iter
    (fun a -> Alcotest.(check bool) "roundtrip" true (Activation.of_string (Activation.to_string a) = a))
    [ Activation.Relu; Activation.Tanh; Activation.Sigmoid; Activation.Linear ];
  Alcotest.check_raises "unknown" (Invalid_argument "Activation.of_string: unknown activation nope")
    (fun () -> ignore (Activation.of_string "nope"))

let test_forward_shapes () =
  let net = make_net ~sizes:[ 3; 5; 2 ] ~acts:[ Activation.Relu; Activation.Tanh ] () in
  let y = Mlp.forward net [| 0.1; -0.2; 0.3 |] in
  Alcotest.(check int) "output dim" 2 (Array.length y);
  Array.iter (fun v -> Alcotest.(check bool) "tanh bounded" true (Float.abs v <= 1.0)) y

let test_flatten_roundtrip () =
  let net = make_net () in
  let theta = Mlp.flatten net in
  Alcotest.(check int) "param count" (Mlp.num_params net) (Array.length theta);
  let net2 = Mlp.unflatten net theta in
  let x = [| 0.3; -0.8 |] in
  Alcotest.(check (array (float 1e-15))) "identical outputs" (Mlp.forward net x)
    (Mlp.forward net2 x)

let test_unflatten_perturbation () =
  let net = make_net () in
  let theta = Mlp.flatten net in
  theta.(0) <- theta.(0) +. 1.0;
  let net2 = Mlp.unflatten net theta in
  let x = [| 1.0; 0.0 |] in
  Alcotest.(check bool) "output changed" true
    (Mlp.forward net x <> Mlp.forward net2 x)

let test_backward_matches_fd () =
  let net = make_net ~sizes:[ 2; 4; 1 ] ~acts:[ Activation.Tanh; Activation.Tanh ] () in
  let x = [| 0.4; -0.6 |] in
  (* loss = net(x)_0; gradient wrt every parameter vs finite differences *)
  let _, cache = Mlp.forward_cached net x in
  let grads, d_in = Mlp.backward net cache [| 1.0 |] in
  let flat_grad = Mlp.flatten_grads net grads in
  let theta = Mlp.flatten net in
  let eps = 1e-6 in
  Array.iteri
    (fun i g ->
      let tp = Array.copy theta and tm = Array.copy theta in
      tp.(i) <- tp.(i) +. eps;
      tm.(i) <- tm.(i) -. eps;
      let fp = (Mlp.forward (Mlp.unflatten net tp) x).(0) in
      let fm = (Mlp.forward (Mlp.unflatten net tm) x).(0) in
      Alcotest.(check (float 1e-4)) (Printf.sprintf "param %d" i) ((fp -. fm) /. (2.0 *. eps)) g)
    flat_grad;
  (* input gradient vs finite differences *)
  Array.iteri
    (fun i g ->
      let xp = Array.copy x and xm = Array.copy x in
      xp.(i) <- xp.(i) +. eps;
      xm.(i) <- xm.(i) -. eps;
      let fd = ((Mlp.forward net xp).(0) -. (Mlp.forward net xm).(0)) /. (2.0 *. eps) in
      Alcotest.(check (float 1e-4)) (Printf.sprintf "input %d" i) fd g)
    d_in

let test_backward_relu_net () =
  let net = make_net ~seed:11 ~sizes:[ 2; 4; 1 ] ~acts:[ Activation.Relu; Activation.Linear ] () in
  let x = [| 0.9; 0.2 |] in
  let _, cache = Mlp.forward_cached net x in
  let grads, _ = Mlp.backward net cache [| 1.0 |] in
  let flat_grad = Mlp.flatten_grads net grads in
  let theta = Mlp.flatten net in
  let eps = 1e-6 in
  (* spot-check a handful of parameters *)
  List.iter
    (fun i ->
      let tp = Array.copy theta and tm = Array.copy theta in
      tp.(i) <- tp.(i) +. eps;
      tm.(i) <- tm.(i) -. eps;
      let fp = (Mlp.forward (Mlp.unflatten net tp) x).(0) in
      let fm = (Mlp.forward (Mlp.unflatten net tm) x).(0) in
      Alcotest.(check (float 1e-4)) (Printf.sprintf "relu param %d" i)
        ((fp -. fm) /. (2.0 *. eps))
        flat_grad.(i))
    [ 0; 3; 7; Array.length theta - 1 ]

let test_soft_update () =
  let a = make_net ~seed:1 () and b = make_net ~seed:2 () in
  let updated = Mlp.soft_update ~tau:1.0 ~src:a b in
  Alcotest.(check (array (float 1e-15))) "tau=1 copies src" (Mlp.flatten a) (Mlp.flatten updated);
  let half = Mlp.soft_update ~tau:0.5 ~src:a b in
  let expect =
    Array.map2 (fun x y -> (0.5 *. x) +. (0.5 *. y)) (Mlp.flatten a) (Mlp.flatten b)
  in
  Alcotest.(check (array (float 1e-15))) "tau=0.5 averages" expect (Mlp.flatten half)

let test_adam_minimizes_quadratic () =
  (* minimize ||x - target||^2 *)
  let target = [| 3.0; -2.0 |] in
  let opt = Adam.create ~lr:0.1 2 in
  let params = ref [| 0.0; 0.0 |] in
  for _ = 1 to 500 do
    let grad = Array.mapi (fun i p -> 2.0 *. (p -. target.(i))) !params in
    params := Adam.step opt ~params:!params ~grad
  done;
  Alcotest.(check (array (float 1e-2))) "converged" target !params

let test_adam_dimension_guard () =
  let opt = Adam.create 2 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Adam.step: dimension mismatch") (fun () ->
      ignore (Adam.step opt ~params:[| 1.0 |] ~grad:[| 1.0 |]))

let test_lipschitz_dominates_samples () =
  let net = make_net ~sizes:[ 2; 6; 1 ] ~acts:[ Activation.Tanh; Activation.Tanh ] () in
  let box = Box.make ~lo:[| -1.0; -1.0 |] ~hi:[| 1.0; 1.0 |] in
  let rng = Rng.create 3 in
  let empirical = Lipschitz.estimate ~samples:2000 ~rng ~box net in
  Alcotest.(check bool) "global bound dominates" true (Lipschitz.bound net >= empirical);
  Alcotest.(check bool) "local bound dominates" true (Lipschitz.local_bound net box >= empirical);
  Alcotest.(check bool) "frobenius dominates spectral" true
    (Lipschitz.bound_frobenius net >= Lipschitz.bound net -. 1e-9)

let test_local_lipschitz_tighter_on_saturated_regions () =
  let net = make_net ~sizes:[ 1; 4; 1 ] ~acts:[ Activation.Tanh; Activation.Linear ] () in
  (* far from the origin every tanh saturates, so the local bound should
     collapse well below the global bound *)
  let saturated = Box.make ~lo:[| 50.0 |] ~hi:[| 51.0 |] in
  Alcotest.(check bool) "saturation detected" true
    (Lipschitz.local_bound net saturated < 0.01 *. Lipschitz.bound net +. 1e-12)

let test_preactivation_ranges_contain_point () =
  let net = make_net ~sizes:[ 2; 3; 1 ] ~acts:[ Activation.Tanh; Activation.Linear ] () in
  let box = Box.make ~lo:[| 0.0; 0.0 |] ~hi:[| 1.0; 1.0 |] in
  let ranges = Lipschitz.preactivation_ranges net box in
  let x = [| 0.5; 0.25 |] in
  (* recompute layer-0 preactivations by hand and compare *)
  let layer0 = (Mlp.layers net).(0) in
  let pre = Dwv_la.Mat.matvec layer0.Mlp.weights x in
  Array.iteri
    (fun i p ->
      let p = p +. layer0.Mlp.bias.(i) in
      Alcotest.(check bool) "contained" true (Dwv_interval.Interval.contains ranges.(0).(i) p))
    pre

let test_behavior_clone_reduces_mse () =
  let rng = Rng.create 21 in
  let net = Mlp.create ~sizes:[ 2; 8; 1 ] ~acts:[ Activation.Tanh; Activation.Tanh ] rng in
  let region = Box.make ~lo:[| -1.0; -1.0 |] ~hi:[| 1.0; 1.0 |] in
  let target x = [| (0.8 *. x.(0)) -. (0.5 *. x.(1)) |] in
  let inputs = Array.init 200 (fun _ -> Box.sample rng region) in
  let before = Pretrain.mse ~net ~output_scale:2.0 ~target inputs in
  let trained = Pretrain.behavior_clone ~rng ~region ~target ~output_scale:2.0 net in
  let after = Pretrain.mse ~net:trained ~output_scale:2.0 ~target inputs in
  Alcotest.(check bool) "mse reduced 10x" true (after < before /. 10.0);
  Alcotest.(check bool) "small residual" true (after < 0.01)

module Ibp = Dwv_nn.Ibp

let test_ibp_forward_sound () =
  let net = make_net ~seed:13 ~sizes:[ 2; 6; 2 ] ~acts:[ Activation.Tanh; Activation.Tanh ] () in
  let box = Box.make ~lo:[| -0.4; 0.1 |] ~hi:[| 0.2; 0.6 |] in
  let out_box = Ibp.forward net box in
  let rng = Rng.create 14 in
  for _ = 1 to 200 do
    let x = Box.sample rng box in
    let y = Mlp.forward net x in
    Alcotest.(check bool) "output enclosed" true (Box.contains (Box.bloat 1e-9 out_box) y)
  done

let test_ibp_relu_net_sound () =
  let net = make_net ~seed:15 ~sizes:[ 2; 5; 1 ] ~acts:[ Activation.Relu; Activation.Linear ] () in
  let box = Box.make ~lo:[| -1.0; -1.0 |] ~hi:[| 1.0; 1.0 |] in
  let out_box = Ibp.forward net box in
  let rng = Rng.create 16 in
  for _ = 1 to 200 do
    let x = Box.sample rng box in
    Alcotest.(check bool) "relu output enclosed" true
      (Box.contains (Box.bloat 1e-9 out_box) (Mlp.forward net x))
  done

let test_hessian_bound_dominates_fd () =
  let net = make_net ~seed:17 ~sizes:[ 2; 8; 1 ] ~acts:[ Activation.Tanh; Activation.Tanh ] () in
  match Lipschitz.hessian_diag_bound net with
  | None -> Alcotest.fail "expected a bound for a 1-hidden-layer tanh net"
  | Some bound ->
    let rng = Rng.create 18 in
    let eps = 1e-4 in
    for _ = 1 to 200 do
      let x = [| Rng.uniform rng ~lo:(-1.0) ~hi:1.0; Rng.uniform rng ~lo:(-1.0) ~hi:1.0 |] in
      for i = 0 to 1 do
        let xp = Array.copy x and xm = Array.copy x in
        xp.(i) <- xp.(i) +. eps;
        xm.(i) <- xm.(i) -. eps;
        let second =
          ((Mlp.forward net xp).(0) -. (2.0 *. (Mlp.forward net x).(0))
          +. (Mlp.forward net xm).(0))
          /. (eps *. eps)
        in
        if Float.abs second > bound.(i) +. 1e-3 then
          Alcotest.failf "hessian bound violated: |%g| > %g (axis %d)" second bound.(i) i
      done
    done

let test_hessian_bound_none_for_relu () =
  let net = make_net ~sizes:[ 2; 4; 1 ] ~acts:[ Activation.Relu; Activation.Tanh ] () in
  Alcotest.(check bool) "no bound for relu" true (Lipschitz.hessian_diag_bound net = None)

module Serialize = Dwv_nn.Serialize

let test_serialize_roundtrip () =
  let net = make_net ~seed:9 ~sizes:[ 3; 5; 2 ] ~acts:[ Activation.Relu; Activation.Tanh ] () in
  let restored = Serialize.mlp_of_string (Serialize.mlp_to_string net) in
  Alcotest.(check (array (float 0.0))) "exact parameters" (Mlp.flatten net)
    (Mlp.flatten restored);
  let x = [| 0.3; -0.7; 0.1 |] in
  Alcotest.(check (array (float 0.0))) "identical outputs" (Mlp.forward net x)
    (Mlp.forward restored x)

let test_serialize_file_roundtrip () =
  let net = make_net ~seed:10 () in
  let path = Filename.temp_file "dwv_net" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serialize.save_mlp path net;
      let restored = Serialize.load_mlp path in
      Alcotest.(check (array (float 0.0))) "file roundtrip" (Mlp.flatten net)
        (Mlp.flatten restored))

let test_serialize_rejects_garbage () =
  List.iter
    (fun text ->
      match Serialize.mlp_of_string text with
      | _ -> Alcotest.failf "expected failure for %S" text
      | exception Failure _ -> ())
    [ ""; "mlp 2\n"; "mlp 1\nlayers 0\n"; "mlp 1\nlayers 1\nlayer 2 2 relu\n1 2\n" ]

let prop_flatten_roundtrip_random =
  QCheck.Test.make ~name:"unflatten . flatten = id on random nets" ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net = make_net ~seed ~sizes:[ 3; 4; 2 ] ~acts:[ Activation.Relu; Activation.Tanh ] () in
      let x = [| 0.2; -0.1; 0.7 |] in
      Mlp.forward net x = Mlp.forward (Mlp.unflatten net (Mlp.flatten net)) x)

(* [forward_into] = [forward] bit for bit: random shapes and
   activations, weights and inputs with NaN, ±inf, ±0 and huge entries,
   and buffers reused from an earlier call (own buffers and the domain's
   shared ones). *)
let prop_forward_into_bit_identical =
  let special st =
    match Random.State.int st 12 with
    | 0 -> Float.nan
    | 1 -> Float.infinity
    | 2 -> Float.neg_infinity
    | 3 -> -0.0
    | 4 -> 0.0
    | 5 -> 1e300
    | _ -> Random.State.float st 4.0 -. 2.0
  in
  let acts = [| Activation.Relu; Activation.Tanh; Activation.Sigmoid; Activation.Linear |] in
  QCheck.Test.make ~name:"forward_into = forward, bit for bit" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let depth = 1 + Random.State.int st 4 in
      let sizes = List.init (depth + 1) (fun _ -> 1 + Random.State.int st 9) in
      let acts = List.init depth (fun _ -> acts.(Random.State.int st 4)) in
      let net = Mlp.create ~sizes ~acts (Rng.create seed) in
      let theta = Mlp.flatten net in
      if Random.State.bool st then
        for _ = 1 to 3 do
          theta.(Random.State.int st (Array.length theta)) <- special st
        done;
      let net = Mlp.unflatten net theta in
      let bits v = Array.map Int64.bits_of_float v in
      let bufs = Mlp.buffers net in
      List.for_all
        (fun _ ->
          let x = Array.init (Mlp.n_in net) (fun _ -> special st) in
          let expected = bits (Mlp.forward net x) in
          bits (Mlp.forward_into net bufs x) = expected
          && bits (Mlp.forward_into net (Mlp.domain_buffers net) x) = expected)
        [ 1; 2; 3 ])

let suite =
  [
    Alcotest.test_case "activation values" `Quick test_activation_values;
    Alcotest.test_case "activation derivatives" `Quick test_activation_derivatives_fd;
    Alcotest.test_case "activation names" `Quick test_activation_of_string_roundtrip;
    Alcotest.test_case "forward shapes" `Quick test_forward_shapes;
    Alcotest.test_case "flatten roundtrip" `Quick test_flatten_roundtrip;
    Alcotest.test_case "unflatten perturbation" `Quick test_unflatten_perturbation;
    Alcotest.test_case "backward matches FD" `Quick test_backward_matches_fd;
    Alcotest.test_case "backward relu net" `Quick test_backward_relu_net;
    Alcotest.test_case "soft update" `Quick test_soft_update;
    Alcotest.test_case "adam minimizes" `Quick test_adam_minimizes_quadratic;
    Alcotest.test_case "adam guard" `Quick test_adam_dimension_guard;
    Alcotest.test_case "lipschitz dominates samples" `Quick test_lipschitz_dominates_samples;
    Alcotest.test_case "local lipschitz saturation" `Quick
      test_local_lipschitz_tighter_on_saturated_regions;
    Alcotest.test_case "preactivation ranges" `Quick test_preactivation_ranges_contain_point;
    Alcotest.test_case "behavior clone" `Quick test_behavior_clone_reduces_mse;
    Alcotest.test_case "ibp forward sound" `Quick test_ibp_forward_sound;
    Alcotest.test_case "ibp relu sound" `Quick test_ibp_relu_net_sound;
    Alcotest.test_case "hessian bound vs FD" `Quick test_hessian_bound_dominates_fd;
    Alcotest.test_case "hessian none for relu" `Quick test_hessian_bound_none_for_relu;
    Alcotest.test_case "serialize roundtrip" `Quick test_serialize_roundtrip;
    Alcotest.test_case "serialize file" `Quick test_serialize_file_roundtrip;
    Alcotest.test_case "serialize rejects garbage" `Quick test_serialize_rejects_garbage;
    QCheck_alcotest.to_alcotest prop_flatten_roundtrip_random;
    QCheck_alcotest.to_alcotest prop_forward_into_bit_identical;
  ]
