(* Interval-only (box) reachability: the naive baseline the Taylor-model
   machinery exists to beat. The controller is abstracted by interval
   bound propagation and the period flow by an interval Taylor series with
   a Picard remainder - no symbolic variables at all, so every step incurs
   the full wrapping effect. Kept as an ablation (see the bench) and as
   the last rung of the fallback ladder: on the rotating Van der Pol
   dynamics the box iteration balloons within a few steps while the
   Taylor-model pipe stays tight, but it never throws and it is cheap. *)

module I = Dwv_interval.Interval
module Box = Dwv_interval.Box
module Expr = Dwv_expr.Expr
module Mlp = Dwv_nn.Mlp
module Ibp = Dwv_nn.Ibp
module Dwv_error = Dwv_robust.Dwv_error
module Budget = Dwv_robust.Budget

let factorial k =
  let acc = ref 1.0 in
  for i = 2 to k do
    acc := !acc *. float_of_int i
  done;
  !acc

(* One sampling period: x(delta) in sum_j delta^j/j! Lie_j(X, U) + Lagrange
   remainder over the Picard enclosure, all in interval arithmetic. *)
let step ?budget ~f ~(lie : Taylor_reach.lie_table) ~delta (x : Box.t) (u : Box.t) =
  match
    match budget with
    | None -> Ok ()
    | Some b -> Budget.spend_steps ~where:"Interval_reach.step" b
  with
  | Error e -> Error e
  | Ok () -> (
    match Taylor_reach.apriori_enclosure ~f ~x_box:x ~u_box:u ~delta () with
    | None ->
      Error
        (Dwv_error.divergence ~backend:"interval"
           ~where:"Taylor_reach.apriori_enclosure" ())
    | Some enclosure ->
      let order = Array.length lie - 2 in
      let n = Box.dim x in
      let next =
        Array.init n (fun i ->
            let acc = ref x.(i) in
            for j = 1 to order do
              let c = Expr.ieval lie.(j).(i) ~x ~u in
              acc := I.add !acc (I.scale ((delta ** float_of_int j) /. factorial j) c)
            done;
            let lf = Expr.ieval lie.(order + 1).(i) ~x:enclosure ~u in
            I.add !acc
              (I.scale ((delta ** float_of_int (order + 1)) /. factorial (order + 1)) lf))
      in
      Ok (next, enclosure))

(* Closed-loop box flowpipe under u = output_scale * net(x) (ZOH); total,
   with the structured failure cause attached. *)
let nn_flowpipe_outcome ?blowup_width ?(order = 3) ?budget ~f ~delta ~steps ~net
    ~output_scale ~x0 () =
  let lie = Taylor_reach.lie_table ~f ~order in
  Closed_loop.run ?blowup_width ~delta ~steps ~x0
    {
      Closed_loop.backend = "interval";
      where = "Interval_reach.nn_flowpipe";
      init = x0;
      bound = Fun.id;
      step =
        (fun _ x ->
          step ?budget ~f ~lie ~delta x
            (Array.map (I.scale output_scale) (Ibp.forward net x)));
    }

let nn_flowpipe ?blowup_width ?order ?budget ~f ~delta ~steps ~net ~output_scale ~x0 () =
  (nn_flowpipe_outcome ?blowup_width ?order ?budget ~f ~delta ~steps ~net ~output_scale
     ~x0 ())
    .Flowpipe.pipe
