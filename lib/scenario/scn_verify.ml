(* Verification driver for scenarios: closes the loop for affine
   controllers (Taylor-model rung with an interval-only fallback, both
   Closed_loop instances), routes net controllers through the existing
   NN degradation ladder, and judges the resulting flowpipe against the
   *multi-box* avoid set. The shape deliberately mirrors lib/systems —
   same Robust_verify ladder, same certificate hook, same fault-injection
   path — so a DSL scenario and a built-in system are indistinguishable
   downstream. *)

module Box = Dwv_interval.Box
module Expr = Dwv_expr.Expr
module Controller = Dwv_core.Controller
module Flowpipe = Dwv_reach.Flowpipe
module Verifier = Dwv_reach.Verifier
module Closed_loop = Dwv_reach.Closed_loop
module Taylor_reach = Dwv_reach.Taylor_reach
module Interval_reach = Dwv_reach.Interval_reach
module Tm_vec = Dwv_taylor.Tm_vec
module Robust_verify = Dwv_robust.Robust_verify
module Dwv_error = Dwv_robust.Dwv_error
module Fault = Dwv_robust.Fault

let check scn pipe =
  Verifier.check_avoid ~avoid:(Scenario.avoid_total scn) ~goal:(Scenario.goal_total scn)
    pipe

let rows_of_params scn theta =
  let cols = Scenario.n_total scn + 1 in
  if Array.length theta <> scn.Scenario.m * cols then
    invalid_arg "Scn_verify: controller parameter count does not match scenario";
  Array.init scn.Scenario.m (fun j -> Array.sub theta (j * cols) cols)

let method_order = function
  | Scenario.M_taylor { order } | Scenario.M_interval { order } -> order
  | Scenario.M_polar { order; _ } -> order
  | Scenario.M_zonotope -> 3

let method_tag scn =
  match scn.Scenario.method_ with
  | Scenario.M_taylor { order } -> Fmt.str "taylor o%d" order
  | Scenario.M_interval { order } -> Fmt.str "interval o%d" order
  | Scenario.M_polar { order; slots } -> Fmt.str "polar o%d s%d" order slots
  | Scenario.M_zonotope -> "zonotope"

(* Content address of an affine-controller verification: the open-loop
   dynamics, flat θ, the augmented boxes and the step grid. *)
let affine_fingerprint scn theta =
  Dwv_cert.Cert_key.fingerprint ~f:(Scenario.f_total scn) ~theta
    ~x0:(Scenario.init_total scn)
    ~unsafe:(List.hd (Scenario.avoid_total scn))
    ~goal:(Scenario.goal_total scn) ~delta:scn.Scenario.delta ~steps:scn.Scenario.steps
    ~tag:(Fmt.str "scenario %s %s" scn.Scenario.name (method_tag scn))

let fingerprint scn controller =
  match (controller : Controller.t) with
  | Controller.Net _ -> None
  | Controller.Linear _ -> Some (affine_fingerprint scn (Controller.params controller))

let cert_site scn cache =
  {
    Verifier.cc_cache = cache;
    cc_unsafe = List.hd (Scenario.avoid_total scn);
    cc_goal = Scenario.goal_total scn;
  }

(* Sampled-data (ZOH) closed loop under the affine controller, exactly as
   simulation executes it: the field stays open-loop, and each period the
   control is evaluated on the state enclosure at the period start and
   held constant through the validated step (the Lie table also treats
   inputs as constants). Substituting u = K x into f instead would verify
   the *continuous*-feedback loop - a different system, and the fuzzer's
   Monte-Carlo oracle catches the difference. An injected NaN-θ fault
   corrupts the gains before the loop is closed, so the poisoned
   constants flow through the whole pipeline and come back as a
   structured non-finite failure. *)
let affine_loop scn controller =
  let controller =
    if Fault.current () = Some Fault.Nan_theta then
      Controller.with_params controller (Fault.nan_corrupt (Controller.params controller))
    else controller
  in
  let u_exprs =
    Scenario.affine_input_exprs scn (rows_of_params scn (Controller.params controller))
  in
  let f = Scenario.f_total scn in
  let order = method_order scn.Scenario.method_ in
  (u_exprs, f, order, Taylor_reach.lie_table ~f ~order)

let run_loop scn loop =
  Closed_loop.run ~delta:scn.Scenario.delta ~steps:scn.Scenario.steps
    ~x0:(Scenario.init_total scn) loop

let taylor_pipe ?budget scn controller =
  let u_exprs, f, order, lie = affine_loop scn controller in
  let kernel =
    Closed_loop.taylor_kernel ?budget ~substeps:1 ~f ~lie ~delta:scn.Scenario.delta ()
  in
  run_loop scn
    {
      Closed_loop.backend = "taylor";
      where = "Scn_verify.taylor_pipe";
      init = Tm_vec.of_box ~order (Scenario.init_total scn);
      bound = Tm_vec.bound_box;
      step =
        (fun _ x ->
          Result.map
            (fun (state, segment, _) -> (state, segment))
            (kernel x (Tm_vec.eval_field ~x ~u:x u_exprs)));
    }

let interval_pipe ?budget scn controller =
  let u_exprs, f, _, lie = affine_loop scn controller in
  run_loop scn
    {
      Closed_loop.backend = "interval";
      where = "Scn_verify.interval_pipe";
      init = Scenario.init_total scn;
      bound = Fun.id;
      step =
        (fun _ x ->
          let u = Box.of_intervals (Array.map (fun e -> Expr.ieval e ~x ~u:[||]) u_exprs) in
          Interval_reach.step ?budget ~f ~lie ~delta:scn.Scenario.delta x u);
    }

let affine_report ?budget ?cache scn controller =
  let rung name pipe =
    Robust_verify.rung ~name (fun () ->
        match pipe ?budget scn controller with
        | { Flowpipe.error = Some e; _ } -> Error e
        | { Flowpipe.pipe; error = None } -> Ok pipe)
  in
  let rungs =
    match scn.Scenario.method_ with
    | Scenario.M_interval _ -> [ rung "interval" interval_pipe ]
    | _ -> [ rung "taylor" taylor_pipe; rung "interval" interval_pipe ]
  in
  (* the law records the affine rows (bias last), so the independent
     checker re-derives the per-step control range from its own
     enclosures *)
  let cache =
    Option.map
      (fun c ->
        let theta = Controller.params controller in
        Verifier.cert_hook (cert_site scn c) ~fingerprint:(affine_fingerprint scn theta)
          ~params:(method_tag scn) ~f:(Scenario.f_total scn) ~delta:scn.Scenario.delta
          ~law:(Dwv_cert.Cert.Affine (rows_of_params scn theta))
          ~source:(fun () -> ("taylor", None)))
      cache
  in
  Robust_verify.run ?budget ?cache rungs
  |> Verifier.report_of_outcome ~x0:(Scenario.init_total scn) ~delta:scn.Scenario.delta

(* ------------------------------------------------------------------ *)
(* Entry points *)

let flowpipe_robust ?budget ?cache scn controller =
  match (controller : Controller.t) with
  | Controller.Linear _ ->
    (match scn.Scenario.method_ with
    | Scenario.M_zonotope ->
      (* structured failure, not an escaping raise: the fault ladder can
         then report Unknown instead of crashing the campaign *)
      Robust_verify.run ?budget
        [
          Robust_verify.rung ~name:"zonotope" (fun () ->
              Error
                (Dwv_error.backend_failure ~backend:"zonotope"
                   ~where:"Scn_verify.flowpipe_robust"
                   "the zonotope method is reserved for built-in LTI \
                    systems (use their registry entry)"));
        ]
      |> Verifier.report_of_outcome ~x0:(Scenario.init_total scn)
           ~delta:scn.Scenario.delta
    | _ -> affine_report ?budget ?cache scn controller)
  | Controller.Net { net; output_scale } ->
    let order = method_order scn.Scenario.method_ in
    let slots =
      match scn.Scenario.method_ with
      | Scenario.M_polar { slots; _ } -> Some slots
      | _ -> None
    in
    Verifier.nn_flowpipe_robust ~order ?disturbance_slots:slots ?budget
      ?cert:(Option.map (cert_site scn) cache)
      ~f:(Scenario.f_total scn) ~delta:scn.Scenario.delta
      ~steps:scn.Scenario.steps ~net ~output_scale ~method_:Verifier.Polar
      ~x0:(Scenario.init_total scn) ()

type report = {
  verdict : Verifier.verdict;
  fallback : Verifier.fallback_report;
}

let verify_robust ?budget ?cache scn controller =
  let fallback = flowpipe_robust ?budget ?cache scn controller in
  { verdict = check scn fallback.Verifier.pipe; fallback }
