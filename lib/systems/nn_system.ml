(* What the neural-network studies (oscillator, 3-D, pendulum) share:
   the controller shape their DSL text declares, the behaviour-cloned
   warm start, and the verifier set — Ψ from a cell or from X₀, plain or
   behind the degradation ladder, all with the same Taylor-model
   settings. Each system module binds these to its own scenario. *)

module Box = Dwv_interval.Box
module Spec = Dwv_core.Spec
module Controller = Dwv_core.Controller
module Verifier = Dwv_reach.Verifier

let net_shape (scn : Scenario.t) =
  match scn.Scenario.controller with
  | Scenario.Net { sizes; acts; scale } -> (sizes, acts, scale)
  | Scenario.Affine _ ->
    invalid_arg
      (Fmt.str "Nn_system.net_shape: %s declares an affine controller" scn.Scenario.name)

let pretrained scn ~region ~prior ?config rng =
  let sizes, acts, output_scale = net_shape scn in
  let net0 = Dwv_nn.Mlp.create ~sizes ~acts rng in
  Controller.net ~output_scale
    (Dwv_nn.Pretrain.behavior_clone ?config ~rng ~region ~target:prior ~output_scale net0)

(* Taylor-model order of the flowpipe kernel and the symbolic-remainder
   budget. [slots] trades tightness for speed (the paper's "verification
   tightness" knob): 6 is the fast learning setting, 8 the tight
   certification setting. *)
let tm_order = 3
let fast_slots = 6
let tight_slots = 8

type verify_from =
  ?method_:Verifier.nn_method ->
  ?slots:int ->
  ?pool:Dwv_parallel.Pool.t ->
  Box.t ->
  Controller.t ->
  Dwv_reach.Flowpipe.t

type verify =
  ?method_:Verifier.nn_method ->
  ?slots:int ->
  ?pool:Dwv_parallel.Pool.t ->
  Controller.t ->
  Dwv_reach.Flowpipe.t

type verify_robust_from =
  ?method_:Verifier.nn_method ->
  ?slots:int ->
  ?budget:Dwv_robust.Budget.t ->
  ?cache:Dwv_cert.Cert_cache.t ->
  ?pool:Dwv_parallel.Pool.t ->
  ?warm:Dwv_reach.Warm.t ->
  Box.t ->
  Controller.t ->
  Verifier.fallback_report

type verify_robust =
  ?method_:Verifier.nn_method ->
  ?slots:int ->
  ?budget:Dwv_robust.Budget.t ->
  ?cache:Dwv_cert.Cert_cache.t ->
  ?pool:Dwv_parallel.Pool.t ->
  ?warm:Dwv_reach.Warm.t ->
  Controller.t ->
  Verifier.fallback_report

module type S = sig
  val tm_order : int
  val fast_slots : int
  val tight_slots : int
  val verify_from : verify_from
  val verify : verify
  val verify_robust_from : verify_robust_from
  val verify_robust : verify_robust
end

let net_of (spec : Spec.t) = function
  | Controller.Net { net; output_scale } -> (net, output_scale)
  | Controller.Linear _ ->
    invalid_arg
      (Fmt.str "Nn_system.verify_from: the %s study uses NN controllers" spec.Spec.name)

let verify_from ~f spec ?(method_ = Verifier.Polar) ?(slots = fast_slots) ?pool x0
    controller =
  let net, output_scale = net_of spec controller in
  Verifier.nn_flowpipe ~order:tm_order ~disturbance_slots:slots ?pool ~f
    ~delta:spec.Spec.delta ~steps:spec.Spec.steps ~net ~output_scale ~method_ ~x0 ()

let verify ~f spec ?method_ ?slots ?pool controller =
  verify_from ~f spec ?method_ ?slots ?pool spec.Spec.x0 controller

(* Fault-tolerant verifier: same primary settings as [verify_from], plus
   the degradation ladder (tighter sub-stepping, the other abstraction,
   interval-only) and budget enforcement. *)
let verify_robust_from ~f spec ?(method_ = Verifier.Polar) ?(slots = fast_slots) ?budget
    ?cache ?pool ?warm x0 controller =
  let net, output_scale = net_of spec controller in
  let cert =
    Option.map
      (fun c ->
        { Verifier.cc_cache = c; cc_unsafe = spec.Spec.unsafe; cc_goal = spec.Spec.goal })
      cache
  in
  Verifier.nn_flowpipe_robust ~order:tm_order ~disturbance_slots:slots ?budget ?cert ?pool
    ?warm ~f ~delta:spec.Spec.delta ~steps:spec.Spec.steps ~net ~output_scale ~method_ ~x0
    ()

let verify_robust ~f spec ?method_ ?slots ?budget ?cache ?pool ?warm controller =
  verify_robust_from ~f spec ?method_ ?slots ?budget ?cache ?pool ?warm spec.Spec.x0
    controller
