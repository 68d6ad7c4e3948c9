(* The registry: one uniform handle per scenario. The built-in studies
   are their modules' scenarios (each read off the study's DSL text), and
   any DSL file loads into the same shape, so the CLI, the analyzer, the
   benchmarks and the fuzzer drive every system through one interface. *)

module Box = Dwv_interval.Box
module Spec = Dwv_core.Spec
module Controller = Dwv_core.Controller
module Verifier = Dwv_reach.Verifier
module Rng = Dwv_util.Rng
module Scenario = Dwv_systems.Scenario
module Acc = Dwv_systems.Acc
module Oscillator = Dwv_systems.Oscillator
module Threed = Dwv_systems.Threed
module Pendulum = Dwv_systems.Pendulum

type warm_start = { pretrained : Rng.t -> Controller.t; region : Box.t }

type entry = {
  scenario : Scenario.t;
  init : Rng.t -> Controller.t;
  warm_start : warm_start option;
  verify :
    ?method_:Verifier.nn_method -> ?x0:Box.t -> Controller.t -> Dwv_reach.Flowpipe.t;
  verify_robust :
    ?method_:Verifier.nn_method ->
    ?budget:Dwv_robust.Budget.t ->
    ?cache:Dwv_cert.Cert_cache.t ->
    ?x0:Box.t ->
    Controller.t ->
    Scn_verify.report;
  sim : Controller.t -> float array -> float array;
}

(* The scenario started from a cell of its initial set. *)
let from scenario = function
  | None -> scenario
  | Some init -> { scenario with Scenario.init }

(* Generic entry for a parsed DSL scenario: verification through the
   scenario ladder, simulation through the scenario control law. *)
let of_scenario scenario =
  {
    scenario;
    init = Scenario.make_controller scenario;
    warm_start = None;
    verify = (fun ?method_ ?x0 c -> Scn_verify.flowpipe ?method_ (from scenario x0) c);
    verify_robust =
      (fun ?method_ ?budget ?cache ?x0 c ->
        Scn_verify.verify_robust ?method_ ?budget ?cache (from scenario x0) c);
    sim = Scenario.sim scenario;
  }

let of_string src = of_scenario (Scenario.of_string src)
let of_file path = of_scenario (Scenario.of_file path)

(* ACC keeps the one engine the scenario ladder lacks, the zonotope
   flowpipe of its constant-augmented LTI model, judged with the same
   multi-box check. *)
let acc =
  let x0_or = Option.value ~default:Acc.spec.Spec.x0 in
  {
    (of_scenario Acc.scenario) with
    verify = (fun ?method_:_ ?x0 c -> Acc.verify_from (x0_or x0) c);
    verify_robust =
      (fun ?method_:_ ?budget ?cache ?x0 c ->
        let fallback = Acc.verify_robust_from ?budget ?cache (x0_or x0) c in
        {
          Scn_verify.verdict = Scn_verify.check Acc.scenario fallback.Verifier.pipe;
          fallback;
        });
  }

(* An NN study verifies through the scenario ladder as it is; it adds
   the warm start behaviour-cloned from its prior. *)
let study scenario pretrained region =
  { (of_scenario scenario) with warm_start = Some { pretrained; region } }

let builtins =
  List.map
    (fun e -> (e.scenario.Scenario.name, e))
    [
      acc;
      study Oscillator.scenario
        (fun rng -> Oscillator.pretrained_controller rng)
        Oscillator.pretrain_region;
      study Threed.scenario
        (fun rng -> Threed.pretrained_controller rng)
        Threed.pretrain_region;
      study Pendulum.scenario
        (fun rng -> Pendulum.pretrained_controller rng)
        Pendulum.pretrain_region;
    ]

let find name = List.assoc_opt name builtins
let names () = List.map fst builtins
