(** One uniform handle per scenario: the built-in studies are their
    modules' DSL scenarios, and any DSL file loads into the same shape,
    so the CLI, the analyzer, the benchmarks and the fuzzer drive
    everything through one interface. *)

(** A study's warm start: a controller behaviour-cloned from its prior,
    and the region it was cloned on (the controller's declared operating
    domain). *)
type warm_start = {
  pretrained : Dwv_util.Rng.t -> Dwv_core.Controller.t;
  region : Dwv_interval.Box.t;
}

type entry = {
  scenario : Dwv_systems.Scenario.t;
  init : Dwv_util.Rng.t -> Dwv_core.Controller.t;
      (** fresh controller of the scenario's shape *)
  warm_start : warm_start option;  (** [None] unless a built-in NN study *)
  verify :
    ?method_:Dwv_reach.Verifier.nn_method ->
    ?x0:Dwv_interval.Box.t ->
    Dwv_core.Controller.t ->
    Dwv_reach.Flowpipe.t;
      (** plain single-method Ψ from [x0] (default: the initial set), a
          cell of the physical initial set; [method_] picks a net
          controller's abstraction (default POLAR) *)
  verify_robust :
    ?method_:Dwv_reach.Verifier.nn_method ->
    ?budget:Dwv_robust.Budget.t ->
    ?cache:Dwv_cert.Cert_cache.t ->
    ?x0:Dwv_interval.Box.t ->
    Dwv_core.Controller.t ->
    Scn_verify.report;
      (** Ψ behind the degradation ladder, judged against the multi-box
          avoid set *)
  sim : Dwv_core.Controller.t -> float array -> float array;
}

(** Generic entry for a parsed DSL scenario (scenario ladder verifier). *)
val of_scenario : Dwv_systems.Scenario.t -> entry

val of_string : string -> entry
val of_file : string -> entry

(** The built-in studies, keyed by scenario name in paper order (acc,
    oscillator, threed, then the pendulum extension). ACC verifies with
    its zonotope engine; the NN studies through the scenario ladder,
    with their warm starts. *)
val builtins : (string * entry) list

val find : string -> entry option
val names : unit -> string list
