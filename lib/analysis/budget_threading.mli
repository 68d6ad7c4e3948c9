(** Budget-discipline verification over the typed call graph.

    The PR-2 invariant, machine-checked: every call-graph path from a
    public verify/learn/initset entry point to the flowpipe/ODE kernels
    ({!targets}) must thread a [Budget.t], and the budget must actually
    be consulted ([Budget.check]/[spend_call]/[spend_steps]) somewhere
    along the way. Until now this held by convention; the typed trees
    make "this optional [?budget] was omitted at this call site" a fact.

    Per entry point the check asserts:
    - the entry accepts a [Budget.t] parameter;
    - no budget-scoped function drops the budget when calling an
      internal callee that both accepts one and (transitively) consumes
      one — an omitted [?budget] there severs the chain;
    - no {!targets} call site is reached without budget scope;
    - some budget sink is reachable with the budget in scope.

    Calls through function-valued parameters (the [~verify] closures)
    are invisible to the static graph; the systems' own entry points are
    therefore all checked directly, which closes the loop. *)

(** ["Unit.fn"] entry points checked by default: the systems'
    [verify_robust]/[verify_robust_from] ([Acc]'s and the shared
    [Nn_system] definitions the NN studies bind), [Learner.learn],
    [Initset.search], the certificate checker and the scenario driver. *)
val default_entries : string list

(** Kernel call sites every path must reach budgeted: the Taylor and
    interval period kernels ([Taylor_reach.step],
    [Interval_reach.step], [Closed_loop.taylor_kernel]) and the
    [Verifier] flowpipe drivers. *)
val targets : string list

(** Run the check. [budget-threading] errors on violations; an entry
    name that does not resolve in the index is itself an error (the
    check's promise is that these entry points are verified). *)
val analyze : ?entries:string list -> Cmt_index.t -> Diagnostics.t list
