(** The verifier interface Ψ: flowpipe computation plus the reach-avoid
    judgement used by the learner's stopping rule. *)

type verdict =
  | Reach_avoid  (** property formally proved on the enclosures *)
  | Unsafe       (** a segment box lies inside the unsafe set: certainly unsafe *)
  | Unknown      (** inconclusive (possible spurious intersection / divergence) *)

val verdict_to_string : verdict -> string
val pp_verdict : Format.formatter -> verdict -> unit

(** First sample instant (>= 1) whose enclosure is inside the goal. *)
val goal_step : goal:Dwv_interval.Box.t -> Flowpipe.t -> int option

(** No segment touches the unsafe set. *)
val safety_ok : unsafe:Dwv_interval.Box.t -> Flowpipe.t -> bool

(** Some segment lies entirely inside the unsafe set. *)
val certainly_unsafe : unsafe:Dwv_interval.Box.t -> Flowpipe.t -> bool

(** Judge a flowpipe against a reach-avoid specification whose avoid set
    is a union of boxes: divergence is [Unknown]; a segment inside {e any}
    avoid box is [Unsafe]; an intersection with any box blocks
    [Reach_avoid]. *)
val check_avoid :
  avoid:Dwv_interval.Box.t list -> goal:Dwv_interval.Box.t -> Flowpipe.t -> verdict

(** {!check_avoid} with a single unsafe box. *)
val check : unsafe:Dwv_interval.Box.t -> goal:Dwv_interval.Box.t -> Flowpipe.t -> verdict

(** Controller-abstraction method for neural controllers. *)
type nn_method =
  | Polar                                   (** layerwise Taylor models *)
  | Bernstein of Nn_reach_bernstein.config  (** Bernstein + remainder *)

val nn_method_name : nn_method -> string

(** Certificate-emission tap for {!nn_flowpipe_outcome}: each completed
    step appends its ZOH control range, its Picard enclosure (the
    checker's inflation hint) and the control-TM remainder width.
    Per-call; create with {!new_recorder}. *)
type recorder

val new_recorder : unit -> recorder

(** Closed-loop flowpipe of x' = f(x, u), u = output_scale·net(x) sampled
    with ZOH — a {!Closed_loop} instance with the POLAR or Bernstein
    control abstraction and the Taylor kernel — with the structured
    failure cause attached (total). [order]
    is the Taylor-model order (default 3); the pipe is marked diverged
    when a box exceeds [blowup_width] (default 1e4). [disturbance_slots]
    (default 8) is the symbolic-remainder budget: each period's control
    abstraction error rides a fresh symbol that the contractive loop can
    cancel, recycled round-robin. [substeps] (default 1) subdivides each
    period into that many validated Taylor steps under the same held
    control — sound, and shrinks the Lagrange remainder. When [budget] is
    given its step/deadline limits are enforced inside the integration
    loop.

    [pool] parallelizes the work INSIDE each step — controller-
    abstraction sample grids and per-dimension Taylor columns — with
    index-ordered recombination (bit-identical to sequential; degrades
    to sequential automatically inside an outer pool task). [warm]
    seeds each sub-step's Picard iteration from a donor trace
    ({!Warm.t}), and [warm_rec] records this call's own trace;
    sub-steps are numbered across the whole call, so donor and
    recipient must use the same [substeps]. *)
val nn_flowpipe_outcome :
  ?blowup_width:float ->
  ?order:int ->
  ?disturbance_slots:int ->
  ?substeps:int ->
  ?budget:Dwv_robust.Budget.t ->
  ?record:recorder ->
  ?pool:Dwv_parallel.Pool.t ->
  ?warm:Warm.t ->
  ?warm_rec:Warm.recorder ->
  f:Dwv_expr.Expr.t array ->
  delta:float ->
  steps:int ->
  net:Dwv_nn.Mlp.t ->
  output_scale:float ->
  method_:nn_method ->
  x0:Dwv_interval.Box.t ->
  unit ->
  Flowpipe.outcome

(** [nn_flowpipe_outcome] without the error detail. *)
val nn_flowpipe :
  ?blowup_width:float ->
  ?order:int ->
  ?disturbance_slots:int ->
  ?substeps:int ->
  ?budget:Dwv_robust.Budget.t ->
  ?pool:Dwv_parallel.Pool.t ->
  ?warm:Warm.t ->
  ?warm_rec:Warm.recorder ->
  f:Dwv_expr.Expr.t array ->
  delta:float ->
  steps:int ->
  net:Dwv_nn.Mlp.t ->
  output_scale:float ->
  method_:nn_method ->
  x0:Dwv_interval.Box.t ->
  unit ->
  Flowpipe.t

(** {1 Fallback / degradation ladder} *)

(** Result of {!nn_flowpipe_robust}: the flowpipe that produced the
    verdict plus full provenance — which rung succeeded, why each earlier
    rung failed, and any fault injected into the call. When every rung
    failed, [pipe] is the primary rung's partial (diverged) pipe so the
    learner's graded divergence scoring still sees its progress, and
    [error] is the primary failure. *)
type fallback_report = {
  pipe : Flowpipe.t;
  error : Dwv_robust.Dwv_error.t option;
  rung : string option;
  rung_index : int option;
  failures : (string * Dwv_robust.Dwv_error.t) list;
  fault : Dwv_robust.Fault.kind option;
  warm : Warm.t option;
      (** Picard trace of the rung that produced [pipe] — the warm-start
          donor for the next nearby verification. [None] on a cache hit,
          an interval-rung verdict or a total failure. *)
}

(** Package a generic ladder outcome as a report; [fallback] is the pipe
    used when every rung failed (default: zero-step diverged stub on
    [x0]); [warm] is attached to successful outcomes only. *)
val report_of_outcome :
  ?fallback:Flowpipe.t ->
  ?warm:Warm.t ->
  x0:Dwv_interval.Box.t ->
  delta:float ->
  Flowpipe.t Dwv_robust.Robust_verify.outcome ->
  fallback_report

(** {1 Certificates} *)

val cert_verdict_of : verdict -> Dwv_cert.Cert.verdict

(** Bit-exact flowpipe reconstruction from a validated certificate
    (cache hit); [None] on any shape/delta mismatch — the caller then
    recomputes fresh. *)
val pipe_of_cert : delta:float -> Dwv_cert.Cert.t -> Flowpipe.t option

(** Emit a certificate from a fresh, non-diverged flowpipe: records the
    boxes, re-judges the claim, and synthesizes the per-step
    directed-rounding enclosures with [Cert_check.enclose] (exactly what
    the checker replays, so clean certificates full-validate with zero
    rejects). [controls]/[hints]/[remainders] come from a {!recorder}
    when the backend was a Taylor rung; with an [Affine] law the checker
    re-derives controls itself. [None] for diverged or zero-step pipes. *)
val cert_of_pipe :
  fingerprint:int64 ->
  backend:string ->
  params:string ->
  f:Dwv_expr.Expr.t array ->
  unsafe:Dwv_interval.Box.t ->
  goal:Dwv_interval.Box.t ->
  law:Dwv_cert.Cert.control_law ->
  ?controls:Dwv_interval.Box.t array ->
  ?hints:Dwv_interval.Box.t array ->
  ?remainders:float array ->
  Flowpipe.t ->
  Dwv_cert.Cert.t option

(** Where a robust NN verification looks for / deposits certificates,
    plus the spec boxes its claim is judged against (both enter the
    content address). *)
type cert_site = {
  cc_cache : Dwv_cert.Cert_cache.t;
  cc_unsafe : Dwv_interval.Box.t;
  cc_goal : Dwv_interval.Box.t;
}

(** The certificate cache as a {!Dwv_robust.Robust_verify} hook (shared
    by every backend): [lookup] replays a validated certificate stored
    under [fingerprint] bit-exactly ({!pipe_of_cert}); [store] emits the pipe with {!cert_of_pipe},
    judged against the site's boxes. [source] is read at store time and
    names the backend that produced the pipe plus its emission recorder,
    when it kept one. *)
val cert_hook :
  cert_site ->
  fingerprint:int64 ->
  params:string ->
  f:Dwv_expr.Expr.t array ->
  delta:float ->
  law:Dwv_cert.Cert.control_law ->
  source:(unit -> string * recorder option) ->
  Flowpipe.t Dwv_robust.Robust_verify.cache

(** NN closed-loop flowpipe with the degradation ladder: the requested
    settings first, then tighter Taylor sub-stepping with more
    disturbance slots, then the other controller abstraction
    (POLAR <-> Bernstein), then the interval-only pipe. With no failures
    the first rung runs exactly the settings of {!nn_flowpipe}, so
    verdicts are unchanged. With [cert], a validated cache hit
    short-circuits the ladder (rung ["cache"], bit-identical pipe) and a
    clean success is emitted back to the cache. An armed NaN-θ fault
    corrupts the network once per call, so every rung sees it.

    [pool] parallelizes each rung's intra-step work (see
    {!nn_flowpipe_outcome}). [warm] feeds a donor Picard trace to the
    substeps=1 rungs; the report's [warm] field carries this call's own
    trace back for the next nearby verification. *)
val nn_flowpipe_robust :
  ?blowup_width:float ->
  ?order:int ->
  ?disturbance_slots:int ->
  ?budget:Dwv_robust.Budget.t ->
  ?cert:cert_site ->
  ?pool:Dwv_parallel.Pool.t ->
  ?warm:Warm.t ->
  f:Dwv_expr.Expr.t array ->
  delta:float ->
  steps:int ->
  net:Dwv_nn.Mlp.t ->
  output_scale:float ->
  method_:nn_method ->
  x0:Dwv_interval.Box.t ->
  unit ->
  fallback_report
