(* The verifier interface Psi of the paper: run a reachability analysis of
   the closed loop and judge the reach-avoid property on the resulting
   flowpipe.

   Verdict semantics (all with respect to over-approximate enclosures):
     - Reach_avoid : no segment touches the unsafe set AND some
                     sample-instant box lies entirely inside the goal;
                     the property is formally PROVED.
     - Unsafe      : some segment box lies entirely inside the unsafe set,
                     so a real trajectory is certainly unsafe.
     - Unknown     : everything else (spurious intersection possible, goal
                     not provably reached, or the analysis diverged). *)

module Box = Dwv_interval.Box
module Tm = Dwv_taylor.Taylor_model
module Tm_vec = Dwv_taylor.Tm_vec
module Dwv_error = Dwv_robust.Dwv_error
module Budget = Dwv_robust.Budget
module Fault = Dwv_robust.Fault
module Robust_verify = Dwv_robust.Robust_verify
module Cert = Dwv_cert.Cert
module Cert_key = Dwv_cert.Cert_key
module Cert_check = Dwv_cert.Cert_check
module Cert_cache = Dwv_cert.Cert_cache
module Counters = Dwv_util.Counters

let c_nn_flowpipes = Counters.counter "nn_flowpipes"
let ph_abstraction = Dwv_util.Phases.phase "nn_abstraction"
let ph_cert = Dwv_util.Phases.phase "cert_check"

type verdict = Reach_avoid | Unsafe | Unknown

let verdict_to_string = function
  | Reach_avoid -> "reach-avoid"
  | Unsafe -> "Unsafe"
  | Unknown -> "Unknown"

let pp_verdict ppf v = Fmt.string ppf (verdict_to_string v)

(* First sample instant whose enclosure is contained in the goal. *)
let goal_step ~goal pipe =
  (* the initial set itself does not count as goal-reaching *)
  Flowpipe.find_step ~from:1 (fun b -> Box.subset b goal) pipe

let safety_ok ~unsafe pipe = not (Flowpipe.exists_box (fun b -> Box.intersects b unsafe) pipe)

let certainly_unsafe ~unsafe pipe = Flowpipe.exists_box (fun b -> Box.subset b unsafe) pipe

(* The avoid set is a list of boxes: a segment inside any of them is
   certainly unsafe, and an intersection with any of them blocks
   Reach_avoid. *)
let check_avoid ~avoid ~goal pipe =
  if Flowpipe.diverged pipe then Unknown
  else if List.exists (fun unsafe -> certainly_unsafe ~unsafe pipe) avoid then Unsafe
  else if not (List.for_all (fun unsafe -> safety_ok ~unsafe pipe) avoid) then Unknown
  else
    match goal_step ~goal pipe with
    | Some _ -> Reach_avoid
    | None -> Unknown

let check ~unsafe ~goal pipe = check_avoid ~avoid:[ unsafe ] ~goal pipe

(* ------------------------------------------------------------------ *)
(* Closed-loop flowpipe for neural-network controllers: abstract the
   controller over the current symbolic state with the chosen method, then
   integrate one period with the validated Taylor kernel. *)

type nn_method =
  | Polar                                   (* layerwise Taylor models *)
  | Bernstein of Nn_reach_bernstein.config  (* Bernstein + remainder *)

let nn_method_name = function
  | Polar -> "POLAR"
  | Bernstein _ -> "ReachNN"

(* Certificate emission tap: when a [recorder] is passed, each completed
   step appends its ZOH control range, its Picard enclosure (the hint
   the independent checker inflates from) and the control-TM remainder
   width. Lists are reversed (newest first) and per-call local. *)
type recorder = {
  mutable rec_controls : Box.t list;
  mutable rec_hints : Box.t list;
  mutable rec_remainders : float list;
}

let new_recorder () = { rec_controls = []; rec_hints = []; rec_remainders = [] }

let nn_flowpipe_outcome ?blowup_width ?(order = 3) ?(disturbance_slots = 8)
    ?(substeps = 1) ?budget ?record ?pool ?warm ?warm_rec ~f ~delta ~steps ~net
    ~output_scale ~method_ ~x0 () =
  if substeps < 1 then invalid_arg "Verifier.nn_flowpipe: substeps must be >= 1";
  Counters.incr c_nn_flowpipes;
  let lie = Taylor_reach.lie_table ~f ~order in
  let control x =
    Dwv_util.Phases.time ph_abstraction @@ fun () ->
    match method_ with
    | Polar -> Nn_reach_taylor.control_models ~net ~output_scale x
    | Bernstein config ->
      Nn_reach_bernstein.control_models ?pool ~net ~output_scale ~config x
  in
  (* control is held (ZOH) over the whole period; the kernel may
     subdivide it to shrink the Lagrange remainder (the "+tight" fallback
     rung) without changing the sampled-data semantics *)
  let kernel =
    Closed_loop.taylor_kernel ?budget ?pool ?warm ?warm_rec ~substeps ~f ~lie ~delta ()
  in
  let n = Box.dim x0 in
  let m = Dwv_nn.Mlp.n_out net in
  (* Symbolic remainders (as in POLAR): each period's control
     over-approximation error becomes a fresh symbol z_slot instead of a
     detached interval, so the feedback loop can contract past
     disturbances; slots are recycled round-robin, retiring the oldest
     symbol into the interval remainder once the loop has had
     [disturbance_slots] periods to damp it. *)
  let step i x =
    let slot_base = n + ((i - 1) mod disturbance_slots * m) in
    let x =
      Array.map
        (fun tm ->
          let tm = ref tm in
          for j = 0 to m - 1 do
            tm := Tm.absorb_var (slot_base + j) !tm
          done;
          !tm)
        x
    in
    let u = control x in
    let rem_width = ref 0.0 in
    let u =
      Array.mapi
        (fun j tm ->
          let tm = Tm.sweep tm in
          rem_width :=
            Float.max !rem_width (Dwv_interval.Interval.width (Tm.remainder tm));
          Tm.symbolize_remainder ~slot:(slot_base + j) tm)
        u
    in
    let u_box = Tm_vec.bound_box u in
    match kernel x u with
    | Error e -> Error e
    | Ok (state, segment, picard) ->
      (* a failing run's recorder is never emitted *)
      (match record with
      | Some r ->
        r.rec_controls <- u_box :: r.rec_controls;
        r.rec_hints <- picard :: r.rec_hints;
        r.rec_remainders <- !rem_width :: r.rec_remainders
      | None -> ());
      Ok (state, segment)
  in
  Closed_loop.run ?blowup_width ~delta ~steps ~x0
    {
      Closed_loop.backend = nn_method_name method_;
      where = "Verifier.nn_flowpipe";
      init = Tm_vec.of_box ~total_vars:(n + (disturbance_slots * m)) ~order x0;
      bound = Tm_vec.bound_box;
      step;
    }

let nn_flowpipe ?blowup_width ?order ?disturbance_slots ?substeps ?budget ?pool ?warm
    ?warm_rec ~f ~delta ~steps ~net ~output_scale ~method_ ~x0 () =
  (nn_flowpipe_outcome ?blowup_width ?order ?disturbance_slots ?substeps ?budget ?pool
     ?warm ?warm_rec ~f ~delta ~steps ~net ~output_scale ~method_ ~x0 ())
    .Flowpipe.pipe

(* ------------------------------------------------------------------ *)
(* Fallback / degradation ladder: on a structured failure retry with
   progressively cheaper-but-sound settings - subdivide the Taylor step
   and raise the disturbance-slot budget, cross to the other controller
   abstraction (POLAR <-> Bernstein), and finally drop to the interval-
   only pipe, which never throws. The report records which rung produced
   the verdict and why each earlier rung failed. *)

type fallback_report = {
  pipe : Flowpipe.t;
  error : Dwv_error.t option;  (* first failure when every rung failed *)
  rung : string option;
  rung_index : int option;
  failures : (string * Dwv_error.t) list;
  fault : Fault.kind option;
  warm : Warm.t option;
      (* Picard trace of the rung that produced [pipe]: the warm-start
         donor for the caller's next nearby verification. [None] when the
         pipe came from the certificate cache, the interval rung or a
         total failure. *)
}

(* Package a ladder outcome as a report; [fallback] (default: a zero-step
   diverged stub on [x0]) is the pipe handed to the metric when every
   rung failed, so scoring stays total. *)
let report_of_outcome ?fallback ?warm ~x0 ~delta (o : Flowpipe.t Robust_verify.outcome) =
  let pipe, error =
    match o.Robust_verify.value with
    | Some pipe -> (pipe, None)
    | None ->
      let pipe =
        match fallback with
        | Some p -> p
        | None ->
          Flowpipe.make ~step_boxes:[| x0 |] ~segment_boxes:[||] ~delta ~diverged:true
      in
      ( pipe,
        match o.Robust_verify.failures with (_, e) :: _ -> Some e | [] -> None )
  in
  {
    pipe;
    error;
    rung = o.Robust_verify.rung;
    rung_index = o.Robust_verify.rung_index;
    failures = o.Robust_verify.failures;
    fault = o.Robust_verify.fault;
    warm = (if error = None then warm else None);
  }

(* Lift an [Flowpipe.outcome]-producing analysis into a ladder rung: a
   diverged pipe without a recorded cause still counts as a failure. *)
let outcome_rung ~name k =
  {
    Robust_verify.name;
    run =
      (fun () ->
        let o = k () in
        match o.Flowpipe.error with
        | Some e -> Error e
        | None when Flowpipe.diverged o.Flowpipe.pipe ->
          Error
            (Dwv_error.divergence ~backend:name ~where:"Verifier.nn_flowpipe_robust" ())
        | None -> Ok o.Flowpipe.pipe);
  }

(* ------------------------------------------------------------------ *)
(* Certificate integration: reconstruct a flowpipe from a validated
   certificate (cache hit) and emit one from a fresh run (cache store).
   The checker-side enclosures are synthesized here, at emission, by
   Cert_check.enclose — the exact computation Cert_check.validate
   replays — so a clean certificate full-validates with zero rejects. *)

let cert_verdict_of = function
  | Reach_avoid -> Cert.Reach_avoid
  | Unsafe -> Cert.Unsafe
  | Unknown -> Cert.Unknown

(* Bit-exact reconstruction: the cert stored the prover's boxes as raw
   IEEE bits, so verdicts and scores downstream are identical to the
   cold run's. [None] on any shape mismatch (the caller recomputes). *)
let pipe_of_cert ~delta (c : Cert.t) =
  if c.Cert.delta <> delta then None
  else
    match
      Flowpipe.make ~step_boxes:c.Cert.step_boxes ~segment_boxes:c.Cert.segment_boxes
        ~delta:c.Cert.delta ~diverged:false
    with
    | pipe -> Some pipe
    | exception Invalid_argument _ -> None

let cert_of_pipe ~fingerprint ~backend ~params ~f ~unsafe ~goal ~law
    ?(controls = [||]) ?(hints = [||]) ?(remainders = [||]) pipe =
  if Flowpipe.diverged pipe then None
  else begin
    let step_boxes = Array.of_list (Flowpipe.step_boxes pipe) in
    let segment_boxes = Array.of_list (Flowpipe.segment_boxes pipe) in
    let nsegs = Array.length segment_boxes in
    if nsegs = 0 || Array.length step_boxes <> nsegs + 1 then None
    else begin
      let delta = Flowpipe.delta pipe in
      let have_controls = Array.length controls = nsegs in
      let enclosures =
        Array.init nsegs (fun i ->
            let hint =
              let base =
                Box.hull step_boxes.(i) (Box.hull segment_boxes.(i) step_boxes.(i + 1))
              in
              if Array.length hints = nsegs then Box.hull base hints.(i) else base
            in
            let control =
              if have_controls then Some (Cert_check.Const controls.(i))
              else
                match law with
                | Cert.Affine rows -> Some (Cert_check.Affine_law rows)
                | Cert.Opaque -> None
            in
            match control with
            | None -> None
            | Some control ->
              Option.map fst
                (Cert_check.enclose ~f ~delta ~x:step_boxes.(i) ~control ~hint ()))
      in
      Some
        {
          Cert.fingerprint;
          backend;
          params;
          delta;
          dim = Box.dim step_boxes.(0);
          x0 = step_boxes.(0);
          unsafe;
          goal;
          law;
          verdict = cert_verdict_of (check ~unsafe ~goal pipe);
          step_boxes;
          segment_boxes;
          controls = (if have_controls then controls else [||]);
          enclosures;
          remainders = (if Array.length remainders = nsegs then remainders else [||]);
        }
    end
  end

(* Where a robust NN verification should look for / deposit its
   certificates, plus the spec boxes its claim is judged against (both
   enter the content address). *)
type cert_site = { cc_cache : Cert_cache.t; cc_unsafe : Box.t; cc_goal : Box.t }

(* The certificate cache as a ladder hook, one definition for every
   backend: a validated hit replays the stored pipe bit-exactly; a clean
   success is emitted under [fingerprint]. [source] names the backend
   that produced the pipe and its emission recorder, if it kept one. *)
let cert_hook site ~fingerprint ~params ~f ~delta ~law ~source =
  {
    Robust_verify.lookup =
      (fun () ->
        Option.bind (Cert_cache.find site.cc_cache ~fingerprint) (pipe_of_cert ~delta));
    store =
      (fun pipe ->
        let backend, record = source () in
        let controls, hints, remainders =
          match record with
          | Some r ->
            ( Array.of_list (List.rev r.rec_controls),
              Array.of_list (List.rev r.rec_hints),
              Array.of_list (List.rev r.rec_remainders) )
          | None -> ([||], [||], [||])
        in
        match
          cert_of_pipe ~fingerprint ~backend ~params ~f ~unsafe:site.cc_unsafe
            ~goal:site.cc_goal ~law ~controls ~hints ~remainders pipe
        with
        | Some c -> Cert_cache.store site.cc_cache c
        | None -> ());
  }

let nn_flowpipe_robust ?(blowup_width = 1e4) ?(order = 3) ?(disturbance_slots = 8)
    ?budget ?cert ?pool ?warm ~f ~delta ~steps ~net ~output_scale ~method_ ~x0 () =
  (* the primary rung's (possibly truncated) pipe is kept: when the whole
     ladder fails, its graded progress is still the best gradient signal
     the metric can extract (Metrics.diverged_scores) *)
  let primary_pipe = ref None in
  (* (backend name, emission recorder) of the most recent rung attempt;
     per-call local, and the rungs of one call run sequentially, so on a
     ladder success this names the rung that produced the value. *)
  let last_rung = ref None in
  (* Picard-trace recorder of the most recent rung attempt, same
     discipline; the interval rung records nothing (it has no Picard
     iteration), so a ladder that bottoms out there donates no trace. *)
  let last_warm = ref None in
  (* An armed NaN-θ fault corrupts one seeded weight once per call, so
     every rung, the interval one included, verifies the same corrupted
     network and the non-finite path is exercised end to end. Forced
     inside the ladder, where the call's fault is armed. *)
  let faulted_net =
    lazy
      (if Fault.current () = Some Fault.Nan_theta then
         Dwv_nn.Mlp.unflatten net (Fault.nan_corrupt (Dwv_nn.Mlp.flatten net))
       else net)
  in
  let tm ?(remember = false) ?(use_warm = false) name method_ ~slots ~substeps () =
    outcome_rung ~name (fun () ->
        let record = Option.map (fun _ -> new_recorder ()) cert in
        last_rung := Some (name, record);
        let warm_rec = Warm.recorder () in
        last_warm := Some warm_rec;
        let o =
          nn_flowpipe_outcome ~blowup_width ~order ~disturbance_slots:slots ~substeps
            ?budget ?record ?pool
            ?warm:(if use_warm then warm else None)
            ~warm_rec ~f ~delta ~steps ~net:(Lazy.force faulted_net) ~output_scale
            ~method_ ~x0 ()
        in
        if remember && !primary_pipe = None then primary_pipe := Some o.Flowpipe.pipe;
        o)
  in
  let cross_method, cross_name =
    match method_ with
    | Polar -> (Bernstein (Nn_reach_bernstein.default_config ~n:(Box.dim x0)), "ReachNN")
    | Bernstein _ -> (Polar, "POLAR")
  in
  (* The donor trace indexes sub-steps, so only rungs with the donor's
     sub-step count (substeps = 1, the primary setting) consume it; the
     "+tight" rung's doubled sub-stepping would read misaligned hints —
     sound, but pure waste. *)
  let rungs =
    [
      tm ~remember:true ~use_warm:true (nn_method_name method_) method_
        ~slots:disturbance_slots ~substeps:1 ();
      tm (nn_method_name method_ ^ "+tight") method_ ~slots:(disturbance_slots + 4)
        ~substeps:2 ();
      tm ~use_warm:true cross_name cross_method ~slots:disturbance_slots ~substeps:1 ();
      outcome_rung ~name:"interval" (fun () ->
          last_rung := Some ("interval", None);
          last_warm := None;
          Interval_reach.nn_flowpipe_outcome ~blowup_width ~order ?budget ~f ~delta
            ~steps ~net:(Lazy.force faulted_net) ~output_scale ~x0 ());
    ]
  in
  let cache =
    Option.map
      (fun site ->
        let params =
          Fmt.str "%s order=%d slots=%d substeps=1 scale=%h blowup=%h"
            (nn_method_name method_) order disturbance_slots output_scale blowup_width
          ^
          match method_ with
          | Polar -> ""
          | Bernstein config -> " " ^ Nn_reach_bernstein.config_tag config
        in
        let fp =
          Cert_key.fingerprint ~f ~theta:(Dwv_nn.Mlp.flatten net) ~x0
            ~unsafe:site.cc_unsafe ~goal:site.cc_goal ~delta ~steps ~tag:params
        in
        let hook =
          cert_hook site ~fingerprint:fp ~params ~f ~delta ~law:Cert.Opaque
            ~source:(fun () -> Option.value !last_rung ~default:("?", None))
        in
        (* the clock stays outside the hook, which the cache-purity
           analysis keeps free of clock reads *)
        {
          hook with
          Robust_verify.lookup =
            (fun () -> Dwv_util.Phases.time ph_cert hook.Robust_verify.lookup);
        })
      cert
  in
  let o = Robust_verify.run ?budget ?cache rungs in
  let warm =
    (* only a ladder success donates its trace; a cache hit ran no rung
       (the stale [last_warm] belongs to no pipe), and a total failure's
       partial trace records a blow-up — worse than a cold start *)
    match o.Robust_verify.value, o.Robust_verify.rung with
    | Some _, Some r when r <> "cache" && r <> "interval" ->
      Option.map Warm.of_recorder !last_warm
    | _ -> None
  in
  report_of_outcome ?fallback:!primary_pipe ?warm ~x0 ~delta o
