(* Seeded scenario fuzzer with a differential soundness oracle.

   Each index draws its own child stream (Rng.split_n), so the whole
   campaign is a pure function of the seed: generation, verification,
   rollouts and shrinking are bit-identical at any domain count. The
   generator samples small polynomial/trigonometric dynamics with a
   stabilizing diagonal, a mildly damping affine controller, a goal box
   seeded from the nominal center rollout, 0-2 avoid boxes (sometimes
   placed adversarially on the nominal trajectory) and 0-1 uncertain
   parameters — always well-formed by construction, so the layer-1
   analysis oracle must come back clean.

   The oracle cross-examines every verdict with independent evidence:

     Reach_avoid  =>  N Monte-Carlo rollouts all safe and goal-reaching,
                      and robustness-minimizing falsification finds no
                      counterexample to safety or goal-reaching;
     Unsafe       =>  every sampled rollout violates safety (the verdict
                      is only issued when a whole segment enclosure sits
                      inside an avoid box);
     any stored certificate must Full-replay under Cert_check;
     layer-1 model checks must report zero errors.

   Disagreements are shrunk greedily (fewer steps, fewer avoid boxes,
   parameters frozen to midpoints, tighter initial box) to a minimal
   reproducer whose DSL text is reported for the committed corpus. *)

module I = Dwv_interval.Interval
module Box = Dwv_interval.Box
module Expr = Dwv_expr.Expr
module Rng = Dwv_util.Rng
module Pool = Dwv_parallel.Pool
module Spec = Dwv_core.Spec
module Controller = Dwv_core.Controller
module Evaluate = Dwv_core.Evaluate
module Falsifier = Dwv_core.Falsifier
module Sampled_system = Dwv_ode.Sampled_system
module Verifier = Dwv_reach.Verifier
module Model_check = Dwv_analysis.Model_check
module Diagnostics = Dwv_analysis.Diagnostics
module Cert_cache = Dwv_cert.Cert_cache
module Cert_check = Dwv_cert.Cert_check

(* ------------------------------------------------------------------ *)
(* Generation *)

let deltas = [| 0.02; 0.05; 0.1 |]

(* Nominal closed-loop rollout used to seed the goal box and to place
   avoid boxes relative to where trajectories actually go: the states at
   the sample instants (each period's start, then the last period's end;
   [Sampled_system.simulate]'s [states]), copied out of the stream. The
   controller writes one reused input cell. *)
let nominal_trace scn_f ~nt ~delta ~steps ~row x0 =
  let substeps = 10 in
  let sys = Sampled_system.make ~f:scn_f ~n:nt ~m:1 ~delta in
  let u = [| 0.0 |] in
  let controller x =
    let acc = ref row.(nt) in
    for k = 0 to nt - 1 do
      acc := !acc +. (row.(k) *. x.(k))
    done;
    u.(0) <- !acc;
    u
  in
  let states = Array.make (steps + 1) x0 in
  let last = (steps * (substeps + 1)) - 1 and j = ref 0 in
  Sampled_system.stream ~substeps sys ~controller ~x0 ~steps (fun x ->
      if !j mod (substeps + 1) = 0 then states.(!j / (substeps + 1)) <- Array.copy x
      else if !j = last then states.(steps) <- Array.copy x;
      incr j);
  states

(* Rounding_flow allow: all raw float arithmetic below builds fuzz
   *inputs* (initial/goal/avoid boxes), not claimed enclosures — any box
   is a legitimate test case and the differential oracle re-checks every
   verdict produced from it. *)
let generate rng index =
  let dim = 1 + Rng.int rng 3 in
  let n_params = if Rng.int rng 4 = 0 then 1 else 0 in
  let nt = dim + n_params in
  let delta = deltas.(Rng.int rng (Array.length deltas)) in
  let steps = 3 + Rng.int rng 6 in
  let params =
    Array.init n_params (fun _ ->
        let c = Rng.uniform rng ~lo:0.1 ~hi:0.5 in
        I.make (c -. 0.05) (c +. 0.05))
  in
  (* stabilizing diagonal, optional quadratic coupling, optional sine
     term; the input enters the first coordinate *)
  let f =
    Array.init dim (fun i ->
        let a = Rng.uniform rng ~lo:0.5 ~hi:1.5 in
        let base = Expr.scale (-.a) (Expr.var i) in
        let base = if i = 0 then Expr.add base (Expr.input 0) else base in
        let base =
          if Rng.bool rng then
            let j = Rng.int rng nt and k = Rng.int rng dim in
            let c = Rng.uniform rng ~lo:(-0.4) ~hi:0.4 in
            Expr.add base (Expr.scale c (Expr.mul (Expr.var j) (Expr.var k)))
          else base
        in
        if Rng.int rng 3 = 0 then
          let j = Rng.int rng dim in
          let c = Rng.uniform rng ~lo:(-0.3) ~hi:0.3 in
          Expr.add base (Expr.scale c (Expr.sin_ (Expr.var j)))
        else base)
  in
  let center = Array.init dim (fun _ -> Rng.uniform rng ~lo:(-0.4) ~hi:0.4) in
  let radius = Array.init dim (fun _ -> Rng.uniform rng ~lo:0.01 ~hi:0.04) in
  let init =
    Box.make
      ~lo:(Array.init dim (fun i -> center.(i) -. radius.(i)))
      ~hi:(Array.init dim (fun i -> center.(i) +. radius.(i)))
  in
  let row =
    Array.init (nt + 1) (fun k ->
        if k < dim then Rng.uniform rng ~lo:(-0.3) ~hi:0.0
        else if k < nt then 0.0
        else Rng.uniform rng ~lo:(-0.05) ~hi:0.05)
  in
  let method_ =
    if Rng.bool rng then Scenario.M_taylor { order = 2 + Rng.int rng 2 }
    else Scenario.M_interval { order = 2 + Rng.int rng 2 }
  in
  let f_aug = Array.append f (Array.map (fun _ -> Expr.const 0.0) params) in
  let x0_nominal = Array.append center (Array.map I.mid params) in
  let states = nominal_trace f_aug ~nt ~delta ~steps ~row x0_nominal in
  let finite p = Array.for_all Float.is_finite p in
  let endpoint =
    let last = states.(Array.length states - 1) in
    if finite last then Array.sub last 0 dim else Array.make dim 0.0
  in
  let goal_r = Rng.uniform rng ~lo:0.25 ~hi:0.45 in
  let goal =
    Box.make
      ~lo:(Array.map (fun c -> c -. goal_r) endpoint)
      ~hi:(Array.map (fun c -> c +. goal_r) endpoint)
  in
  (* Avoid boxes: mostly offset away from the nominal trajectory, with an
     occasional adversarial box centered right on it. A candidate that
     touches the initial or goal box is dropped so the generated spec is
     well-formed by construction (the analysis oracle demands it). *)
  let avoid =
    let n_avoid = Rng.int rng 3 in
    let candidates =
      List.init n_avoid (fun _ ->
          let t = Rng.int rng (Array.length states) in
          let anchor_full = states.(t) in
          let anchor =
            if finite anchor_full then Array.sub anchor_full 0 dim
            else Array.make dim 0.0
          in
          let adversarial = Rng.int rng 5 = 0 in
          let c =
            Array.map
              (fun a ->
                if adversarial then a
                else
                  let off = Rng.uniform rng ~lo:0.5 ~hi:1.0 in
                  if Rng.bool rng then a +. off else a -. off)
              anchor
          in
          let r = Rng.uniform rng ~lo:0.05 ~hi:0.2 in
          Box.make
            ~lo:(Array.map (fun x -> x -. r) c)
            ~hi:(Array.map (fun x -> x +. r) c))
    in
    List.filter
      (fun b -> not (Box.intersects b init || Box.intersects b goal))
      candidates
  in
  Scenario.make
    ~name:(Fmt.str "fuzz-%d" index)
    ~dim ~m:1 ~delta ~steps ~f ~init ~goal ~avoid ~params
    ~controller:(Scenario.Affine [| row |])
    ~method_ ()

(* ------------------------------------------------------------------ *)
(* The oracle *)

type check_result = { verdict : Verifier.verdict; rung : string option;
                      cert : string; oracle : string option }

let analysis_errors scn controller =
  let nt = Scenario.n_total scn in
  let diags =
    Model_check.check_dynamics ~name:scn.Scenario.name
      ~f:(Scenario.f_total scn) ~n:nt ~m:scn.Scenario.m
    @ Model_check.check_spec ~name:scn.Scenario.name ~expected_n:nt
        (Scenario.spec scn)
    @ Model_check.check_controller ~name:scn.Scenario.name ~n:nt
        ~m:scn.Scenario.m controller
  in
  List.filter (fun d -> d.Diagnostics.severity = Diagnostics.Error) diags

(* Re-check a scenario end to end and cross-examine the verdict. [rng]
   drives the Monte-Carlo evidence; everything else is deterministic in
   the scenario itself. Returns the first oracle disagreement, if any. *)
let examine ?budget ?(rollouts = 50) ~rng scn =
  let controller = Scenario.make_controller scn rng in
  match analysis_errors scn controller with
  | d :: _ ->
    { verdict = Verifier.Unknown; rung = None; cert = "absent";
      oracle = Some (Fmt.str "analysis: %s (%s)" d.Diagnostics.check
                       d.Diagnostics.message) }
  | [] ->
    let cache = Cert_cache.create () in
    let report = Scn_verify.verify_robust ?budget ~cache scn controller in
    let verdict = report.Scn_verify.verdict in
    let rung = report.Scn_verify.fallback.Verifier.rung in
    (* certificate replay: anything the verification deposited must
       survive a Full directed-rounding replay against the same inputs *)
    let cert, cert_violation =
      match Scn_verify.fingerprint scn controller with
      | None -> ("absent", None)
      | Some fp -> (
        match Cert_cache.find cache ~fingerprint:fp with
        | None -> ("absent", None)
        | Some c -> (
          match
            Cert_check.validate_cert ?budget ~level:Cert_check.Full ~expected:fp
              ~f:(Scenario.f_total scn) c
          with
          | Cert_check.Valid, _ -> ("valid", None)
          | status, _ ->
            let s = Cert_check.verdict_check_to_string status in
            (s, Some (Fmt.str "cert: %s" s))))
    in
    let sys = Scenario.sampled scn in
    let sim = Scenario.sim scn controller in
    let spec = Scenario.spec scn in
    let avoid = Scenario.avoid_total scn in
    let oracle =
      match cert_violation with
      | Some _ as v -> v
      | None -> (
        match verdict with
        | Verifier.Reach_avoid ->
          (* every rollout must be safe and goal-reaching, and dedicated
             falsification must come up empty-handed *)
          let streams = Rng.split_n rng rollouts in
          let bad =
            Array.find_opt
              (fun r ->
                let x0 = Box.sample r spec.Spec.x0 in
                let ro = Evaluate.rollout ~avoid ~sys ~controller:sim ~spec x0 in
                not (ro.Evaluate.safe && ro.Evaluate.reached))
              streams
          in
          if bad <> None then
            Some "oracle: rollout violates a verified Reach_avoid"
          else begin
            match
              Falsifier.search ~attempts:20 ~avoid ~rng ~sys ~controller:sim
                ~spec ~property:Falsifier.Safety ()
            with
            | Some _ -> Some "oracle: falsifier beat a verified Reach_avoid"
            | None -> (
              match
                Falsifier.search ~attempts:20 ~avoid ~rng ~sys ~controller:sim
                  ~spec ~property:Falsifier.Goal_reaching ()
              with
              | Some _ ->
                Some "oracle: goal falsified under a verified Reach_avoid"
              | None -> None)
          end
        | Verifier.Unsafe ->
          (* certainly-unsafe means a whole segment enclosure sits inside
             an avoid box: every concrete trajectory must violate safety *)
          let streams = Rng.split_n rng rollouts in
          let safe_one =
            Array.find_opt
              (fun r ->
                let x0 = Box.sample r spec.Spec.x0 in
                (Evaluate.rollout ~avoid ~sys ~controller:sim ~spec x0)
                  .Evaluate.safe)
              streams
          in
          if safe_one <> None then
            Some "oracle: safe rollout under a certainly-Unsafe verdict"
          else None
        | Verifier.Unknown -> None)
    in
    { verdict; rung; cert; oracle }

(* ------------------------------------------------------------------ *)
(* Shrinking: greedily simplify while the disagreement persists. Each
   probe re-runs the full pipeline with a fresh rng of the given seed, so
   shrinking is deterministic. *)

let still_violates ?budget ~rollouts ~probe_seed scn =
  (examine ?budget ~rollouts ~rng:(Rng.create probe_seed) scn).oracle <> None

(* Rounding_flow allow: shrinking is a search heuristic — each candidate
   box is only reported after the oracle re-confirms the failure on it. *)
let shrink_candidates (scn : Scenario.t) =
  let remake ?steps ?init ?avoid ?params ?f () =
    try
      Some
        (Scenario.make ~name:scn.name ~dim:scn.dim ~m:scn.m ~delta:scn.delta
           ~steps:(Option.value steps ~default:scn.steps)
           ~f:(Option.value f ~default:scn.f)
           ~init:(Option.value init ~default:scn.init)
           ~goal:scn.goal
           ~avoid:(Option.value avoid ~default:scn.avoid)
           ~params:(Option.value params ~default:scn.params)
           ~controller:scn.controller ~method_:scn.method_ ())
    with Failure _ -> None
  in
  let fewer_steps =
    if scn.steps > 1 then [ remake ~steps:(scn.steps / 2) () ] else []
  in
  let fewer_avoid =
    List.mapi
      (fun i _ ->
        remake ~avoid:(List.filteri (fun j _ -> j <> i) scn.avoid) ())
      scn.avoid
  in
  let frozen_params =
    if Array.length scn.params = 0 then []
    else begin
      (* freeze every uncertain parameter to its midpoint constant *)
      let mid = Array.map I.mid scn.params in
      let f =
        Array.map
          (Scenario.substitute
             ~var:(fun k ->
               if k >= scn.dim then Expr.const mid.(k - scn.dim)
               else Expr.var k)
             ~input:Expr.input)
          scn.f
      in
      (* the affine rows lose their (zero) parameter columns *)
      let controller_ok =
        match scn.controller with
        | Scenario.Affine rows ->
          Array.for_all
            (fun row ->
              Array.for_all
                (fun k -> row.(k) = 0.0)
                (Array.init (Array.length scn.params) (fun i -> scn.dim + i)))
            rows
        | Scenario.Net _ -> false
      in
      if not controller_ok then []
      else
        let drop_cols row =
          Array.append
            (Array.sub row 0 scn.dim)
            [| row.(Array.length row - 1) |]
        in
        let controller =
          match scn.controller with
          | Scenario.Affine rows -> Scenario.Affine (Array.map drop_cols rows)
          | Scenario.Net _ -> assert false
        in
        [
          (try
             Some
               (Scenario.make ~name:scn.name ~dim:scn.dim ~m:scn.m
                  ~delta:scn.delta ~steps:scn.steps ~f ~init:scn.init
                  ~goal:scn.goal ~avoid:scn.avoid ~params:[||] ~controller
                  ~method_:scn.method_ ())
           with Failure _ -> None);
        ]
    end
  in
  let tighter_init =
    let c = Box.center scn.init and r = Box.radii scn.init in
    if Array.exists (fun x -> x > 1e-6) r then
      [
        remake
          ~init:
            (Box.make
               ~lo:(Array.mapi (fun i ci -> ci -. (r.(i) /. 2.0)) c)
               ~hi:(Array.mapi (fun i ci -> ci +. (r.(i) /. 2.0)) c))
          ();
      ]
    else []
  in
  List.filter_map Fun.id (fewer_steps @ fewer_avoid @ frozen_params @ tighter_init)

let shrink ?budget ?(rollouts = 50) ~probe_seed scn =
  let rec loop scn fuel =
    if fuel = 0 then scn
    else
      match
        List.find_opt
          (still_violates ?budget ~rollouts ~probe_seed)
          (shrink_candidates scn)
      with
      | Some smaller -> loop smaller (fuel - 1)
      | None -> scn
  in
  loop scn 32

(* ------------------------------------------------------------------ *)
(* The campaign *)

type record = {
  index : int;
  name : string;
  dim : int;
  n_params : int;
  n_avoid : int;
  steps : int;
  verdict : string;
  rung : string option;
  cert : string;
  oracle : string;
  violation : bool;
  latency_ms : float;
}

type reproducer = { rep_index : int; reason : string; dsl : string }

type result = {
  seed : int;
  count : int;
  records : record array;
  reproducers : reproducer list;
}

(* Everything the run asserts about, minus wall-clock time: equal keys at
   different domain counts certify deterministic replay. *)
let determinism_key r =
  Fmt.str "%d|%s|%d|%d|%d|%d|%s|%s|%s|%s|%b" r.index r.name r.dim r.n_params
    r.n_avoid r.steps r.verdict
    (Option.value r.rung ~default:"-")
    r.cert r.oracle r.violation

let run_one ?budget ?(rollouts = 50) ~seed ~rng index =
  let t0 = Unix.gettimeofday () in
  let scn = generate rng index in
  let res = examine ?budget ~rollouts ~rng scn in
  let reproducer =
    match res.oracle with
    | None -> None
    | Some reason ->
      let probe_seed = seed + (7919 * (index + 1)) in
      let minimal = shrink ?budget ~rollouts ~probe_seed scn in
      Some { rep_index = index; reason; dsl = Scenario.to_string minimal }
  in
  let latency_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
  ( {
      index;
      name = scn.Scenario.name;
      dim = scn.Scenario.dim;
      n_params = Array.length scn.Scenario.params;
      n_avoid = List.length scn.Scenario.avoid;
      steps = scn.Scenario.steps;
      verdict = Verifier.verdict_to_string res.verdict;
      rung = res.rung;
      cert = res.cert;
      oracle = Option.value res.oracle ~default:"ok";
      violation = res.oracle <> None;
      latency_ms;
    },
    reproducer )

let run ?budget ?pool ?(rollouts = 50) ?(count = 200) ~seed () =
  if count < 1 then invalid_arg "Scn_fuzz.run: need at least one scenario";
  (* one child stream per scenario, split before any work: scenario i is
     a pure function of (seed, i), so the campaign shards across domains
     without changing a single bit of any record *)
  let streams = Rng.split_n (Rng.create seed) count in
  let one i = run_one ?budget ~rollouts ~seed ~rng:streams.(i) i in
  let indices = Array.init count (fun i -> i) in
  let outcomes =
    match pool with
    | Some pool when Pool.domains pool > 1 && count > 1 ->
      Pool.map pool one indices
    | _ -> Array.map one indices
  in
  {
    seed;
    count;
    records = Array.map fst outcomes;
    reproducers =
      Array.to_list outcomes |> List.filter_map (fun (_, r) -> r);
  }

let violations result =
  Array.fold_left (fun n r -> if r.violation then n + 1 else n) 0 result.records

(* ------------------------------------------------------------------ *)
(* Report serialization (the SCENARIOS_report.json payload) *)

let json_escape s =
  String.concat ""
    (List.map
       (function '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let report_json ?(domains = 1) result =
  let b = Buffer.create 4096 in
  Printf.bprintf b
    "{\n  \"seed\": %d,\n  \"count\": %d,\n  \"domains\": %d,\n  \"violations\": %d,\n  \"records\": [\n"
    result.seed result.count domains (violations result);
  Array.iteri
    (fun i r ->
      Printf.bprintf b
        "    {\"index\": %d, \"name\": \"%s\", \"dim\": %d, \"params\": %d, \
         \"avoid\": %d, \"steps\": %d, \"verdict\": \"%s\", \"rung\": \"%s\", \
         \"cert\": \"%s\", \"oracle\": \"%s\", \"violation\": %b, \
         \"latency_ms\": %.3f}%s\n"
        r.index (json_escape r.name) r.dim r.n_params r.n_avoid r.steps
        (json_escape r.verdict)
        (json_escape (Option.value r.rung ~default:"-"))
        (json_escape r.cert) (json_escape r.oracle) r.violation r.latency_ms
        (if i = Array.length result.records - 1 then "" else ","))
    result.records;
  Buffer.add_string b "  ],\n  \"reproducers\": [\n";
  List.iteri
    (fun i rep ->
      Printf.bprintf b
        "    {\"index\": %d, \"reason\": \"%s\", \"dsl\": \"%s\"}%s\n"
        rep.rep_index (json_escape rep.reason) (json_escape rep.dsl)
        (if i = List.length result.reproducers - 1 then "" else ","))
    result.reproducers;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b
