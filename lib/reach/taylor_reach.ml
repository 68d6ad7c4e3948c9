(* Validated Taylor-method integration of one sampling period: the
   flowpipe construction that Flow*, ReachNN and POLAR all share once the
   controller has been abstracted into a Taylor model.

   For x' = f(x, u) with u fixed over the period, the solution satisfies

     x(delta) = sum_{j=0}^{k} delta^j/j! (L_f^j id)(x(0))
                + delta^{k+1}/(k+1)! (L_f^{k+1} id)(x(xi)),  xi in [0,delta]

   where L_f is the Lie derivative. We compute the L_f^j symbolically (the
   dynamics is an expression AST), evaluate them on the Taylor models of
   the current state, and bound the Lagrange term over an a-priori
   enclosure found by interval Picard iteration. Everything is sound. *)

module I = Dwv_interval.Interval
module Box = Dwv_interval.Box
module Expr = Dwv_expr.Expr
module Tm = Dwv_taylor.Taylor_model
module Tm_vec = Dwv_taylor.Tm_vec

(* lie.(j).(i) = j-th Lie derivative of the i-th coordinate function,
   j = 0 .. order+1. *)
type lie_table = Expr.t array array

let build_lie_table ~f ~order =
  let n = Array.length f in
  let table = Array.make (order + 2) [||] in
  table.(0) <- Array.init n Expr.var;
  for j = 1 to order + 1 do
    table.(j) <- Array.map (Expr.lie_derivative ~f) table.(j - 1)
  done;
  table

(* A Lie table is a pure function of (f, order) but costly to build —
   repeated symbolic differentiation — and the verifier asks for one on
   every call. Hash-consing gives each dynamics expression a
   process-global id, so (ids of f, order) is a complete cache key.

   The registry is publish-once and shared by every domain
   ([Dwv_util.Publish_once]): a run has a handful of distinct dynamics,
   and a per-domain (DLS) cache would rebuild each of them once per
   worker — symbolic differentiation repeated [domains] times at every
   pool start-up. Two domains building the same table concurrently
   both get the published copy (the tables are structurally identical
   either way). *)
let lie_registry : (int array * int, lie_table) Dwv_util.Publish_once.t =
  Dwv_util.Publish_once.create ()

let ph_lie_build = Dwv_util.Phases.phase "lie_table_build"

(* Registry introspection for the publish-once tests. NOT a Counters
   counter: builds are once-per-process events, so a per-run counter
   snapshot would differ between the first and every later run of the
   same workload, breaking the bench's snapshot-equality gate. *)
let lie_registry_size () = Dwv_util.Publish_once.size lie_registry

let lie_table ~f ~order =
  Dwv_util.Publish_once.find_or_publish lie_registry (Array.map Expr.id f, order) (fun () ->
      Dwv_util.Phases.time ph_lie_build (fun () -> build_lie_table ~f ~order))

let factorial k =
  let acc = ref 1.0 in
  for i = 2 to k do
    acc := !acc *. float_of_int i
  done;
  !acc

let c_warm_hits = Dwv_util.Counters.counter "warm_hits"
let c_warm_poisoned = Dwv_util.Counters.counter "warm_poisoned"

(* A-priori enclosure of the flow over [0, delta] by interval Picard
   iteration with geometric inflation; [None] on failure.

   [hint] is a warm start: an a-priori enclosure certified for a nearby
   problem (the same step of the previous gradient probe or the parent
   frontier cell). Seeding the iteration with [hull x_box hint] usually
   lands inside the contraction region immediately, replacing the
   geometric-inflation search with a single subset check. Soundness
   never depends on the hint — whatever box the iteration converges to
   is certified by the same [Box.subset cand e] test as a cold start,
   and a useless or poisoned hint merely fails to converge, in which
   case we fall back to the cold iteration and count the waste. *)
let apriori_enclosure ?hint ~f ~x_box ~u_box ~delta () =
  let candidate_of e =
    let fr = Expr.ieval_vec f ~x:e ~u:u_box in
    (* The candidate is what the subset test certifies, so it must be an
       outward rounding of the true Picard image: widen past the
       round-to-nearest of the additions. *)
    Array.init (Box.dim x_box) (fun i ->
        I.widen
          (I.make
             (I.lo x_box.(i) +. Float.min 0.0 (delta *. I.lo fr.(i)))
             (I.hi x_box.(i) +. Float.max 0.0 (delta *. I.hi fr.(i)))))
  in
  let rec refine e iter =
    if iter > 30 then None
    else begin
      match candidate_of e with
      | cand when Box.subset cand e -> Some cand
      | cand -> refine (Box.scale_about_center 1.3 (Box.bloat 1e-9 (Box.hull cand e))) (iter + 1)
      | exception Failure _ -> None (* interval blow-up, e.g. division by a zero-straddling range *)
    end
  in
  let cold () = refine (Box.bloat 1e-6 x_box) 0 in
  match hint with
  | Some _ when Dwv_robust.Fault.current () = Some Dwv_robust.Fault.Warm_poison ->
    (* fault injection: the armed warm-poison fault spoils every hint at
       the gate — the call must degrade to the cold inflation search and
       produce the bit-identical cold enclosure (the counter lets tests
       assert the degradation actually happened) *)
    Dwv_util.Counters.incr c_warm_poisoned;
    cold ()
  | Some h when Box.dim h = Box.dim x_box -> begin
      (* three iterations around the hint, then give up on warmth: a
         hint that needs the full inflation search is not a warm start,
         and running it to exhaustion would double the cost of every
         poisoned hint (iter counts up to the shared 30 cap) *)
      match refine (Box.hull (Box.bloat 1e-6 x_box) h) 28 with
      | Some _ as e ->
        Dwv_util.Counters.incr c_warm_hits;
        e
      | None ->
        Dwv_util.Counters.incr c_warm_poisoned;
        cold ()
    end
  | _ -> cold ()

type step_result = { state : Tm_vec.t; segment : Box.t; enclosure : Box.t }

let c_taylor_steps = Dwv_util.Counters.counter "taylor_steps"
let ph_taylor_step = Dwv_util.Phases.phase "taylor_step"
let ph_picard = Dwv_util.Phases.phase "taylor_step/picard"
let ph_coeffs = Dwv_util.Phases.phase "taylor_step/coeffs"
let ph_range = Dwv_util.Phases.phase "taylor_step/range"

(* Index-ordered parallel map over dimensions. The pool path and the
   sequential path compute identical per-index values (each task is a
   pure function of its index), so results are bit-identical at any
   domain count; Pool.mapi additionally degrades to the sequential loop
   when this step already runs inside an outer pool task. *)
let par_init pool n f =
  match pool with
  | Some p when n > 1 -> Dwv_parallel.Pool.mapi p (fun i () -> f i) (Array.make n ())
  | _ -> Array.init n f

(* One sampling period. [x] are the Taylor models of the state in the
   initial-set variables, [u] the (already abstracted) control models.
   Total: a Picard-iteration failure (the flowpipe's "NAN" divergence
   mode) and a blown deadline come back as structured errors.

   [hint] warm-starts the a-priori enclosure (see {!apriori_enclosure});
   [pool] splits the per-dimension work — Taylor-coefficient columns,
   then state/range recombination — across domains, recombined by index
   so the result is bit-identical to the sequential step. *)
let step ?budget ?pool ?hint ~f ~lie ~delta (x : Tm_vec.t) (u : Tm_vec.t) =
  match
    match budget with
    | None -> Ok ()
    | Some b -> Dwv_robust.Budget.spend_steps ~where:"Taylor_reach.step" b
  with
  | Error e -> Error e
  | Ok () ->
  Dwv_util.Phases.time ph_taylor_step @@ fun () ->
  Dwv_util.Counters.incr c_taylor_steps;
  let order = Tm.order x.(0) in
  let n = Tm_vec.dim x in
  let x_box = Tm_vec.bound_box x in
  let u_box = Tm_vec.bound_box u in
  match
    Dwv_util.Phases.time ph_picard (fun () ->
        apriori_enclosure ?hint ~f ~x_box ~u_box ~delta ())
  with
  | None ->
    Error
      (Dwv_robust.Dwv_error.divergence ~where:"Taylor_reach.apriori_enclosure" ())
  | Some enclosure ->
    (* Taylor coefficients as TMs: c_j = (L^j id)(x) evaluated on models.
       Sequentially, one memo table shares work across the (heavily
       overlapping) Lie derivative expressions. Under a pool the grid is
       split by dimension COLUMN — column i is the L^j chain of
       coordinate i, which is where the overlap lives — with a memo per
       column; of_expr is deterministic for any memo contents, so the
       two schedules agree bitwise. *)
    let coeffs =
      Dwv_util.Phases.time ph_coeffs (fun () ->
          match pool with
          | Some _ when n > 1 ->
            let cols =
              par_init pool n (fun i ->
                  let memo = Tm.create_memo () in
                  Array.init (order + 1) (fun j ->
                      Tm.of_expr ~memo ~x ~u lie.(j).(i)))
            in
            Array.init (order + 1) (fun j ->
                Array.init n (fun i -> cols.(i).(j)))
          | _ ->
            let memo = Tm.create_memo () in
            Array.init (order + 1) (fun j ->
                Array.map (fun e -> Tm.of_expr ~memo ~x ~u e) lie.(j)))
    in
    (* Lagrange remainder over the enclosure *)
    let lagrange =
      let lf = Expr.ieval_vec lie.(order + 1) ~x:enclosure ~u:u_box in
      let scale = delta ** float_of_int (order + 1) /. factorial (order + 1) in
      Array.map (I.scale scale) lf
    in
    Dwv_util.Phases.time ph_range @@ fun () ->
    (* loop-invariant scalars, hoisted out of the per-dimension loops:
       delta^j/j! for the state sum, [0,delta]^j/j! for the range sum *)
    let t_iv = I.make 0.0 delta in
    let t_scale = Array.init (order + 1) (fun j -> (delta ** float_of_int j) /. factorial j) in
    let t_pow = Array.init (order + 2) (fun j -> I.scale (1.0 /. factorial j) (I.pow_int t_iv j)) in
    let rem_t = t_pow.(order + 1) in
    (* per-dimension recombination: state at t = delta (swept to keep
       the polynomials sparse), range of the Taylor polynomial with t
       over [0, delta], meet with the Picard enclosure *)
    let per_dim =
      par_init pool n (fun i ->
          let acc = ref coeffs.(0).(i) in
          for j = 1 to order do
            acc := Tm.add !acc (Tm.scale t_scale.(j) coeffs.(j).(i))
          done;
          let state_i = Tm.sweep (Tm.add_remainder lagrange.(i) !acc) in
          let racc = ref (Tm.bound coeffs.(0).(i)) in
          for j = 1 to order do
            racc := I.add !racc (I.mul t_pow.(j) (Tm.bound coeffs.(j).(i)))
          done;
          let lf_i = Expr.ieval lie.(order + 1).(i) ~x:enclosure ~u:u_box in
          let poly_range_i = I.add !racc (I.mul rem_t lf_i) in
          let segment_i =
            match I.intersect poly_range_i enclosure.(i) with
            | Some iv -> iv
            | None ->
              (* both are sound enclosures of a nonempty set, so they must
                 intersect; an empty meet means rounding pathology - fall
                 back to the Picard enclosure *)
              enclosure.(i)
          in
          (state_i, segment_i))
    in
    let state = Array.map fst per_dim in
    let segment = Array.map snd per_dim in
    Ok { state; segment; enclosure }
