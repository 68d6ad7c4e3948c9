(* Flowpipes: the output of every verifier.

   A flowpipe over [steps] sampling periods records
     - [step_boxes.(i)]    : enclosure of the reach set at t = i*delta,
     - [segment_boxes.(i)] : enclosure of the reach set over the whole
                             interval [i*delta, (i+1)*delta].
   Safety is checked against segment boxes (continuous-time property);
   goal-reaching against step boxes (containment at some sample instant,
   as in Algorithm 2). [diverged] marks verification blow-up (the "NAN
   after 3 steps" failure mode of Fig. 8). *)

module Box = Dwv_interval.Box

type t = {
  step_boxes : Box.t array;      (* length steps+1 when complete *)
  segment_boxes : Box.t array;   (* length steps when complete *)
  delta : float;
  diverged : bool;
}

let make ~step_boxes ~segment_boxes ~delta ~diverged =
  if delta <= 0.0 then invalid_arg "Flowpipe.make: delta must be positive";
  if Array.length step_boxes = 0 then invalid_arg "Flowpipe.make: no step boxes";
  { step_boxes; segment_boxes; delta; diverged }

let steps t = Array.length t.segment_boxes

let delta t = t.delta

let diverged t = t.diverged

let initial_box t = t.step_boxes.(0)

let final_box t = t.step_boxes.(Array.length t.step_boxes - 1)

let step_boxes t = Array.to_list t.step_boxes

let segment_boxes t = Array.to_list t.segment_boxes

(* All boxes relevant for continuous-time safety: the segments (which by
   construction cover the step instants too). *)
let safety_boxes t = if Array.length t.segment_boxes = 0 then t.step_boxes else t.segment_boxes

let all_boxes t = Array.to_list (safety_boxes t)

(* The same walks over the arrays, without the list copies: [find_step]
   tests step boxes from index [from] up, [exists_box]/[for_all_boxes]
   the boxes of [all_boxes] in its order. *)
let find_step ~from p t =
  let rec go i =
    if i >= Array.length t.step_boxes then None
    else if p t.step_boxes.(i) then Some i
    else go (i + 1)
  in
  go from

let exists_box p t = Array.exists p (safety_boxes t)

let for_all_boxes p t = Array.for_all p (safety_boxes t)

(* Width of the widest dimension of the final box: a cheap tightness
   proxy used by the tightness ablation. *)
let final_width t = Box.max_width (final_box t)

(* Project every box onto the given dimensions. Used to map flowpipes of
   constant-augmented systems (e.g. the affine ACC plant) back into the
   coordinates of the reach-avoid specification. *)
let project ~dims t =
  let proj b = Array.map (fun i -> Box.get b i) dims in
  { t with
    step_boxes = Array.map proj t.step_boxes;
    segment_boxes = Array.map proj t.segment_boxes }

let pp ppf t =
  Fmt.pf ppf "flowpipe(%d steps, delta=%g%s, final=%a)" (steps t) t.delta
    (if t.diverged then ", DIVERGED" else "")
    Box.pp (final_box t)

(* Total-verification outcome: a flowpipe is always produced (possibly a
   truncated, diverged one) and the structured cause rides along when the
   analysis failed. *)
type outcome = { pipe : t; error : Dwv_robust.Dwv_error.t option }
