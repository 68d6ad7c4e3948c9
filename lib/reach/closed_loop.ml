(* The sampled-data closed loop, written once. Each sampling period a
   controller abstraction encloses the control over the current state
   enclosure, the control is held constant through the period (zero-order
   hold, exactly as the simulator executes it), and a validated kernel
   carries the state one period ahead. The instances (POLAR / Bernstein /
   interval-bound-propagation NN control, affine control; Taylor-model or
   interval kernel) differ only in the state representation and the
   period's step function. Everything else lives here - step numbering,
   box accumulation, the non-finite and blow-up checks, failure
   annotation and exception capture - so every backend fails the same
   way and a truncated pipe always ends at its last sound box. *)

module Box = Dwv_interval.Box
module Dwv_error = Dwv_robust.Dwv_error

type 'x t = {
  backend : string;
  where : string;
  init : 'x;
  bound : 'x -> Box.t;
  step : int -> 'x -> ('x * Box.t, Dwv_error.t) result;
}

let run ?(blowup_width = 1e4) ~delta ~steps ~x0 loop =
  let backend = loop.backend and where = loop.where in
  let step_boxes = ref [ x0 ] and segment_boxes = ref [] in
  let error = ref None in
  let fail e =
    error := Some e;
    raise Exit
  in
  let x = ref loop.init in
  (* Interval blow-up inside a Taylor-model operation (overflow to
     infinity, division by a zero-straddling range, ...) is the "NAN"
     failure mode of Fig. 8: record it as a structured failure. *)
  (try
     for i = 1 to steps do
       match loop.step i !x with
       | exception ((Invalid_argument _ | Failure _) as exn) ->
         fail (Dwv_error.of_exn ~backend ~step:i ~where exn)
       | Error e ->
         (* the kernel's own step (e.g. a budget check inside a
            sub-step) wins over the period index *)
         fail
           {
             e with
             Dwv_error.backend = Some backend;
             step = (match e.Dwv_error.step with Some _ as s -> s | None -> Some i);
           }
       | Ok (state, segment) ->
         let next = loop.bound state in
         if not (Box.is_finite next && Box.is_finite segment) then
           fail (Dwv_error.non_finite ~backend ~step:i ~where "reach box");
         if Box.max_width next > blowup_width || Box.max_width segment > blowup_width
         then
           fail
             (Dwv_error.divergence
                ~width:(Float.max (Box.max_width next) (Box.max_width segment))
                ~backend ~step:i ~where ());
         step_boxes := next :: !step_boxes;
         segment_boxes := segment :: !segment_boxes;
         x := state
     done
   with Exit -> ());
  {
    Flowpipe.pipe =
      Flowpipe.make
        ~step_boxes:(Array.of_list (List.rev !step_boxes))
        ~segment_boxes:(Array.of_list (List.rev !segment_boxes))
        ~delta ~diverged:(Option.is_some !error);
    error = !error;
  }

let taylor_kernel ?budget ?pool ?warm ?warm_rec ~substeps ~f ~lie ~delta () =
  let sub_delta = delta /. float_of_int substeps in
  (* sub-steps are numbered across the whole call, so donor and
     recipient traces line up only at equal [substeps] *)
  let sub_index = ref 0 in
  let hull_into acc b = Some (match acc with None -> b | Some acc -> Box.hull acc b) in
  fun x u ->
    let rec sub s state segment picard =
      if s > substeps then Ok (state, Option.get segment, Option.get picard)
      else
        let hint = Option.bind warm (fun w -> Warm.hint w !sub_index) in
        match Taylor_reach.step ?budget ?pool ?hint ~f ~lie ~delta:sub_delta state u with
        | Error e -> Error e
        | Ok { Taylor_reach.state; segment = seg; enclosure } ->
          incr sub_index;
          Option.iter (fun r -> Warm.record r enclosure) warm_rec;
          sub (s + 1) state (hull_into segment seg) (hull_into picard enclosure)
    in
    sub 1 x None None
