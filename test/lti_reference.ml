(* Reference LTI flowpipe for the bit-identity property in test_reach.ml:
   the Box-API body that Linear_reach.flowpipe had before it became a
   kernel over flat float arrays, kept whole (its own zonotope included)
   so the property compares the kernel with code that shares none of
   its routines. Every result bit, the divergence flag and every
   exception must come out the same. *)

module Mat = Dwv_la.Mat
module I = Dwv_interval.Interval
module Box = Dwv_interval.Box
module Flowpipe = Dwv_reach.Flowpipe

type zonotope = { center : float array; generators : Mat.t }

let of_box (box : Box.t) =
  let n = Box.dim box in
  let radii = Box.radii box in
  { center = Box.center box;
    generators = Mat.init n n (fun i j -> if i = j then radii.(i) else 0.0) }

let to_box z =
  let n = Array.length z.center and m = snd (Mat.dims z.generators) in
  Array.init n (fun i ->
      let r = ref 0.0 in
      for j = 0 to m - 1 do
        r := !r +. Float.abs (Mat.get z.generators i j)
      done;
      I.widen (I.make (z.center.(i) -. !r) (z.center.(i) +. !r)))

let linear_map a z =
  { center = Mat.matvec a z.center; generators = Mat.matmul a z.generators }

let discretize ~delta ~a ~b =
  (Mat.expm (Mat.scale delta a), Mat.matmul (Mat.integral_expm a delta) b)

let gain_range ~gain z = to_box (linear_map gain z)

let field_range ~a ~b ~(x : Box.t) ~(u : Box.t) =
  let n, _ = Mat.dims a in
  let _, m = Mat.dims b in
  Array.init n (fun i ->
      let acc = ref I.zero in
      for j = 0 to Box.dim x - 1 do
        acc := I.add !acc (I.scale (Mat.get a i j) x.(j))
      done;
      for k = 0 to m - 1 do
        acc := I.add !acc (I.scale (Mat.get b i k) u.(k))
      done;
      !acc)

let intersample_enclosure ~a ~b ~x_box ~x_next_box ~u_box ~delta =
  let candidate_of e =
    let fr = field_range ~a ~b ~x:e ~u:u_box in
    Array.init (Box.dim x_box) (fun i ->
        I.widen
          (I.make
             (I.lo x_box.(i) +. Float.min 0.0 (delta *. I.lo fr.(i)))
             (I.hi x_box.(i) +. Float.max 0.0 (delta *. I.hi fr.(i)))))
  in
  let rec refine e iter =
    if iter > 30 then None
    else begin
      let cand = candidate_of e in
      if Box.subset cand e then Some cand
      else refine (Box.scale_about_center 1.2 (Box.bloat 1e-9 (Box.hull cand e))) (iter + 1)
    end
  in
  refine (Box.bloat 1e-9 (Box.hull x_box x_next_box)) 0

let box_is_sane ~blowup_width b =
  Array.for_all (fun iv -> Float.is_finite (I.lo iv) && Float.is_finite (I.hi iv)) b
  && Box.max_width b <= blowup_width

let flowpipe ?(blowup_width = 1e7) ~a ~b ~gain ~x0 ~delta ~steps () =
  let ad, bd = discretize ~delta ~a ~b in
  let acl = Mat.add ad (Mat.matmul bd gain) in
  let step_boxes = ref [] and segment_boxes = ref [] in
  let diverged = ref false in
  let z = ref (of_box x0) in
  step_boxes := to_box !z :: !step_boxes;
  (try
     for _ = 1 to steps do
       let x_box = to_box !z in
       let u_box = gain_range ~gain !z in
       let z_next = linear_map acl !z in
       let x_next_box = to_box z_next in
       if not (box_is_sane ~blowup_width x_next_box) then begin
         diverged := true;
         raise Exit
       end;
       (match intersample_enclosure ~a ~b ~x_box ~x_next_box ~u_box ~delta with
       | Some seg -> segment_boxes := seg :: !segment_boxes
       | None ->
         diverged := true;
         raise Exit);
       z := z_next;
       step_boxes := x_next_box :: !step_boxes
     done
   with Exit -> ());
  Flowpipe.make
    ~step_boxes:(Array.of_list (List.rev !step_boxes))
    ~segment_boxes:(Array.of_list (List.rev !segment_boxes))
    ~delta ~diverged:!diverged
