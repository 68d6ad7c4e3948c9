(* Tests for dwv_geometry: zonotope exactness under linear maps, interval
   hulls, order reduction soundness, flowpipe set operations. *)

module Zonotope = Dwv_geometry.Zonotope
module Setops = Dwv_geometry.Setops
module Mat = Dwv_la.Mat
module Box = Dwv_interval.Box
module I = Dwv_interval.Interval

let check_float = Alcotest.(check (float 1e-9))

let box2 lo0 hi0 lo1 hi1 = Box.make ~lo:[| lo0; lo1 |] ~hi:[| hi0; hi1 |]

let test_of_box_roundtrip () =
  let b = box2 (-1.0) 2.0 3.0 7.0 in
  let z = Zonotope.of_box b in
  Alcotest.(check bool) "roundtrip" true (Box.equal ~eps:1e-12 (Zonotope.to_box z) b)

let test_linear_map_exact_rotation () =
  (* rotating a centered square and hulling: the hull of the rotated
     square by 90 degrees equals the original *)
  let b = box2 (-1.0) 1.0 (-2.0) 2.0 in
  let rot = Mat.of_rows [ [| 0.0; -1.0 |]; [| 1.0; 0.0 |] ] in
  let z = Zonotope.linear_map rot (Zonotope.of_box b) in
  Alcotest.(check bool) "rotated box" true
    (Box.equal ~eps:1e-12 (Zonotope.to_box z) (box2 (-2.0) 2.0 (-1.0) 1.0))

let test_linear_map_no_wrapping () =
  (* the classic wrapping-effect test: iterating a 45-degree rotation on a
     zonotope does NOT grow the set (whereas box iteration would) *)
  let c = cos (Float.pi /. 4.0) and s = sin (Float.pi /. 4.0) in
  let rot = Mat.of_rows [ [| c; -.s |]; [| s; c |] ] in
  let z = ref (Zonotope.of_box (box2 (-1.0) 1.0 (-1.0) 1.0)) in
  for _ = 1 to 8 do
    z := Zonotope.linear_map rot !z
  done;
  (* after 8 eighth-turns we are back to the original square *)
  Alcotest.(check bool) "area preserved" true
    (Box.equal ~eps:1e-9 (Zonotope.to_box !z) (box2 (-1.0) 1.0 (-1.0) 1.0))

let test_minkowski_sum () =
  let a = Zonotope.of_box (box2 0.0 2.0 0.0 2.0) in
  let b = Zonotope.of_box (box2 (-1.0) 1.0 (-3.0) 3.0) in
  let s = Zonotope.minkowski_sum a b in
  Alcotest.(check int) "generators concatenated" 4 (Zonotope.num_generators s);
  Alcotest.(check bool) "hull is the sum" true
    (Box.equal ~eps:1e-12 (Zonotope.to_box s) (box2 (-1.0) 3.0 (-3.0) 5.0))

let test_support_function () =
  let z = Zonotope.of_box (box2 (-1.0) 1.0 (-1.0) 1.0) in
  check_float "axis" 1.0 (Zonotope.support z [| 1.0; 0.0 |]);
  check_float "diagonal" 2.0 (Zonotope.support z [| 1.0; 1.0 |]);
  let shifted = Zonotope.translate [| 5.0; 0.0 |] z in
  check_float "translated" 6.0 (Zonotope.support shifted [| 1.0; 0.0 |])

let test_reduce_order_sound () =
  (* random-ish generator matrix, reduce to 4 generators; interval hull of
     the reduction must contain the hull of the original *)
  let g =
    Mat.of_rows
      [ [| 1.0; 0.2; -0.3; 0.05; 0.4; -0.01 |]; [| 0.0; 0.7; 0.2; -0.1; 0.02; 0.3 |] ]
  in
  let z = Zonotope.make ~center:[| 1.0; -1.0 |] ~generators:g in
  let reduced = Zonotope.reduce_order ~max_generators:4 z in
  Alcotest.(check bool) "fewer generators" true (Zonotope.num_generators reduced <= 4);
  Alcotest.(check bool) "sound enclosure" true
    (Box.subset (Zonotope.to_box z) (Box.bloat 1e-12 (Zonotope.to_box reduced)))

let test_point_and_sample_inside_hull () =
  let g = Mat.of_rows [ [| 1.0; 0.5 |]; [| 0.0; 0.25 |] ] in
  let z = Zonotope.make ~center:[| 0.0; 0.0 |] ~generators:g in
  let hull = Zonotope.to_box z in
  let rng = Dwv_util.Rng.create 12 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "sample in hull" true (Box.contains hull (Zonotope.sample rng z))
  done;
  Alcotest.(check (array (float 1e-12))) "corner point" [| 1.5; 0.25 |]
    (Zonotope.point z [| 1.0; 1.0 |])

let prop_support_dominates_samples =
  QCheck.Test.make ~name:"support function dominates samples" ~count:200
    QCheck.(pair (int_range 0 10_000) (pair (float_range (-1.0) 1.0) (float_range (-1.0) 1.0)))
    (fun (seed, (dx, dy)) ->
      QCheck.assume (Float.abs dx +. Float.abs dy > 0.1);
      let g = Mat.of_rows [ [| 0.8; -0.1; 0.3 |]; [| 0.2; 0.5; -0.4 |] ] in
      let z = Zonotope.make ~center:[| 0.5; -0.5 |] ~generators:g in
      let rng = Dwv_util.Rng.create seed in
      let p = Zonotope.sample rng z in
      let d = [| dx; dy |] in
      (p.(0) *. dx) +. (p.(1) *. dy) <= Zonotope.support z d +. 1e-9)

(* ---------------- Setops ---------------- *)

let segments = [ box2 0.0 1.0 0.0 1.0; box2 1.0 2.0 0.0 1.0; box2 2.0 3.0 1.0 2.0 ]

let test_any_intersects () =
  Alcotest.(check bool) "hit" true (Setops.any_intersects segments (box2 1.5 1.7 0.2 0.4));
  Alcotest.(check bool) "miss" false (Setops.any_intersects segments (box2 5.0 6.0 5.0 6.0))

let test_intersection_volumes () =
  (* target overlapping the first two segments by 0.25 each *)
  let target = box2 0.5 1.5 0.0 0.5 in
  check_float "sum" 0.5 (Setops.sum_intersection_volume segments target);
  check_float "max" 0.25 (Setops.max_intersection_volume segments target)

let test_min_sq_distance () =
  check_float "touching" 0.0 (Setops.min_sq_distance segments (box2 3.0 4.0 2.0 3.0));
  check_float "gap" 1.0 (Setops.min_sq_distance segments (box2 4.0 5.0 1.0 2.0))

let test_any_subset () =
  Alcotest.(check bool) "inside" true (Setops.any_subset segments (box2 (-1.0) 1.5 (-1.0) 1.5));
  Alcotest.(check bool) "not inside" false (Setops.any_subset segments (box2 0.1 0.9 0.1 0.9))

let test_hull_total_volume () =
  Alcotest.(check bool) "hull" true
    (Box.equal (Setops.hull segments) (box2 0.0 3.0 0.0 2.0));
  check_float "total volume" 3.0 (Setops.total_volume segments)

let test_empty_raises () =
  Alcotest.check_raises "empty" (Invalid_argument "Setops.min_sq_distance: empty flowpipe")
    (fun () -> ignore (Setops.min_sq_distance [] (box2 0.0 1.0 0.0 1.0)))

(* ---------------- halfspaces ---------------- *)

module Halfspace = Dwv_geometry.Halfspace

(* the ACC unsafe halfspace: s <= 120 *)
let acc_unsafe = Halfspace.make ~normal:[| 1.0; 0.0 |] ~offset:120.0

let test_halfspace_membership () =
  Alcotest.(check bool) "inside" true (Halfspace.contains acc_unsafe [| 119.0; 50.0 |]);
  Alcotest.(check bool) "outside" false (Halfspace.contains acc_unsafe [| 121.0; 50.0 |]);
  Alcotest.(check bool) "boundary" true (Halfspace.contains acc_unsafe [| 120.0; 0.0 |])

let test_halfspace_box_tests () =
  Alcotest.(check bool) "intersects" true
    (Halfspace.box_intersects acc_unsafe (box2 119.0 121.0 0.0 1.0));
  Alcotest.(check bool) "inside" true
    (Halfspace.box_inside acc_unsafe (box2 100.0 119.0 0.0 1.0));
  Alcotest.(check bool) "avoids" true
    (Halfspace.box_avoids acc_unsafe (box2 121.0 130.0 0.0 1.0));
  check_float "gap" 1.0 (Halfspace.box_gap acc_unsafe (box2 121.0 130.0 0.0 1.0))

let test_halfspace_zonotope_tests () =
  (* rotated zonotope centered at s = 122 with extent sqrt(2) along the
     diagonal: its minimum s coordinate is 122 - 1 = 121 > 120 *)
  let g = Mat.of_rows [ [| 1.0 |]; [| 1.0 |] ] in
  let z = Zonotope.make ~center:[| 122.0; 50.0 |] ~generators:g in
  Alcotest.(check bool) "clear" false (Halfspace.zonotope_intersects acc_unsafe z);
  (* center 119.5: s ranges over [118.5, 120.5] - meets the halfspace but
     pokes out of it *)
  let closer = Zonotope.translate [| -2.5; 0.0 |] z in
  Alcotest.(check bool) "touches" true (Halfspace.zonotope_intersects acc_unsafe closer);
  Alcotest.(check bool) "not inside" false (Halfspace.zonotope_inside acc_unsafe closer);
  let deep = Zonotope.translate [| -4.0; 0.0 |] z in
  Alcotest.(check bool) "inside" true (Halfspace.zonotope_inside acc_unsafe deep)

let test_halfspace_signed_distance () =
  let h = Halfspace.make ~normal:[| 3.0; 4.0 |] ~offset:0.0 in
  (* point (3,4): <n,x> = 25, |n| = 5 -> distance 5 *)
  check_float "normalized" 5.0 (Halfspace.signed_distance h [| 3.0; 4.0 |])

let test_halfspace_deep_box_substitution_sound () =
  (* the deep box used by the metrics must be contained in the true
     halfspace over the operating envelope *)
  let deep_box = box2 0.0 120.0 (-100.0) 200.0 in
  List.iter
    (fun p ->
      if Box.contains deep_box p then
        Alcotest.(check bool) "box point in halfspace" true (Halfspace.contains acc_unsafe p))
    [ [| 0.0; -100.0 |]; [| 120.0; 200.0 |]; [| 60.0; 50.0 |] ]

let prop_halfspace_box_tests_consistent =
  QCheck.Test.make ~name:"halfspace box tests partition correctly" ~count:300
    QCheck.(
      quad (float_range (-5.0) 5.0) (float_range 0.1 3.0) (float_range (-5.0) 5.0)
        (float_range 0.1 3.0))
    (fun (lo0, w0, lo1, w1) ->
      let b = box2 lo0 (lo0 +. w0) lo1 (lo1 +. w1) in
      let h = Halfspace.make ~normal:[| 1.0; -0.5 |] ~offset:0.7 in
      let inside = Halfspace.box_inside h b
      and avoids = Halfspace.box_avoids h b
      and meets = Halfspace.box_intersects h b in
      (* inside => meets; avoids => not meets; not both inside and avoids *)
      (not (inside && avoids)) && (not inside || meets) && (not avoids || not meets))

let suite =
  [
    Alcotest.test_case "of_box roundtrip" `Quick test_of_box_roundtrip;
    Alcotest.test_case "linear map rotation" `Quick test_linear_map_exact_rotation;
    Alcotest.test_case "no wrapping effect" `Quick test_linear_map_no_wrapping;
    Alcotest.test_case "minkowski sum" `Quick test_minkowski_sum;
    Alcotest.test_case "support function" `Quick test_support_function;
    Alcotest.test_case "order reduction sound" `Quick test_reduce_order_sound;
    Alcotest.test_case "points and samples" `Quick test_point_and_sample_inside_hull;
    QCheck_alcotest.to_alcotest prop_support_dominates_samples;
    Alcotest.test_case "setops any_intersects" `Quick test_any_intersects;
    Alcotest.test_case "setops volumes" `Quick test_intersection_volumes;
    Alcotest.test_case "setops min distance" `Quick test_min_sq_distance;
    Alcotest.test_case "setops any_subset" `Quick test_any_subset;
    Alcotest.test_case "setops hull/volume" `Quick test_hull_total_volume;
    Alcotest.test_case "setops empty raises" `Quick test_empty_raises;
    Alcotest.test_case "halfspace membership" `Quick test_halfspace_membership;
    Alcotest.test_case "halfspace box tests" `Quick test_halfspace_box_tests;
    Alcotest.test_case "halfspace zonotope tests" `Quick test_halfspace_zonotope_tests;
    Alcotest.test_case "halfspace signed distance" `Quick test_halfspace_signed_distance;
    Alcotest.test_case "halfspace deep-box substitution" `Quick
      test_halfspace_deep_box_substitution_sound;
    QCheck_alcotest.to_alcotest prop_halfspace_box_tests_consistent;
  ]
