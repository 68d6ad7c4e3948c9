(* Tests for dwv_util: RNG determinism and distributions, statistics,
   float helpers, table rendering. *)

module Rng = Dwv_util.Rng
module Stats = Dwv_util.Stats
module Floatx = Dwv_util.Floatx
module Table = Dwv_util.Table
module Trend = Dwv_util.Trend

let check_float = Alcotest.(check (float 1e-9))

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds diverge"
    false
    (Rng.next_int64 a = Rng.next_int64 b)

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  let c1 = Rng.next_int64 child in
  (* child stream must not simply mirror the parent stream *)
  let p1 = Rng.next_int64 parent in
  Alcotest.(check bool) "split stream differs" true (c1 <> p1)

let test_rng_float_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    if x < 0.0 || x >= 1.0 then Alcotest.failf "float out of [0,1): %g" x
  done

let test_rng_int_range () =
  let rng = Rng.create 4 in
  for _ = 1 to 10_000 do
    let k = Rng.int rng 17 in
    if k < 0 || k >= 17 then Alcotest.failf "int out of range: %d" k
  done

let test_rng_int_not_constant () =
  let rng = Rng.create 5 in
  let seen = Hashtbl.create 16 in
  for _ = 1 to 1000 do
    Hashtbl.replace seen (Rng.int rng 10) ()
  done;
  Alcotest.(check bool) "covers most residues" true (Hashtbl.length seen >= 9)

let test_rng_gaussian_moments () =
  let rng = Rng.create 6 in
  let n = 20_000 in
  let xs = Array.init n (fun _ -> Rng.gaussian rng) in
  let mean = Stats.mean xs and std = Stats.std xs in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.03);
  Alcotest.(check bool) "std near 1" true (Float.abs (std -. 1.0) < 0.03)

let test_rng_uniform_bounds () =
  let rng = Rng.create 8 in
  for _ = 1 to 1000 do
    let x = Rng.uniform rng ~lo:(-3.0) ~hi:5.0 in
    if x < -3.0 || x >= 5.0 then Alcotest.failf "uniform out of range: %g" x
  done

let test_rng_direction_unit_norm () =
  let rng = Rng.create 9 in
  for _ = 1 to 100 do
    let d = Rng.direction rng 5 in
    let norm = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 d) in
    check_float "unit norm" 1.0 norm
  done

let test_rng_rademacher () =
  let rng = Rng.create 10 in
  let d = Rng.rademacher rng 1000 in
  Array.iter (fun x -> if x <> 1.0 && x <> -1.0 then Alcotest.failf "bad entry %g" x) d;
  let plus = Array.fold_left (fun acc x -> if x > 0.0 then acc + 1 else acc) 0 d in
  Alcotest.(check bool) "roughly balanced" true (plus > 400 && plus < 600)

let test_rng_shuffle_permutes () =
  let rng = Rng.create 11 in
  let a = Array.init 50 Fun.id in
  let b = Array.copy a in
  Rng.shuffle_in_place rng b;
  let sorted = Array.copy b in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" a sorted

let test_stats_mean_std () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 (Stats.mean xs);
  check_float "variance" (5.0 /. 3.0) (Stats.variance xs)

let test_stats_quantiles () =
  let xs = [| 4.0; 1.0; 3.0; 2.0 |] in
  check_float "median" 2.5 (Stats.median xs);
  check_float "q0" 1.0 (Stats.quantile xs 0.0);
  check_float "q1" 4.0 (Stats.quantile xs 1.0)

let test_stats_rate () =
  check_float "rate" 75.0 (Stats.rate_percent [| true; true; true; false |])

let test_stats_empty_raises () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty array") (fun () ->
      ignore (Stats.mean [||]))

let test_floatx_clamp () =
  check_float "below" 0.0 (Floatx.clamp ~lo:0.0 ~hi:1.0 (-5.0));
  check_float "above" 1.0 (Floatx.clamp ~lo:0.0 ~hi:1.0 5.0);
  check_float "inside" 0.5 (Floatx.clamp ~lo:0.0 ~hi:1.0 0.5)

let test_floatx_sigmoid () =
  check_float "at 0" 0.5 (Floatx.sigmoid 0.0);
  Alcotest.(check bool) "saturates high" true (Floatx.sigmoid 50.0 > 0.999999);
  Alcotest.(check bool) "saturates low" true (Floatx.sigmoid (-50.0) < 1e-6);
  (* symmetric: s(-x) = 1 - s(x) *)
  check_float "symmetry" (1.0 -. Floatx.sigmoid 1.7) (Floatx.sigmoid (-1.7))

let test_floatx_linspace () =
  let xs = Floatx.linspace 0.0 1.0 5 in
  Alcotest.(check int) "length" 5 (Array.length xs);
  check_float "first" 0.0 xs.(0);
  check_float "last" 1.0 xs.(4);
  check_float "middle" 0.5 xs.(2)

let test_floatx_kahan () =
  let xs = Array.make 10_000 0.1 in
  Alcotest.(check (float 1e-10)) "kahan sum" 1000.0 (Floatx.kahan_sum xs)

let test_table_render () =
  let t = Table.create [ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "2345" ];
  let s = Table.render t in
  Alcotest.(check bool) "has header" true (String.length s > 0);
  (* aligned: every line has the same prefix width before 'value' column *)
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "line count" 5 (List.length lines)

let test_table_arity_check () =
  let t = Table.create [ "a"; "b" ] in
  Alcotest.check_raises "bad arity"
    (Invalid_argument "Table.add_row: row width does not match header") (fun () ->
      Table.add_row t [ "only-one" ])

module Svg_plot = Dwv_util.Svg_plot

let test_svg_scene_renders () =
  let plot = Svg_plot.create ~title:"test scene" () in
  Svg_plot.add_box ~kind:`Goal plot ~x_lo:1.0 ~x_hi:2.0 ~y_lo:0.0 ~y_hi:1.0;
  Svg_plot.add_box ~kind:`Unsafe ~label:"Xu" plot ~x_lo:(-1.0) ~x_hi:0.0 ~y_lo:0.0 ~y_hi:0.5;
  Svg_plot.add_polyline plot [ (0.0, 0.0); (1.5, 0.5); (2.0, 1.0) ];
  let svg = Svg_plot.render plot in
  List.iter
    (fun needle ->
      if not
           (let n = String.length needle in
            let rec scan i =
              i + n <= String.length svg && (String.sub svg i n = needle || scan (i + 1))
            in
            scan 0)
      then Alcotest.failf "missing %S in rendered svg" needle)
    [ "<svg"; "</svg>"; "<rect"; "<polyline"; "test scene"; "Xu" ]

let test_svg_empty_scene_raises () =
  let plot = Svg_plot.create ~title:"empty" () in
  Alcotest.check_raises "empty" (Invalid_argument "Svg_plot.render: empty scene") (fun () ->
      ignore (Svg_plot.render plot))

let test_svg_rect_validation () =
  let plot = Svg_plot.create ~title:"bad" () in
  Alcotest.check_raises "inverted" (Invalid_argument "Svg_plot.add_rect: empty rectangle")
    (fun () -> Svg_plot.add_rect plot ~x_lo:1.0 ~x_hi:0.0 ~y_lo:0.0 ~y_hi:1.0)

let test_svg_file_save () =
  let plot = Svg_plot.create ~title:"file" () in
  Svg_plot.add_box ~kind:`Reach plot ~x_lo:0.0 ~x_hi:1.0 ~y_lo:0.0 ~y_hi:1.0;
  let path = Filename.temp_file "dwv_plot" ".svg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Svg_plot.save path plot;
      let ic = open_in path in
      let len = in_channel_length ic in
      close_in ic;
      Alcotest.(check bool) "file non-empty" true (len > 100))

(* ---------- counter trend ratchet ---------- *)

let test_trend_regressions () =
  let prev = [ ("cache_hits", 10); ("cache_misses", 2); ("nn_flowpipes", 5) ] in
  Alcotest.(check (list string))
    "identical snapshot is clean" []
    (Trend.regressions ~prev prev);
  Alcotest.(check (list string))
    "more hits, fewer misses is clean" []
    (Trend.regressions ~prev
       [ ("cache_hits", 12); ("cache_misses", 0); ("nn_flowpipes", 5) ]);
  let msgs =
    Trend.regressions ~prev
      [ ("cache_hits", 10); ("cache_misses", 3); ("nn_flowpipes", 6) ]
  in
  Alcotest.(check int) "miss growth + work growth + rate drop" 3 (List.length msgs);
  Alcotest.(check bool)
    "work counter named" true
    (List.exists (fun m -> m = "nn_flowpipes increased 5 -> 6") msgs);
  (* a counter absent from the history counts 0: new work is a regression *)
  Alcotest.(check int)
    "new counter flags" 1
    (List.length (Trend.regressions ~prev (("taylor_steps", 1) :: prev)))

let test_trend_record_roundtrip () =
  let path = Filename.temp_file "dwv_trend" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let snap = [ ("cache_hits", 4); ("verifier_calls", 7) ] in
      (* first run seeds the history without failing *)
      Alcotest.(check (list string))
        "seed run clean" []
        (Trend.record ~path ~section:"hotpath" [ ("learn", snap) ]);
      (* unchanged snapshot: nothing appended, nothing flagged *)
      Alcotest.(check (list string))
        "steady state clean" []
        (Trend.record ~path ~section:"hotpath" [ ("learn", snap) ]);
      Alcotest.(check int)
        "one entry after steady state" 1
        (List.length (Trend.load path));
      (* same workload name in another section is an independent key *)
      Alcotest.(check (list string))
        "other section independent" []
        (Trend.record ~path ~section:"certs"
           [ ("learn", [ ("verifier_calls", 99) ]) ]);
      (* growth against the last committed entry flags and appends *)
      let msgs =
        Trend.record ~path ~section:"hotpath"
          [ ("learn", [ ("cache_hits", 4); ("verifier_calls", 8) ]) ]
      in
      Alcotest.(check (list string))
        "regression message" [ "[hotpath/learn] verifier_calls increased 7 -> 8" ]
        msgs;
      (* the appended entry re-baselines: the same snapshot now passes *)
      Alcotest.(check (list string))
        "accepted after append" []
        (Trend.record ~path ~section:"hotpath"
           [ ("learn", [ ("cache_hits", 4); ("verifier_calls", 8) ]) ]);
      let history = Trend.load path in
      Alcotest.(check int) "three entries total" 3 (List.length history);
      Alcotest.(check
                  (option (list (pair string int))))
        "last wins"
        (Some [ ("cache_hits", 4); ("verifier_calls", 8) ])
        (Trend.last history ~section:"hotpath" ~workload:"learn"))

module Publish_once = Dwv_util.Publish_once

let test_publish_once () =
  let t = Publish_once.create () in
  let builds = ref 0 in
  let build v () = incr builds; v in
  Alcotest.(check int) "first build published" 1 (Publish_once.find_or_publish t "a" (build 1));
  Alcotest.(check int) "hit returns the published value" 1
    (Publish_once.find_or_publish t "a" (build 2));
  Alcotest.(check int) "no rebuild on a hit" 1 !builds;
  Alcotest.(check int) "second key" 3 (Publish_once.find_or_publish t "b" (build 3));
  Alcotest.(check int) "size" 2 (Publish_once.size t)

(* Domains racing on one key may each build, but all adopt the single
   published value. *)
let test_publish_once_race () =
  let t = Publish_once.create () in
  let workers =
    List.init 4 (fun d -> Domain.spawn (fun () -> Publish_once.find_or_publish t 0 (fun () -> d)))
  in
  let got = List.map Domain.join workers in
  Alcotest.(check int) "one entry" 1 (Publish_once.size t);
  let winner = Publish_once.find_or_publish t 0 (fun () -> -1) in
  List.iter (fun v -> Alcotest.(check int) "same value everywhere" winner v) got

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seeds differ" `Quick test_rng_seeds_differ;
    Alcotest.test_case "rng split independent" `Quick test_rng_split_independent;
    Alcotest.test_case "rng float in [0,1)" `Quick test_rng_float_range;
    Alcotest.test_case "rng int in range" `Quick test_rng_int_range;
    Alcotest.test_case "rng int covers residues" `Quick test_rng_int_not_constant;
    Alcotest.test_case "rng gaussian moments" `Quick test_rng_gaussian_moments;
    Alcotest.test_case "rng uniform bounds" `Quick test_rng_uniform_bounds;
    Alcotest.test_case "rng direction unit norm" `Quick test_rng_direction_unit_norm;
    Alcotest.test_case "rng rademacher" `Quick test_rng_rademacher;
    Alcotest.test_case "rng shuffle permutes" `Quick test_rng_shuffle_permutes;
    Alcotest.test_case "stats mean/std" `Quick test_stats_mean_std;
    Alcotest.test_case "stats quantiles" `Quick test_stats_quantiles;
    Alcotest.test_case "stats rate" `Quick test_stats_rate;
    Alcotest.test_case "stats empty raises" `Quick test_stats_empty_raises;
    Alcotest.test_case "floatx clamp" `Quick test_floatx_clamp;
    Alcotest.test_case "floatx sigmoid" `Quick test_floatx_sigmoid;
    Alcotest.test_case "floatx linspace" `Quick test_floatx_linspace;
    Alcotest.test_case "floatx kahan" `Quick test_floatx_kahan;
    Alcotest.test_case "trend regressions" `Quick test_trend_regressions;
    Alcotest.test_case "trend record roundtrip" `Quick test_trend_record_roundtrip;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table arity" `Quick test_table_arity_check;
    Alcotest.test_case "svg scene renders" `Quick test_svg_scene_renders;
    Alcotest.test_case "svg empty raises" `Quick test_svg_empty_scene_raises;
    Alcotest.test_case "svg rect validation" `Quick test_svg_rect_validation;
    Alcotest.test_case "svg file save" `Quick test_svg_file_save;
    Alcotest.test_case "publish-once registry" `Quick test_publish_once;
    Alcotest.test_case "publish-once race" `Quick test_publish_once_race;
  ]
