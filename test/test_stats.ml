(* Tests for the statistics substrate: counters, histograms, the
   deterministic PRNG and the ASCII renderers. *)

open Chex86_stats

let test_counter_basics () =
  let g = Counter.create_group () in
  Alcotest.(check int) "absent counter reads 0" 0 (Counter.get g "x");
  Counter.incr g "x";
  Counter.incr ~by:4 g "x";
  Alcotest.(check int) "incr accumulates" 5 (Counter.get g "x");
  Counter.incr ~by:(-3) g "x";
  Alcotest.(check int) "negative delta republishes a total" 2 (Counter.get g "x");
  Counter.reset g;
  Alcotest.(check int) "reset zeroes" 0 (Counter.get g "x")

let test_counter_ratio () =
  let g = Counter.create_group () in
  Alcotest.(check (float 1e-9)) "empty ratio" 0. (Counter.ratio g ~num:"m" ~den:"h");
  Counter.incr ~by:3 g "m";
  Counter.incr ~by:9 g "h";
  Alcotest.(check (float 1e-9)) "miss ratio" 0.25 (Counter.ratio g ~num:"m" ~den:"h");
  Counter.incr ~by:4 g "total";
  Counter.incr ~by:1 g "part";
  Alcotest.(check (float 1e-9)) "fraction" 0.25 (Counter.fraction g ~num:"part" ~total:"total")

let test_counter_to_list_sorted () =
  let g = Counter.create_group () in
  Counter.incr g "zeta";
  Counter.incr g "alpha";
  Alcotest.(check (list string))
    "sorted names" [ "alpha"; "zeta" ]
    (List.map fst (Counter.to_list g))

let test_histogram_basics () =
  let h = Histogram.create () in
  Alcotest.(check int) "empty count" 0 (Histogram.count h);
  Alcotest.(check int) "empty percentile" 0 (Histogram.percentile h 0.5);
  List.iter (Histogram.add h) [ 1; 2; 2; 3; 3; 3 ];
  Alcotest.(check int) "count" 6 (Histogram.count h);
  Alcotest.(check int) "total" 14 (Histogram.total h);
  Alcotest.(check int) "min" 1 (Histogram.min_value h);
  Alcotest.(check int) "max" 3 (Histogram.max_value h);
  Alcotest.(check int) "mode" 3 (Histogram.mode h);
  Alcotest.(check (float 1e-9)) "mean" (14. /. 6.) (Histogram.mean h);
  Alcotest.(check int) "median" 2 (Histogram.percentile h 0.5)

let test_histogram_weighted () =
  let h = Histogram.create () in
  Histogram.add ~weight:10 h 5;
  Histogram.add h 100;
  Alcotest.(check int) "weighted count" 11 (Histogram.count h);
  Alcotest.(check int) "p50 dominated by heavy bucket" 5 (Histogram.percentile h 0.5);
  Alcotest.(check int) "p100 reaches max" 100 (Histogram.percentile h 1.0)

(* Regression: a zero/negative weight used to corrupt count/sum/min/max
   silently; it must be rejected loudly now. *)
let test_histogram_weight_rejected () =
  let h = Histogram.create () in
  let raises w =
    match Histogram.add ~weight:w h 5 with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "weight 0 rejected" true (raises 0);
  Alcotest.(check bool) "weight -3 rejected" true (raises (-3));
  Alcotest.(check int) "histogram untouched by rejected adds" 0 (Histogram.count h);
  Alcotest.(check int) "max untouched" 0 (Histogram.max_value h)

(* Regression: percentile used to walk past max on q > 1 (returning
   whatever the bucket walk fell off to) and misbehave on NaN. *)
let test_histogram_percentile_clamped () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 1; 2; 3 ];
  Alcotest.(check int) "q > 1 clamps to max" 3 (Histogram.percentile h 1.5);
  Alcotest.(check int) "q < 0 clamps to min" 1 (Histogram.percentile h (-0.5));
  Alcotest.(check int) "NaN q treated as 0" 1 (Histogram.percentile h Float.nan)

(* Regression: an empty histogram used to print n=0 with all-zero
   min/max/percentiles — indistinguishable from a real zero-valued
   distribution. *)
let test_histogram_empty_pp () =
  let h = Histogram.create () in
  Alcotest.(check string) "empty pp" "n=0 (empty)" (Format.asprintf "%a" Histogram.pp h);
  Histogram.add h 7;
  Alcotest.(check bool) "non-empty pp has stats" true
    (let s = Format.asprintf "%a" Histogram.pp h in
     String.length s > 0 && s <> "n=0 (empty)")

let qcheck_histogram_percentile_monotone =
  QCheck.Test.make ~name:"histogram percentiles are monotone"
    QCheck.(list_of_size (Gen.int_range 1 50) (int_range (-100) 100))
    (fun samples ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) samples;
      let p25 = Histogram.percentile h 0.25
      and p50 = Histogram.percentile h 0.5
      and p99 = Histogram.percentile h 0.99 in
      p25 <= p50 && p50 <= p99)

let qcheck_histogram_mean_bounded =
  QCheck.Test.make ~name:"histogram mean within min..max"
    QCheck.(list_of_size (Gen.int_range 1 50) (int_range (-1000) 1000))
    (fun samples ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) samples;
      let mean = Histogram.mean h in
      float_of_int (Histogram.min_value h) -. 1e-9 <= mean
      && mean <= float_of_int (Histogram.max_value h) +. 1e-9)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_distinct_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds diverge" true
    (Rng.next_int64 a <> Rng.next_int64 b)

let qcheck_rng_int_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds"
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.int rng bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let test_rng_shuffle_permutes () =
  let rng = Rng.create 7 in
  let arr = Array.init 32 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 32 (fun i -> i)) sorted

let test_render_table () =
  let s = Render.table ~header:[ "a"; "bb" ] [ [ "x"; "1" ]; [ "longer"; "22" ] ] in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "header + separator + 2 rows" 4 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check int) "aligned width" (String.length (List.hd lines)) (String.length l))
    lines

let test_render_bars () =
  let s = Render.bars [ ("x", 1.0); ("y", 2.0) ] in
  Alcotest.(check bool) "larger value has more hashes" true
    (let count line = String.fold_left (fun n c -> if c = '#' then n + 1 else n) 0 line in
     match String.split_on_char '\n' s with
     | [ a; b ] -> count b > count a
     | _ -> false)

let test_render_percent () =
  Alcotest.(check string) "percent format" "12.3%" (Render.percent 0.123)

(* Regression: a row shorter than the widest used to render short,
   leaving its cells misaligned under the separator; it must be padded
   with empty cells to the full column count. *)
let test_render_table_ragged () =
  let s =
    Render.table ~header:[ "a"; "b"; "c" ] [ [ "x" ]; [ "y"; "2" ]; [ "z"; "3"; "4" ] ]
  in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "header + separator + 3 rows" 5 (List.length lines);
  let w = String.length (List.hd lines) in
  List.iter
    (fun l -> Alcotest.(check int) "ragged rows padded to full width" w (String.length l))
    lines

(* Regression: bare "-", "e", "+" placeholder cells used to pass the
   numeric heuristic and right-align; they are words, not numbers. *)
let test_render_table_placeholder_alignment () =
  let s = Render.table ~header:[ "name"; "val" ] [ [ "-"; "10" ]; [ "e"; "+" ] ] in
  (match String.split_on_char '\n' s with
  | _ :: _ :: row1 :: row2 :: _ ->
    Alcotest.(check char) "bare - left-aligns" '-' row1.[0];
    Alcotest.(check char) "bare e left-aligns" 'e' row2.[0];
    (* "10" is numeric: right-aligned, so the val column's last char. *)
    Alcotest.(check char) "numeric right-aligns" '0' row1.[String.length row1 - 1]
  | _ -> Alcotest.fail "unexpected table shape");
  let s2 = Render.table ~header:[ "n" ] [ [ "-12" ]; [ "1e9" ]; [ "+4" ] ] in
  (match String.split_on_char '\n' s2 with
  | _ :: _ :: rows ->
    List.iter
      (fun row ->
        Alcotest.(check bool)
          (Printf.sprintf "%S right-aligns (has digits)" row)
          true
          (String.length row = 3 && row.[String.length row - 1] <> ' '))
      rows
  | _ -> Alcotest.fail "unexpected table shape")

(* Rng.seed_of_key is part of the determinism contract (seeded fault
   plans, remote respawn jitter): pin it. *)
let test_seed_of_key_stable () =
  Alcotest.(check bool) "distinct keys, distinct seeds" true
    (Rng.seed_of_key "mcf/insecure" <> Rng.seed_of_key "mcf/prediction");
  Alcotest.(check int) "stable across calls" (Rng.seed_of_key "mcf/insecure")
    (Rng.seed_of_key "mcf/insecure");
  Alcotest.(check bool) "non-negative" true (Rng.seed_of_key "" >= 0)

let () =
  Alcotest.run "stats"
    [
      ( "counter",
        [
          Alcotest.test_case "basics" `Quick test_counter_basics;
          Alcotest.test_case "ratio" `Quick test_counter_ratio;
          Alcotest.test_case "to_list sorted" `Quick test_counter_to_list_sorted;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "basics" `Quick test_histogram_basics;
          Alcotest.test_case "weighted" `Quick test_histogram_weighted;
          Alcotest.test_case "weight <= 0 rejected" `Quick test_histogram_weight_rejected;
          Alcotest.test_case "percentile clamped" `Quick test_histogram_percentile_clamped;
          Alcotest.test_case "empty pp" `Quick test_histogram_empty_pp;
          QCheck_alcotest.to_alcotest qcheck_histogram_percentile_monotone;
          QCheck_alcotest.to_alcotest qcheck_histogram_mean_bounded;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed divergence" `Quick test_rng_distinct_seeds;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "seed_of_key stable" `Quick test_seed_of_key_stable;
          QCheck_alcotest.to_alcotest qcheck_rng_int_bounds;
        ] );
      ( "render",
        [
          Alcotest.test_case "table" `Quick test_render_table;
          Alcotest.test_case "table ragged rows" `Quick test_render_table_ragged;
          Alcotest.test_case "table placeholder alignment" `Quick
            test_render_table_placeholder_alignment;
          Alcotest.test_case "bars" `Quick test_render_bars;
          Alcotest.test_case "percent" `Quick test_render_percent;
        ] );
    ]
