(* Unit and property tests for Axmemo_util: rng, bits, stats, table. *)

module Rng = Axmemo_util.Rng
module Bits = Axmemo_util.Bits
module Stats = Axmemo_util.Stats
module Table = Axmemo_util.Table

let check = Alcotest.check
let checkf msg = Alcotest.(check (float 1e-9)) msg

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1L and b = Rng.create 2L in
  Alcotest.(check bool) "different seeds differ" false (Rng.int64 a = Rng.int64 b)

let test_rng_copy () =
  let a = Rng.create 7L in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues identically" (Rng.int64 a) (Rng.int64 b)

let test_rng_split_independent () =
  let a = Rng.create 7L in
  let b = Rng.split a in
  Alcotest.(check bool) "split stream differs" false (Rng.int64 a = Rng.int64 b)

(* Golden streams for seed 42, captured before the generator state was
   unboxed: a changed mixer, draw order or float conversion fails here. *)
let golden_first8 draw =
  let r = Rng.create 42L in
  List.init 8 (fun _ -> draw r)

let float_bits f = Int64.bits_of_float f

let test_rng_golden_streams () =
  let i64 = Alcotest.(list int64) in
  check i64 "int64"
    [ 0xbdd732262feb6e95L; 0x28efe333b266f103L; 0x47526757130f9f52L;
      0x581ce1ff0e4ae394L; 0x9bc585a244823f2L; 0xde4431fa3c80db06L;
      0x37e9671c45376d5dL; 0xccf635ee9e9e2fa4L ]
    (golden_first8 Rng.int64);
  check Alcotest.(list int) "int"
    [ 0xee32994; 0x33d3ef9d; 0x744b994; 0x38d4c21c; 0x1258c8bf; 0x171d0f8e;
      0x893a22a; 0x35b5c2d6 ]
    (golden_first8 (fun r -> Rng.int r 1_000_000_007));
  check i64 "float"
    [ 0x3fe7bae644c5fd6dL; 0x3fc477f199d93378L; 0x3fd1d499d5c4c3e6L;
      0x3fd607387fc392b8L; 0x3fa378b0b4489040L; 0x3febc8863f47901bL;
      0x3fcbf4b38e229bb4L; 0x3fe99ec6bdd3d3c5L ]
    (golden_first8 (fun r -> float_bits (Rng.float r 1.0)));
  check i64 "uniform"
    [ 0x400775cc898bfadaL; 0xbffb880e6626cc88L; 0xbfe8ad98a8ecf068L;
      0xbfcf8c7803c6d480L; 0xc00590e9e976edf8L; 0x400f910c7e8f2036L;
      0xbff40b4c71dd644cL; 0x400b3d8d7ba7a78aL ]
    (golden_first8 (fun r -> float_bits (Rng.uniform r (-3.0) 5.0)));
  check i64 "gaussian"
    [ 0x3ffd45625aa37a84L; 0xbfe914a9e9d234f8L; 0x4011d634e6a0a160L;
      0x4000badc7e96f45dL; 0xbff292be307a643aL; 0xc00476296a7a60e6L;
      0xbff4a8e7fb2da2a2L; 0x3ff8559c5e7688b4L ]
    (golden_first8 (fun r -> float_bits (Rng.gaussian r ~mean:1.0 ~stddev:2.0)));
  check Alcotest.(list int32) "bits32"
    [ 0xbdd73226l; 0x28efe333l; 0x47526757l; 0x581ce1ffl; 0x9bc585al;
      0xde4431fal; 0x37e9671cl; 0xccf635eel ]
    (golden_first8 Rng.bits32);
  check Alcotest.(list bool) "bool"
    [ true; true; false; false; false; false; true; false ]
    (golden_first8 Rng.bool)

(* The generator state is unboxed: a draw allocates only its boxed float
   result (two words), against ~12 words when the state was a boxed int64. *)
let test_rng_float_alloc () =
  let r = Rng.create 9L in
  let draws = 100_000 in
  Gc.full_major ();
  let before = Gc.minor_words () in
  for _ = 1 to draws do
    ignore (Sys.opaque_identity (Rng.float r 1.0))
  done;
  let per_draw = (Gc.minor_words () -. before) /. float_of_int draws in
  Alcotest.(check bool) (Printf.sprintf "%.2f minor words per draw" per_draw) true
    (per_draw <= 3.0)

let test_rng_int_bounds () =
  let r = Rng.create 3L in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_invalid () =
  let r = Rng.create 3L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_float_bounds () =
  let r = Rng.create 5L in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_uniform_bounds () =
  let r = Rng.create 5L in
  for _ = 1 to 100 do
    let v = Rng.uniform r (-3.0) (-1.0) in
    Alcotest.(check bool) "in range" true (v >= -3.0 && v < -1.0)
  done

let test_rng_gaussian_moments () =
  let r = Rng.create 11L in
  let n = 20_000 in
  let samples = Array.init n (fun _ -> Rng.gaussian r ~mean:5.0 ~stddev:2.0) in
  let mean = Stats.mean samples in
  let sd = Stats.stddev samples in
  Alcotest.(check bool) "mean ~ 5" true (abs_float (mean -. 5.0) < 0.1);
  Alcotest.(check bool) "stddev ~ 2" true (abs_float (sd -. 2.0) < 0.1)

let test_rng_shuffle_permutation () =
  let r = Rng.create 13L in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_choose_empty () =
  let r = Rng.create 1L in
  Alcotest.check_raises "empty" (Invalid_argument "Rng.choose: empty array") (fun () ->
      ignore (Rng.choose r [||]))

(* --- Bits --- *)

let test_truncate_zero_noop () =
  check Alcotest.int64 "n=0 is identity" 0x1234_5678_9ABC_DEFFL
    (Bits.truncate_int64 ~bits:0 0x1234_5678_9ABC_DEFFL)

let test_truncate_clears_lsbs () =
  check Alcotest.int64 "8 LSBs cleared" 0xFF00L (Bits.truncate_int64 ~bits:8 0xFFFFL)

let test_truncate_clamps () =
  check Alcotest.int64 "clamped at 63" Int64.min_int (Bits.truncate_int64 ~bits:99 (-1L))

let test_truncate_f32_monotone_granularity () =
  (* Two values within one truncation cell collapse to the same bits. *)
  let a = 1.0 and b = 1.0 +. 1e-7 in
  Alcotest.(check bool) "merged" true
    (Bits.truncate_f32 ~bits:8 a = Bits.truncate_f32 ~bits:8 b);
  Alcotest.(check bool) "not merged without truncation" false
    (Bits.truncate_f32 ~bits:0 a = Bits.truncate_f32 ~bits:0 b)

let test_f32_bits_roundtrip () =
  List.iter
    (fun x -> checkf "roundtrip" x (Bits.f32_of_bits (Bits.f32_bits x)))
    [ 0.0; 1.0; -2.5; 0.125; 1024.0 ]

let test_f64_bits_roundtrip () =
  List.iter
    (fun x -> checkf "roundtrip" x (Bits.f64_of_bits (Bits.f64_bits x)))
    [ 0.0; 1.0; -2.5; 3.141592653589793; 1e300 ]

let test_bytes_of_int64 () =
  check Alcotest.string "little endian" "\x78\x56\x34\x12"
    (Bits.bytes_of_int64 0x12345678L ~width:4)

let test_bytes_of_int64_invalid () =
  Alcotest.check_raises "width 9" (Invalid_argument "Bits.bytes_of_int64: width")
    (fun () -> ignore (Bits.bytes_of_int64 0L ~width:9))

let test_round_int64 () =
  let check = Alcotest.check Alcotest.int64 in
  check "rounds down" 0x100L (Bits.round_int64 ~bits:8 0x17FL);
  check "rounds up" 0x200L (Bits.round_int64 ~bits:8 0x180L);
  check "exact multiple unchanged" 0x300L (Bits.round_int64 ~bits:8 0x300L);
  check "zero bits identity" 0x123L (Bits.round_int64 ~bits:0 0x123L)

let test_round_f32_closer_than_truncate () =
  (* For any value, the nearest-cell representative is at most half a cell
     away, whereas truncation can be a full cell off. *)
  let x = 1.4999 in
  let bits = 16 in
  let t = Bits.truncate_f32 ~bits x and r = Bits.round_f32 ~bits x in
  Alcotest.(check bool) "nearest at least as close" true
    (abs_float (r -. x) <= abs_float (t -. x) +. 1e-12)

let test_popcount () =
  check Alcotest.int "zero" 0 (Bits.popcount64 0L);
  check Alcotest.int "all ones" 64 (Bits.popcount64 (-1L));
  check Alcotest.int "0xFF" 8 (Bits.popcount64 0xFFL)

(* --- Stats --- *)

let test_mean () =
  checkf "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  checkf "empty" 0.0 (Stats.mean [||])

let test_geomean () =
  checkf "geomean" 2.0 (Stats.geomean [| 1.0; 2.0; 4.0 |]);
  checkf "nonpositive" 0.0 (Stats.geomean [| 1.0; 0.0 |])

let test_stddev () =
  checkf "constant" 0.0 (Stats.stddev [| 5.0; 5.0; 5.0 |]);
  Alcotest.(check (float 1e-6)) "known" 1.0 (Stats.stddev [| 1.0; 3.0; 1.0; 3.0; 1.0; 3.0 |])

let test_percentile () =
  let a = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  checkf "median" 3.0 (Stats.percentile a 50.0);
  checkf "min" 1.0 (Stats.percentile a 0.0);
  checkf "max" 5.0 (Stats.percentile a 100.0);
  checkf "interpolated" 1.5 (Stats.percentile a 12.5)

let test_percentile_empty () =
  (* Empty input follows the same total contract as mean/geomean/stddev:
     0.0, never an exception. *)
  checkf "empty p50" 0.0 (Stats.percentile [||] 50.0);
  checkf "empty p0" 0.0 (Stats.percentile [||] 0.0);
  checkf "empty p100" 0.0 (Stats.percentile [||] 100.0)

let test_empty_input_contract () =
  (* Every summary statistic is total on the empty array. *)
  checkf "mean" 0.0 (Stats.mean [||]);
  checkf "geomean" 0.0 (Stats.geomean [||]);
  checkf "stddev" 0.0 (Stats.stddev [||]);
  checkf "percentile" 0.0 (Stats.percentile [||] 95.0);
  Alcotest.(check int) "cdf" 0 (List.length (Stats.cdf [||] ~points:10))

let test_cdf_monotone () =
  let a = Array.init 100 (fun i -> float_of_int (99 - i)) in
  let pts = Stats.cdf a ~points:10 in
  Alcotest.(check int) "count" 10 (List.length pts);
  let rec go = function
    | (v1, f1) :: ((v2, f2) :: _ as rest) ->
        Alcotest.(check bool) "values non-decreasing" true (v2 >= v1);
        Alcotest.(check bool) "fractions non-decreasing" true (f2 >= f1);
        go rest
    | _ -> ()
  in
  go pts

let test_output_error () =
  checkf "exact" 0.0 (Stats.output_error ~reference:[| 1.0; 2.0 |] ~approx:[| 1.0; 2.0 |]);
  checkf "known" 0.2
    (Stats.output_error ~reference:[| 1.0; 2.0 |] ~approx:[| 2.0; 2.0 |]);
  checkf "zero reference, zero approx" 0.0
    (Stats.output_error ~reference:[| 0.0 |] ~approx:[| 0.0 |])

let test_output_error_mismatch () =
  Alcotest.check_raises "length" (Invalid_argument "Stats.output_error: length mismatch")
    (fun () -> ignore (Stats.output_error ~reference:[| 1.0 |] ~approx:[||]))

let test_misclassification () =
  checkf "half" 0.5
    (Stats.misclassification_rate ~reference:[| true; false |] ~approx:[| true; true |]);
  checkf "empty" 0.0 (Stats.misclassification_rate ~reference:[||] ~approx:[||])

let test_relative_errors () =
  let e = Stats.relative_errors ~reference:[| 2.0 |] ~approx:[| 3.0 |] in
  checkf "50%" 0.5 e.(0)

(* --- Json --- *)

module Json = Axmemo_util.Json

let test_json_scalars () =
  check Alcotest.string "null" "null" (Json.to_string Json.Null);
  check Alcotest.string "true" "true" (Json.to_string (Json.Bool true));
  check Alcotest.string "int" "42" (Json.to_string (Json.Int 42));
  check Alcotest.string "negative int" "-7" (Json.to_string (Json.Int (-7)));
  check Alcotest.string "integral float" "2.0" (Json.to_string (Json.Float 2.0));
  check Alcotest.string "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  check Alcotest.string "inf is null" "null"
    (Json.to_string (Json.Float Float.infinity))

let test_json_float_roundtrip () =
  List.iter
    (fun f ->
      let s = Json.to_string (Json.Float f) in
      Alcotest.(check (float 0.0)) s f (float_of_string s))
    [ 0.1; 1.0 /. 3.0; 1e-300; 6.906952913675662e-07; 212897.0; Float.min_float ]

let test_json_escaping () =
  check Alcotest.string "quote and backslash" {|"a\"b\\c"|}
    (Json.to_string (Json.Str {|a"b\c|}));
  check Alcotest.string "newline tab" {|"x\ny\tz"|}
    (Json.to_string (Json.Str "x\ny\tz"));
  check Alcotest.string "control chars" "\"\\u0000\\u0001\""
    (Json.to_string (Json.Str "\x00\x01"));
  check Alcotest.string "utf8 passthrough" "\"\xc3\xa9\""
    (Json.to_string (Json.Str "\xc3\xa9"))

let test_json_containers () =
  check Alcotest.string "array" "[1,2,3]"
    (Json.to_string (Json.Arr [ Json.Int 1; Json.Int 2; Json.Int 3 ]));
  check Alcotest.string "object" {|{"a":1,"b":[true]}|}
    (Json.to_string
       (Json.Obj [ ("a", Json.Int 1); ("b", Json.Arr [ Json.Bool true ]) ]));
  check Alcotest.string "empty" "{}" (Json.to_string (Json.Obj []))

let test_json_indent () =
  let s =
    Json.to_string ~indent:2 (Json.Obj [ ("a", Json.Arr [ Json.Int 1; Json.Int 2 ]) ])
  in
  Alcotest.(check bool) "multiline" true (String.contains s '\n');
  (* Indented and compact renderings parse to the same structure: strip
     whitespace outside strings (none of the test payload contains any). *)
  let strip s =
    String.concat ""
      (String.split_on_char '\n'
         (String.concat "" (String.split_on_char ' ' s)))
  in
  check Alcotest.string "same content" {|{"a":[1,2]}|} (strip s)

(* --- Table --- *)

let test_table_render () =
  let s = Table.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  Alcotest.(check bool) "has rule line" true (String.length s > 0);
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "4 lines + trailing" 5 (List.length lines)

let test_table_pads_missing_cells () =
  let s = Table.render ~header:[ "a"; "b" ] [ [ "1" ] ] in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_fmt_helpers () =
  check Alcotest.string "float" "1.50" (Table.fmt_float 1.5);
  check Alcotest.string "pct" "75.3%" (Table.fmt_pct 0.753);
  check Alcotest.string "x" "2.64x" (Table.fmt_x 2.64)

(* --- properties --- *)

let prop_truncate_idempotent =
  QCheck.Test.make ~name:"truncate_int64 idempotent" ~count:500
    QCheck.(pair int64 (int_bound 63))
    (fun (v, bits) ->
      let once = Bits.truncate_int64 ~bits v in
      Bits.truncate_int64 ~bits once = once)

let prop_truncate_le_magnitude =
  QCheck.Test.make ~name:"truncation only clears bits" ~count:500
    QCheck.(pair int64 (int_bound 63))
    (fun (v, bits) ->
      let t = Bits.truncate_int64 ~bits v in
      Int64.logand t v = t)

let prop_round_error_bounded =
  QCheck.Test.make ~name:"round_int64 lands within half a cell" ~count:300
    QCheck.(pair (int_bound 1_000_000_000) (int_range 1 20))
    (fun (v, bits) ->
      let v = Int64.of_int v in
      let r = Bits.round_int64 ~bits v in
      let cell = Int64.shift_left 1L bits in
      Int64.rem r cell = 0L
      && Int64.abs (Int64.sub r v) <= Int64.shift_right_logical cell 1)

let prop_popcount_matches_naive =
  QCheck.Test.make ~name:"popcount matches naive" ~count:500 QCheck.int64 (fun v ->
      let naive = ref 0 in
      for i = 0 to 63 do
        if Int64.logand (Int64.shift_right_logical v i) 1L = 1L then incr naive
      done;
      Bits.popcount64 v = !naive)

let prop_percentile_within_bounds =
  QCheck.Test.make ~name:"percentile stays within data range" ~count:200
    QCheck.(pair (array_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.0)) (float_bound_inclusive 100.0))
    (fun (a, p) ->
      let v = Stats.percentile a p in
      let lo = Array.fold_left min a.(0) a and hi = Array.fold_left max a.(0) a in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let prop_geomean_le_mean =
  QCheck.Test.make ~name:"AM-GM inequality" ~count:200
    QCheck.(array_of_size Gen.(int_range 1 30) (float_range 0.001 1000.0))
    (fun a -> Stats.geomean a <= Stats.mean a +. 1e-6)

let qsuite = List.map QCheck_alcotest.to_alcotest
    [ prop_truncate_idempotent; prop_truncate_le_magnitude; prop_round_error_bounded;
      prop_popcount_matches_naive;
      prop_percentile_within_bounds; prop_geomean_le_mean ]

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "uniform bounds" `Quick test_rng_uniform_bounds;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "choose empty" `Quick test_rng_choose_empty;
          Alcotest.test_case "golden streams" `Quick test_rng_golden_streams;
          Alcotest.test_case "float allocation" `Quick test_rng_float_alloc;
        ] );
      ( "bits",
        [
          Alcotest.test_case "truncate 0 noop" `Quick test_truncate_zero_noop;
          Alcotest.test_case "truncate clears" `Quick test_truncate_clears_lsbs;
          Alcotest.test_case "truncate clamps" `Quick test_truncate_clamps;
          Alcotest.test_case "f32 truncation merges" `Quick test_truncate_f32_monotone_granularity;
          Alcotest.test_case "f32 bits roundtrip" `Quick test_f32_bits_roundtrip;
          Alcotest.test_case "f64 bits roundtrip" `Quick test_f64_bits_roundtrip;
          Alcotest.test_case "bytes little endian" `Quick test_bytes_of_int64;
          Alcotest.test_case "bytes invalid width" `Quick test_bytes_of_int64_invalid;
          Alcotest.test_case "round int64" `Quick test_round_int64;
          Alcotest.test_case "round closer than truncate" `Quick test_round_f32_closer_than_truncate;
          Alcotest.test_case "popcount" `Quick test_popcount;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "percentile empty" `Quick test_percentile_empty;
          Alcotest.test_case "empty-input contract" `Quick test_empty_input_contract;
          Alcotest.test_case "cdf monotone" `Quick test_cdf_monotone;
          Alcotest.test_case "output error" `Quick test_output_error;
          Alcotest.test_case "output error mismatch" `Quick test_output_error_mismatch;
          Alcotest.test_case "misclassification" `Quick test_misclassification;
          Alcotest.test_case "relative errors" `Quick test_relative_errors;
        ] );
      ( "json",
        [
          Alcotest.test_case "scalars" `Quick test_json_scalars;
          Alcotest.test_case "float roundtrip" `Quick test_json_float_roundtrip;
          Alcotest.test_case "string escaping" `Quick test_json_escaping;
          Alcotest.test_case "containers" `Quick test_json_containers;
          Alcotest.test_case "indentation" `Quick test_json_indent;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "pads missing" `Quick test_table_pads_missing_cells;
          Alcotest.test_case "formatters" `Quick test_fmt_helpers;
        ] );
      ("properties", qsuite);
    ]
