(* Tests for the observability layer: the attribution profiler's
   conservation invariants (every cycle charged to one region/class cell,
   every miss to exactly one reason), its zero-cost-when-absent contract,
   serial-vs-parallel byte identity of profiled runs (single-core matrix
   and multi-core co-run), and the report diff / regression gate. *)

module Profile = Axmemo_obs.Profile
module Diff = Axmemo_obs.Diff
module Json = Axmemo_util.Json
module Registry = Axmemo_telemetry.Registry
module Report = Axmemo_telemetry.Report
module Runner = Axmemo.Runner
module Workload = Axmemo_workloads.Workload
module WReg = Axmemo_workloads.Registry
module Corun = Axmemo_multicore.Corun
module Cluster = Axmemo_cluster.Cluster

let check = Alcotest.check

let instance name =
  let _, make = Option.get (WReg.find name) in
  make Workload.Sample

let profiled name config =
  let inst = instance name in
  let p = Profile.create ~regions:(Runner.profile_regions inst) in
  let r = Runner.run ~profile:p config inst in
  (r, Profile.snapshot p)

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* ------------------------------------------------------------------ *)
(* Conservation invariants *)

let check_conservation name (r : Runner.result) (snap : Profile.snapshot) =
  let msg s = Printf.sprintf "%s: %s" name s in
  (* Every wall cycle lands in exactly one region. *)
  check Alcotest.int (msg "regions sum to total")
    snap.total_cycles
    (sum (fun (rs : Profile.region_snap) -> rs.cycles) snap.regions);
  check Alcotest.int (msg "total matches the run") r.cycles snap.total_cycles;
  List.iter
    (fun (rs : Profile.region_snap) ->
      (* Within a region, the class columns partition its cycles... *)
      check Alcotest.int
        (msg (Printf.sprintf "%s class cycles sum" rs.kernel))
        rs.cycles
        (Array.fold_left ( + ) 0 rs.class_cycles);
      (* ...and every miss has exactly one reason. *)
      check Alcotest.int
        (msg (Printf.sprintf "%s reasons sum to misses" rs.kernel))
        rs.misses
        (Array.fold_left ( + ) 0 rs.reasons);
      check Alcotest.int
        (msg (Printf.sprintf "%s hits+misses = lookups" rs.kernel))
        rs.lookups
        (rs.l1_hits + rs.l2_hits + rs.misses))
    snap.regions;
  (* The unit's aggregate statistics are fully attributed. *)
  check Alcotest.int (msg "lookups attributed") r.lookups
    (sum (fun (rs : Profile.region_snap) -> rs.lookups) snap.regions);
  check Alcotest.int (msg "hits attributed") r.hits
    (sum (fun (rs : Profile.region_snap) -> rs.l1_hits + rs.l2_hits) snap.regions);
  check Alcotest.int (msg "collisions attributed") r.collisions
    (sum (fun (rs : Profile.region_snap) -> rs.collisions) snap.regions)

let test_conservation () =
  List.iter
    (fun (bench, config) ->
      let r, snap = profiled bench config in
      check_conservation bench r snap)
    [
      ("sobel", Runner.l1_8k);
      ("blackscholes", Runner.l1_8k_l2_256k);
      ("fft", Runner.l1_4k);
    ]

let test_baseline_profile () =
  (* Profiling an un-memoized run still attributes every cycle; the memo
     columns just stay empty. *)
  let r, snap = profiled "sobel" Runner.Baseline in
  check_conservation "sobel/baseline" r snap;
  check Alcotest.int "no lookups" 0
    (sum (fun (rs : Profile.region_snap) -> rs.lookups) snap.regions)

(* ------------------------------------------------------------------ *)
(* Zero-cost-when-absent: ?profile = None is bit-identical *)

let test_profile_is_observational () =
  List.iter
    (fun (bench, config) ->
      let plain = Runner.run config (instance bench) in
      let prof, _ = profiled bench config in
      (* wall time is the one result field outside the bit-identity
         contract *)
      let prof = { prof with Runner.sim_wall_seconds = plain.Runner.sim_wall_seconds } in
      Alcotest.(check bool)
        (bench ^ ": results bit-identical") true (plain = prof))
    [ ("sobel", Runner.l1_8k); ("fft", Runner.l1_8k_l2_256k) ]

(* ------------------------------------------------------------------ *)
(* Determinism: serial vs parallel profiled matrix *)

let cells () =
  [
    (Runner.Baseline, instance "sobel");
    (Runner.l1_8k, instance "sobel");
    (Runner.l1_8k_l2_256k, instance "blackscholes");
  ]

let rendered_matrix jobs =
  Runner.run_matrix_profiled ~jobs (cells ())
  |> List.map (fun (_, _, snap) ->
         Profile.render snap ^ Json.to_string ~indent:2 (Profile.to_json snap))
  |> String.concat "\n"

let test_matrix_profiled_serial_parallel_identical () =
  check Alcotest.string "byte-identical profiles" (rendered_matrix 1) (rendered_matrix 4)

(* ------------------------------------------------------------------ *)
(* Merge *)

let test_merge () =
  let _, snap = profiled "sobel" Runner.l1_8k in
  let doubled = Profile.merge [ snap; snap ] in
  check Alcotest.int "cycles doubled" (2 * snap.total_cycles) doubled.total_cycles;
  List.iter2
    (fun (a : Profile.region_snap) (b : Profile.region_snap) ->
      check Alcotest.int "lookups doubled" (2 * a.lookups) b.lookups;
      check Alcotest.int "misses doubled" (2 * a.misses) b.misses;
      check (Alcotest.float 0.0) "err_max is a max, not a sum" a.err_max b.err_max)
    snap.regions doubled.regions;
  Alcotest.check_raises "empty" (Invalid_argument "Profile.merge: empty snapshot list")
    (fun () -> ignore (Profile.merge []));
  let _, other = profiled "fft" Runner.l1_8k in
  Alcotest.check_raises "mismatched regions"
    (Invalid_argument "Profile.merge: snapshots describe different region lists")
    (fun () -> ignore (Profile.merge [ snap; other ]))

(* ------------------------------------------------------------------ *)
(* Renderings *)

let test_folded_format () =
  let _, snap = profiled "sobel" Runner.l1_8k in
  let lines = String.split_on_char '\n' (String.trim (Profile.to_folded snap)) in
  Alcotest.(check bool) "non-empty" true (lines <> []);
  let total =
    sum
      (fun line ->
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "unparsable folded line %S" line
        | Some i ->
            let stack = String.sub line 0 i in
            check Alcotest.int "three frames"
              2
              (String.fold_left (fun n c -> if c = ';' then n + 1 else n) 0 stack);
            Alcotest.(check bool) "app frame" true
              (String.length stack > 7 && String.sub stack 0 7 = "axmemo;");
            int_of_string (String.sub line (i + 1) (String.length line - i - 1)))
      lines
  in
  (* The stacks partition the same cycles the profile reports. *)
  check Alcotest.int "stacks sum to total cycles" snap.total_cycles total

let test_json_section () =
  let _, snap = profiled "sobel" Runner.l1_8k in
  match Profile.to_json snap with
  | Json.Obj fields ->
      Alcotest.(check (list string))
        "section fields" [ "total_cycles"; "regions" ] (List.map fst fields);
      (match List.assoc "total_cycles" fields with
      | Json.Int c -> check Alcotest.int "total" snap.total_cycles c
      | _ -> Alcotest.fail "total_cycles type");
      (match List.assoc "regions" fields with
      | Json.Arr rs ->
          check Alcotest.int "one entry per region" (List.length snap.regions)
            (List.length rs)
      | _ -> Alcotest.fail "regions type")
  | _ -> Alcotest.fail "expected object"

(* ------------------------------------------------------------------ *)
(* Multi-core co-run profiles *)

let corun_cfg =
  {
    Corun.default with
    Corun.workloads = [ "blackscholes"; "sobel" ];
    requests = 4;
    variant = Workload.Sample;
  }

let test_corun_profile_attribution () =
  let o = Cluster.run ~profile:true (Cluster.of_node corun_cfg) in
  let profiles =
    match o.profiles with
    | Some ps -> Array.to_list ps
    | None -> Alcotest.fail "profiles requested but absent"
  in
  let merged = Profile.merge profiles in
  (* Arbitration stalls are fully attributed back to regions. *)
  check Alcotest.int "contention attributed" o.per_node.(0).contention_cycles
    (sum (fun (rs : Profile.region_snap) -> rs.contention_cycles) merged.regions);
  (* Attribution again partitions each core's executed cycles. *)
  let busy = Array.fold_left (fun acc (c : Cluster.core_summary) -> acc + c.busy_cycles) 0 o.cores in
  check Alcotest.int "busy cycles attributed" busy merged.total_cycles;
  List.iter
    (fun (rs : Profile.region_snap) ->
      check Alcotest.int (rs.kernel ^ " reasons sum") rs.misses
        (Array.fold_left ( + ) 0 rs.reasons))
    merged.regions;
  (* The profiled co-run reproduces the unprofiled one bit for bit (wall
     time excepted: it is outside the bit-identity contract). *)
  let plain = Cluster.run (Cluster.of_node corun_cfg) in
  let norm =
    List.map (fun (r : Cluster.request_run) ->
        { r with result = { r.result with Runner.sim_wall_seconds = 0.0 } })
  in
  Alcotest.(check bool) "scheduling unchanged" true
    (norm plain.requests = norm o.requests
    && plain.makespan_cycles = o.makespan_cycles
    && plain.per_node.(0).contention_cycles = o.per_node.(0).contention_cycles)

let test_corun_profile_report_serial_parallel_identical () =
  let report jobs =
    Json.to_string ~indent:2
      (Cluster.corun_report
         (Cluster.run_matrix ~jobs ~profile:true [ Cluster.of_node corun_cfg ]))
  in
  check Alcotest.string "byte-identical corun report" (report 1) (report 4)

(* ------------------------------------------------------------------ *)
(* Diff: tolerances *)

let test_parse_tolerances () =
  (match Diff.parse_tolerances "default=0.01,counters.lut.*=0.05:2" with
  | Error e -> Alcotest.failf "unexpected parse error: %s" e
  | Ok tols ->
      let t = Diff.tol_for tols "summary.cycles" in
      check (Alcotest.float 0.0) "default rel" 0.01 t.Diff.rel;
      check (Alcotest.float 0.0) "default abs" 0.0 t.Diff.abs;
      let t = Diff.tol_for tols "counters.lut.l1.hit" in
      check (Alcotest.float 0.0) "pattern rel" 0.05 t.Diff.rel;
      check (Alcotest.float 0.0) "pattern abs" 2.0 t.Diff.abs);
  (* Longest matching pattern wins. *)
  (match Diff.parse_tolerances "counters.*=0.5,counters.lut.*=0.1" with
  | Error e -> Alcotest.failf "unexpected parse error: %s" e
  | Ok tols ->
      check (Alcotest.float 0.0) "most specific wins" 0.1
        (Diff.tol_for tols "counters.lut.l1.hit").Diff.rel;
      check (Alcotest.float 0.0) "general still applies" 0.5
        (Diff.tol_for tols "counters.other").Diff.rel;
      check (Alcotest.float 0.0) "fallback is exact" 0.0
        (Diff.tol_for tols "summary.cycles").Diff.rel);
  List.iter
    (fun spec ->
      match Diff.parse_tolerances spec with
      | Ok _ -> Alcotest.failf "spec %S should not parse" spec
      | Error _ -> ())
    [ "nonsense"; "x=abc"; "x=-1"; "x=0.1:-2"; "=0.1" ]

(* Diff: report comparison *)

let report_with ?(bench = "bench") ?(config = "cfg") ?(label = "ok") cycles hits =
  let reg = Registry.create () in
  Registry.set_count (Registry.counter reg "lut.hits") hits;
  Report.make
    [
      {
        Report.benchmark = bench;
        config;
        summary = [ ("cycles", Json.Int cycles); ("label", Json.Str label) ];
        metrics = Registry.snapshot reg;
        profile = None;
        service = None;
              cluster = None;
              timeline = None;
              alerts = None;
      };
    ]

let diff_ok ?tol a b =
  match Diff.diff ?tol a b with
  | Ok d -> d
  | Error e -> Alcotest.failf "diff failed: %s" e

let test_diff_identical () =
  let d = diff_ok (report_with 100 7) (report_with 100 7) in
  Alcotest.(check bool) "gate passes" true (Diff.gate_ok d);
  check Alcotest.int "nothing changed" 0 (List.length d.Diff.changed);
  Alcotest.(check bool) "metrics compared" true (List.length d.Diff.deltas >= 2)

let test_diff_detects_regression () =
  let d = diff_ok (report_with 100 7) (report_with 108 7) in
  Alcotest.(check bool) "gate fails" false (Diff.gate_ok d);
  (match d.Diff.violations with
  | [ v ] ->
      check Alcotest.string "metric" "summary.cycles" v.Diff.metric;
      check Alcotest.string "run" "bench/cfg" v.Diff.run_key;
      check (Alcotest.float 0.0) "a" 100.0 v.Diff.a;
      check (Alcotest.float 0.0) "b" 108.0 v.Diff.b;
      check (Alcotest.float 1e-9) "rel" 0.08 v.Diff.rel_delta
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs));
  (* A loose-enough tolerance waves the same drift through... *)
  let tols = Result.get_ok (Diff.parse_tolerances "summary.cycles=0.1") in
  let d = diff_ok ~tol:tols (report_with 100 7) (report_with 108 7) in
  Alcotest.(check bool) "tolerated" true (Diff.gate_ok d);
  check Alcotest.int "still reported as changed" 1 (List.length d.Diff.changed);
  (* ...but not a larger one. *)
  let d = diff_ok ~tol:tols (report_with 100 7) (report_with 120 7) in
  Alcotest.(check bool) "beyond tolerance" false (Diff.gate_ok d)

let test_diff_string_and_missing () =
  (* Non-numeric summary fields compare by equality. *)
  let d = diff_ok (report_with ~label:"ok" 100 7) (report_with ~label:"bad" 100 7) in
  Alcotest.(check bool) "string drift violates" false (Diff.gate_ok d);
  (* A run present on one side only is always a violation. *)
  let d = diff_ok (report_with 100 7) (report_with ~config:"other" 100 7) in
  Alcotest.(check bool) "missing run fails gate" false (Diff.gate_ok d);
  Alcotest.(check (list string)) "missing in b" [ "bench/cfg" ] d.Diff.missing_in_b;
  Alcotest.(check (list string)) "missing in a" [ "bench/other" ] d.Diff.missing_in_a

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_diff_render () =
  let d = diff_ok (report_with 100 7) (report_with 108 7) in
  let text = Diff.render d in
  Alcotest.(check bool) "names the metric" true (contains text "summary.cycles")

let () =
  Alcotest.run "obs"
    [
      ( "profile",
        [
          Alcotest.test_case "conservation" `Slow test_conservation;
          Alcotest.test_case "baseline attribution" `Slow test_baseline_profile;
          Alcotest.test_case "observational" `Slow test_profile_is_observational;
          Alcotest.test_case "serial == parallel" `Slow
            test_matrix_profiled_serial_parallel_identical;
          Alcotest.test_case "merge" `Slow test_merge;
          Alcotest.test_case "folded stacks" `Slow test_folded_format;
          Alcotest.test_case "json section" `Slow test_json_section;
        ] );
      ( "corun",
        [
          Alcotest.test_case "attribution" `Slow test_corun_profile_attribution;
          Alcotest.test_case "serial == parallel report" `Slow
            test_corun_profile_report_serial_parallel_identical;
        ] );
      ( "diff",
        [
          Alcotest.test_case "parse tolerances" `Quick test_parse_tolerances;
          Alcotest.test_case "identical" `Quick test_diff_identical;
          Alcotest.test_case "regression" `Quick test_diff_detects_regression;
          Alcotest.test_case "strings and missing runs" `Quick
            test_diff_string_and_missing;
          Alcotest.test_case "render" `Quick test_diff_render;
        ] );
    ]
