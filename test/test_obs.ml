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
(* Golden pins: every workload x four systems, profiled with telemetry.
   The digests were captured from the timing model before its per-event
   and per-site paths were merged; any change to a charged class, a
   latency, a region attribution or a telemetry counter moves one of them. *)

let result_fingerprint (r : Runner.result) =
  let b = Buffer.create 1024 in
  let f x = Printf.bprintf b "%h;" x and i x = Printf.bprintf b "%d;" x in
  Printf.bprintf b "%S;" r.label;
  i r.cycles;
  f r.seconds;
  i r.dyn_normal;
  i r.dyn_memo;
  let p = r.pipeline in
  i p.cycles;
  i p.dyn_normal;
  i p.dyn_memo;
  List.iter
    (fun (c, n) -> Printf.bprintf b "%s=%d;" (Axmemo_cpu.Pipeline.class_name c) n)
    p.per_class;
  i p.crc_stall_cycles;
  let e = r.energy in
  List.iter f
    [
      e.pipeline_pj; e.cache_pj; e.dram_pj; e.l3_pj; e.memo_pj; e.protection_pj;
      e.leakage_pj; e.net_pj; e.total_pj;
    ];
  i r.lookups;
  i r.hits;
  f r.hit_rate;
  i r.collisions;
  Printf.bprintf b "%b;" r.memo_disabled;
  Option.iter i r.trip_lookup;
  Printf.bprintf b "faults=%b;" (Option.is_some r.faults);
  Option.iter (Printf.bprintf b "%S;") r.crashed;
  (match r.outputs with
  | Workload.Floats a -> Array.iter f a
  | Workload.Bools a -> Array.iter (fun x -> Printf.bprintf b "%b;" x) a);
  Buffer.contents b

let md5 s = Digest.to_hex (Digest.string s)

(* (profile, registry, result) digests per cell, captured at the reference
   model; [sim_wall_seconds] is zeroed by omission from the fingerprint. *)
let golden_configs =
  [
    ("baseline", Runner.Baseline);
    ("l1_8k", Runner.l1_8k);
    ("l1_8k_l2_256k", Runner.l1_8k_l2_256k);
    ("software", Runner.software_default);
  ]

let golden_digests : ((string * string) * (string * string * string)) list =
  [
    (("blackscholes", "baseline"), ("9b7eef272766e80454535d5507e7d989", "173e94a5ad4e3aefa2c95442ffff5ada", "b4d5406b025c29218ac1654a594aa88d"));
    (("blackscholes", "l1_8k"), ("8db779d59b1778f353c56035c0904828", "6ed637d964490ea480c2f58f6dfe8c58", "de4bb206fc272507407ad689d95c1e4f"));
    (("blackscholes", "l1_8k_l2_256k"), ("0a601b37480fd0911f45fd99df6423a1", "88a6a59fb0615f9993b8f282f9863616", "58c4f34b0f13b47ee683eefbd9da9986"));
    (("blackscholes", "software"), ("be14274b55fb78875adbc2e329099a6c", "5e4626fee5749c870ef71e89d935094d", "bef6b39a2e99366ac4377378abdf0830"));
    (("fft", "baseline"), ("846186b6b3dd4208ec89dea9bfc93729", "1b70cfb70c19a9164149eb1bc41f6d2f", "c69ccdb71baca6505f85c390a25beb65"));
    (("fft", "l1_8k"), ("fe91c946b900b972da1d6f83f09e0cfa", "ba29a3cada359cfcba7d7677e53b4ad9", "8f10f6592176fa2af96c677af2e8b527"));
    (("fft", "l1_8k_l2_256k"), ("5a21af4885a053f12e231aae75a3d09d", "c78993778f6a72fe50e936ee74bd823d", "aa12a3b58ffb2b7f785d5b462ecc83f2"));
    (("fft", "software"), ("5130661cc4166d2af5dc71635159230d", "d604f753557595d9431a4b3ef9407bba", "952db3a7790af2bb6a4fa0e31bfa85f3"));
    (("inversek2j", "baseline"), ("dacf5251d854d399a6bc28f1b7504264", "939ebca0fedef16704f313a6ebd746c2", "e766c5f977e5af94a12c32114b4784f2"));
    (("inversek2j", "l1_8k"), ("6f38348cb19bdfed7217a4671a7eb1be", "2bd5f575c7de80ed371bd53df6c6e1e1", "bfbb2d22f27fed0f86d0c3df58602026"));
    (("inversek2j", "l1_8k_l2_256k"), ("e25363bf11c6cd8fae6c24c71b51f87a", "63d46cafcf90d0b5622416d2d1c961b5", "7c5fb7a659f6f892e5155c903e3f6424"));
    (("inversek2j", "software"), ("7f21feb21ad0a06b0826647c4f8fac3d", "92d137aa6184c2865896a82d2f95c45e", "d39e8cd0645fa8b90e8cfb4a56307008"));
    (("jmeint", "baseline"), ("ace15ff95ac4dc20839d40ffcfd83860", "f29a2bdd25e7318fa1b17d42d66230db", "b9931c8564f4680b05d193f4d2bd4b20"));
    (("jmeint", "l1_8k"), ("2f51df66bd23ab5fb519fef715bef977", "c1542a8f485b51f979052d2e2e660d08", "08539bd5b93e934a5fdc006d173f8503"));
    (("jmeint", "l1_8k_l2_256k"), ("20234d72e8658347ac68c044a82743b7", "40051773a7bbc6c3a6be275d8c4b3a5a", "db1b744785e254003bdac55cf906a717"));
    (("jmeint", "software"), ("3c1ee62c3ee9db90b1f48ce21573936d", "6615936ef49eed6e7e9c2dce309f916d", "33e73a62dc95319f5ef04f1d4b1b013e"));
    (("jpeg", "baseline"), ("016859edeb5936a31dfc72e854f5d37b", "6ec83dfa1de80a5ea90e4bf019a7c061", "cc87de23df180af98e4c4b94ed3c8594"));
    (("jpeg", "l1_8k"), ("2257c7150bbce7fa9361383012677452", "dd795df11421c036c9bd4e8cb5a5f416", "06fcf1d3d1b4312f20c2f5209f92e854"));
    (("jpeg", "l1_8k_l2_256k"), ("6a0b46cb4d8d624afd38ac4dae419278", "f945a9087f25c849d54d564361393f6b", "0d54b42bef9ef562d25e444ff61fbfd0"));
    (("jpeg", "software"), ("51ebcefc3dcd6e6e61f0f894b0c2f9a0", "822873254067fd20d32cfbc94e45f987", "b6fc7e2d845a1d6fc57e45b7581a1876"));
    (("kmeans", "baseline"), ("32e3ed11512b48944259564a43483b86", "7661e9f5063d8a2081c265c4d2db9948", "b7052f2ca663da35aa2c1334d6510527"));
    (("kmeans", "l1_8k"), ("2d0df3d387e501f718415536a8f62886", "a93dcdc89808a27001c35c569e80aa8f", "21d181215323d2dac71861a7b7327ef7"));
    (("kmeans", "l1_8k_l2_256k"), ("5381e8d1aada4228310f336e6e34575a", "f584bf293dd25dc46bfce3dc2bc842e4", "3b7815162d6f89c98bbad93d2b3870b8"));
    (("kmeans", "software"), ("f7913124932cc651123cafbe5ba782fd", "05a61d023c3e9f0203e98aa1ee4c1a12", "bd6da7f3f591996834697518b2e3f331"));
    (("sobel", "baseline"), ("8e4852aeedf50c7ad1c90bb8a35123ca", "0759a72f4427daf62eedca108b92d5bc", "391cf88039ca87a8dbef80d29f574435"));
    (("sobel", "l1_8k"), ("960248db06965804a17ab9bf877c0b1d", "9b581f086596b3339459263fd996ae81", "2fbecd5861345aa99fca6bb9fe686fb5"));
    (("sobel", "l1_8k_l2_256k"), ("4c29e090d15df7da894829e40fb14f3a", "e68eb4810e4f1859c9083fdb8ede4dba", "d9572fb818cf4430e41ab23ea4b159ce"));
    (("sobel", "software"), ("5dc7cee3054cd0c17dde8a6e29508c99", "198772a6a6745a3b4a2d8085043e5bb7", "8c34d90169247666113e1ac817f14e0d"));
    (("hotspot", "baseline"), ("61d76c576ea8b00a663ce4aaf7e3de25", "91e39ec53f74ad775ee2c19b4ba16d08", "64d87beeab89854ed76c3874d8069d61"));
    (("hotspot", "l1_8k"), ("bc95181e6e0b5b01fcb6a22139b1704c", "d1e72def6bc231cdbd06e4d8818dc507", "9693e3d68890cefb878c2ac9d4488304"));
    (("hotspot", "l1_8k_l2_256k"), ("302f37848a009fe6fa3cd96925c256c0", "12466468fabd03f8e97d876abc0f42cb", "464ed845bc33b40d8413fdc1f3a8d669"));
    (("hotspot", "software"), ("3f8c564a24a0bd2ef2a2801ff365a0cb", "07ed50cc7f0d24670343e92b7f22ea18", "a3fb01e753e868728889c3c83a9c68db"));
    (("lavamd", "baseline"), ("16246a401217c603da4a978b1bbb26bb", "2500a3658ff9f4379698dcd81845bc16", "bf9b26d7c478f5615964493eca9c62c1"));
    (("lavamd", "l1_8k"), ("1e39d304221e138ec6547d60872ccd18", "03f3dc09528e6e193267497fe174c040", "d63b7a4e5842b7b3f26b77be9f10dc4c"));
    (("lavamd", "l1_8k_l2_256k"), ("b17a56809503b894041c5ba120433572", "1d53aa1f9ce755e8f4c7c30971bf0460", "85f6933ab6623afada110df601e38bf7"));
    (("lavamd", "software"), ("fec777b1db21dd104738992ebf650915", "536a555d76873ac0a437c1f3f868e0ae", "1a6d905ba7c190007f8b493147435633"));
    (("srad", "baseline"), ("1a3aec2088f4247228075ba40fbeff98", "68574a266083a98595a2254606cfd52c", "da442fd43067348e68bcb906d8537986"));
    (("srad", "l1_8k"), ("6d083b50261b16ba0d49b082965b9d1d", "dc8d9142705362f01aa3a24c11c971af", "b4f863f0919a0a5dbbaa31c3475eee8b"));
    (("srad", "l1_8k_l2_256k"), ("ca4e5a7f8defe254265602a5f87ac6ba", "77ce29c9c2549200908f24c6e6a2f623", "c12254edfff2270c672378f76c7ed066"));
    (("srad", "software"), ("76a5b5de503dfd85f3bf700efc1b934c", "2e467abfe14a434bbd07bd6799e31b14", "bf20926a1ea10207687444dd8195a662"));
  ]

let golden_cell bench config =
  let inst = instance bench in
  let p = Profile.create ~regions:(Runner.profile_regions inst) in
  let r, metrics, _ = Runner.run_telemetry ~profile:p config inst in
  ( md5 (Json.to_string (Profile.to_json (Profile.snapshot p))),
    md5 (Json.to_string (Registry.to_json metrics)),
    md5 (result_fingerprint r) )

let test_profile_golden () =
  List.iter
    (fun bench ->
      List.iter
        (fun (cname, config) ->
          let cell = Printf.sprintf "%s/%s" bench cname in
          let prof, reg, res = golden_cell bench config in
          match List.assoc_opt (bench, cname) golden_digests with
          | None -> Alcotest.failf "%s: no golden digest" cell
          | Some (gp, gr, gres) ->
              check Alcotest.string (cell ^ " profile") gp prof;
              check Alcotest.string (cell ^ " registry") gr reg;
              check Alcotest.string (cell ^ " result") gres res)
        golden_configs)
    WReg.names

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
          Alcotest.test_case "profile golden" `Slow test_profile_golden;
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
