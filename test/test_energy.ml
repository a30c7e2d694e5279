(* Tests for the energy model and the Table 5 synthesis constants. *)

module Syn = Axmemo_energy.Synthesis
module Model = Axmemo_energy.Model
module Pipeline = Axmemo_cpu.Pipeline
module Hierarchy = Axmemo_cache.Hierarchy
module MU = Axmemo_memo.Memo_unit
module Ir = Axmemo_ir.Ir
module Interp = Axmemo_ir.Interp
module Memory = Axmemo_ir.Memory

let test_table5_rows () =
  Alcotest.(check int) "five rows" 5 (List.length Syn.rows);
  List.iter
    (fun (r : Syn.unit_row) ->
      Alcotest.(check bool) (r.unit_name ^ " positive") true
        (r.area_mm2 > 0.0 && r.energy_pj > 0.0 && r.latency_ns > 0.0))
    Syn.rows;
  (* Paper values carried verbatim. *)
  Alcotest.(check (float 1e-9)) "crc32 energy" 2.9143 Syn.crc32_unit.energy_pj;
  Alcotest.(check (float 1e-9)) "16KB lut energy" 7.2340 Syn.lut_16kb.energy_pj

let test_lut_row_selection () =
  Alcotest.(check string) "4k" "LUT (4KB)" (Syn.lut_row_for ~bytes:4096).unit_name;
  Alcotest.(check string) "8k" "LUT (8KB)" (Syn.lut_row_for ~bytes:8192).unit_name;
  Alcotest.(check string) "16k" "LUT (16KB)" (Syn.lut_row_for ~bytes:16384).unit_name

let test_timing_under_half_ns () =
  (* The paper keeps the 2 GHz clock because every unit is under 0.5 ns. *)
  List.iter
    (fun (r : Syn.unit_row) ->
      Alcotest.(check bool) (r.unit_name ^ " < 0.5ns") true (r.latency_ns < 0.5))
    Syn.rows

let test_area_overhead_matches_paper () =
  let o = Syn.area_overhead ~l1_lut_bytes:(16 * 1024) in
  (* Paper: 2.08% with the largest L1 LUT. *)
  Alcotest.(check bool) "close to 2.1%" true (o > 0.015 && o < 0.025);
  let smaller = Syn.area_overhead ~l1_lut_bytes:4096 in
  Alcotest.(check bool) "smaller LUT, smaller overhead" true (smaller < o)

(* Drive a tiny program to obtain consistent stats records. *)
let run_stats instrs =
  let fn =
    {
      Ir.fname = "p";
      params = [||];
      ret_tys = [||];
      nregs = 4;
      pure = false;
      blocks = [| { Ir.label = "entry"; instrs = Array.of_list instrs; term = Ret [||] } |];
    }
  in
  let program = { Ir.funcs = [| fn |] } in
  let hierarchy = Hierarchy.(create hpi_default) in
  let pipe = Pipeline.create ~program ~hierarchy () in
  let t = Interp.create ~hooks:(Pipeline.hooks pipe) ~program ~mem:(Memory.create ()) () in
  ignore (Interp.run t "p" [||]);
  (Pipeline.stats pipe, hierarchy)

let test_model_breakdown_sums () =
  let stats, hierarchy =
    run_stats
      [
        Ir.Const { dst = 0; ty = I32; value = VI 1L };
        Ir.Load { ty = I32; dst = 1; base = Imm (VI 0L); offset = 0 };
      ]
  in
  let b = Model.of_run ~pipeline:stats ~hierarchy ~memo:None ~l1_lut_bytes:8192 () in
  Alcotest.(check (float 1e-6)) "total = parts minus dram"
    (b.pipeline_pj +. b.cache_pj +. b.memo_pj +. b.protection_pj +. b.leakage_pj)
    b.total_pj;
  Alcotest.(check bool) "dram accounted separately" true (b.dram_pj > 0.0);
  Alcotest.(check (float 1e-9)) "no memo hardware" 0.0 b.memo_pj;
  Alcotest.(check (float 1e-9)) "no protection by default" 0.0 b.protection_pj;
  let bp =
    Model.of_run ~protection_pj:42.0 ~pipeline:stats ~hierarchy ~memo:None
      ~l1_lut_bytes:8192 ()
  in
  Alcotest.(check (float 1e-6)) "protection charge lands in the total"
    (b.total_pj +. 42.0) bp.total_pj

let test_model_memo_energy () =
  let stats, hierarchy = run_stats [ Ir.Const { dst = 0; ty = I32; value = VI 1L } ] in
  let unit = MU.create MU.default_config [ { MU.lut_id = 0; payload = Axmemo_ir.Payload.Pf32 } ] in
  let h = MU.hooks unit in
  h.send ~lut:0 ~ty:Ir.F32 ~trunc:0 (Ir.VF 1.0);
  ignore (h.lookup ~lut:0);
  h.update ~lut:0 1L;
  let b =
    Model.of_run ~pipeline:stats ~hierarchy ~memo:(Some (MU.stats unit))
      ~l1_lut_bytes:8192 ()
  in
  Alcotest.(check bool) "memo energy positive" true (b.memo_pj > 0.0)

let test_model_monotone_in_cycles () =
  let s1, h1 = run_stats [ Ir.Const { dst = 0; ty = I32; value = VI 1L } ] in
  let s2, h2 =
    run_stats
      (List.init 50 (fun i -> Ir.Const { dst = 0; ty = I32; value = VI (Int64.of_int i) }))
  in
  let b1 = Model.of_run ~pipeline:s1 ~hierarchy:h1 ~memo:None ~l1_lut_bytes:8192 () in
  let b2 = Model.of_run ~pipeline:s2 ~hierarchy:h2 ~memo:None ~l1_lut_bytes:8192 () in
  Alcotest.(check bool) "more work, more energy" true (b2.total_pj > b1.total_pj)

let test_quality_monitor_constants () =
  Alcotest.(check (float 1e-9)) "area um2" 16.8 Syn.quality_monitor_area_um2;
  Alcotest.(check (float 1e-9)) "power uw" 7.47 Syn.quality_monitor_power_uw;
  Alcotest.(check bool) "latency < 1ns" true (Syn.quality_monitor_latency_ns < 1.0)

let () =
  Alcotest.run "energy"
    [
      ( "synthesis",
        [
          Alcotest.test_case "table 5 rows" `Quick test_table5_rows;
          Alcotest.test_case "lut row selection" `Quick test_lut_row_selection;
          Alcotest.test_case "sub-0.5ns latencies" `Quick test_timing_under_half_ns;
          Alcotest.test_case "area overhead" `Quick test_area_overhead_matches_paper;
          Alcotest.test_case "monitor constants" `Quick test_quality_monitor_constants;
        ] );
      ( "model",
        [
          Alcotest.test_case "breakdown sums" `Quick test_model_breakdown_sums;
          Alcotest.test_case "memo energy" `Quick test_model_memo_energy;
          Alcotest.test_case "monotone" `Quick test_model_monotone_in_cycles;
        ] );
    ]
