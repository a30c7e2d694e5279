module Ir = Axmemo_ir.Ir
module Interp = Axmemo_ir.Interp
module Hierarchy = Axmemo_cache.Hierarchy
module Pipeline = Axmemo_cpu.Pipeline
module Memo_unit = Axmemo_memo.Memo_unit
module Model = Axmemo_energy.Model
module Transform = Axmemo_compiler.Transform
module Workload = Axmemo_workloads.Workload
module Registry = Axmemo_telemetry.Registry
module Tracer = Axmemo_telemetry.Tracer
module Fault_model = Axmemo_faults.Fault_model
module Injector = Axmemo_faults.Injector
module Protection = Axmemo_faults.Protection
module Profile = Axmemo_obs.Profile

type config =
  | Baseline
  | Hw_memo of {
      l1_bytes : int;
      l2_bytes : int option;
      approximate : bool;
      monitor : bool;
      total_l2 : int option;
      adaptive : bool;
    }
  | Hw_custom of {
      label : string;
      unit_cfg : Memo_unit.config;
      approximate : bool;
      crc_bytes_per_cycle : int;
    }
  | Software of { table_log2 : int }
  | Atm of { table_log2 : int }

let kb n = n * 1024

let l1_4k =
  Hw_memo
    { l1_bytes = kb 4; l2_bytes = None; approximate = true; monitor = true; total_l2 = None; adaptive = false }

let l1_8k =
  Hw_memo
    { l1_bytes = kb 8; l2_bytes = None; approximate = true; monitor = true; total_l2 = None; adaptive = false }

let l1_8k_l2_256k =
  Hw_memo
    {
      l1_bytes = kb 8;
      l2_bytes = Some (kb 256);
      approximate = true;
      monitor = true;
      total_l2 = None;
      adaptive = false;
    }

let l1_8k_l2_512k =
  Hw_memo
    {
      l1_bytes = kb 8;
      l2_bytes = Some (kb 512);
      approximate = true;
      monitor = true;
      total_l2 = None;
      adaptive = false;
    }

let software_default = Software { table_log2 = 22 }
let atm_default = Atm { table_log2 = 22 }

let config_label = function
  | Baseline -> "baseline"
  | Hw_memo { l1_bytes; l2_bytes; approximate; total_l2; adaptive; _ } ->
      let base =
        match l2_bytes with
        | None -> Printf.sprintf "L1(%dKB)" (l1_bytes / 1024)
        | Some l2 -> Printf.sprintf "L1(%dKB)+L2(%dKB)" (l1_bytes / 1024) (l2 / 1024)
      in
      let base =
        match total_l2 with
        | None -> base
        | Some b -> Printf.sprintf "%s@L2cache=%dKB" base (b / 1024)
      in
      let base = if adaptive then base ^ "-adaptive" else base in
      if approximate then base else base ^ "-noapprox"
  | Hw_custom { label; _ } -> label
  | Software _ -> "Software LUT"
  | Atm _ -> "ATM"

type result = {
  label : string;
  cycles : int;
  seconds : float;
  sim_wall_seconds : float;
  dyn_normal : int;
  dyn_memo : int;
  pipeline : Pipeline.stats;
  energy : Model.breakdown;
  lookups : int;
  hits : int;
  hit_rate : float;
  collisions : int;
  memo_disabled : bool;
  trip_lookup : int option;
  faults : Injector.stats option;
  crashed : string option;
  outputs : Workload.outputs;
}

(* Both ratio helpers are total: reports must stay nan/inf-free even for
   degenerate cells (an empty program, a crashed faulty run with nothing
   charged). Two zeroes compare equal — ratio 1 — and a lone zero
   denominator is clamped to one cycle / one picojoule. *)
let guarded_ratio num den =
  if num = 0.0 && den = 0.0 then 1.0 else num /. Float.max den 1.0

let speedup ~baseline other =
  guarded_ratio (float_of_int baseline.cycles) (float_of_int other.cycles)

let energy_saving ~baseline other =
  guarded_ratio baseline.energy.Model.total_pj other.energy.Model.total_pj

let hit_ratio ~hits ~lookups =
  if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups

(* Block-label based hit counting for the software schemes: an observer to
   compose into the run's hooks, and a reader of (lookups, hits). *)
let sw_hit_counter program =
  let hit_sites = Hashtbl.create 64 and miss_sites = Hashtbl.create 64 in
  Array.iter
    (fun (f : Ir.func) ->
      Array.iteri
        (fun bidx (b : Ir.block) ->
          if String.starts_with ~prefix:Axmemo_baselines.Sw_engine.hit_prefix b.label
          then Hashtbl.replace hit_sites (f.fname, bidx) ()
          else if
            String.starts_with ~prefix:Axmemo_baselines.Sw_engine.miss_prefix b.label
          then Hashtbl.replace miss_sites (f.fname, bidx) ())
        f.blocks)
    (program : Ir.program).funcs;
  let hits = ref 0 and misses = ref 0 in
  (* Each block's first instruction decides once whether it opens a hit or
     a miss block. *)
  let exec_site fname bidx iidx _instr =
    if iidx <> 0 then ignore
    else if Hashtbl.mem hit_sites (fname, bidx) then fun _ -> incr hits
    else if Hashtbl.mem miss_sites (fname, bidx) then fun _ -> incr misses
    else ignore
  in
  ({ Interp.no_hooks with exec_site }, fun () -> (!hits + !misses, !hits))

let machine = Axmemo_cpu.Machine.hpi

(* ---- one request on one core -------------------------------------------

   Every engine simulates a request the same way: a pipeline wired to the
   core's memo unit (when it has one), the program executed under the DUE
   policy, and one [result] assembled from the statistics. Runner's
   configurations and the co-run's per-core requests differ only in what
   they hand [execute]. *)

type memo = {
  unit : Memo_unit.t;
  hooks : Interp.memo_hooks;
  l1_lut_bytes : int;
  l2_lut_present : bool;
  crc_bytes_per_cycle : int;
  crashes : bool;
  l3_rows : unit -> int * int;
}

(* The level that serviced the most recent lookup: the pipeline's lookup
   charge and the tracer's LUT instants both read it. *)
let lookup_level unit () =
  match Memo_unit.last_lookup_level unit with
  | Memo_unit.Hit_l1 -> `L1
  | Memo_unit.Hit_l2 -> `L2
  | Memo_unit.Hit_l3 -> `L3
  | Memo_unit.Miss -> `Miss

let stats_delta (a : Memo_unit.stats) (b : Memo_unit.stats) : Memo_unit.stats =
  {
    sends = b.sends - a.sends;
    bytes_hashed = b.bytes_hashed - a.bytes_hashed;
    lookups = b.lookups - a.lookups;
    l1_hits = b.l1_hits - a.l1_hits;
    l2_hits = b.l2_hits - a.l2_hits;
    l3_hits = b.l3_hits - a.l3_hits;
    misses = b.misses - a.misses;
    forced_misses = b.forced_misses - a.forced_misses;
    updates = b.updates - a.updates;
    invalidations = b.invalidations - a.invalidations;
    collisions = b.collisions - a.collisions;
    monitor_comparisons = b.monitor_comparisons - a.monitor_comparisons;
  }

let execute ~label ~wall_start ~metrics ~profile ~backend ~memo ~observe ~program
    ~hierarchy (instance : Workload.instance) =
  let pipe =
    Pipeline.create ?metrics ?profile ~machine
      ?lookup_level:(Option.map (fun m -> lookup_level m.unit) memo)
      ?l2_lut_present:(Option.map (fun m -> m.l2_lut_present) memo)
      ?l3_lookup_cycles:(Option.map (fun m () -> Memo_unit.last_probe_cycles m.unit) memo)
      ?l1_lut_ways:(Option.map (fun m -> Memo_unit.l1_ways m.unit) memo)
      ?crc_bytes_per_cycle:(Option.map (fun m -> m.crc_bytes_per_cycle) memo)
      ~program ~hierarchy ()
  in
  (* Observers run after the pipeline's own hooks, so a clock they read
     shows post-charge cycle counts. *)
  let hooks = Interp.combine_hooks (Pipeline.hooks pipe) (observe pipe) in
  (* A unit may outlive the request (a co-run core's), so the request is
     billed the change in its counters. *)
  let before = Option.map (fun m -> (Memo_unit.stats m.unit, m.l3_rows ())) memo in
  let interp =
    Interp.create ?memo:(Option.map (fun m -> m.hooks) memo) ~hooks ?backend ~program
      ~mem:instance.mem ()
  in
  let run () =
    ignore (Interp.run interp instance.entry instance.args);
    None
  in
  let crashed =
    match memo with
    | Some { crashes = true; _ } -> (
        (* An injected fault can steer the simulated program into failure —
           e.g. a corrupted payload used in address arithmetic exhausts the
           memory model. In SEU terms that is a crash (DUE) outcome of the
           campaign, not a harness error: record it and keep every statistic
           gathered up to the crash. Outputs read back whatever was written
           before the failure (the buffers are pre-allocated). *)
        try run () with e -> Some (Printexc.to_string e))
    | Some { crashes = false; _ } | None -> run ()
  in
  Pipeline.profile_close pipe;
  (* [metrics] is the run's own registry: every model of the run mirrors its
     counters into it once, when the run ends. *)
  if Option.is_some metrics then begin
    Option.iter (fun m -> Memo_unit.flush_metrics m.unit) memo;
    Pipeline.flush_metrics pipe;
    Hierarchy.flush_metrics hierarchy
  end;
  let ms, (l3_row_hits, l3_activations) =
    match (memo, before) with
    | Some m, Some (s0, (h0, a0)) ->
        let h, a = m.l3_rows () in
        (Some (stats_delta s0 (Memo_unit.stats m.unit)), (h - h0, a - a0))
    | _ -> (None, (0, 0))
  in
  let injector = Option.bind memo (fun m -> Memo_unit.injector m.unit) in
  let faults = Option.map Injector.stats injector in
  let protection_pj =
    match (injector, faults, ms) with
    | Some inj, Some (s : Injector.stats), Some (ms : Memo_unit.stats) ->
        Protection.energy_pj (Injector.protection inj) ~lookups:ms.lookups
          ~updates:ms.updates ~corrections:s.secded_corrected
    | _ -> 0.0
  in
  let lookups, hits, collisions =
    match ms with
    | Some ms -> (ms.lookups, ms.l1_hits + ms.l2_hits + ms.l3_hits, ms.collisions)
    | None -> (0, 0, 0)
  in
  let pipeline = Pipeline.stats pipe in
  {
    label;
    cycles = pipeline.cycles;
    seconds = float_of_int pipeline.cycles /. (machine.Axmemo_cpu.Machine.freq_ghz *. 1e9);
    sim_wall_seconds = Unix.gettimeofday () -. wall_start;
    dyn_normal = pipeline.dyn_normal;
    dyn_memo = pipeline.dyn_memo;
    pipeline;
    energy =
      Model.of_run ~protection_pj ~l3_row_hits ~l3_activations ~pipeline ~hierarchy
        ~memo:ms
        ~l1_lut_bytes:(match memo with Some m -> m.l1_lut_bytes | None -> kb 8)
        ();
    lookups;
    hits;
    hit_rate = hit_ratio ~hits ~lookups;
    collisions;
    memo_disabled = (match memo with Some m -> Memo_unit.disabled m.unit | None -> false);
    trip_lookup = Option.bind memo (fun m -> Memo_unit.trip_lookup m.unit);
    faults;
    crashed;
    outputs = instance.read_outputs ();
  }

(* ---- the evaluated systems --------------------------------------------- *)

(* Hw_memo and Hw_custom differ only in how the unit configuration is
   assembled. *)
let prepare_hw ?metrics ?profile ~(unit_cfg : Memo_unit.config) ~approximate ~total_l2
    ~crc_bytes_per_cycle (instance : Workload.instance) =
  let regions =
    if approximate then instance.regions
    else List.map Transform.zero_truncs instance.regions
  in
  let program =
    Transform.memoize ?barrier:instance.barrier ~entry:instance.entry instance.program
      regions
  in
  let hier_base =
    match total_l2 with
    | None -> Hierarchy.hpi_default
    | Some b ->
        (* Scale the way count with capacity to keep 64 KB ways. *)
        { Hierarchy.hpi_default with l2_size = b; l2_ways = b / (64 * 1024) }
  in
  let hier_cfg =
    match unit_cfg.l2_bytes with
    | None -> hier_base
    | Some lut -> Hierarchy.carve_l2 hier_base ~lut_bytes:lut
  in
  let hierarchy = Hierarchy.create ?metrics hier_cfg in
  let unit =
    Memo_unit.create ?metrics
      ?profile:(Option.map Profile.memo_hooks profile)
      unit_cfg
      (Transform.lut_decls instance.program regions)
  in
  ( program,
    hierarchy,
    Some
      {
        unit;
        hooks = Memo_unit.hooks unit;
        l1_lut_bytes = unit_cfg.l1_bytes;
        l2_lut_present = unit_cfg.l2_bytes <> None;
        crc_bytes_per_cycle;
        crashes = Memo_unit.injector unit <> None;
        l3_rows = (fun () -> (0, 0));
      } )

(* What a configuration runs: its program, the core's data caches and, for
   the hardware systems, the memo unit. *)
let prepare ?metrics ?profile config (instance : Workload.instance) =
  match config with
  | Baseline -> (instance.program, Hierarchy.create ?metrics Hierarchy.hpi_default, None)
  | Hw_memo { l1_bytes; l2_bytes; approximate; monitor; total_l2; adaptive } ->
      let unit_cfg =
        {
          Memo_unit.default_config with
          l1_bytes;
          l2_bytes;
          monitor;
          adaptive = (if adaptive then Some Memo_unit.default_adaptive else None);
        }
      in
      prepare_hw ?metrics ?profile ~unit_cfg ~approximate ~total_l2
        ~crc_bytes_per_cycle:Axmemo_isa.Timing.crc_bytes_per_cycle instance
  | Hw_custom { unit_cfg; approximate; crc_bytes_per_cycle; _ } ->
      prepare_hw ?metrics ?profile ~unit_cfg ~approximate ~total_l2:None
        ~crc_bytes_per_cycle instance
  | Software { table_log2 } | Atm { table_log2 } ->
      let sw_memoize =
        match config with
        | Atm _ -> Axmemo_baselines.Atm.memoize ?seed:None
        | Baseline | Hw_memo _ | Hw_custom _ | Software _ ->
            Axmemo_baselines.Software_memo.memoize
      in
      let program =
        sw_memoize ~mem:instance.mem ~table_log2 ~entry:instance.entry
          ?barrier:instance.barrier instance.program instance.regions
      in
      (program, Hierarchy.create ?metrics Hierarchy.hpi_default, None)

(* A cycle-clock trace of one run: function-activation spans, LUT hit/miss
   instants and, with an injector attached, fault instants on the same
   clock, so a trace view correlates upsets with the misses they cause. *)
let start_tracer ~label ~memo pipe =
  let tr = Tracer.create ~clock:(fun () -> Pipeline.cycles pipe) () in
  Tracer.name_process tr ~pid:0 (Printf.sprintf "axmemo %s (1 cycle = 1 us)" label);
  Tracer.name_thread tr ~tid:0 "cpu";
  (match Option.bind memo (fun m -> Memo_unit.injector m.unit) with
  | Some inj ->
      Injector.set_on_fault inj (fun site ->
          Tracer.instant tr ("fault_" ^ Fault_model.site_name site))
  | None -> ());
  (* The lookup's memo hook has already run when its site fires, so the
     last lookup level names the level that serviced it. *)
  let exec_site _fname _bidx _iidx (instr : Ir.instr) =
    match (instr, memo) with
    | Ir.Memo (Ir.Lookup _), Some m ->
        fun _ ->
          Tracer.instant tr
            (match lookup_level m.unit () with
            | `L1 -> "lut_hit_l1"
            | `L2 -> "lut_hit_l2"
            | `L3 -> "lut_hit_l3"
            | `Miss -> "lut_miss")
    | Ir.Memo (Ir.Invalidate _), Some _ -> fun _ -> Tracer.instant tr "lut_invalidate"
    | _ -> ignore
  in
  ( tr,
    {
      Interp.no_hooks with
      on_enter = (fun fname -> Tracer.begin_span tr fname);
      on_leave = (fun fname -> Tracer.end_span tr fname);
      exec_site;
    } )

let run_impl ?metrics ?profile ?(trace = false) ?backend config
    (instance : Workload.instance) =
  (* Wall time covers the full simulation of the cell (model assembly,
     execution, metric flushes) — the throughput number the perf gate
     watches, and the one field excluded from the bit-identity contract. *)
  let wall_start = Unix.gettimeofday () in
  let label = config_label config in
  let program, hierarchy, memo = prepare ?metrics ?profile config instance in
  let counter =
    match config with
    | Software _ | Atm _ -> Some (sw_hit_counter program)
    | Baseline | Hw_memo _ | Hw_custom _ -> None
  in
  let tracer = ref None in
  let observe pipe =
    (* Per-cycle fault rates integrate over the pipeline's simulated clock. *)
    (match Option.bind memo (fun m -> Memo_unit.injector m.unit) with
    | Some inj -> Injector.set_clock inj (fun () -> Pipeline.cycles pipe)
    | None -> ());
    let traced =
      if trace then begin
        let tr, hooks = start_tracer ~label ~memo pipe in
        tracer := Some tr;
        hooks
      end
      else Interp.no_hooks
    in
    match counter with
    | Some (count, _) -> Interp.combine_hooks count traced
    | None -> traced
  in
  let result =
    execute ~label ~wall_start ~metrics
      ~profile:(Option.map Profile.pipeline_profile profile)
      ~backend ~memo ~observe ~program ~hierarchy instance
  in
  match counter with
  | None -> (result, !tracer)
  | Some (_, counts) ->
      let lookups, hits = counts () in
      ({ result with lookups; hits; hit_rate = hit_ratio ~hits ~lookups }, !tracer)

let run ?profile ?backend config instance =
  fst (run_impl ?profile ?backend config instance)

let profile_regions (instance : Workload.instance) =
  List.map (fun (r : Transform.region) -> (r.kernel, r.lut_id)) instance.regions

let run_telemetry ?(trace = false) ?profile ?backend config instance =
  let reg = Registry.create () in
  let result, tracer = run_impl ~metrics:reg ?profile ~trace ?backend config instance in
  (result, Registry.snapshot reg, tracer)

(* Parallel experiment matrix. Every (config, instance) cell is an
   independent simulation: each owns its Memory.t (inside the instance),
   Hierarchy.t, Pipeline.t and Memo_unit.t, so cells fan out over a
   Axmemo_util.Pool of domains with no shared mutable state. Results keep
   the input order and are bit-identical to a serial [List.map (run ...)]
   because the simulator is deterministic and cells never interact. *)
let run_matrix ?jobs ?backend cells =
  Axmemo_util.Pool.run ?jobs (fun (config, instance) -> run ?backend config instance) cells

(* Telemetry composes with the pool because each worker builds the cell's
   registry on its own domain — no instrument is ever shared. Snapshots
   come back in input (cell) order, so any downstream [Registry.merge] is
   deterministic and independent of [jobs]. *)
let run_matrix_telemetry ?jobs ?backend cells =
  Axmemo_util.Pool.run ?jobs
    (fun (config, instance) ->
      let reg = Registry.create () in
      let result, _ = run_impl ~metrics:reg ?backend config instance in
      (result, Registry.snapshot reg))
    cells

(* Each worker builds the cell's collector on its own domain, and snapshots
   come back in cell order, so profile reports are byte-identical between
   serial and parallel execution — pinned by test_obs. *)
let run_matrix_profiled ?jobs ?backend cells =
  Axmemo_util.Pool.run ?jobs
    (fun (config, instance) ->
      let reg = Registry.create () in
      let profile = Profile.create ~regions:(profile_regions instance) in
      let result, _ = run_impl ~metrics:reg ~profile ?backend config instance in
      (result, Registry.snapshot reg, Profile.snapshot profile))
    cells
