module Interp = Axmemo_ir.Interp
module Hierarchy = Axmemo_cache.Hierarchy
module Pipeline = Axmemo_cpu.Pipeline
module Machine = Axmemo_cpu.Machine
module Memo_unit = Axmemo_memo.Memo_unit
module Model = Axmemo_energy.Model
module Transform = Axmemo_compiler.Transform
module Workload = Axmemo_workloads.Workload
module Workloads = Axmemo_workloads.Registry
module Registry = Axmemo_telemetry.Registry
module Report = Axmemo_telemetry.Report
module Timing = Axmemo_isa.Timing
module Fault_model = Axmemo_faults.Fault_model
module Injector = Axmemo_faults.Injector
module Runner = Axmemo.Runner
module Profile = Axmemo_obs.Profile
module Dram_lut = Axmemo_tier.Dram_lut
module Snapshot = Axmemo_tier.Snapshot
module Json = Axmemo_util.Json
module Pool = Axmemo_util.Pool
module Rng = Axmemo_util.Rng

type config = {
  ncores : int;
  l1_bytes : int;
  shared_l2_bytes : int;
  partition : Shared_lut.partition;
  banks : int;
  ports : int;
  workloads : string list;
  requests : int;
  variant : Workload.variant;
  retain_luts : bool;
  faults : Fault_model.spec option;  (* strikes the shared LUT's storage *)
  l3 : Dram_lut.config option;  (* DRAM LUT tier behind the shared level *)
}

let default =
  {
    ncores = 2;
    l1_bytes = 8 * 1024;
    shared_l2_bytes = 512 * 1024;
    partition = Shared_lut.Free_for_all;
    banks = 8;
    ports = 1;
    workloads = [ "blackscholes" ];
    requests = 8;
    variant = Workload.Sample;
    retain_luts = true;
    faults = None;
    l3 = None;
  }

(* The l3 suffix appears only when the tier is configured, so every
   pre-existing label — and everything keyed off it (baselines, arrival
   seeds) — is untouched by tier-less runs. *)
let label cfg =
  Printf.sprintf "corun(%dcore,%s,%s%s)" cfg.ncores
    (Shared_lut.partition_name cfg.partition)
    (String.concat "+" cfg.workloads)
    (match cfg.l3 with
    | None -> ""
    | Some c -> Printf.sprintf ",l3=%dKB" (c.Dram_lut.size_bytes / 1024))

let machine = Machine.hpi

(* ---- workload mix ----------------------------------------------------- *)

(* One co-run mixes programs that each number their logical LUTs from zero,
   while the per-core unit and the shared level serve a single LUT_ID
   namespace. Each workload therefore gets its regions renumbered onto a
   disjoint id range (in mix order, region order preserved), which leaves a
   single-workload mix — and hence the 1-core Runner.run equivalence —
   untouched, since every benchmark already numbers its regions 0..n-1.
   [make] is pure, so one probe instance per workload supplies the
   renumbered regions and LUT declarations for the cluster's lifetime. *)
type mix_entry = {
  wname : string;
  make : Workload.variant -> Workload.instance;
  regions : Transform.region list;  (* renumbered onto the mix namespace *)
  decls : Memo_unit.lut_decl list;  (* LUT declarations for [regions] *)
}

let remap_regions ~offset regions =
  if offset = 0 then regions
  else
    List.map
      (fun (r : Transform.region) -> { r with Transform.lut_id = r.Transform.lut_id + offset })
      regions

let resolve_mix cfg =
  (match cfg.workloads with
  | [] -> invalid_arg "Corun: empty workload mix"
  | _ -> ());
  let next = ref 0 in
  let mix =
    List.map
      (fun name ->
        match Workloads.find name with
        | None -> invalid_arg (Printf.sprintf "Corun: unknown benchmark %S" name)
        | Some (_meta, make) ->
            let probe = make cfg.variant in
            let regions = remap_regions ~offset:!next probe.Workload.regions in
            next := !next + List.length regions;
            {
              wname = name;
              make;
              regions;
              decls = Transform.lut_decls probe.Workload.program regions;
            })
      cfg.workloads
  in
  if !next > 8 then
    invalid_arg
      (Printf.sprintf
         "Corun: the workload mix needs %d logical LUTs but LUT_ID is 3 bits (max 8)"
         !next);
  mix

(* ---- cluster ---------------------------------------------------------- *)

type core_timing = { mutable base : int; mutable clock : unit -> int }

type core = {
  id : int;
  timing : core_timing;
  unit_ : Memo_unit.t;
  hierarchy : Hierarchy.t;
  metrics : Registry.t option;
}

type cluster = {
  cfg : config;
  mix : mix_entry list;
  shared : Shared_lut.t;
  l3 : Dram_lut.t option;  (* DRAM tier absorbing shared-level spills *)
  arbiter : Arbiter.t;
  cores : core array;
  cluster_metrics : Registry.t option;
  injector : Injector.t option;
  active : core_timing ref;
  profiles : Profile.t array option;  (* one collector per core *)
  on_invalidate : (core:int -> lut:int -> at:int -> unit) option;
      (* cross-node directory hook, fired after the local broadcast *)
  inv_counters : (string, Registry.counter) Hashtbl.t;
      (* lazily-created corun.invalidate.* family (see [memo_hooks]) *)
}

type l2_port_maker =
  core:int -> now:(unit -> int) -> local:Memo_unit.shared_l2 -> Memo_unit.shared_l2

(* Every core serves the whole mix's LUT namespace, so every collector is
   declared over the same remapped region list — which is what lets the
   per-core snapshots merge into one cluster profile. *)
let mix_regions mix =
  List.concat_map
    (fun e ->
      List.map (fun (r : Transform.region) -> (r.Transform.kernel, r.Transform.lut_id)) e.regions)
    mix

let create_cluster ?(metrics = false) ?(profile = false) ?l2_port ?on_invalidate cfg =
  if cfg.ncores < 1 then invalid_arg "Corun: need at least one core";
  let mix = resolve_mix cfg in
  (* The union of every workload's (renumbered) LUT declarations — what each
     core's unit is built to serve. *)
  let decls = List.concat_map (fun e -> e.decls) mix in
  let profiles =
    if profile then
      let regions = mix_regions mix in
      Some (Array.init cfg.ncores (fun _ -> Profile.create ~regions))
    else None
  in
  let injector = Option.map Injector.create cfg.faults in
  let cluster_metrics = if metrics then Some (Registry.create ()) else None in
  let shared =
    Shared_lut.create ?metrics:cluster_metrics
      ?faults:(Option.map (fun inj -> (inj, Fault_model.l2_sites)) injector)
      ~payload_bytes:Memo_unit.default_config.Memo_unit.payload_bytes
      ~policy:Memo_unit.default_config.Memo_unit.policy ~ncores:cfg.ncores
      ~size_bytes:cfg.shared_l2_bytes ~partition:cfg.partition ()
  in
  let arbiter =
    Arbiter.create ~banks:cfg.banks ~ports:cfg.ports ~window:Timing.lookup_l2_cycles ()
  in
  (* A shared-level eviction drops the key for every core at once, so the
     residency event is broadcast to each collector. *)
  (match profiles with
  | Some ps ->
      Shared_lut.set_evict_observer shared (fun ~lut_id ~key ~full ->
          Array.iter (fun p -> Profile.shared_evict p ~lut:lut_id ~key ~full) ps)
  | None -> ());
  (* The DRAM tier sits behind the shared level: its only fill path is the
     shared LUT's victim stream (an exclusive-ish spill chain), installed on
     top of the telemetry/profiler eviction hooks. *)
  let l3 = Option.map (fun c -> Dram_lut.create ?metrics:cluster_metrics ?injector c) cfg.l3 in
  (match l3 with
  | Some d ->
      Shared_lut.set_spill shared (fun ~lut_id ~key ~payload ->
          Dram_lut.insert d ~lut_id ~key ~payload)
  | None -> ());
  let active = ref { base = 0; clock = (fun () -> 0) } in
  (* Per-cycle fault bases integrate over the clock of whichever core is
     currently executing (requests run one at a time). *)
  (match injector with
  | Some inj ->
      Injector.set_clock inj (fun () ->
          let t = !active in
          t.base + t.clock ())
  | None -> ());
  let mk_core id =
    let timing = { base = 0; clock = (fun () -> 0) } in
    let shared_l2 =
      {
        Memo_unit.sl_lookup =
          (fun ~lut_id ~key ->
            Arbiter.record ~tag:lut_id arbiter ~core:id
              ~set:(Shared_lut.set_of_key shared key)
              ~at:(timing.base + timing.clock ());
            Shared_lut.lookup shared ~core:id ~lut_id ~key);
        sl_insert =
          (fun ~lut_id ~key ~payload ->
            Arbiter.record ~tag:lut_id arbiter ~core:id
              ~set:(Shared_lut.set_of_key shared key)
              ~at:(timing.base + timing.clock ());
            Shared_lut.insert shared ~core:id ~lut_id ~key ~payload);
        sl_invalidate = (fun ~lut_id -> Shared_lut.invalidate_lut shared ~lut_id);
      }
    in
    (* The cluster layer interposes shard routing here: probes and inserts
       whose key homes on another node are redirected over the modeled
       interconnect, everything else falls through to [local]. Absent, the
       unit talks to the node-local shared level exactly as before. *)
    let shared_l2 =
      match l2_port with
      | None -> shared_l2
      | Some make ->
          make ~core:id
            ~now:(fun () -> timing.base + timing.clock ())
            ~local:shared_l2
    in
    let core_metrics = if metrics then Some (Registry.create ()) else None in
    let unit_ =
      Memo_unit.create ?metrics:core_metrics
        ?profile:(Option.map (fun ps -> Profile.memo_hooks ps.(id)) profiles)
        ~shared_l2
        { Memo_unit.default_config with l1_bytes = cfg.l1_bytes }
        decls
    in
    let hierarchy =
      Hierarchy.create (Hierarchy.carve_l2 Hierarchy.hpi_default ~lut_bytes:cfg.shared_l2_bytes)
    in
    { id; timing; unit_; hierarchy; metrics = core_metrics }
  in
  let cores = Array.init cfg.ncores mk_core in
  (* Each unit probes the same DRAM tier on an SRAM miss; the port closures
     close over the cluster's single [Dram_lut.t], so the refill/invalidate
     traffic of every core lands in one structure. *)
  (match l3 with
  | Some d ->
      Array.iter
        (fun c ->
          Memo_unit.attach_l3 c.unit_
            {
              Memo_unit.t3_lookup =
                (fun ~lut_id ~key -> Dram_lut.lookup d ~lut_id ~key);
              t3_cycles = (fun () -> Dram_lut.last_probe_cycles d);
              t3_spill =
                (fun ~lut_id ~key ~payload -> Dram_lut.insert d ~lut_id ~key ~payload);
              t3_invalidate = (fun ~lut_id -> Dram_lut.invalidate_lut d ~lut_id);
              t3_decay = (fun () -> Dram_lut.last_decay d);
            })
        cores
  | None -> ());
  {
    cfg;
    mix;
    shared;
    l3;
    arbiter;
    cores;
    cluster_metrics;
    injector;
    active;
    profiles;
    on_invalidate;
    inv_counters = Hashtbl.create 8;
  }

let core_unit cluster ~core = cluster.cores.(core).unit_
let shared_lut cluster = cluster.shared

(* Cumulative quality-monitor observations across the whole cluster:
   (samples, bad, tripped-core count). Read at request boundaries by the
   serve-path timeline sampler, so the counts only ever grow. *)
let monitor_observed cluster =
  Array.fold_left
    (fun (s, b, t) c ->
      let s', b' = Memo_unit.monitor_observed c.unit_ in
      (s + s', b + b', t + if Memo_unit.disabled c.unit_ then 1 else 0))
    (0, 0, 0) cluster.cores

(* Retired invalidates so far: each unit's own count (peers' external drops
   do not count). *)
let invalidations_sent cluster =
  Array.fold_left
    (fun acc c -> acc + (Memo_unit.stats c.unit_).Memo_unit.invalidations)
    0 cluster.cores
let dram_lut cluster = cluster.l3
let collectors cluster = cluster.profiles

(* The corun.invalidate.* counter family is created on first use, so a run
   that never retires an [invalidate] (most mixes under [retain_luts]) keeps
   its metrics snapshot byte-identical to pre-counter reports. *)
let bump_inv cluster name =
  match cluster.cluster_metrics with
  | None -> ()
  | Some reg ->
      let c =
        match Hashtbl.find_opt cluster.inv_counters name with
        | Some c -> c
        | None ->
            let c = Registry.counter reg name in
            Hashtbl.add cluster.inv_counters name c;
            c
      in
      Registry.incr c

(* A core's memo hooks, wrapped so a retired [invalidate] broadcasts to
   every other core's private L1 (Section 3.4's cross-core visibility: the
   shared level is dropped by the issuing unit itself, the peers' stale L1
   copies are dropped here). Every peer receives the broadcast, but only
   peers actually holding the LUT do any work — the delivered/filtered
   split is the measured baseline a cluster directory has to beat. *)
let memo_hooks cluster ~core =
  let own = Memo_unit.hooks cluster.cores.(core).unit_ in
  {
    own with
    Interp.invalidate =
      (fun ~lut ->
        own.Interp.invalidate ~lut;
        bump_inv cluster "corun.invalidate.broadcasts";
        Array.iter
          (fun o ->
            if o.id <> core then begin
              let held = Memo_unit.l1_holds o.unit_ ~lut in
              bump_inv cluster
                (Printf.sprintf "corun.invalidate.%s.core%d"
                   (if held then "delivered" else "filtered")
                   o.id);
              Memo_unit.invalidate_external o.unit_ ~lut
            end)
          cluster.cores;
        match cluster.on_invalidate with
        | Some f ->
            let t = cluster.cores.(core).timing in
            f ~core ~lut ~at:(t.base + t.clock ())
        | None -> ());
  }

(* ---- per-request execution -------------------------------------------- *)

module Ir = Axmemo_ir.Ir

(* [Transform.memoize] ends the entry function with one [Invalidate] per
   region — right for a standalone run, but it would wipe the LUTs after
   every request and nothing could stay warm across the stream. Under
   [retain_luts] those trailing drops are stripped (mid-program invalidates,
   e.g. kmeans' phase barrier, are untouched); with it off, requests keep
   the standalone epilogue and a 1-core co-run replays [Runner.run] bit for
   bit. *)
let strip_trailing_invalidates ~entry (program : Ir.program) =
  let strip_block (b : Ir.block) =
    match b.term with
    | Ir.Ret _ ->
        let rec drop = function
          | Ir.Memo (Ir.Invalidate _) :: rest -> drop rest
          | l -> l
        in
        {
          b with
          Ir.instrs =
            Array.of_list (List.rev (drop (List.rev (Array.to_list b.instrs))));
        }
    | Ir.Jmp _ | Ir.Br _ | Ir.Br_memo _ -> b
  in
  {
    Ir.funcs =
      Array.map
        (fun (fn : Ir.func) ->
          if fn.Ir.fname <> entry then fn
          else { fn with Ir.blocks = Array.map strip_block fn.Ir.blocks })
        program.Ir.funcs;
  }

let exec_request cluster ~workload ~core ~start =
  let wall_start = Unix.gettimeofday () in
  let entry =
    match List.find_opt (fun e -> e.wname = workload) cluster.mix with
    | Some entry -> entry
    | None ->
        invalid_arg
          (Printf.sprintf "Corun.exec_request: %S is not in the cluster's mix" workload)
  in
  let cfg = cluster.cfg in
  let c = cluster.cores.(core) in
  let instance = entry.make cfg.variant in
  let program =
    Transform.memoize ?barrier:instance.Workload.barrier ~entry:instance.Workload.entry
      instance.Workload.program entry.regions
  in
  let program =
    if cfg.retain_luts then
      strip_trailing_invalidates ~entry:instance.Workload.entry program
    else program
  in
  (* The data caches stay warm across requests (they model the core's own
     hierarchy), but their counters restart so the request's energy bill
     covers only its own accesses. *)
  Hierarchy.reset_stats c.hierarchy;
  c.timing.base <- start;
  (* The DRAM tier is cluster-wide; requests run one at a time, so the
     change in its row counters is exactly this request's share. *)
  let l3_rows () =
    match cluster.l3 with
    | Some d ->
        let s = Dram_lut.stats d in
        (s.Dram_lut.row_hits, s.Dram_lut.row_activations)
    | None -> (0, 0)
  in
  Runner.execute ~label:(label cfg) ~wall_start ~metrics:None
    ~profile:(Option.map (fun ps -> Profile.pipeline_profile ps.(core)) cluster.profiles)
    ~backend:None
    ~memo:
      (Some
         {
           Runner.unit = c.unit_;
           hooks = memo_hooks cluster ~core;
           l1_lut_bytes = cfg.l1_bytes;
           l2_lut_present = true;
           crc_bytes_per_cycle = Timing.crc_bytes_per_cycle;
           (* Same DUE semantics as a standalone run: an upset in the shared
              LUT may crash the simulated program. *)
           crashes = Option.is_some cluster.injector;
           l3_rows;
         })
    ~observe:(fun pipe ->
      c.timing.clock <- (fun () -> Pipeline.cycles pipe);
      cluster.active := c.timing;
      Interp.no_hooks)
    ~program ~hierarchy:c.hierarchy instance

(* ---- serve-layer access ------------------------------------------------

   The open-loop service model (lib/serve) drives a cluster request by
   request through its own dispatcher instead of [run]'s closed stream, so
   besides [exec_request] the post-hoc arbitration settlement and the
   metric flush/snapshot step are exposed individually. *)

let settle_arbiter cluster = Arbiter.settle cluster.arbiter ~ncores:cluster.cfg.ncores

(* Flush before snapshotting: per-core registries mirror the unit's
   cumulative stats, the cluster registry the shared structure's. *)
let flush_metrics cluster =
  Array.iter (fun c -> Memo_unit.flush_metrics c.unit_) cluster.cores;
  Shared_lut.flush_metrics cluster.shared

let cluster_snapshots cluster =
  List.concat
    (Array.to_list
       (Array.map
          (fun c ->
            match c.metrics with
            | Some reg -> [ (Printf.sprintf "core%d" c.id, Registry.snapshot reg) ]
            | None -> [])
          cluster.cores))
  @
  match cluster.cluster_metrics with
  | Some reg -> [ ("cluster", Registry.snapshot reg) ]
  | None -> []

(* ---- the co-run ------------------------------------------------------- *)

type request_run = {
  rid : int;
  workload : string;
  core : int;
  start : int;
  finish : int;
  result : Runner.result;
}

type core_summary = {
  core : int;
  served : int;
  busy_cycles : int;  (* execution only *)
  contention_cycles : int;  (* arbitration stalls charged at settlement *)
  retried : int;
  finish_cycles : int;  (* busy + contention *)
  lookups : int;
  hits : int;
  hit_rate : float;
  baseline_cycles : int;  (* un-memoized single-core cost of its requests *)
  speedup : float;
  way_range : int * int;  (* final shared-LUT allocation *)
  shadow_hits : int;
}

(* End-of-run DRAM tier aggregate; present only when the config asked for
   the tier, so tier-less outcome JSON is byte-identical to before. *)
type l3_summary = {
  l3_probes : int;
  l3_tier_hits : int;
  l3_misses : int;
  l3_spills : int;
  l3_evictions : int;
  l3_row_activations : int;
  l3_row_hits : int;
  l3_corrupted_reads : int;
  l3_occupancy : int;
  l3_capacity : int;
}

type outcome = {
  cfg : config;
  requests : request_run list;
  cores : core_summary array;
  makespan_cycles : int;
  throughput_rps : float;
  speedup : float;  (* aggregate: sum of baselines over the makespan *)
  aggregate_hit_rate : float;
  fairness : float;
  shared_accesses : int;
  contended_accesses : int;
  contention_cycles : int;
  contention_pj : float;
  repartitions : int;
  shared_occupancy : int;
  coherence_keys : int;  (* (lut, key) pairs present in several structures *)
  coherence_divergent : int;  (* of those, tags equal but data unequal *)
  l3 : l3_summary option;
  faults : Injector.stats option;
  snapshots : (string * Registry.snapshot) list;
  profiles : Profile.snapshot array option;  (* per core, core order *)
}

(* The paper's no-coherence argument, measured: given every structure's
   valid entries, count (lut_id, key) pairs that appear in more than one of
   them — and how many of those hold diverging payloads. *)
let coherence structures =
  let tbl : (int * int64, int64 list) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (List.iter (fun (lut_id, key, payload) ->
         let k = (lut_id, key) in
         let prev = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
         Hashtbl.replace tbl k (payload :: prev)))
    structures;
  Hashtbl.fold
    (fun _k payloads (keys, divergent) ->
      match payloads with
      | [] | [ _ ] -> (keys, divergent)
      | p :: rest ->
          (keys + 1, if List.for_all (fun q -> q = p) rest then divergent else divergent + 1))
    tbl (0, 0)

(* The DRAM tier is deliberately excluded: its relaxed payload cells are
   approximate by contract, so an entry that decayed there is not a
   coherence violation. *)
let coherence_check (cluster : cluster) =
  coherence
    (Array.to_list (Array.map (fun c -> Memo_unit.lut_entries c.unit_) cluster.cores)
    @ [ Shared_lut.entries cluster.shared ])

let run_keep ?(metrics = false) ?(profile = false) cfg =
  let cluster = create_cluster ~metrics ~profile cfg in
  let stream = Schedule.stream ~workloads:cfg.workloads ~requests:cfg.requests in
  let mix_of =
    let tbl = Hashtbl.create 8 in
    List.iter (fun e -> Hashtbl.replace tbl e.wname e) cluster.mix;
    fun name -> Hashtbl.find tbl name
  in
  (* Un-memoized single-core reference per workload, for per-core speedup. *)
  let baselines = Hashtbl.create 8 in
  let baseline_of name =
    match Hashtbl.find_opt baselines name with
    | Some c -> c
    | None ->
        let e = mix_of name in
        let r = Runner.run Runner.Baseline (e.make cfg.variant) in
        Hashtbl.replace baselines name r.Runner.cycles;
        r.Runner.cycles
  in
  let placements, busy =
    Schedule.dispatch ~ncores:cfg.ncores
      ~run:(fun (r : Schedule.request) ~core ~start ->
        let result = exec_request cluster ~workload:r.Schedule.workload ~core ~start in
        (result.Runner.cycles, result))
      stream
  in
  let settlement = Arbiter.settle cluster.arbiter ~ncores:cfg.ncores in
  (* The settled stalls flow back to (core, region) through the tag each
     shared-LUT access was recorded with. *)
  (match cluster.profiles with
  | Some ps ->
      List.iter
        (fun (core, tag, cycles) ->
          if tag >= 0 then Profile.note_contention ps.(core) ~lut:tag ~cycles)
        settlement.Arbiter.tag_stalls
  | None -> ());
  let requests =
    List.map
      (fun (p : Runner.result Schedule.placement) ->
        {
          rid = p.Schedule.request.Schedule.rid;
          workload = p.Schedule.request.Schedule.workload;
          core = p.Schedule.core;
          start = p.Schedule.start;
          finish = p.Schedule.finish;
          result = p.Schedule.payload;
        })
      placements
  in
  let cores =
    Array.init cfg.ncores (fun i ->
        let mine = List.filter (fun (r : request_run) -> r.core = i) requests in
        let served = List.length mine in
        let lookups = List.fold_left (fun a r -> a + r.result.Runner.lookups) 0 mine in
        let hits = List.fold_left (fun a r -> a + r.result.Runner.hits) 0 mine in
        let baseline_cycles =
          List.fold_left (fun a r -> a + baseline_of r.workload) 0 mine
        in
        let busy_cycles = busy.(i) in
        let contention_cycles = settlement.Arbiter.stall_cycles.(i) in
        let finish_cycles = busy_cycles + contention_cycles in
        {
          core = i;
          served;
          busy_cycles;
          contention_cycles;
          retried = settlement.Arbiter.retried.(i);
          finish_cycles;
          lookups;
          hits;
          hit_rate = (if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups);
          baseline_cycles;
          speedup =
            (if baseline_cycles = 0 && finish_cycles = 0 then 1.0
             else float_of_int baseline_cycles /. float_of_int (max 1 finish_cycles));
          way_range = Shared_lut.way_range cluster.shared ~core:i;
          shadow_hits = (Shared_lut.shadow_hits cluster.shared).(i);
        })
  in
  let makespan_cycles = Array.fold_left (fun a c -> max a c.finish_cycles) 0 cores in
  let total_lookups = Array.fold_left (fun a c -> a + c.lookups) 0 cores in
  let total_hits = Array.fold_left (fun a c -> a + c.hits) 0 cores in
  let total_baseline = Array.fold_left (fun a c -> a + c.baseline_cycles) 0 cores in
  let contention_cycles = Array.fold_left ( + ) 0 settlement.Arbiter.stall_cycles in
  let keys, divergent = coherence_check cluster in
  flush_metrics cluster;
  let snapshots = cluster_snapshots cluster in
  let l3 =
    Option.map
      (fun d ->
        let s = Dram_lut.stats d in
        {
          l3_probes = s.Dram_lut.probes;
          l3_tier_hits = s.Dram_lut.hits;
          l3_misses = s.Dram_lut.misses;
          l3_spills = s.Dram_lut.inserts;
          l3_evictions = s.Dram_lut.evictions;
          l3_row_activations = s.Dram_lut.row_activations;
          l3_row_hits = s.Dram_lut.row_hits;
          l3_corrupted_reads = s.Dram_lut.corrupted_reads;
          l3_occupancy = Dram_lut.occupancy d;
          l3_capacity = Dram_lut.capacity_entries d;
        })
      cluster.l3
  in
  ( {
    cfg;
    requests;
    cores;
    makespan_cycles;
    throughput_rps =
      (if makespan_cycles = 0 then 0.0
       else
         float_of_int cfg.requests
         /. (float_of_int makespan_cycles /. (machine.Machine.freq_ghz *. 1e9)));
    speedup =
      (if total_baseline = 0 && makespan_cycles = 0 then 1.0
       else float_of_int total_baseline /. float_of_int (max 1 makespan_cycles));
    aggregate_hit_rate =
      (if total_lookups = 0 then 0.0
       else float_of_int total_hits /. float_of_int total_lookups);
    fairness =
      Schedule.jain_fairness
        (Array.map (fun c -> float_of_int c.finish_cycles) cores);
    shared_accesses = settlement.Arbiter.accesses;
    contended_accesses = settlement.Arbiter.contended;
    contention_cycles;
    contention_pj =
      float_of_int settlement.Arbiter.contended *. Model.default_constants.Model.l2_access_pj;
    repartitions = Shared_lut.repartitions cluster.shared;
    shared_occupancy = Shared_lut.occupancy cluster.shared;
    coherence_keys = keys;
    coherence_divergent = divergent;
    l3;
    faults = Option.map Injector.stats cluster.injector;
    snapshots;
    profiles = Option.map (Array.map Profile.snapshot) cluster.profiles;
  },
    cluster )

let run ?metrics ?profile cfg = fst (run_keep ?metrics ?profile cfg)

(* ---- warm-LUT snapshots ------------------------------------------------

   Section naming: "l1.<core>" per private level, "l2" the shared level,
   "l3" the DRAM tier. Restore replays whatever sections match the target
   cluster's shape and reports how many entries landed, so a snapshot from
   a wider configuration degrades gracefully instead of failing. *)

let capture_snapshot (cluster : cluster) =
  let l1s =
    Array.to_list
      (Array.mapi
         (fun i c ->
           Snapshot.capture_lut
             ~name:(Printf.sprintf "l1.%d" i)
             (Memo_unit.l1_lut c.unit_))
         cluster.cores)
  in
  let l2 = Snapshot.capture_lut ~name:"l2" (Shared_lut.lut cluster.shared) in
  let l3 =
    match cluster.l3 with
    | Some d -> [ Snapshot.capture_dram ~name:"l3" d ]
    | None -> []
  in
  { Snapshot.sections = l1s @ (l2 :: l3) }

let restore_snapshot_stats (cluster : cluster) (snap : Snapshot.t) =
  let restored = ref 0 in
  Array.iteri
    (fun i c ->
      match Snapshot.section snap (Printf.sprintf "l1.%d" i) with
      | Some s -> restored := !restored + Snapshot.restore_lut s (Memo_unit.l1_lut c.unit_)
      | None -> ())
    cluster.cores;
  (match Snapshot.section snap "l2" with
  | Some s -> restored := !restored + Snapshot.restore_lut s (Shared_lut.lut cluster.shared)
  | None -> ());
  let amortised = ref 0 and serial = ref 0 in
  (match (Snapshot.section snap "l3", cluster.l3) with
  | Some s, Some d ->
      let n, a, sr = Snapshot.restore_dram_batched s d in
      restored := !restored + n;
      amortised := a;
      serial := sr
  | _ -> ());
  (!restored, !amortised, !serial)

let restore_snapshot (cluster : cluster) (snap : Snapshot.t) =
  let restored, _amortised, _serial = restore_snapshot_stats cluster snap in
  restored

let run_matrix ?jobs ?(profile = false) cfgs =
  Pool.run ?jobs (fun cfg -> run ~metrics:true ~profile cfg) cfgs

(* ---- report ----------------------------------------------------------- *)

let core_summary_json c =
  let lo, hi = c.way_range in
  Json.Obj
    [
      ("core", Json.Int c.core);
      ("served", Json.Int c.served);
      ("busy_cycles", Json.Int c.busy_cycles);
      ("contention_cycles", Json.Int c.contention_cycles);
      ("retried", Json.Int c.retried);
      ("finish_cycles", Json.Int c.finish_cycles);
      ("lookups", Json.Int c.lookups);
      ("hits", Json.Int c.hits);
      ("hit_rate", Json.Float c.hit_rate);
      ("baseline_cycles", Json.Int c.baseline_cycles);
      ("speedup", Json.Float c.speedup);
      ("way_lo", Json.Int lo);
      ("way_hi", Json.Int hi);
      ("shadow_hits", Json.Int c.shadow_hits);
    ]

(* Keep checked-in reports small: only the head of the schedule is listed
   row by row; everything else is already aggregated per core. *)
let schedule_head_rows = 24

let outcome_json o =
  let cfg = o.cfg in
  let head = List.filteri (fun i _ -> i < schedule_head_rows) o.requests in
  (* The "l3" block appears only for tier-configured runs so tier-less
     reports stay byte-identical to their committed baselines. *)
  let l3_fields =
    match o.l3 with
    | None -> []
    | Some t ->
        [
          ( "l3",
            Json.Obj
              [
                ("probes", Json.Int t.l3_probes);
                ("hits", Json.Int t.l3_tier_hits);
                ("misses", Json.Int t.l3_misses);
                ("spills", Json.Int t.l3_spills);
                ("evictions", Json.Int t.l3_evictions);
                ("row_activations", Json.Int t.l3_row_activations);
                ("row_hits", Json.Int t.l3_row_hits);
                ("corrupted_reads", Json.Int t.l3_corrupted_reads);
                ("occupancy", Json.Int t.l3_occupancy);
                ("capacity", Json.Int t.l3_capacity);
              ] );
        ]
  in
  Json.Obj
    ([
      ("label", Json.Str (label cfg));
      ("ncores", Json.Int cfg.ncores);
      ("partition", Json.Str (Shared_lut.partition_name cfg.partition));
      ("l1_bytes", Json.Int cfg.l1_bytes);
      ("shared_l2_bytes", Json.Int cfg.shared_l2_bytes);
      ("banks", Json.Int cfg.banks);
      ("ports", Json.Int cfg.ports);
      ("workloads", Json.Arr (List.map (fun w -> Json.Str w) cfg.workloads));
      ("requests", Json.Int cfg.requests);
      ("makespan_cycles", Json.Int o.makespan_cycles);
      ("throughput_rps", Json.Float o.throughput_rps);
      ("speedup", Json.Float o.speedup);
      ("aggregate_hit_rate", Json.Float o.aggregate_hit_rate);
      ("fairness", Json.Float o.fairness);
      ("shared_accesses", Json.Int o.shared_accesses);
      ("contended_accesses", Json.Int o.contended_accesses);
      ("contention_cycles", Json.Int o.contention_cycles);
      ("contention_pj", Json.Float o.contention_pj);
      ("repartitions", Json.Int o.repartitions);
      ("shared_occupancy", Json.Int o.shared_occupancy);
      ("coherence_keys", Json.Int o.coherence_keys);
      ("coherence_divergent", Json.Int o.coherence_divergent);
      ("cores", Json.Arr (Array.to_list (Array.map core_summary_json o.cores)));
      ( "schedule_head",
        Json.Arr
          (List.map
             (fun r ->
               Json.Str
                 (Printf.sprintf "r%d %s core%d [%d..%d] hit=%.3f" r.rid r.workload
                    r.core r.start r.finish r.result.Runner.hit_rate))
             head) );
      ("schedule_rows_omitted", Json.Int (max 0 (List.length o.requests - schedule_head_rows)));
      ( "faults",
        match o.faults with
        | None -> Json.Null
        | Some s ->
            Json.Obj
              [
                ("injected", Json.Int s.Injector.injected_total);
                ("sdc_hits", Json.Int s.Injector.sdc_hits);
                ("parity_detected", Json.Int s.Injector.parity_detected);
                ("secded_corrected", Json.Int s.Injector.secded_corrected);
                ("secded_detected", Json.Int s.Injector.secded_detected);
                ("tag_aliases", Json.Int s.Injector.tag_aliases);
              ] );
    ]
    @ l3_fields)

let default_series_cap = 32

(* The "cluster" run carries the merged (all-cores) profile; each "core<i>"
   run carries its own. Merging per-core snapshots in core order is a
   pointwise sum, so the report is byte-identical for any [--jobs]. *)
let profile_json_for o who =
  match o.profiles with
  | None -> None
  | Some ps ->
      if who = "cluster" then
        Some (Profile.to_json (Profile.merge (Array.to_list ps)))
      else if String.length who > 4 && String.sub who 0 4 = "core" then
        match int_of_string_opt (String.sub who 4 (String.length who - 4)) with
        | Some i when i >= 0 && i < Array.length ps -> Some (Profile.to_json ps.(i))
        | _ -> None
      else None

let report_runs ?(series_cap = default_series_cap) ?(per_core = true) outcomes =
  List.concat_map
      (fun o ->
        let snaps =
          if per_core then o.snapshots
          else List.filter (fun (who, _) -> who = "cluster") o.snapshots
        in
        List.map
          (fun (who, snap) ->
            {
              Report.benchmark = String.concat "+" o.cfg.workloads;
              config = Printf.sprintf "%s:%s" (label o.cfg) who;
              summary =
                [
                  ("makespan_cycles", Json.Int o.makespan_cycles);
                  ("throughput_rps", Json.Float o.throughput_rps);
                  ("aggregate_hit_rate", Json.Float o.aggregate_hit_rate);
                  ("fairness", Json.Float o.fairness);
                ];
              metrics = Registry.decimate ~cap:series_cap snap;
              profile = profile_json_for o who;
              service = None;
              cluster = None;
              timeline = None;
              alerts = None;
            })
          snaps)
    outcomes

let report ?series_cap ?per_core outcomes =
  let runs = report_runs ?series_cap ?per_core outcomes in
  let extra =
    [
      ("root_seed", Json.Str (Int64.to_string (Rng.root_seed ())));
      ("corun", Json.Arr (List.map outcome_json outcomes));
    ]
  in
  Report.make ~extra runs

let write_report ?series_cap ?per_core path outcomes =
  Json.write_file ~indent:2 path (report ?series_cap ?per_core outcomes)
