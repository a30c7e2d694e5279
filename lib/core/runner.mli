(** End-to-end experiment runner.

    Executes a workload instance under one of the evaluated systems — the
    plain HPI baseline, AxMemo with a given LUT configuration, the software
    CRC-LUT implementation, or ATM — on the cycle-approximate CPU model, and
    gathers every statistic the paper's figures need. Callers create a fresh
    {!Axmemo_workloads.Workload.instance} per run (datasets are
    deterministic, so runs are comparable). *)

type config =
  | Baseline  (** unmodified program, no memoization hardware *)
  | Hw_memo of {
      l1_bytes : int;
      l2_bytes : int option;  (** carved out of the L2 cache *)
      approximate : bool;  (** false forces all truncation to 0 (Figure 11) *)
      monitor : bool;
      total_l2 : int option;
          (** override the total L2 cache size (Section 6.2's L2-size
              sensitivity study); [None] = the HPI default of 1 MB *)
      adaptive : bool;
          (** use the unit's runtime-adaptive truncation (Section 3.1's
              dynamic alternative) on top of the static levels *)
    }
  | Hw_custom of {
      label : string;
      unit_cfg : Axmemo_memo.Memo_unit.config;
      approximate : bool;
      crc_bytes_per_cycle : int;
    }
      (** Fully custom memoization hardware for ablation studies: any
          {!Axmemo_memo.Memo_unit.config} (CRC width, payload width,
          replacement policy, adaptive truncation...) plus a CRC unit
          throughput. [label] doubles as the display/cache key. *)
  | Software of { table_log2 : int }
      (** software CRC + tagless in-memory LUT of [2^table_log2] entries *)
  | Atm of { table_log2 : int }
      (** Approximate Task Memoization (Brumar et al.): sampling hash +
          software task LUT with per-task runtime overhead *)

val config_label : config -> string

val l1_4k : config
val l1_8k : config
val l1_8k_l2_256k : config
val l1_8k_l2_512k : config
(** The four AxMemo configurations evaluated throughout Section 6. *)

val software_default : config
(** Software LUT sized per the paper's plateau study (scaled to the
    simulated footprint; see DESIGN.md). *)

val atm_default : config

type result = {
  label : string;
  cycles : int;
  seconds : float;
  sim_wall_seconds : float;
      (** host wall-clock seconds the simulation of this cell took (model
          assembly + execution + metric flushes). The only field excluded
          from the bit-identity contract: it varies run to run and machine
          to machine, and exists so reports can gate on simulator
          throughput. *)
  dyn_normal : int;
  dyn_memo : int;
  pipeline : Axmemo_cpu.Pipeline.stats;
  energy : Axmemo_energy.Model.breakdown;
  lookups : int;
  hits : int;
  hit_rate : float;
  collisions : int;
  memo_disabled : bool;
  trip_lookup : int option;
      (** lookup count at which the quality monitor tripped, when it did *)
  faults : Axmemo_faults.Injector.stats option;
      (** injection/protection counters when the memo unit ran with
          [config.faults] set; [None] on fault-free runs *)
  crashed : string option;
      (** [Some exn] when an injected fault drove the simulated program into
          failure (a DUE outcome, e.g. a corrupted payload used as an
          address); statistics and outputs cover the prefix up to the crash.
          Always [None] on fault-free runs — without an injector attached a
          simulation exception propagates as the harness error it is. *)
  outputs : Axmemo_workloads.Workload.outputs;
}

val run :
  ?profile:Axmemo_obs.Profile.t ->
  ?backend:Axmemo_ir.Interp.backend ->
  config ->
  Axmemo_workloads.Workload.instance ->
  result
(** [run config instance] transforms (if needed), simulates, and collects.
    The instance's memory is mutated by the run. With [?profile], the
    collector's hooks are attached to the pipeline (every config) and the
    memo unit (hardware configs), and the pipeline is profile-closed when
    the run ends; the [result] is bit-identical either way. [backend]
    selects the execution strategy (default [`Compiled]); both backends are
    pinned bit-identical on every field except [sim_wall_seconds]. *)

val profile_regions : Axmemo_workloads.Workload.instance -> (string * int) list
(** The instance's static regions as [(kernel, lut_id)] pairs, in the
    declaration order {!Axmemo_obs.Profile.create} expects. *)

val run_telemetry :
  ?trace:bool ->
  ?profile:Axmemo_obs.Profile.t ->
  ?backend:Axmemo_ir.Interp.backend ->
  config ->
  Axmemo_workloads.Workload.instance ->
  result * Axmemo_telemetry.Registry.snapshot * Axmemo_telemetry.Tracer.t option
(** [run_telemetry config instance] is {!run} with a metrics registry
    attached to the memo unit, pipeline, and cache hierarchy; the snapshot
    is taken after the end-of-run flushes. With [~trace:true] a cycle-clock
    {!Axmemo_telemetry.Tracer} also records function-activation spans and
    LUT hit/miss instants. Telemetry is observational only: the [result] is
    bit-identical to {!run} on a fresh instance. *)

(** {1 One request on one core}

    The single execution path behind {!run} and the co-run engine's
    per-request step. *)

type memo = {
  unit : Axmemo_memo.Memo_unit.t;
      (** may outlive the request (a co-run core's); the result bills only
          the change in its counters *)
  hooks : Axmemo_ir.Interp.memo_hooks;  (** the unit's, or a wrapper *)
  l1_lut_bytes : int;  (** the L1 LUT size the energy model prices *)
  l2_lut_present : bool;  (** an L2 LUT, private or shared, backs the L1 *)
  crc_bytes_per_cycle : int;
  crashes : bool;
      (** an injector strikes the LUTs: an exception of the simulated
          program becomes [crashed] (a DUE outcome) instead of propagating *)
  l3_rows : unit -> int * int;
      (** cumulative DRAM-tier (row hits, activations); billed by change *)
}
(** How a memo unit drives one request. *)

val execute :
  label:string ->
  wall_start:float ->
  metrics:Axmemo_telemetry.Registry.t option ->
  profile:Axmemo_cpu.Pipeline.profile option ->
  backend:Axmemo_ir.Interp.backend option ->
  memo:memo option ->
  observe:(Axmemo_cpu.Pipeline.t -> Axmemo_ir.Interp.hooks) ->
  program:Axmemo_ir.Ir.program ->
  hierarchy:Axmemo_cache.Hierarchy.t ->
  Axmemo_workloads.Workload.instance ->
  result
(** [execute ~program ~hierarchy instance] runs [instance]'s entry point
    on a pipeline over [hierarchy] (wired to [memo]'s unit when given),
    profile-closes the pipeline and assembles the [result], timed from
    [wall_start]. [observe] gets the pipeline before the run and returns
    hooks fanned out after its own. [metrics] is the run's own registry:
    the pipeline registers in it, and every model flushes when the run
    ends. *)

val run_matrix :
  ?jobs:int ->
  ?backend:Axmemo_ir.Interp.backend ->
  (config * Axmemo_workloads.Workload.instance) list ->
  result list
(** [run_matrix ~jobs cells] simulates every (configuration, instance) cell,
    fanning out over [jobs] worker domains ({!Axmemo_util.Pool}; default:
    the host's recommended domain count, [1] runs serially on the calling
    domain). Results keep the input order and are bit-identical to the
    serial path: each cell owns all of its mutable state, so scheduling
    cannot affect outcomes.

    Domain-safety contract: every cell must have its own
    {!Axmemo_workloads.Workload.instance} — instances embed the simulated
    memory and are mutated by the run, so sharing one across cells is a
    race (and wrong even serially). *)

val run_matrix_telemetry :
  ?jobs:int ->
  ?backend:Axmemo_ir.Interp.backend ->
  (config * Axmemo_workloads.Workload.instance) list ->
  (result * Axmemo_telemetry.Registry.snapshot) list
(** {!run_matrix} with a per-cell metrics registry. Each worker domain owns
    the registries of the cells it runs (no instrument is shared across
    domains), and snapshots return in input order, so merging them — and
    any report built from them — is byte-identical between serial and
    parallel execution. *)

val run_matrix_profiled :
  ?jobs:int ->
  ?backend:Axmemo_ir.Interp.backend ->
  (config * Axmemo_workloads.Workload.instance) list ->
  (result * Axmemo_telemetry.Registry.snapshot * Axmemo_obs.Profile.snapshot) list
(** {!run_matrix_telemetry} with a per-cell attribution profiler (regions
    from {!profile_regions}). Same determinism contract: snapshots are
    byte-identical for any [jobs]. *)

val speedup : baseline:result -> result -> float
(** Cycle ratio baseline/other. Always finite: if both runs report zero
    cycles the ratio is 1.0, and a lone zero denominator is clamped to one
    cycle — a report can never contain [nan] or [inf] from this helper. *)

val energy_saving : baseline:result -> result -> float
(** Energy ratio baseline/other (the paper's E_baseline / E_AxMemo). Guarded
    like {!speedup}: 1.0 when both are zero, denominator clamped to 1 pJ
    otherwise. *)
