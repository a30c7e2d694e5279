(** The N-core co-run simulator.

    Each core owns a private pipeline, data-cache hierarchy, hash/value
    registers and L1 LUT (all reused from the single-core model); every
    core's L2-level memoization traffic goes to one {!Shared_lut} carved
    from the shared LLC, with bank/port contention charged by an
    {!Arbiter} and requests placed by {!Schedule}. A fixed request stream
    keeps the LUTs warm across requests, which is where the co-run
    throughput of the paper's Section 6 comes from.

    Determinism contract: with a fixed root seed, [run] and [run_matrix]
    are pure functions of their configuration — reports are byte-identical
    for any [--jobs] setting, and a 1-core free-for-all co-run of a single
    workload reproduces [Runner.run (Hw_memo ...)] bit for bit. *)

type config = {
  ncores : int;
  l1_bytes : int;  (** per-core private L1 LUT *)
  shared_l2_bytes : int;  (** the shared LUT carved from the LLC *)
  partition : Shared_lut.partition;
  banks : int;
  ports : int;  (** ports per bank of the shared LUT *)
  workloads : string list;  (** the mix, round-robined into the stream *)
  requests : int;
  variant : Axmemo_workloads.Workload.variant;
  retain_luts : bool;
      (** keep LUT contents warm across requests by stripping the trailing
          per-region [Invalidate]s the compiler emits for standalone runs
          (mid-program invalidates are untouched); off, every request keeps
          the standalone epilogue and a 1-core co-run replays [Runner.run]
          bit for bit *)
  faults : Axmemo_faults.Fault_model.spec option;
      (** when set, upsets strike the shared LUT's storage *)
  l3 : Axmemo_tier.Dram_lut.config option;
      (** when set, a DRAM-resident LUT tier sits behind the shared level:
          shared-LUT victims spill into it, every core's SRAM miss probes
          it (row-buffer-priced through the pipeline's lookup charge), and
          its relaxed payload cells decay through the fault injector when
          the spec enables site [l3.payload] *)
}

val default : config
(** 2 cores, 8 KiB L1 / 512 KiB shared, free-for-all, 8 banks x 1 port,
    8 blackscholes requests, warm LUTs, no faults, no L3 tier. *)

val label : config -> string
(** Appends [",l3=<n>KB"] only when the tier is configured, so tier-less
    labels (and everything keyed off them) are unchanged. *)

(** {1 The cluster}

    Exposed mainly for tests that need to poke a core's memoization hooks
    directly. *)

type cluster

type l2_port_maker =
  core:int -> now:(unit -> int) -> local:Axmemo_memo.Memo_unit.shared_l2 ->
  Axmemo_memo.Memo_unit.shared_l2
(** How a multi-node layer interposes on a core's shared-L2 traffic: called
    once per core at cluster creation with the core id, the core's absolute
    cycle clock, and the node-local port (which already records bank
    arbitration); the returned port is what the unit talks to. *)

val create_cluster :
  ?metrics:bool ->
  ?profile:bool ->
  ?l2_port:l2_port_maker ->
  ?on_invalidate:(core:int -> lut:int -> at:int -> unit) ->
  config ->
  cluster
(** Builds the cores, the shared LUT and the arbiter. Every workload's
    logical LUT ids are renumbered onto a disjoint range (mix order), so a
    mixed stream never aliases; single-workload mixes keep their original
    ids. [metrics] attaches one registry per core (the unit's instruments)
    plus a cluster registry (the shared LUT's). [profile] attaches one
    {!Axmemo_obs.Profile} collector per core over the mix's remapped
    regions, with shared-LUT evictions broadcast to every collector.
    [?l2_port] lets the sharded-cluster layer redirect shared-level traffic
    (absent, units talk to the node-local level exactly as before);
    [?on_invalidate] fires after each local invalidate broadcast — with the
    issuing core, the LUT id, and the absolute issue cycle — so a directory
    can issue cross-node invalidations. Neither default changes any
    behaviour.
    @raise Invalid_argument on an unknown benchmark, an empty mix, fewer
    than one core, or a mix needing more than 8 logical LUTs. *)

val memo_hooks : cluster -> core:int -> Axmemo_ir.Interp.memo_hooks
(** The core's own hooks with [invalidate] wrapped to broadcast: the
    issuing unit drops its L1 and the shared level, the wrapper drops every
    {e other} core's private L1 so no stale private copy survives. With a
    metrics registry attached, the broadcast counts one
    [corun.invalidate.broadcasts] event plus, per peer core,
    [corun.invalidate.delivered.core<i>] (the peer held the LUT) or
    [corun.invalidate.filtered.core<i>] (it held nothing — the message was
    pure overhead). The family is created lazily on the first event, so
    invalidate-free runs keep byte-identical metrics snapshots. *)

val collectors : cluster -> Axmemo_obs.Profile.t array option
(** The live per-core profile collectors (creation order), when the cluster
    was built with [~profile:true] — the cluster layer marks remote
    invalidations on them. *)

val core_unit : cluster -> core:int -> Axmemo_memo.Memo_unit.t
val shared_lut : cluster -> Shared_lut.t

val monitor_observed : cluster -> int * int * int
(** Cumulative quality-monitor observations summed over every core:
    [(samples, bad, tripped_cores)]. Monotone over a run — the timeline
    sampler diffs consecutive reads to attribute quality activity to
    service windows. *)

val invalidations_sent : cluster -> int
(** Retired [invalidate] instructions so far, summed over the cores: each
    unit's own [invalidations] count. The broadcast a retired invalidate
    sends to peer L1s ({!Axmemo_memo.Memo_unit.invalidate_external}) does
    not count. Monotone; the one-node timeline sampler reads it. *)

val coherence : (int * int64 * int64) list list -> int * int
(** The paper's no-coherence argument, measured over the valid
    [(lut, key, payload)] entries of several LUT structures: the
    [(lut, key)] pairs present in more than one structure, and how many of
    those hold diverging payloads. *)

val dram_lut : cluster -> Axmemo_tier.Dram_lut.t option
(** The cluster's DRAM tier, when the config asked for one. *)

val capture_snapshot : cluster -> Axmemo_tier.Snapshot.t
(** Serialize every LUT level's warm contents: sections ["l1.<core>"] per
    private L1, ["l2"] the shared level, ["l3"] the DRAM tier (when
    attached), each ordered oldest-first so a restore reproduces recency
    state. Deterministic for a deterministic run. *)

val restore_snapshot : cluster -> Axmemo_tier.Snapshot.t -> int
(** Replay a snapshot's sections into a freshly created cluster (before any
    request runs); returns the number of entries restored. Sections that
    do not match the cluster's shape (extra cores, an [l3] section with no
    tier attached) are skipped, so a snapshot from a wider configuration
    degrades gracefully. Restoring draws no fault events and leaves
    telemetry counters untouched. DRAM-tier sections go through
    {!Axmemo_tier.Dram_lut.bulk_fill} (row-sorted batch warming; identical
    final state). *)

val restore_snapshot_stats : cluster -> Axmemo_tier.Snapshot.t -> int * int * int
(** Like {!restore_snapshot} but also returns the DRAM tier's batch-warming
    accounting: [(restored, amortised, serial)] row activations — what the
    row-sorted fill cost vs an entry-at-a-time replay. Both are 0 when the
    snapshot has no [l3] section or no tier is attached. *)

(** {2 Serve-layer access}

    The open-loop service model ({!Axmemo_serve.Serve}) drives a cluster
    request by request through its own dispatcher, so per-request
    execution, arbitration settlement and the metric flush/snapshot step
    are exposed individually. [run] below composes exactly these. *)

val exec_request :
  cluster -> workload:string -> core:int -> start:int -> Axmemo.Runner.result
(** Execute one invocation of [workload] on [core] with the core's cycle
    base set to [start] — the per-request step of [run], exposed for
    open-loop dispatchers. LUT/cache warm state carries over between calls
    exactly as inside [run]; callers must issue requests in their
    dispatcher's canonical order for results to stay deterministic.
    @raise Invalid_argument when [workload] is not in the cluster's mix. *)

val settle_arbiter : cluster -> Arbiter.settlement
(** Post-hoc settlement of every shared-LUT access recorded so far (see
    {!Arbiter.settle}); call once, after the last request. *)

val flush_metrics : cluster -> unit
(** Mirror each core unit's and the shared LUT's cumulative stats into
    their registries — required before {!cluster_snapshots}. *)

val cluster_snapshots : cluster -> (string * Axmemo_telemetry.Registry.snapshot) list
(** The ["core<i>"] and ["cluster"] registry snapshots (empty list unless
    the cluster was created with [~metrics:true]). *)

(** {1 Running} *)

type request_run = {
  rid : int;
  workload : string;
  core : int;
  start : int;
  finish : int;
  result : Axmemo.Runner.result;
}

type core_summary = {
  core : int;
  served : int;
  busy_cycles : int;  (** execution only *)
  contention_cycles : int;  (** arbitration stalls charged at settlement *)
  retried : int;
  finish_cycles : int;  (** busy + contention *)
  lookups : int;
  hits : int;
  hit_rate : float;
  baseline_cycles : int;  (** un-memoized single-core cost of its requests *)
  speedup : float;  (** baseline over (busy + contention); always finite *)
  way_range : int * int;  (** final shared-LUT allocation *)
  shadow_hits : int;
}

type l3_summary = {
  l3_probes : int;
  l3_tier_hits : int;
  l3_misses : int;
  l3_spills : int;  (** shared-level victims absorbed (posted writes) *)
  l3_evictions : int;
  l3_row_activations : int;
  l3_row_hits : int;
  l3_corrupted_reads : int;  (** reads that exposed a decayed relaxed bit *)
  l3_occupancy : int;
  l3_capacity : int;
}

type outcome = {
  cfg : config;
  requests : request_run list;
  cores : core_summary array;
  makespan_cycles : int;
  throughput_rps : float;  (** requests per simulated second *)
  speedup : float;  (** sum of baselines over the makespan; always finite *)
  aggregate_hit_rate : float;
  fairness : float;  (** Jain's index over per-core finish cycles *)
  shared_accesses : int;
  contended_accesses : int;
  contention_cycles : int;
  contention_pj : float;  (** re-issued probes at the L2 access energy *)
  repartitions : int;
  shared_occupancy : int;
  coherence_keys : int;
      (** (lut, key) pairs simultaneously present in several structures *)
  coherence_divergent : int;  (** of those, how many hold unequal payloads *)
  l3 : l3_summary option;
      (** DRAM tier aggregate; [None] unless the config asked for the tier.
          The coherence counts above deliberately exclude the tier — its
          relaxed payload cells are approximate by contract. *)
  faults : Axmemo_faults.Injector.stats option;
  snapshots : (string * Axmemo_telemetry.Registry.snapshot) list;
      (** ["core<i>"] per-core registries, ["cluster"] the shared LUT's;
          empty unless [run ~metrics:true] *)
  profiles : Axmemo_obs.Profile.snapshot array option;
      (** per-core attribution profiles (core order), with shared-LUT
          arbitration stalls already charged back to each core's regions;
          [None] unless [run ~profile:true]. Merge with
          {!Axmemo_obs.Profile.merge} for the cluster view. *)
}

val run_keep : ?metrics:bool -> ?profile:bool -> config -> outcome * cluster
(** [run], but also hands back the cluster with its warm end-of-run LUT
    state — the closed-stream warmer behind [axmemo snapshot save]
    ({!capture_snapshot} the returned cluster). *)

val run : ?metrics:bool -> ?profile:bool -> config -> outcome
(** Simulates one co-run: streams the requests, dispatches them with
    {!Schedule.dispatch}, settles arbitration, and measures coherence
    divergence across all LUT levels. Baseline cycles come from a fresh
    un-memoized [Runner.run Baseline] per workload. With [~profile:true]
    each core carries an {!Axmemo_obs.Profile} collector over the mix's
    remapped region list; all scheduling and cycle results are
    bit-identical either way. *)

val run_matrix : ?jobs:int -> ?profile:bool -> config list -> outcome list
(** Runs each configuration as one independent cell (with metrics) fanned
    over a domain pool; results are in input order and byte-identical to a
    serial run. *)

(** {1 Reports} *)

val default_series_cap : int

val report_runs :
  ?series_cap:int ->
  ?per_core:bool ->
  outcome list ->
  Axmemo_telemetry.Report.run list
(** The per-registry report rows ([core<i>] and [cluster] per outcome),
    series decimated to [series_cap]; what {!report} embeds and what CSV
    export flattens. [~per_core:false] keeps only the cluster registries —
    per-core aggregates stay available in the outcome block, so a big
    matrix can ship a small report. When the outcome carries profiles,
    each [core<i>] row embeds that core's ["profile"] section and the
    [cluster] row the {!Axmemo_obs.Profile.merge} of all of them. *)

val report :
  ?series_cap:int -> ?per_core:bool -> outcome list -> Axmemo_util.Json.t
(** Bounded report: telemetry series are decimated to [series_cap] samples
    ({!Axmemo_telemetry.Registry.decimate}) and only the head of each
    schedule is listed row by row, so the file stays small no matter how
    long the streams were. *)

val write_report :
  ?series_cap:int -> ?per_core:bool -> string -> outcome list -> unit
