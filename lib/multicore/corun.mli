(** One co-run node: N cores sharing one L2 LUT.

    Each core owns a private pipeline, data-cache hierarchy, hash/value
    registers and L1 LUT (all reused from the single-core model); every
    core's L2-level memoization traffic goes to one {!Shared_lut} carved
    from the shared LLC, with bank/port contention charged by an
    {!Arbiter}. Each core's memo unit reaches the shared level, and the
    optional DRAM tier behind it, as the ports of its level chain
    ({!Axmemo_memo.Memo_unit.port}); the tier is fed by the shared level's
    victims. This module is the node and what it does per request; the
    closed request stream that keeps the LUTs warm across requests (the
    co-run throughput of the paper's Section 6) is driven by
    [Axmemo_cluster.Cluster.run], whose [nodes = 1] case is the co-run, and
    the open-loop stream by [Axmemo_serve.Serve.run].

    Determinism contract: requests execute one at a time in the driver's
    dispatch order, so every result is a pure function of the configuration
    and that order; a 1-core free-for-all co-run of a single workload with
    [retain_luts = false] reproduces [Runner.run (Hw_memo ...)] bit for
    bit. *)

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

val create_cluster : ?metrics:bool -> ?profile:bool -> config -> cluster
(** Builds the cores, the shared LUT and the arbiter. Every workload's
    logical LUT ids are renumbered onto a disjoint range (mix order), so a
    mixed stream never aliases; single-workload mixes keep their original
    ids. [metrics] attaches one registry per core (the unit's instruments)
    plus a cluster registry (the shared LUT's). [profile] attaches one
    {!Axmemo_obs.Profile} collector per core over the mix's remapped
    regions, with shared-LUT evictions broadcast to every collector.
    @raise Invalid_argument on an unknown benchmark, an empty mix, fewer
    than one core, or a mix needing more than 8 logical LUTs. *)

val route :
  cluster ->
  level:
    (core:int ->
    now:(unit -> int) ->
    local:Axmemo_memo.Memo_unit.port ->
    Axmemo_memo.Memo_unit.port) ->
  on_invalidate:(core:int -> lut:int -> at:int -> unit) ->
  unit
(** How a multi-node layer interposes, once the node exists and before any
    request runs. [level] is called once per core with the core id, the
    core's absolute cycle clock and the node-local shared level (which
    already records bank arbitration); the port it returns replaces that
    level in the core's chain. [on_invalidate] fires after each local
    invalidate broadcast — with the issuing core, the LUT id and the
    absolute issue cycle — so a directory can issue cross-node
    invalidations. An unrouted node talks to its own shared level. *)

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

val fault_stats : cluster -> Axmemo_faults.Injector.stats option
(** The fault injector's cumulative accounting, when the config set
    [faults]. *)

val capture_snapshot : cluster -> Axmemo_tier.Snapshot.t
(** Serialize every LUT level's warm contents: sections ["l1.<core>"] per
    private L1, ["l2"] the shared level, ["l3"] the DRAM tier (when
    attached), each ordered oldest-first so a restore reproduces recency
    state. Deterministic for a deterministic run. *)

val restore_snapshot_stats : cluster -> Axmemo_tier.Snapshot.t -> int * int * int
(** Replay a snapshot's sections into a freshly created cluster (before any
    request runs). Returns [(restored, amortised, serial)]: the number of
    entries restored, and the DRAM tier's batch-warming accounting — the
    row activations the row-sorted fill cost vs an entry-at-a-time replay
    (both 0 when the snapshot has no [l3] section or no tier is attached).
    Sections that do not match the cluster's shape (extra cores, an [l3]
    section with no tier attached) are skipped, so a snapshot from a wider
    configuration degrades gracefully. Restoring draws no fault events and
    leaves telemetry counters untouched. DRAM-tier sections go through
    {!Axmemo_tier.Dram_lut.bulk_fill} (row-sorted batch warming; identical
    final state). *)

(** {2 Per-request execution and settlement}

    Stream drivers — [Axmemo_cluster.Cluster]'s closed stream and the
    open-loop service model — dispatch requests through {!exec_request},
    then settle, flush and snapshot once after the last request. *)

val exec_request :
  cluster -> workload:string -> core:int -> start:int -> Axmemo.Runner.result
(** Execute one invocation of [workload] on [core] with the core's cycle
    base set to [start]. LUT/cache warm state carries over between calls;
    callers must issue requests in their dispatcher's canonical order for
    results to stay deterministic.
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
