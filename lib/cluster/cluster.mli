(** The sharded multi-node memoization cluster.

    Generalizes the co-run model from N cores sharing one LUT to M nodes
    of N cores each: every LUT entry has a {e home shard} chosen by the
    high bits of its CRC tag ({!shard_of_key}), remote shared-level
    lookups and inserts cross a modeled interconnect (bidirectional ring,
    {!config.net_msg_cycles} per hop, {!config.net_hop_pj} per link
    traversal), and the co-run's cross-core invalidate broadcast becomes a
    {e directory}: per-LUT sharer-node sets, point-to-point invalidations
    to registered sharers only. Hot remote entries can optionally be
    replicated into the requester's local shared level
    ({!config.replicate_threshold}); the directory tracks replica holders
    and drops stale replicas when the home copy is rewritten.

    Interconnect contention reuses the arbiter's post-hoc settlement
    (banks = destination NICs, window = one message's service time), and
    synchronous remote probes additionally charge round-trip latency into
    the issuing core's finish time at settlement — so request execution
    stays serial and deterministic and reports are byte-identical for any
    [--jobs] setting. Network energy is reported beside, never inside,
    [total_pj], mirroring the DRAM-tier convention.

    Shard routing is one level port ([Axmemo_memo.Memo_unit.port]): once
    the cluster record exists, {!Corun.route} replaces each core's
    node-local shared level with its routed form, which falls through to
    the local level for keys homed on the node. {!run} is the one
    closed-stream driver. A 1-node cluster is routed by neither the level
    nor the directory hook, so [nodes = 1] is the co-run of {!Corun}'s
    node, and {!corun_report} renders it in the co-run report shape. *)

module Corun = Axmemo_multicore.Corun

type config = {
  nodes : int;  (** 1..62 (sharer sets are int bitmasks) *)
  node : Corun.config;
      (** per-node shape (cores, LUT sizes, partition, mix);
          [node.requests] is the {e total} stream length across the
          cluster, so scale-out sweeps compare fixed work over growing
          node counts *)
  replicate_threshold : int;
      (** remote hits on one (lut, key) before it is replicated into the
          requester's local shared level; [0] disables replication *)
  net_msg_cycles : int;  (** per-hop service latency of one message *)
  net_hop_pj : float;  (** per-hop link energy *)
  net_ports : int;  (** simultaneous messages a destination NIC accepts *)
  directory : bool;
      (** [true]: point-to-point invalidations to registered sharers only;
          [false]: send to every other node — the broadcast-equivalent
          baseline, reaching the same final LUT contents by construction *)
}

val default : config
(** 2 nodes of {!Corun.default}, no replication, directory on, net
    constants from {!Axmemo_energy.Model.default_constants}. *)

val of_node : Corun.config -> config
(** The 1-node cluster of a node config — the co-run. *)

val label : config -> string
(** [cluster(<M>node,<node label>)], with [",rep=<t>"] only when
    replication is on and [",bcast"] only in broadcast mode. *)

val validate : config -> unit
(** @raise Invalid_argument on a non-positive node count / message
    latency / port count, more than 62 nodes, a negative replication
    threshold, or a non-finite or negative hop energy. *)

val shard_of_key : nodes:int -> int64 -> int
(** The home node of a LUT key: the top byte of the 32-bit CRC word
    (bits 24..31, folded with bits 56..63) mod [nodes] — disjoint from the
    low bits that pick the set within a node, so routing and placement
    stay independent. Total: every key of every int64 maps to [0..nodes-1]
    (and to [0] when [nodes <= 1]). *)

val ring_hops : nodes:int -> int -> int -> int
(** Shortest-path distance between two nodes on a bidirectional ring. *)

(** {1 The live cluster}

    Exposed for the serve layer and tests; {!run} drives a closed stream
    through exactly these. *)

type t

val create : ?metrics:bool -> ?profile:bool -> config -> t
(** Builds the M nodes ({!Corun.create_cluster} each) plus the
    interconnect arbiter and directory state, then, when [nodes > 1],
    routes every node ({!Corun.route}): the shard-routed shared level and
    the directory invalidate hook.
    @raise Invalid_argument as {!validate}. *)

val nodes : t -> int
val cores_per_node : t -> int
val global_cores : t -> int

val node_cluster : t -> node:int -> Corun.cluster
(** The underlying per-node co-run cluster (tests poke core units and
    shared LUTs through it; {!Corun.capture_snapshot} of node 0 is the
    unprefixed single-node snapshot). *)

val sharers : t -> lut:int -> int
(** The directory's sharer-node bitmask of a LUT (bit [j] = node [j]);
    read-only. *)

val watch_traffic : t -> int * int * int
(** Monotone interconnect counters for the timeline sampler:
    [(remote_probes, inv_sent, net_messages)]. *)

val monitor_observed : t -> int * int * int
(** Cluster-wide cumulative quality-monitor observations
    [(samples, bad, tripped_cores)] — {!Corun.monitor_observed} summed
    over every node. *)

val exec_request :
  t -> workload:string -> gcore:int -> start:int -> Axmemo.Runner.result
(** One invocation on global core [gcore] (node [gcore / cores_per_node],
    local core [gcore mod cores_per_node]); afterwards, replica payloads
    queued for DRAM tiers are flushed through one row-sorted
    {!Axmemo_tier.Dram_lut.bulk_fill} per node. Callers must issue
    requests in their dispatcher's canonical order. *)

type settlement = {
  bank : Axmemo_multicore.Arbiter.settlement array;
      (** per node, local-core indexed *)
  net : Axmemo_multicore.Arbiter.settlement;  (** global-core indexed *)
  stalls : int array;
      (** per global core: bank stalls + NIC stalls + synchronous remote
          round-trip latency — everything settlement adds to busy time *)
  shared_accesses : int;
  contended_accesses : int;
}

val settle : t -> settlement
(** Settles each node's bank arbiter and the interconnect; call once,
    after the last request. Settled stalls flow back to (core, region) on
    the profile collectors when profiling is on. *)

val flush_metrics : t -> unit

val snapshots : t -> (string * Axmemo_telemetry.Registry.snapshot) list
(** Per-node registry snapshots, names prefixed ["n<j>."] (e.g.
    ["n0.core1"], ["n1.cluster"]); empty unless created with
    [~metrics:true]. Requires {!flush_metrics} first. *)

val section : t -> settled:settlement -> Axmemo_util.Json.t
(** The additive ["cluster"] report section from the live stats: shard
    balance, remote traffic, replication, directory accounting (sent /
    filtered vs broadcast-equivalent), interconnect latency / contention /
    energy, and — after a warm restore — the batched-activation counts. *)

(** {1 Warm-LUT snapshots} *)

val capture_snapshot : t -> Axmemo_tier.Snapshot.t
(** Every node's sections, names prefixed ["n<j>."]. *)

val restore_snapshot : t -> Axmemo_tier.Snapshot.t -> int
(** Restores a cluster snapshot (prefixed sections land on their node) or
    a plain single-node snapshot, whose ["l2"]/["l3"] entries are
    shard-routed to their homes — each node's DRAM share through one
    batched fill — and whose ["l1.<c>"] sections map global core [c] onto
    (node, local core). Every restored entry registers its node as a
    sharer in the directory. Returns the entry count restored. *)

(** {1 Running} *)

type stats = {
  shard_accesses : int array;  (** shared-level accesses homed per node *)
  mutable remote_probes : int;  (** lookups that crossed the interconnect *)
  mutable remote_hits : int;
  mutable remote_inserts : int;
  mutable replica_installs : int;
  mutable replica_hits : int;  (** remote-homed lookups served by a local replica *)
  mutable replica_invalidations : int;  (** stale replicas dropped on a write *)
  mutable inv_events : int;  (** retired invalidate instructions *)
  mutable inv_sent : int;  (** point-to-point node messages delivered *)
  mutable inv_filtered : int;  (** skipped: destination not a registered sharer *)
  mutable net_messages : int;
  mutable net_hops : int;  (** link traversals, probe responses included *)
  net_latency : int array;
      (** per global core, synchronous remote-probe round-trip cycles *)
  mutable restore_entries : int;
  mutable restore_amortised : int;  (** DRAM row activations, batched restore *)
  mutable restore_serial : int;  (** an entry-at-a-time replay's cost *)
  mutable replica_batch_amortised : int;  (** same accounting, replica L3 copies *)
  mutable replica_batch_serial : int;
}
(** The cluster's interconnect, directory, replication and restore
    counters. *)

type request_run = {
  rid : int;
  workload : string;
  gcore : int;
  start : int;
  finish : int;
  result : Axmemo.Runner.result;
}

type core_summary = {
  gcore : int;
  node : int;
  core : int;
  served : int;
  busy_cycles : int;
  bank_stall_cycles : int;  (** local shared-LUT arbitration *)
  retried : int;  (** local arbitrations lost *)
  net_stall_cycles : int;  (** NIC contention, settled post hoc *)
  net_latency_cycles : int;  (** synchronous remote-probe round trips *)
  finish_cycles : int;  (** busy + every settled addition *)
  lookups : int;
  hits : int;
  hit_rate : float;
  baseline_cycles : int;  (** un-memoized single-core cost of its requests *)
  speedup : float;  (** baseline over finish cycles; always finite *)
  way_range : int * int;  (** final allocation in the node's shared LUT *)
  shadow_hits : int;  (** the core's hits in its node's shared LUT *)
}

type l3_summary = {
  tier : Axmemo_tier.Dram_lut.stats;  (** [inserts] counts absorbed spills *)
  occupancy : int;
  capacity : int;
}
(** A node's DRAM tier at the end of the run. *)

type node_summary = {
  bank_accesses : int;  (** accesses recorded by the node's bank arbiter *)
  bank_contended : int;  (** of those, how many lost arbitration *)
  contention_cycles : int;  (** bank stalls summed over the node's cores *)
  contention_pj : float;  (** [bank_contended] at the L2 access energy *)
  repartitions : int;
  shared_occupancy : int;
  l3 : l3_summary option;  (** [None] unless the node config has a tier *)
  faults : Axmemo_faults.Injector.stats option;
      (** [None] unless the node config sets [faults] *)
  snapshots : (string * Axmemo_telemetry.Registry.snapshot) list;
      (** the node's ["core<i>"] and ["cluster"] registries, unprefixed;
          empty unless run with [~metrics:true] *)
}

type outcome = {
  cfg : config;
  requests : request_run list;
  cores : core_summary array;  (** per global core *)
  per_node : node_summary array;
  makespan_cycles : int;
  throughput_rps : float;  (** requests per simulated second *)
  speedup : float;  (** sum of baselines over the makespan; always finite *)
  aggregate_hit_rate : float;
  fairness : float;  (** Jain over per-core finish cycles *)
  shard_balance : float;  (** Jain over [stats.shard_accesses] *)
  replication_hit_share : float;
      (** replica hits over all remote-homed hits (replica + probe) *)
  inv_broadcast_equivalent : int;
      (** [inv_events * (nodes * cores_per_node - 1)] — the per-core
          fan-out a flat broadcast machine would deliver (the measured
          [corun.invalidate.*] baseline); the directory coalesces to one
          message per sharer node and filters non-sharers on top *)
  stats : stats;  (** a copy of the live counters at the end of the run *)
  net : Axmemo_multicore.Arbiter.settlement;  (** the interconnect's *)
  coherence_keys : int;
      (** (lut, key) pairs simultaneously valid in several SRAM structures
          cluster-wide (DRAM tiers excluded: approximate by contract) *)
  coherence_divergent : int;  (** the subset holding diverging payloads *)
  profiles : Axmemo_obs.Profile.snapshot array option;  (** per global core *)
  messages : msg list;  (** send order, for the trace *)
}

and msg = {
  seq : int;
  at : int;
  src : int;
  dst : int;
  hops : int;
  kind : msg_kind;
}

and msg_kind = Probe | Insert | Inv_lut | Inv_replica

val run_keep : ?metrics:bool -> ?profile:bool -> config -> outcome * t
(** {!run}, but also hands back the cluster with its warm end-of-run LUT
    state — the closed-stream warmer behind [axmemo snapshot save]. *)

val run : ?metrics:bool -> ?profile:bool -> config -> outcome
(** Simulates one closed stream of [node.requests] requests: dispatches
    them with {!Axmemo_multicore.Schedule.dispatch} over every global core,
    settles, and measures coherence divergence across every SRAM LUT
    structure. Baseline cycles come from a fresh un-memoized
    [Runner.run Baseline] per workload. With [~profile:true] each core
    carries an {!Axmemo_obs.Profile} collector with settled stalls charged
    back to its regions; all scheduling and cycle results are bit-identical
    either way. *)

val run_matrix : ?jobs:int -> ?profile:bool -> config list -> outcome list
(** Each cell with [~metrics:true]; byte-identical for any [?jobs]. *)

(** {1 Reports and traces} *)

val default_series_cap : int

val report_runs :
  ?series_cap:int -> outcome list -> Axmemo_telemetry.Report.run list
(** One run row per outcome: per-node registries merged under ["n<j>."]
    name prefixes, the ["cluster"] section attached (regression-gated as
    [cluster.<path>] by [Obs.Diff]), profiles merged across all cores. *)

val report : ?series_cap:int -> outcome list -> Axmemo_util.Json.t
(** Schema-v1 report; extra fields: [root_seed] and the full per-outcome
    ["cluster"] array (cores, schedule head, message accounting). *)

val write_report : ?series_cap:int -> string -> outcome list -> unit

(** {2 The co-run report}

    1-node outcomes rendered in the co-run's shape: rows labelled
    [<Corun.label node>:<who>], a top-level ["corun"] array of per-node
    aggregates. *)

val corun_report_runs :
  ?series_cap:int ->
  ?per_core:bool ->
  outcome list ->
  Axmemo_telemetry.Report.run list
(** One row per node registry ([core<i>] and [cluster] per outcome), series
    decimated to [series_cap]; what {!corun_report} embeds and what CSV
    export flattens. [~per_core:false] keeps only the [cluster] registries
    — per-core aggregates stay available in the ["corun"] block, so a big
    matrix can ship a small report. When the outcome carries profiles,
    each [core<i>] row embeds that core's ["profile"] section and the
    [cluster] row the {!Axmemo_obs.Profile.merge} of all of them.
    @raise Invalid_argument on an outcome with more than one node. *)

val corun_report :
  ?series_cap:int -> ?per_core:bool -> outcome list -> Axmemo_util.Json.t
(** Schema-v1 report; extra fields: [root_seed] and the ["corun"] array
    (bank arbitration, partitioning, the DRAM tier when configured, fault
    accounting, per-core summaries and the schedule head). *)

val write_corun_report :
  ?series_cap:int -> ?per_core:bool -> string -> outcome list -> unit

val trace : outcome -> Axmemo_telemetry.Tracer.t
(** Chrome-trace with one row per node's NIC: each message is a span from
    its issue cycle to issue + legs x [net_msg_cycles] (both legs for
    synchronous probes), emitted post hoc in deterministic order. *)

val write_trace : outcome -> string -> unit
