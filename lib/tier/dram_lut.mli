(** DRAM-resident L3 LUT tier.

    Models a huge-capacity lookup table living in main memory, probed
    in-DRAM pLUTo-style (PAPERS.md, arXiv 2104.07699): a probe that lands in
    the currently open row pays only a column access, switching rows pays a
    precharge + activate on top, and {!bulk_lookup} sorts a batch of
    candidate keys by row so every key sharing a row rides one activation.
    Entries are 16 bytes (8-byte tag word, 8-byte payload word); a row holds
    [row_bytes / 16] of them and replacement is per-row FIFO with
    hole-filling.

    Host storage is materialised per DRAM row on first write ({!insert},
    {!restore_entry}, {!bulk_fill}): a row never written costs one pointer,
    and probing it misses without allocating. {!capacity_entries} still
    reports the full modelled capacity.

    Payload cells are split by criticality (PAPERS.md, Akiyama, arXiv
    2004.01637): the high [exact_high_bits] are stored in
    nominally-refreshed cells, the low bits in relaxed cells whose retention
    failures are drawn through the {!Axmemo_faults.Injector} at read time
    (site {!Axmemo_faults.Fault_model.L3_payload}) and persist until the
    cell is rewritten. Tag, valid and FIFO state are always exact.

    Latency is exposed via {!last_probe_cycles} (the cluster layer charges
    it through the pipeline's lookup path); row activations and column
    accesses feed the energy model. With [?metrics], a [lut.l3.*] counter
    family is registered; inserts are posted writes — counted, never
    stalled on. *)

type config = {
  size_bytes : int;  (** total capacity; multiple of [row_bytes] *)
  row_bytes : int;  (** DRAM row size; multiple of 16 *)
  row_hit_cycles : int;  (** column access into the open row *)
  activate_cycles : int;  (** extra cost when a probe switches rows *)
  exact_high_bits : int;
      (** criticality split: top bits exact, low [64 - n] bits relaxed;
          [64] disables approximate storage entirely *)
}

val default : config
(** 16 MiB, 1 KiB rows, {!Axmemo_isa.Timing.l3_row_hit_cycles} /
    {!Axmemo_isa.Timing.l3_activate_cycles}, 48 exact high bits. *)

type stats = {
  probes : int;
  hits : int;
  misses : int;
  inserts : int;
  evictions : int;
  row_activations : int;
  row_hits : int;
  invalidations : int;
  corrupted_reads : int;  (** reads that exposed a decayed relaxed bit *)
}

val zero_stats : stats

type t

val create :
  ?metrics:Axmemo_telemetry.Registry.t ->
  ?injector:Axmemo_faults.Injector.t ->
  config ->
  t
(** Build an empty tier. [?injector] enables the approximate-payload draw —
    but only when its spec also lists [L3_payload] among the enabled sites;
    otherwise reads are exact and do not advance the fault RNG stream.
    @raise Invalid_argument on a geometry that does not fill whole rows. *)

val config : t -> config
val rows : t -> int
val slots_per_row : t -> int
val capacity_entries : t -> int
val occupancy : t -> int
val stats : t -> stats

val lookup : t -> lut_id:int -> key:int64 -> int64 option
(** Single probe through the row buffer; cost readable from
    {!last_probe_cycles} immediately after. A hit on a relaxed-bit
    criticality split may return (and persist) a decayed payload. *)

val last_probe_cycles : t -> int
(** Cycles charged by the most recent {!lookup}. *)

val last_decay : t -> (int64 * int64) option
(** [(clean, as-read)] payload pair when the most recent probe hit an entry
    whose relaxed low bits had decayed; [None] on exact reads and misses.
    Read it immediately after {!lookup}, like {!last_probe_cycles} — the
    next probe resets it. Feeds the quality monitor's observed-error
    window via the [decay] field of its memo-unit level port. *)

val bulk_lookup : t -> (int * int64) array -> int64 option array * int
(** [bulk_lookup t pairs] probes every [(lut_id, key)] pair, visiting them
    sorted by row so keys sharing a row share one activation. Results are
    returned in the original order together with the total cycle cost —
    the pLUTo amortisation, exposed for batch warming and prefetch
    experiments. *)

val insert : t -> lut_id:int -> key:int64 -> payload:int64 -> unit
(** Posted write (spill from the SRAM tiers): counted and charged as row
    traffic for energy, but never stalls the pipeline. Replaces per-row
    FIFO when the row is full; an existing [(lut_id, key)] entry is
    refreshed in place. *)

val invalidate_lut : t -> lut_id:int -> unit
val invalidate_all : t -> unit

val iter_entries :
  t ->
  (row:int -> slot:int -> lut_id:int -> key:int64 -> payload:int64 ->
   stamp:int -> unit) ->
  unit
(** Deterministic row-major, slot-minor enumeration of valid entries;
    [stamp] is the global insertion tick so a capture can order entries
    oldest-first. *)

val entries : t -> (int * int64 * int64) list

val restore_entry : t -> lut_id:int -> key:int64 -> payload:int64 -> unit
(** Snapshot replay: writes one entry without fault draws, telemetry, or
    row-buffer perturbation. Replaying a capture oldest-first reproduces
    the captured per-row fill order. *)

val bulk_fill : t -> (int * int64 * int64) array -> int * int
(** [bulk_fill t entries] writes every [(lut_id, key, payload)] triple
    row-sorted — the batch-warming policy for the {!bulk_lookup}
    amortisation: each touched row pays one activation instead of one per
    row switch. Recency stamps are pre-assigned in input order, so the
    final tier state is bit-identical to a serial {!restore_entry} replay
    of the same array. Returns [(amortised, serial)]: the row activations
    the sorted batch costs vs what an in-order replay would have cost from
    a precharged bank. Like {!restore_entry} the fill itself draws no
    faults, counts no telemetry, and leaves the row buffer unperturbed —
    callers bill the returned counts. *)
