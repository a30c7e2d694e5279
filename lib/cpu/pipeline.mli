(** In-order dual-issue timing model.

    Observes execution through {!Axmemo_ir.Interp.hooks} and charges cycles
    according to the HPI-like {!Machine} configuration: issue-width-limited
    in-order issue, scoreboarded operand readiness, functional-unit
    contention (non-pipelined dividers/sqrt), loads and stores through an
    {!Axmemo_cache.Hierarchy}, and the Table 4 latencies for the five AxMemo
    instructions, including the CRC input queue that can back-pressure the
    core.

    Branch prediction is assumed perfect (the evaluated kernels are
    loop-dominated); this is noted in DESIGN.md. *)

type instr_class =
  | C_ialu
  | C_imul
  | C_idiv
  | C_fp
  | C_fdiv_sqrt
  | C_ftrig
  | C_load
  | C_store
  | C_branch
  | C_call_ret
  | C_memo_send  (** reg_crc (ld_crc is counted as [C_load]) *)
  | C_memo_lookup
  | C_memo_update
  | C_memo_invalidate
  | C_memo_branch  (** the branch consuming the lookup condition code *)

type stats = {
  cycles : int;
  dyn_normal : int;
      (** dynamic count of ordinary instructions (ld_crc included, as in the
          paper's Figure 8 accounting) *)
  dyn_memo : int;  (** reg_crc + lookup + update + invalidate + memo branches *)
  per_class : (instr_class * int) list;
  crc_stall_cycles : int;  (** cycles the core waited on the CRC input queue *)
}

val class_name : instr_class -> string
(** Stable lowercase name ([ialu], [memo_lookup], ...) used in metric and
    report keys. *)

val all_classes : instr_class list
(** Every class, in {!class_index} order (index [i] of this list is the
    class whose per-region matrix column is [i]). *)

val class_index : instr_class -> int

val nclasses : int
(** [List.length all_classes]; per-region matrices carry one extra column
    ({!drain_class}) for end-of-run pipeline drain. *)

val drain_class : int

(** {1 Region attribution (the profiler's collector)} *)

type profile
(** Accumulates wall-clock cycles and instruction counts per
    [(static region, instruction class)] cell. A collector outlives any one
    pipeline — a co-run core reattaches it to each request's fresh pipeline
    and the matrices keep accumulating — so it is created standalone and
    passed to {!create}.

    Attribution rule: after each retired instruction/terminator the advance
    of the pipeline clock since the previous charge lands in one cell. The
    region is the LUT's region for memo instructions ([region_of_lut]),
    otherwise the region of the innermost frame whose function
    [region_of_func] recognised (entry code and helpers inherit their
    caller's region; the outermost frames belong to the synthetic {e
    program} region [nregions]). Both callbacks return [-1] for "no
    opinion". After {!profile_close}, the cycle matrix sums exactly to
    {!cycles} of every pipeline the collector was attached to. *)

val profile :
  nregions:int ->
  region_of_func:(string -> int) ->
  region_of_lut:(int -> int) ->
  profile

val profile_counts : profile -> int array array
(** Copy of the [(nregions+1) x (nclasses+1)] instruction-count matrix. *)

val profile_cycles : profile -> int array array
(** Copy of the cycle matrix (same shape). *)

type t

val create :
  ?metrics:Axmemo_telemetry.Registry.t ->
  ?profile:profile ->
  ?machine:Machine.t ->
  ?lookup_level:(unit -> [ `L1 | `L2 | `L3 | `Miss ]) ->
  ?l2_lut_present:bool ->
  ?l3_lookup_cycles:(unit -> int) ->
  ?l1_lut_ways:int ->
  ?crc_bytes_per_cycle:int ->
  program:Axmemo_ir.Ir.program ->
  hierarchy:Axmemo_cache.Hierarchy.t ->
  unit ->
  t
(** [create ~program ~hierarchy ()] builds a timing consumer. [lookup_level]
    reports the level serviced by the most recent LUT lookup (wired to
    {!Axmemo_memo}); without it lookups are charged as L1-LUT misses.
    [l3_lookup_cycles] reads the DRAM cost of the most recent lookup's L3
    probe (row-buffer dependent); it is added on [`L3] hits and on misses
    that fell through an attached DRAM tier, and defaults to a constant 0 —
    with no tier attached the charge is bit-identical to the two-level
    model.
    [crc_bytes_per_cycle] defaults to the unrolled unit's 4 (Table 4 /
    Section 6.1); pass 1 to model the plain serial-per-byte unit.
    With [?metrics], the model registers its instruments under [pipeline.*]
    and samples CRC back-pressure stalls live ([pipeline.crc_stall], a
    cycle-indexed series); cycle results are bit-identical either way. *)

val hooks : t -> Axmemo_ir.Interp.hooks
(** Allocation-free attachment; pass as the interpreter's [hooks]. With a
    [?profile] collector attached the callbacks also attribute every
    instruction to its static region; without one they are exactly the
    unprofiled closures. *)

val profile_close : t -> unit
(** Charge the cycles between the last retired instruction and the final
    pipeline drain to the program region's {!drain_class} column, restoring
    the matrix-sums-to-{!cycles} invariant. Call once per pipeline, after
    the run; no-op without a collector. *)

val stats : t -> stats

val cycles : t -> int
(** Cycles elapsed so far. *)

val seconds : t -> float
(** [cycles] over the configured core frequency. *)

val flush_metrics : t -> unit
(** Mirror the cumulative counters into the attached registry:
    per-class [pipeline.class.<name>.count] and [.cycles] (occupancy-cycle
    attribution), [pipeline.cycles], [pipeline.crc_stall_cycles],
    [pipeline.dyn_normal]/[pipeline.dyn_memo]. Call once, when the run
    ends. No-op without an attached registry. *)
