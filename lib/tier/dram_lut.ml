module Injector = Axmemo_faults.Injector
module Fault_model = Axmemo_faults.Fault_model
module Registry = Axmemo_telemetry.Registry
module Timing = Axmemo_isa.Timing

(* A stored entry models an 8-byte tag word (valid bit + LUT_ID + full CRC
   key) plus an 8-byte payload word: 16 bytes, so one DRAM row holds
   [row_bytes / 16] entries. *)
let entry_bytes = 16

type config = {
  size_bytes : int;
  row_bytes : int;
  row_hit_cycles : int;
  activate_cycles : int;
  exact_high_bits : int;
}

let default =
  {
    size_bytes = 16 * 1024 * 1024;
    row_bytes = 1024;
    row_hit_cycles = Timing.l3_row_hit_cycles;
    activate_cycles = Timing.l3_activate_cycles;
    exact_high_bits = 48;
  }

type stats = {
  probes : int;
  hits : int;
  misses : int;
  inserts : int;
  evictions : int;
  row_activations : int;
  row_hits : int;
  invalidations : int;
  corrupted_reads : int;
}

let zero_stats =
  {
    probes = 0;
    hits = 0;
    misses = 0;
    inserts = 0;
    evictions = 0;
    row_activations = 0;
    row_hits = 0;
    invalidations = 0;
    corrupted_reads = 0;
  }

type counters = {
  c_probes : Registry.counter;
  c_hits : Registry.counter;
  c_misses : Registry.counter;
  c_spills : Registry.counter;
  c_evictions : Registry.counter;
  c_row_activations : Registry.counter;
  c_row_hits : Registry.counter;
  c_corrupted : Registry.counter;
}

(* One DRAM row's slots, allocated on the row's first write. [fifo] is the
   row's FIFO eviction cursor: 0 until the row first evicts. *)
type row = {
  valid : bool array;
  lut_ids : int array;
  keys : int64 array;
  payloads : int64 array;
  stamp : int array;  (* global insertion tick, for snapshot age order *)
  mutable fifo : int;
}

(* Shared by every never-written row: zero slots, so probes, scans and
   enumeration pass over it without allocating. *)
let empty_row =
  { valid = [||]; lut_ids = [||]; keys = [||]; payloads = [||]; stamp = [||]; fifo = 0 }

type t = {
  cfg : config;
  nrows : int;
  slots : int;  (* entries per row *)
  rows : row array;  (* [empty_row] until first written *)
  mutable tick : int;
  mutable open_row : int;  (* -1 = all banks precharged *)
  mutable occupied : int;
  mutable last_probe_cycles : int;
  mutable last_decay : (int64 * int64) option;
      (* (clean, as-read) of the most recent probe's payload when its relaxed
         low bits had decayed; None on exact reads and misses *)
  injector : Injector.t option;
  counters : counters option;
  (* running [stats] fields *)
  mutable n_probes : int;
  mutable n_hits : int;
  mutable n_misses : int;
  mutable n_inserts : int;
  mutable n_evictions : int;
  mutable n_row_activations : int;
  mutable n_row_hits : int;
  mutable n_invalidations : int;
  mutable n_corrupted_reads : int;
}

let create ?metrics ?injector cfg =
  if cfg.row_bytes <= 0 || cfg.row_bytes mod entry_bytes <> 0 then
    invalid_arg "Dram_lut.create: row_bytes must be a positive multiple of 16";
  if cfg.size_bytes <= 0 || cfg.size_bytes mod cfg.row_bytes <> 0 then
    invalid_arg "Dram_lut.create: size_bytes must be a positive multiple of row_bytes";
  if cfg.exact_high_bits < 0 || cfg.exact_high_bits > 64 then
    invalid_arg "Dram_lut.create: exact_high_bits must be within [0, 64]";
  if cfg.row_hit_cycles < 0 || cfg.activate_cycles < 0 then
    invalid_arg "Dram_lut.create: cycle costs must be non-negative";
  let nrows = cfg.size_bytes / cfg.row_bytes in
  let slots = cfg.row_bytes / entry_bytes in
  let counters =
    Option.map
      (fun m ->
        {
          c_probes = Registry.counter m "lut.l3.probes";
          c_hits = Registry.counter m "lut.l3.hits";
          c_misses = Registry.counter m "lut.l3.misses";
          c_spills = Registry.counter m "lut.l3.spills";
          c_evictions = Registry.counter m "lut.l3.evictions";
          c_row_activations = Registry.counter m "lut.l3.row_activations";
          c_row_hits = Registry.counter m "lut.l3.row_hits";
          c_corrupted = Registry.counter m "lut.l3.corrupted_reads";
        })
      metrics
  in
  {
    cfg;
    nrows;
    slots;
    rows = Array.make nrows empty_row;
    tick = 0;
    open_row = -1;
    occupied = 0;
    last_probe_cycles = 0;
    last_decay = None;
    injector;
    counters;
    n_probes = 0; n_hits = 0; n_misses = 0; n_inserts = 0; n_evictions = 0;
    n_row_activations = 0; n_row_hits = 0; n_invalidations = 0; n_corrupted_reads = 0;
  }

let config t = t.cfg
let rows t = t.nrows
let slots_per_row t = t.slots
let capacity_entries t = t.nrows * t.slots
let occupancy t = t.occupied

let stats t =
  {
    probes = t.n_probes;
    hits = t.n_hits;
    misses = t.n_misses;
    inserts = t.n_inserts;
    evictions = t.n_evictions;
    row_activations = t.n_row_activations;
    row_hits = t.n_row_hits;
    invalidations = t.n_invalidations;
    corrupted_reads = t.n_corrupted_reads;
  }

let last_probe_cycles t = t.last_probe_cycles
let last_decay t = t.last_decay

let bump c f = match c with Some cs -> Registry.incr (f cs) | None -> ()

let row_of_key t key =
  Int64.to_int
    (Int64.rem (Int64.logand key 0x7FFFFFFFFFFFFFFFL) (Int64.of_int t.nrows))

(* Row-buffer model (pLUTo): touching the open row costs one column access;
   switching rows adds a precharge + activate. Writes go through the same
   row buffer (they dirty activation state and burn activation energy) but
   are posted — the pipeline never waits on them. *)
let touch_row t row =
  if t.open_row = row then begin
    t.n_row_hits <- t.n_row_hits + 1;
    bump t.counters (fun c -> c.c_row_hits);
    t.cfg.row_hit_cycles
  end
  else begin
    t.open_row <- row;
    t.n_row_activations <- t.n_row_activations + 1;
    bump t.counters (fun c -> c.c_row_activations);
    t.cfg.activate_cycles + t.cfg.row_hit_cycles
  end

(* Slot holding [(lut_id, key)] in [row], or -1. *)
let find_in_row row ~lut_id ~key =
  let rec go s =
    if s >= Array.length row.valid then -1
    else if row.valid.(s) && row.lut_ids.(s) = lut_id && row.keys.(s) = key then s
    else go (s + 1)
  in
  go 0

(* Row [r] ready for a write: its slots are allocated on first use. *)
let materialise t r =
  let row = t.rows.(r) in
  if row != empty_row then row
  else begin
    let n = t.slots in
    let row =
      { valid = Array.make n false; lut_ids = Array.make n 0; keys = Array.make n 0L;
        payloads = Array.make n 0L; stamp = Array.make n 0; fifo = 0 }
    in
    t.rows.(r) <- row;
    row
  end

(* Approximate payload memory (Akiyama-style criticality split): the high
   [exact_high_bits] live in nominally-refreshed cells, the low bits in
   relaxed cells that may have decayed since the last write. A decayed bit
   is exposed at read time and persists in the array — retention failures
   stay until the cell is rewritten. The [L3_payload] site must be listed
   in the injector's spec for any opportunity to be drawn; otherwise the
   read is exact and perturbs nothing (not even the fault RNG stream). *)
let read_payload t row s =
  let relaxed = 64 - t.cfg.exact_high_bits in
  match t.injector with
  | Some inj when relaxed > 0 ->
      let v = row.payloads.(s) in
      let v' = Injector.corrupt inj Fault_model.L3_payload ~width:relaxed v in
      if v' <> v then begin
        row.payloads.(s) <- v';
        t.n_corrupted_reads <- t.n_corrupted_reads + 1;
        bump t.counters (fun c -> c.c_corrupted);
        t.last_decay <- Some (v, v');
        Injector.note_sdc inj
      end;
      v'
  | _ -> row.payloads.(s)

let probe t ~lut_id ~key =
  t.last_decay <- None;
  t.n_probes <- t.n_probes + 1;
  bump t.counters (fun c -> c.c_probes);
  let row = t.rows.(row_of_key t key) in
  let s = find_in_row row ~lut_id ~key in
  if s >= 0 then begin
    t.n_hits <- t.n_hits + 1;
    bump t.counters (fun c -> c.c_hits);
    Some (read_payload t row s)
  end
  else begin
    t.n_misses <- t.n_misses + 1;
    bump t.counters (fun c -> c.c_misses);
    None
  end

let lookup t ~lut_id ~key =
  let row = row_of_key t key in
  t.last_probe_cycles <- touch_row t row;
  probe t ~lut_id ~key

let bulk_lookup t pairs =
  let n = Array.length pairs in
  let order = Array.init n (fun i -> i) in
  (* Stable sort by row so every key sharing a row rides one activation —
     the pLUTo bulk-probe amortisation. *)
  let row_of i =
    let _, key = pairs.(i) in
    row_of_key t key
  in
  Array.sort
    (fun a b ->
      let c = compare (row_of a) (row_of b) in
      if c <> 0 then c else compare a b)
    order;
  let results = Array.make n None in
  let total = ref 0 in
  Array.iter
    (fun i ->
      let lut_id, key = pairs.(i) in
      total := !total + touch_row t (row_of_key t key);
      results.(i) <- probe t ~lut_id ~key)
    order;
  (results, !total)

(* Slot to write [(lut_id, key)] into, and whether it evicts: the entry's
   own slot, else the row's first invalid slot, else the FIFO cursor (rows
   are huge, so plain FIFO replacement loses almost nothing over LRU and
   needs no per-access recency writes in DRAM). *)
let slot_for row ~lut_id ~key =
  let s = find_in_row row ~lut_id ~key in
  if s >= 0 then (s, false)
  else
    let rec hole s =
      if s >= Array.length row.valid then -1 else if not row.valid.(s) then s else hole (s + 1)
    in
    match hole 0 with
    | -1 ->
        let s = row.fifo in
        row.fifo <- (s + 1) mod Array.length row.valid;
        (s, true)
    | s -> (s, false)

let write_entry t row s ~lut_id ~key ~payload ~stamp =
  if not row.valid.(s) then t.occupied <- t.occupied + 1;
  row.valid.(s) <- true;
  row.lut_ids.(s) <- lut_id;
  row.keys.(s) <- key;
  row.payloads.(s) <- payload;
  row.stamp.(s) <- stamp

(* One serial write into row [r] at the next tick; true when it evicted. *)
let put t r ~lut_id ~key ~payload =
  let row = materialise t r in
  let s, evicted = slot_for row ~lut_id ~key in
  t.tick <- t.tick + 1;
  write_entry t row s ~lut_id ~key ~payload ~stamp:t.tick;
  evicted

let insert t ~lut_id ~key ~payload =
  t.n_inserts <- t.n_inserts + 1;
  bump t.counters (fun c -> c.c_spills);
  let r = row_of_key t key in
  ignore (touch_row t r : int);
  if put t r ~lut_id ~key ~payload then begin
    t.n_evictions <- t.n_evictions + 1;
    bump t.counters (fun c -> c.c_evictions)
  end

let invalidate_lut t ~lut_id =
  t.n_invalidations <- t.n_invalidations + 1;
  Array.iter
    (fun row ->
      Array.iteri
        (fun s v ->
          if v && row.lut_ids.(s) = lut_id then begin
            row.valid.(s) <- false;
            t.occupied <- t.occupied - 1
          end)
        row.valid)
    t.rows

let invalidate_all t =
  Array.iter (fun row -> Array.fill row.valid 0 (Array.length row.valid) false) t.rows;
  t.occupied <- 0

let iter_entries t f =
  Array.iteri
    (fun r row ->
      Array.iteri
        (fun s v ->
          if v then
            f ~row:r ~slot:s ~lut_id:row.lut_ids.(s) ~key:row.keys.(s)
              ~payload:row.payloads.(s) ~stamp:row.stamp.(s))
        row.valid)
    t.rows

let entries t =
  let acc = ref [] in
  iter_entries t (fun ~row:_ ~slot:_ ~lut_id ~key ~payload ~stamp:_ ->
      acc := (lut_id, key, payload) :: !acc);
  List.rev !acc

(* Restore port: a snapshot replay is a bulk DMA fill, not a probe stream —
   no fault opportunities, no telemetry, no row-buffer perturbation. Replayed
   oldest-first it reproduces the captured per-row FIFO order. *)
let restore_entry t ~lut_id ~key ~payload =
  ignore (put t (row_of_key t key) ~lut_id ~key ~payload : bool)

(* Row-sorted bulk fill — the batch-warming policy driving the pLUTo
   amortisation [bulk_lookup] models: entries land row-major so each touched
   row pays one activation, while recency stamps are pre-assigned in input
   order so the final array state is bit-identical to a serial
   [restore_entry] replay of the same array (per-row FIFO cursors only see
   their own row's entries, and a stable sort keeps within-row order).
   Returns [(amortised, serial)] row-activation counts: what the sorted
   batch costs vs what the same entries replayed in input order would have
   cost from a precharged bank. Like [restore_entry] the fill itself is a
   DMA-style transfer — no fault opportunities, no telemetry, no row-buffer
   perturbation; callers decide how to bill the returned counts. *)
let bulk_fill t entries =
  let n = Array.length entries in
  let rows =
    Array.map (fun (_, key, _) -> row_of_key t key) entries
  in
  let serial = ref 0 in
  let prev = ref (-1) in
  Array.iter
    (fun r ->
      if r <> !prev then begin
        incr serial;
        prev := r
      end)
    rows;
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = compare rows.(a) rows.(b) in
      if c <> 0 then c else compare a b)
    order;
  let amortised = ref 0 in
  let prev = ref (-1) in
  let base_tick = t.tick in
  Array.iter
    (fun i ->
      let lut_id, key, payload = entries.(i) in
      let r = rows.(i) in
      if r <> !prev then begin
        incr amortised;
        prev := r
      end;
      let row = materialise t r in
      let s, _evicted = slot_for row ~lut_id ~key in
      write_entry t row s ~lut_id ~key ~payload ~stamp:(base_tick + i + 1))
    order;
  t.tick <- base_tick + n;
  (!amortised, !serial)
