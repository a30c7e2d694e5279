module Ir = Axmemo_ir.Ir
module Interp = Axmemo_ir.Interp
module Hierarchy = Axmemo_cache.Hierarchy
module Timing = Axmemo_isa.Timing
module Registry = Axmemo_telemetry.Registry

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
  | C_memo_send
  | C_memo_lookup
  | C_memo_update
  | C_memo_invalidate
  | C_memo_branch

type stats = {
  cycles : int;
  dyn_normal : int;
  dyn_memo : int;
  per_class : (instr_class * int) list;
  crc_stall_cycles : int;
}

type frame = {
  ready : int array;  (* per-register ready cycle *)
  call_binding : (int array * int array) option;
      (* (dst registers, caller's ready array) to fill at Leave *)
}

(* Telemetry attachment: live CRC back-pressure samples plus per-class
   occupancy-cycle attribution, mirrored into counters by [flush_metrics].
   Purely observational — timing results are bit-identical either way. *)
type telem = {
  class_cycles : int array;  (* occupancy cycles charged per class *)
  count_c : Registry.counter array;  (* pipeline.class.<name>.count *)
  cycles_c : Registry.counter array;  (* pipeline.class.<name>.cycles *)
  total_cycles_c : Registry.counter;
  crc_stall_c : Registry.counter;
  dyn_normal_c : Registry.counter;
  dyn_memo_c : Registry.counter;
  crc_stall_s : Registry.series;  (* stall magnitude over issue cycles *)
}

(* Attribution-profiler attachment (lib/obs): wall-clock cycle deltas and
   instruction counts charged to (static region, instruction class). The
   collector outlives any one pipeline — a co-run reuses it across the
   per-request pipelines — so it is created standalone ({!profile}) and
   handed to [create]. Purely observational. *)
type profile = {
  p_nregions : int;  (* region ids are 0..n-1; index n is the program body *)
  p_region_of_func : string -> int;  (* kernel name -> region id, -1 = inherit *)
  p_region_of_lut : int -> int;  (* logical LUT id -> region id, -1 = current *)
  mutable p_stack : int list;  (* region of each live frame, innermost first *)
  mutable p_last : int;  (* pipeline clock at the previous charge *)
  p_counts : int array array;  (* (nregions+1) x (nclasses+1) instructions *)
  p_cycles : int array array;  (* (nregions+1) x (nclasses+1) wall cycles *)
}

let nclasses = 15
let drain_class = nclasses  (* synthetic column: end-of-run pipeline drain *)

let profile ~nregions ~region_of_func ~region_of_lut =
  {
    p_nregions = nregions;
    p_region_of_func = region_of_func;
    p_region_of_lut = region_of_lut;
    p_stack = [];
    p_last = 0;
    p_counts = Array.make_matrix (nregions + 1) (nclasses + 1) 0;
    p_cycles = Array.make_matrix (nregions + 1) (nclasses + 1) 0;
  }

let profile_counts p = Array.map Array.copy p.p_counts
let profile_cycles p = Array.map Array.copy p.p_cycles

type t = {
  machine : Machine.t;
  hier : Hierarchy.t;
  lookup_level : unit -> [ `L1 | `L2 | `L3 | `Miss ];
  l2_lut_present : bool;
  (* DRAM cost of the most recent lookup's L3 probe (0 when no DRAM tier is
     attached or no probe was issued) — row-buffer dependent, so a closure
     read per lookup rather than a constant. *)
  l3_lookup_cycles : unit -> int;
  l1_lut_ways : int;
  crc_bytes_per_cycle : int;
  nregs_of : (string, int) Hashtbl.t;
  mutable slot_cycle : int;
  mutable slot_used : int;
  mutable horizon : int;  (* latest completion seen *)
  alu : int array;
  mul : int array;
  div : int array;
  fpu : int array;
  lsu : int array;
  mutable frames : frame list;
  mutable pending_call : (int array * int array) option;
  mutable pending_args_ready : int;
  mutable last_ret_ready : int;
  mutable crc_done : int;
  mutable memo_port_free : int;
  mutable crc_stalls : int;
  counts : int array;  (* indexed by class *)
  mutable dyn_normal : int;
  mutable dyn_memo : int;
  telem : telem option;
  profile : profile option;
}

let class_index = function
  | C_ialu -> 0
  | C_imul -> 1
  | C_idiv -> 2
  | C_fp -> 3
  | C_fdiv_sqrt -> 4
  | C_ftrig -> 5
  | C_load -> 6
  | C_store -> 7
  | C_branch -> 8
  | C_call_ret -> 9
  | C_memo_send -> 10
  | C_memo_lookup -> 11
  | C_memo_update -> 12
  | C_memo_invalidate -> 13
  | C_memo_branch -> 14

let all_classes =
  [
    C_ialu; C_imul; C_idiv; C_fp; C_fdiv_sqrt; C_ftrig; C_load; C_store; C_branch;
    C_call_ret; C_memo_send; C_memo_lookup; C_memo_update; C_memo_invalidate;
    C_memo_branch;
  ]

let class_name = function
  | C_ialu -> "ialu"
  | C_imul -> "imul"
  | C_idiv -> "idiv"
  | C_fp -> "fp"
  | C_fdiv_sqrt -> "fdiv_sqrt"
  | C_ftrig -> "ftrig"
  | C_load -> "load"
  | C_store -> "store"
  | C_branch -> "branch"
  | C_call_ret -> "call_ret"
  | C_memo_send -> "memo_send"
  | C_memo_lookup -> "memo_lookup"
  | C_memo_update -> "memo_update"
  | C_memo_invalidate -> "memo_invalidate"
  | C_memo_branch -> "memo_branch"

let make_telem reg =
  (* [all_classes] lists classes in [class_index] order, so these arrays
     index the same way as [counts]. *)
  let classes = Array.of_list all_classes in
  let counter = Registry.counter reg in
  {
    class_cycles = Array.make (Array.length classes) 0;
    count_c =
      Array.map (fun c -> counter ("pipeline.class." ^ class_name c ^ ".count")) classes;
    cycles_c =
      Array.map (fun c -> counter ("pipeline.class." ^ class_name c ^ ".cycles")) classes;
    total_cycles_c = counter "pipeline.cycles";
    crc_stall_c = counter "pipeline.crc_stall_cycles";
    dyn_normal_c = counter "pipeline.dyn_normal";
    dyn_memo_c = counter "pipeline.dyn_memo";
    crc_stall_s = Registry.series reg "pipeline.crc_stall" ();
  }

let create ?metrics ?profile:prof ?(machine = Machine.hpi) ?lookup_level
    ?(l2_lut_present = false) ?(l3_lookup_cycles = fun () -> 0) ?(l1_lut_ways = 4)
    ?(crc_bytes_per_cycle = Timing.crc_bytes_per_cycle) ~program ~hierarchy () =
  let nregs_of = Hashtbl.create 16 in
  Array.iter
    (fun (f : Ir.func) -> Hashtbl.replace nregs_of f.fname f.nregs)
    (program : Ir.program).funcs;
  (* A reattached collector keeps its accumulated matrices but restarts its
     clock and frame stack with this pipeline. *)
  (match prof with
  | Some p ->
      p.p_last <- 0;
      p.p_stack <- []
  | None -> ());
  {
    machine;
    hier = hierarchy;
    lookup_level = (match lookup_level with Some f -> f | None -> fun () -> `Miss);
    l2_lut_present;
    l3_lookup_cycles;
    l1_lut_ways;
    crc_bytes_per_cycle;
    nregs_of;
    slot_cycle = 0;
    slot_used = 0;
    horizon = 0;
    alu = Array.make machine.n_alu 0;
    mul = Array.make machine.n_mul 0;
    div = Array.make machine.n_div 0;
    fpu = Array.make machine.n_fpu 0;
    lsu = Array.make machine.n_lsu 0;
    frames = [];
    pending_call = None;
    pending_args_ready = 0;
    last_ret_ready = 0;
    crc_done = 0;
    memo_port_free = 0;
    crc_stalls = 0;
    counts = Array.make 15 0;
    dyn_normal = 0;
    dyn_memo = 0;
    telem = Option.map make_telem metrics;
    profile = prof;
  }

(* Attribute [cyc] occupancy cycles to [cls]. Only meaningful with telemetry
   attached; without it the site costs one pattern match. *)
let attr t cls cyc =
  match t.telem with
  | Some tl ->
      let i = class_index cls in
      tl.class_cycles.(i) <- tl.class_cycles.(i) + cyc
  | None -> ()

let count t cls =
  t.counts.(class_index cls) <- t.counts.(class_index cls) + 1;
  match cls with
  | C_memo_send | C_memo_lookup | C_memo_update | C_memo_invalidate | C_memo_branch ->
      t.dyn_memo <- t.dyn_memo + 1
  | C_ialu | C_imul | C_idiv | C_fp | C_fdiv_sqrt | C_ftrig | C_load | C_store
  | C_branch | C_call_ret ->
      t.dyn_normal <- t.dyn_normal + 1

(* Issue one instruction no earlier than [ready]; returns the issue cycle,
   respecting in-order dual-issue. *)
let[@inline] issue t ready =
  let c = max ready t.slot_cycle in
  if c > t.slot_cycle then begin
    t.slot_cycle <- c;
    t.slot_used <- 1;
    c
  end
  else if t.slot_used < t.machine.issue_width then begin
    t.slot_used <- t.slot_used + 1;
    c
  end
  else begin
    t.slot_cycle <- c + 1;
    t.slot_used <- 1;
    c + 1
  end

(* Earliest-available unit in a pool; returns its index. *)
let pool_min pool =
  let best = ref 0 in
  for i = 1 to Array.length pool - 1 do
    if pool.(i) < pool.(!best) then best := i
  done;
  !best

let current_frame t =
  match t.frames with
  | f :: _ -> f
  | [] -> failwith "Pipeline: event outside any frame"

let op_ready frame = function Ir.Reg r -> frame.ready.(r) | Ir.Imm _ -> 0

let srcs_ready t instr =
  let frame = current_frame t in
  List.fold_left (fun acc r -> max acc frame.ready.(r)) 0 (Ir.instr_srcs instr)

let complete t frame dsts at =
  List.iter (fun r -> frame.ready.(r) <- at) dsts;
  if at > t.horizon then t.horizon <- at

(* Issue through a functional-unit pool. [busy] is the occupancy (1 for
   pipelined units, [latency] for non-pipelined ones). *)
let exec_fu t instr pool ~latency ~busy cls =
  let frame = current_frame t in
  let ready = srcs_ready t instr in
  let u = pool_min pool in
  let c = issue t (max ready pool.(u)) in
  pool.(u) <- c + busy;
  complete t frame (Ir.instr_dst instr) (c + latency);
  count t cls;
  attr t cls latency

(* Sends to the CRC unit: the queue drains one byte per cycle; the core
   stalls only when the queue is full (Table 4). [avail] is when the bytes
   become available to the queue relative to the issue cycle. *)
let crc_send t ~issue_cycle ~bytes ~avail_delay =
  let start = max t.crc_done (issue_cycle + avail_delay) in
  let cycles = max 1 ((bytes + t.crc_bytes_per_cycle - 1) / t.crc_bytes_per_cycle) in
  t.crc_done <- start + cycles

let crc_queue_constraint t ~bytes =
  (* Issue must wait until the projected backlog fits the queue. *)
  t.crc_done + bytes - Timing.input_queue_bytes

let m t = t.machine

let rec exec_instr t (instr : Ir.instr) addr =
  match instr with
  | Const _ | Mov _ | Select _ -> exec_fu t instr t.alu ~latency:(m t).lat_alu ~busy:1 C_ialu
  | Binop { op; _ } -> (
      match op with
      | Mul -> exec_fu t instr t.mul ~latency:(m t).lat_mul ~busy:1 C_imul
      | Div | Rem ->
          exec_fu t instr t.div ~latency:(m t).lat_div ~busy:(m t).lat_div C_idiv
      | Add | Sub | And | Or | Xor | Shl | Lshr | Ashr ->
          exec_fu t instr t.alu ~latency:(m t).lat_alu ~busy:1 C_ialu)
  | Fbinop { op; _ } -> (
      match op with
      | Fdiv -> exec_fu t instr t.fpu ~latency:(m t).lat_fdiv ~busy:(m t).lat_fdiv C_fdiv_sqrt
      | Fadd | Fsub | Fmul -> exec_fu t instr t.fpu ~latency:(m t).lat_fp ~busy:1 C_fp)
  | Funop { op; _ } -> (
      match op with
      | Fsqrt ->
          exec_fu t instr t.fpu ~latency:(m t).lat_fsqrt ~busy:(m t).lat_fsqrt C_fdiv_sqrt
      | Fsin | Fcos | Fexp | Flog ->
          exec_fu t instr t.fpu ~latency:(m t).lat_ftrig ~busy:(m t).lat_ftrig C_ftrig
      | Fneg | Fabs | Ffloor | Fround ->
          exec_fu t instr t.fpu ~latency:(m t).lat_fp ~busy:1 C_fp)
  | Icmp _ -> exec_fu t instr t.alu ~latency:(m t).lat_alu ~busy:1 C_ialu
  | Fcmp _ -> exec_fu t instr t.fpu ~latency:(m t).lat_fp ~busy:1 C_fp
  | Cast { op; _ } -> (
      match op with
      | I_to_f | F_to_i | F32_of_f64 | F64_of_f32 ->
          exec_fu t instr t.fpu ~latency:(m t).lat_fp ~busy:1 C_fp
      | Bits_of_f32 | F32_of_bits | Bits_of_f64 | F64_of_bits | Sext_32_64 | Trunc_64_32
        ->
          exec_fu t instr t.alu ~latency:(m t).lat_alu ~busy:1 C_ialu)
  | Load _ ->
      let frame = current_frame t in
      let ready = srcs_ready t instr in
      let u = pool_min t.lsu in
      let c = issue t (max ready t.lsu.(u)) in
      t.lsu.(u) <- c + 1;
      let latency = Hierarchy.read t.hier ~addr in
      complete t frame (Ir.instr_dst instr) (c + latency);
      count t C_load;
      attr t C_load latency
  | Store _ ->
      let ready = srcs_ready t instr in
      let u = pool_min t.lsu in
      let c = issue t (max ready t.lsu.(u)) in
      let latency = Hierarchy.write t.hier ~addr in
      t.lsu.(u) <- c + latency;
      if c + latency > t.horizon then t.horizon <- c + latency;
      count t C_store;
      attr t C_store latency
  | Call { args; dsts; _ } ->
      (* The bl instruction: a branch-class issue slot. *)
      let frame = current_frame t in
      let ready =
        Array.fold_left
          (fun acc a -> max acc (op_ready frame a))
          0 args
      in
      let c = issue t ready in
      t.pending_args_ready <- max ready c;
      t.pending_call <- Some (Array.copy dsts, frame.ready);
      count t C_call_ret;
      attr t C_call_ret 1
  | Memo mi -> exec_memo t mi addr

and exec_memo t (mi : Ir.memo_instr) addr =
  match mi with
  | Ld_crc { ty; _ } ->
      let instr = Ir.Memo mi in
      let frame = current_frame t in
      let bytes = Ir.ty_size ty in
      let ready = srcs_ready t instr in
      let u = pool_min t.lsu in
      let queue_ok = crc_queue_constraint t ~bytes in
      let unconstrained = max ready t.lsu.(u) in
      let c = issue t (max unconstrained queue_ok) in
      if queue_ok > unconstrained then begin
        let stall = queue_ok - unconstrained in
        t.crc_stalls <- t.crc_stalls + stall;
        match t.telem with
        | Some tl -> Registry.sample tl.crc_stall_s ~at:c (float_of_int stall)
        | None -> ()
      end;
      t.lsu.(u) <- c + 1;
      let latency = Hierarchy.read t.hier ~addr in
      complete t frame (Ir.instr_dst instr) (c + latency);
      crc_send t ~issue_cycle:c ~bytes ~avail_delay:latency;
      count t C_load;
      attr t C_load latency
  | Reg_crc { ty; _ } ->
      let instr = Ir.Memo mi in
      let bytes = Ir.ty_size ty in
      let ready = srcs_ready t instr in
      let queue_ok = crc_queue_constraint t ~bytes in
      let c = issue t (max ready queue_ok) in
      if queue_ok > ready then begin
        let stall = max 0 (queue_ok - ready) in
        t.crc_stalls <- t.crc_stalls + stall;
        match t.telem with
        | Some tl -> Registry.sample tl.crc_stall_s ~at:c (float_of_int stall)
        | None -> ()
      end;
      crc_send t ~issue_cycle:c ~bytes ~avail_delay:1;
      count t C_memo_send;
      attr t C_memo_send 1
  | Lookup _ ->
      let instr = Ir.Memo mi in
      let frame = current_frame t in
      let ready = max (srcs_ready t instr) (max t.crc_done t.memo_port_free) in
      let c = issue t ready in
      let latency =
        match t.lookup_level () with
        | `L1 -> Timing.lookup_l1_cycles
        | `L2 -> Timing.lookup_l1_cycles + Timing.lookup_l2_cycles
        | `L3 ->
            Timing.lookup_l1_cycles + Timing.lookup_l2_cycles
            + t.l3_lookup_cycles ()
        | `Miss ->
            (if t.l2_lut_present then Timing.lookup_l1_cycles + Timing.lookup_l2_cycles
             else Timing.lookup_l1_cycles)
            + t.l3_lookup_cycles ()
      in
      t.memo_port_free <- c + latency;
      complete t frame (Ir.instr_dst instr) (c + latency);
      count t C_memo_lookup;
      attr t C_memo_lookup latency
  | Update _ ->
      let instr = Ir.Memo mi in
      let ready = max (srcs_ready t instr) t.memo_port_free in
      let c = issue t ready in
      t.memo_port_free <- c + Timing.update_cycles;
      if c + Timing.update_cycles > t.horizon then t.horizon <- c + Timing.update_cycles;
      count t C_memo_update;
      attr t C_memo_update Timing.update_cycles
  | Invalidate _ ->
      let c = issue t t.memo_port_free in
      let penalty = t.l1_lut_ways * Timing.invalidate_cycles_per_way in
      t.memo_port_free <- c + penalty;
      t.slot_cycle <- c + penalty;
      t.slot_used <- 0;
      count t C_memo_invalidate;
      attr t C_memo_invalidate penalty

let exec_term t (term : Ir.terminator) =
  match term with
  | Jmp _ ->
      let _c = issue t t.slot_cycle in
      count t C_branch;
      attr t C_branch 1
  | Br { cond; _ } ->
      let frame = current_frame t in
      let c = issue t (op_ready frame cond) in
      ignore c;
      count t C_branch;
      attr t C_branch 1
  | Br_memo _ ->
      (* Consumes the lookup's condition code; readiness is already folded
         into [memo_port_free]. *)
      let c = issue t t.memo_port_free in
      ignore c;
      count t C_memo_branch;
      attr t C_memo_branch 1
  | Ret ops ->
      let frame = current_frame t in
      let ready = Array.fold_left (fun acc o -> max acc (op_ready frame o)) 0 ops in
      let c = issue t ready in
      t.last_ret_ready <- max ready c;
      count t C_call_ret;
      attr t C_call_ret 1

let on_enter t fname =
  let nregs = try Hashtbl.find t.nregs_of fname with Not_found -> 64 in
  let binding = t.pending_call in
  t.pending_call <- None;
  let ready = Array.make nregs (max t.pending_args_ready t.slot_cycle) in
  t.frames <- { ready; call_binding = binding } :: t.frames

let on_leave t _fname =
  match t.frames with
  | [] -> ()
  | frame :: rest ->
      t.frames <- rest;
      (match frame.call_binding with
      | Some (dsts, caller_ready) ->
          Array.iter (fun r -> caller_ready.(r) <- t.last_ret_ready) dsts
      | None -> ())

let cycles t = max t.slot_cycle t.horizon

(* ------------------------------------------------------------------ *)
(* Site compilers for the compiled execution backend: everything static
   about an instruction — source/destination register sets, class index,
   functional-unit pool, latency, occupancy — is resolved once per static
   site, so the per-execution closure touches no lists and matches no
   constructors. Each closure must stay observationally identical to the
   corresponding [exec_instr]/[exec_term] arm. *)

let is_memo_class = function
  | C_memo_send | C_memo_lookup | C_memo_update | C_memo_invalidate | C_memo_branch ->
      true
  | C_ialu | C_imul | C_idiv | C_fp | C_fdiv_sqrt | C_ftrig | C_load | C_store
  | C_branch | C_call_ret ->
      false

let[@inline] count_k t k memo =
  t.counts.(k) <- t.counts.(k) + 1;
  if memo then t.dyn_memo <- t.dyn_memo + 1 else t.dyn_normal <- t.dyn_normal + 1

let[@inline] attr_k t k cyc =
  match t.telem with
  | Some tl -> tl.class_cycles.(k) <- tl.class_cycles.(k) + cyc
  | None -> ()

(* max-fold over a precomputed register array — the compiled twin of
   [srcs_ready]'s list fold *)
let[@inline] ready_of (frame : frame) (rs : int array) =
  let r = ref 0 in
  for i = 0 to Array.length rs - 1 do
    let v = frame.ready.(Array.unsafe_get rs i) in
    if v > !r then r := v
  done;
  !r

let[@inline] complete_arr t (frame : frame) (dsts : int array) at =
  for i = 0 to Array.length dsts - 1 do
    frame.ready.(Array.unsafe_get dsts i) <- at
  done;
  if at > t.horizon then t.horizon <- at

let srcs_arr instr = Array.of_list (Ir.instr_srcs instr)
let dsts_arr instr = Array.of_list (Ir.instr_dst instr)

let reg_operands ops =
  Array.of_list
    (List.filter_map
       (function Ir.Reg r -> Some r | Ir.Imm _ -> None)
       (Array.to_list ops))

let site_fu t instr pool ~latency ~busy cls =
  let srcs = srcs_arr instr in
  let dsts = dsts_arr instr in
  let k = class_index cls in
  let memo = is_memo_class cls in
  (* Telemetry attachment is fixed at pipeline creation, so sites compiled
     without it drop the attribution branch from the per-execution path. *)
  if t.telem = None then
    fun (_addr : int) ->
      let frame = current_frame t in
      let ready = ready_of frame srcs in
      let u = pool_min pool in
      let c = issue t (max ready pool.(u)) in
      pool.(u) <- c + busy;
      complete_arr t frame dsts (c + latency);
      count_k t k memo
  else
    fun (_addr : int) ->
      let frame = current_frame t in
      let ready = ready_of frame srcs in
      let u = pool_min pool in
      let c = issue t (max ready pool.(u)) in
      pool.(u) <- c + busy;
      complete_arr t frame dsts (c + latency);
      count_k t k memo;
      attr_k t k latency

let exec_site t (_fname : string) (_bidx : int) (_iidx : int) (instr : Ir.instr) :
    int -> unit =
  match instr with
  | Const _ | Mov _ | Select _ ->
      site_fu t instr t.alu ~latency:(m t).lat_alu ~busy:1 C_ialu
  | Binop { op; _ } -> (
      match op with
      | Mul -> site_fu t instr t.mul ~latency:(m t).lat_mul ~busy:1 C_imul
      | Div | Rem ->
          site_fu t instr t.div ~latency:(m t).lat_div ~busy:(m t).lat_div C_idiv
      | Add | Sub | And | Or | Xor | Shl | Lshr | Ashr ->
          site_fu t instr t.alu ~latency:(m t).lat_alu ~busy:1 C_ialu)
  | Fbinop { op; _ } -> (
      match op with
      | Fdiv ->
          site_fu t instr t.fpu ~latency:(m t).lat_fdiv ~busy:(m t).lat_fdiv
            C_fdiv_sqrt
      | Fadd | Fsub | Fmul -> site_fu t instr t.fpu ~latency:(m t).lat_fp ~busy:1 C_fp)
  | Funop { op; _ } -> (
      match op with
      | Fsqrt ->
          site_fu t instr t.fpu ~latency:(m t).lat_fsqrt ~busy:(m t).lat_fsqrt
            C_fdiv_sqrt
      | Fsin | Fcos | Fexp | Flog ->
          site_fu t instr t.fpu ~latency:(m t).lat_ftrig ~busy:(m t).lat_ftrig C_ftrig
      | Fneg | Fabs | Ffloor | Fround ->
          site_fu t instr t.fpu ~latency:(m t).lat_fp ~busy:1 C_fp)
  | Icmp _ -> site_fu t instr t.alu ~latency:(m t).lat_alu ~busy:1 C_ialu
  | Fcmp _ -> site_fu t instr t.fpu ~latency:(m t).lat_fp ~busy:1 C_fp
  | Cast { op; _ } -> (
      match op with
      | I_to_f | F_to_i | F32_of_f64 | F64_of_f32 ->
          site_fu t instr t.fpu ~latency:(m t).lat_fp ~busy:1 C_fp
      | Bits_of_f32 | F32_of_bits | Bits_of_f64 | F64_of_bits | Sext_32_64 | Trunc_64_32
        ->
          site_fu t instr t.alu ~latency:(m t).lat_alu ~busy:1 C_ialu)
  | Load _ ->
      let srcs = srcs_arr instr in
      let dsts = dsts_arr instr in
      let k = class_index C_load in
      fun addr ->
        let frame = current_frame t in
        let ready = ready_of frame srcs in
        let u = pool_min t.lsu in
        let c = issue t (max ready t.lsu.(u)) in
        t.lsu.(u) <- c + 1;
        let latency = Hierarchy.read t.hier ~addr in
        complete_arr t frame dsts (c + latency);
        count_k t k false;
        attr_k t k latency
  | Store _ ->
      let srcs = srcs_arr instr in
      let k = class_index C_store in
      fun addr ->
        let frame = current_frame t in
        let ready = ready_of frame srcs in
        let u = pool_min t.lsu in
        let c = issue t (max ready t.lsu.(u)) in
        let latency = Hierarchy.write t.hier ~addr in
        t.lsu.(u) <- c + latency;
        if c + latency > t.horizon then t.horizon <- c + latency;
        count_k t k false;
        attr_k t k latency
  | Call { args; dsts; _ } ->
      let arg_regs = reg_operands args in
      let k = class_index C_call_ret in
      fun _addr ->
        let frame = current_frame t in
        let ready = ready_of frame arg_regs in
        let c = issue t ready in
        t.pending_args_ready <- max ready c;
        t.pending_call <- Some (Array.copy dsts, frame.ready);
        count_k t k false;
        attr_k t k 1
  | Memo mi -> (
      match mi with
      | Ld_crc { ty; _ } ->
          let srcs = srcs_arr instr in
          let dsts = dsts_arr instr in
          let bytes = Ir.ty_size ty in
          let k = class_index C_load in
          fun addr ->
            let frame = current_frame t in
            let ready = ready_of frame srcs in
            let u = pool_min t.lsu in
            let queue_ok = crc_queue_constraint t ~bytes in
            let unconstrained = max ready t.lsu.(u) in
            let c = issue t (max unconstrained queue_ok) in
            if queue_ok > unconstrained then begin
              let stall = queue_ok - unconstrained in
              t.crc_stalls <- t.crc_stalls + stall;
              match t.telem with
              | Some tl -> Registry.sample tl.crc_stall_s ~at:c (float_of_int stall)
              | None -> ()
            end;
            t.lsu.(u) <- c + 1;
            let latency = Hierarchy.read t.hier ~addr in
            complete_arr t frame dsts (c + latency);
            crc_send t ~issue_cycle:c ~bytes ~avail_delay:latency;
            count_k t k false;
            attr_k t k latency
      | Reg_crc { ty; _ } ->
          let srcs = srcs_arr instr in
          let bytes = Ir.ty_size ty in
          let k = class_index C_memo_send in
          fun _addr ->
            let frame = current_frame t in
            let ready = ready_of frame srcs in
            let queue_ok = crc_queue_constraint t ~bytes in
            let c = issue t (max ready queue_ok) in
            if queue_ok > ready then begin
              let stall = max 0 (queue_ok - ready) in
              t.crc_stalls <- t.crc_stalls + stall;
              match t.telem with
              | Some tl -> Registry.sample tl.crc_stall_s ~at:c (float_of_int stall)
              | None -> ()
            end;
            crc_send t ~issue_cycle:c ~bytes ~avail_delay:1;
            count_k t k true;
            attr_k t k 1
      | Lookup _ ->
          let srcs = srcs_arr instr in
          let dsts = dsts_arr instr in
          let k = class_index C_memo_lookup in
          fun _addr ->
            let frame = current_frame t in
            let ready = max (ready_of frame srcs) (max t.crc_done t.memo_port_free) in
            let c = issue t ready in
            let latency =
              match t.lookup_level () with
              | `L1 -> Timing.lookup_l1_cycles
              | `L2 -> Timing.lookup_l1_cycles + Timing.lookup_l2_cycles
              | `L3 ->
                  Timing.lookup_l1_cycles + Timing.lookup_l2_cycles
                  + t.l3_lookup_cycles ()
              | `Miss ->
                  (if t.l2_lut_present then
                     Timing.lookup_l1_cycles + Timing.lookup_l2_cycles
                   else Timing.lookup_l1_cycles)
                  + t.l3_lookup_cycles ()
            in
            t.memo_port_free <- c + latency;
            complete_arr t frame dsts (c + latency);
            count_k t k true;
            attr_k t k latency
      | Update _ ->
          let srcs = srcs_arr instr in
          let k = class_index C_memo_update in
          fun _addr ->
            let frame = current_frame t in
            let ready = max (ready_of frame srcs) t.memo_port_free in
            let c = issue t ready in
            t.memo_port_free <- c + Timing.update_cycles;
            if c + Timing.update_cycles > t.horizon then
              t.horizon <- c + Timing.update_cycles;
            count_k t k true;
            attr_k t k Timing.update_cycles
      | Invalidate _ ->
          let k = class_index C_memo_invalidate in
          let penalty = t.l1_lut_ways * Timing.invalidate_cycles_per_way in
          fun _addr ->
            let c = issue t t.memo_port_free in
            t.memo_port_free <- c + penalty;
            t.slot_cycle <- c + penalty;
            t.slot_used <- 0;
            count_k t k true;
            attr_k t k penalty)

let term_site t (_fname : string) (_bidx : int) (term : Ir.terminator) : unit -> unit
    =
  match term with
  | Jmp _ ->
      let k = class_index C_branch in
      fun () ->
        let _c = issue t t.slot_cycle in
        count_k t k false;
        attr_k t k 1
  | Br { cond; _ } -> (
      let k = class_index C_branch in
      match cond with
      | Ir.Reg r ->
          fun () ->
            let frame = current_frame t in
            ignore (issue t frame.ready.(r));
            count_k t k false;
            attr_k t k 1
      | Ir.Imm _ ->
          fun () ->
            ignore (issue t 0);
            count_k t k false;
            attr_k t k 1)
  | Br_memo _ ->
      let k = class_index C_memo_branch in
      fun () ->
        ignore (issue t t.memo_port_free);
        count_k t k true;
        attr_k t k 1
  | Ret ops ->
      let regs = reg_operands ops in
      let k = class_index C_call_ret in
      fun () ->
        let frame = current_frame t in
        let ready = ready_of frame regs in
        let c = issue t ready in
        t.last_ret_ready <- max ready c;
        count_k t k false;
        attr_k t k 1

(* Static classification, mirroring the class each [exec_instr] /
   [exec_term] arm charges — used by the profiler to label work without
   touching the timing paths. *)
let classify_instr : Ir.instr -> instr_class = function
  | Const _ | Mov _ | Select _ | Icmp _ -> C_ialu
  | Binop { op; _ } -> (
      match op with
      | Mul -> C_imul
      | Div | Rem -> C_idiv
      | Add | Sub | And | Or | Xor | Shl | Lshr | Ashr -> C_ialu)
  | Fbinop { op; _ } -> (
      match op with Fdiv -> C_fdiv_sqrt | Fadd | Fsub | Fmul -> C_fp)
  | Funop { op; _ } -> (
      match op with
      | Fsqrt -> C_fdiv_sqrt
      | Fsin | Fcos | Fexp | Flog -> C_ftrig
      | Fneg | Fabs | Ffloor | Fround -> C_fp)
  | Fcmp _ -> C_fp
  | Cast { op; _ } -> (
      match op with
      | I_to_f | F_to_i | F32_of_f64 | F64_of_f32 -> C_fp
      | Bits_of_f32 | F32_of_bits | Bits_of_f64 | F64_of_bits | Sext_32_64
      | Trunc_64_32 ->
          C_ialu)
  | Load _ -> C_load
  | Store _ -> C_store
  | Call _ -> C_call_ret
  | Memo (Ld_crc _) -> C_load
  | Memo (Reg_crc _) -> C_memo_send
  | Memo (Lookup _) -> C_memo_lookup
  | Memo (Update _) -> C_memo_update
  | Memo (Invalidate _) -> C_memo_invalidate

let classify_term : Ir.terminator -> instr_class = function
  | Jmp _ | Br _ -> C_branch
  | Br_memo _ -> C_memo_branch
  | Ret _ -> C_call_ret

let memo_lut_of : Ir.memo_instr -> int = function
  | Ld_crc { lut; _ } | Reg_crc { lut; _ } | Lookup { lut; _ } | Update { lut; _ }
  | Invalidate { lut } ->
      lut

let p_current p = match p.p_stack with r :: _ -> r | [] -> p.p_nregions

(* Charge the wall-cycle delta since the previous charge to (region, class).
   Every advance of the pipeline clock lands in exactly one cell, so the
   matrix total equals [cycles t] at all times. *)
let p_charge t p r k =
  let c = cycles t in
  if c > p.p_last then begin
    p.p_cycles.(r).(k) <- p.p_cycles.(r).(k) + (c - p.p_last);
    p.p_last <- c
  end

let profiled_hooks t p : Interp.hooks =
  {
    Interp.on_enter =
      (fun fname ->
        on_enter t fname;
        let r = p.p_region_of_func fname in
        let r = if r < 0 then p_current p else r in
        p.p_stack <- r :: p.p_stack);
    on_leave =
      (fun fname ->
        on_leave t fname;
        match p.p_stack with [] -> () | _ :: rest -> p.p_stack <- rest);
    on_exec =
      (fun _fname _bidx _iidx instr addr ->
        exec_instr t instr addr;
        let r =
          match instr with
          | Ir.Memo mi ->
              let r = p.p_region_of_lut (memo_lut_of mi) in
              if r < 0 then p_current p else r
          | _ -> p_current p
        in
        let k = class_index (classify_instr instr) in
        p.p_counts.(r).(k) <- p.p_counts.(r).(k) + 1;
        p_charge t p r k);
    on_term =
      (fun _fname _bidx term ->
        exec_term t term;
        let r = p_current p in
        let k = class_index (classify_term term) in
        p.p_counts.(r).(k) <- p.p_counts.(r).(k) + 1;
        p_charge t p r k);
    (* no site compilers: profiled runs keep the generic flat callbacks, so
       the compiled backend falls back to [on_exec]/[on_term] and profile
       attribution stays on one code path for both backends *)
    exec_site = None;
    term_site = None;
  }

(* Allocation-free attachment: flat callbacks, no event record per
   instruction. Preferred on the simulation hot path. With a profiler
   attached the callbacks additionally attribute each instruction to its
   static region; without one they are exactly the unprofiled closures. *)
let hooks t : Interp.hooks =
  match t.profile with
  | Some p -> profiled_hooks t p
  | None ->
      {
        Interp.on_enter = on_enter t;
        on_leave = on_leave t;
        on_exec = (fun _fname _bidx _iidx instr addr -> exec_instr t instr addr);
        on_term = (fun _fname _bidx term -> exec_term t term);
        exec_site = Some (exec_site t);
        term_site = Some (term_site t);
      }

let profile_close t =
  match t.profile with
  | None -> ()
  | Some p ->
      (* Whatever the clock advanced past the last retired instruction is
         in-flight completion (the drain): charge it to the program body so
         the matrix still sums to [cycles t]. *)
      let c = cycles t in
      if c > p.p_last then begin
        p.p_cycles.(p.p_nregions).(drain_class) <-
          p.p_cycles.(p.p_nregions).(drain_class) + (c - p.p_last);
        p.p_last <- c
      end

let stats t =
  {
    cycles = cycles t;
    dyn_normal = t.dyn_normal;
    dyn_memo = t.dyn_memo;
    per_class = List.map (fun c -> (c, t.counts.(class_index c))) all_classes;
    crc_stall_cycles = t.crc_stalls;
  }

let seconds t = float_of_int (cycles t) /. (t.machine.freq_ghz *. 1e9)

let flush_metrics t =
  match t.telem with
  | None -> ()
  | Some tl ->
      Array.iteri (fun i n -> Registry.set_count tl.count_c.(i) n) t.counts;
      Array.iteri (fun i n -> Registry.set_count tl.cycles_c.(i) n) tl.class_cycles;
      Registry.set_count tl.total_cycles_c (cycles t);
      Registry.set_count tl.crc_stall_c t.crc_stalls;
      Registry.set_count tl.dyn_normal_c t.dyn_normal;
      Registry.set_count tl.dyn_memo_c t.dyn_memo
