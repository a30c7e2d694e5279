module Ir = Axmemo_ir.Ir
module Interp = Axmemo_ir.Interp
module Machine = Axmemo_cpu.Machine

type entry = {
  static_id : int;
  weight : int;
  srcs : int array;
  is_load : bool;
  is_store : bool;
}

type frame = {
  vals : (int, int) Hashtbl.t;  (* register -> producer id *)
  call_dsts : Ir.reg array option;  (* caller registers to bind at Leave *)
  caller_vals : (int, int) Hashtbl.t option;
}

type t = {
  machine : Machine.t;
  max_entries : int;
  params_of : (string, Ir.reg array) Hashtbl.t;
  mutable buf : entry array;
  mutable count : int;
  mutable full : bool;
  statics : (string * int * int, int) Hashtbl.t;
  mutable next_static : int;
  mutable frames : frame list;
  mem_writer : (int, int) Hashtbl.t;
  mutable next_ext : int;
  mutable pending_args : int array;
  mutable pending_dsts : Ir.reg array option;
  mutable last_ret : int array;
}

let create ?(max_entries = 400_000) ~machine ~program () =
  let params_of = Hashtbl.create 16 in
  Array.iter
    (fun (f : Ir.func) ->
      Hashtbl.replace params_of f.fname (Array.map fst f.params))
    (program : Ir.program).funcs;
  {
    machine;
    max_entries;
    params_of;
    buf = Array.make 4096 { static_id = 0; weight = 0; srcs = [||]; is_load = false; is_store = false };
    count = 0;
    full = false;
    statics = Hashtbl.create 256;
    next_static = 0;
    frames = [];
    mem_writer = Hashtbl.create 4096;
    next_ext = -2;
    pending_args = [||];
    pending_dsts = None;
    last_ret = [||];
  }

let weight_of_instr (machine : Machine.t) (instr : Ir.instr) =
  match instr with
  | Const _ | Mov _ | Select _ | Icmp _ -> machine.lat_alu
  | Binop { op; _ } -> (
      match op with
      | Mul -> machine.lat_mul
      | Div | Rem -> machine.lat_div
      | Add | Sub | And | Or | Xor | Shl | Lshr | Ashr -> machine.lat_alu)
  | Fbinop { op; _ } -> (
      match op with Fdiv -> machine.lat_fdiv | Fadd | Fsub | Fmul -> machine.lat_fp)
  | Funop { op; _ } -> (
      match op with
      | Fsqrt -> machine.lat_fsqrt
      | Fsin | Fcos | Fexp | Flog -> machine.lat_ftrig
      | Fneg | Fabs | Ffloor | Fround -> machine.lat_fp)
  | Fcmp _ -> machine.lat_fp
  | Cast { op; _ } -> (
      match op with
      | I_to_f | F_to_i | F32_of_f64 | F64_of_f32 -> machine.lat_fp
      | Bits_of_f32 | F32_of_bits | Bits_of_f64 | F64_of_bits | Sext_32_64 | Trunc_64_32
        ->
          machine.lat_alu)
  | Load _ -> machine.lat_alu + 1  (* optimistic L1 hit *)
  | Store _ -> machine.lat_store
  | Call _ -> machine.lat_branch
  | Memo _ -> 1

let static_id t fname bidx iidx =
  let key = (fname, bidx, iidx) in
  match Hashtbl.find_opt t.statics key with
  | Some id -> id
  | None ->
      let id = t.next_static in
      t.next_static <- id + 1;
      Hashtbl.replace t.statics key id;
      id

let fresh_ext t =
  let e = t.next_ext in
  t.next_ext <- e - 1;
  e

let current t =
  match t.frames with
  | f :: _ -> f
  | [] -> failwith "Trace: event outside any frame"

let producer_of_reg t r =
  let f = current t in
  match Hashtbl.find_opt f.vals r with
  | Some id -> id
  | None ->
      let e = fresh_ext t in
      Hashtbl.replace f.vals r e;
      e

let producer_of_operand t = function
  | Ir.Reg r -> Some (producer_of_reg t r)
  | Ir.Imm _ -> None

let push_entry t e =
  if t.count >= t.max_entries then t.full <- true
  else begin
    if t.count >= Array.length t.buf then begin
      let fresh = Array.make (2 * Array.length t.buf) e in
      Array.blit t.buf 0 fresh 0 t.count;
      t.buf <- fresh
    end;
    t.buf.(t.count) <- e;
    t.count <- t.count + 1
  end

let define t r id = Hashtbl.replace (current t).vals r id

let record t fname bidx iidx (instr : Ir.instr) addr =
  if t.full then ()
  else begin
    let sid = static_id t fname bidx iidx in
    let weight = weight_of_instr t.machine instr in
    let src_ids =
      List.filter_map (fun o -> producer_of_operand t o)
        (List.map (fun r -> Ir.Reg r) (Ir.instr_srcs instr))
    in
    let srcs, is_load, is_store =
      match instr with
      | Load _ | Memo (Ld_crc _) ->
          let mem_src =
            match Hashtbl.find_opt t.mem_writer addr with
            | Some id -> id
            | None ->
                let e = fresh_ext t in
                Hashtbl.replace t.mem_writer addr e;
                e
          in
          (Array.of_list (mem_src :: src_ids), true, false)
      | Store _ -> (Array.of_list src_ids, false, true)
      | _ -> (Array.of_list src_ids, false, false)
    in
    let id = t.count in
    push_entry t { static_id = sid; weight; srcs; is_load; is_store };
    if not t.full then begin
      (match instr with
      | Store _ -> Hashtbl.replace t.mem_writer addr id
      | _ -> ());
      List.iter (fun r -> define t r id) (Ir.instr_dst instr)
    end
  end

let on_enter t fname =
  let params =
    match Hashtbl.find_opt t.params_of fname with Some p -> p | None -> [||]
  in
  let vals = Hashtbl.create 64 in
  (match t.pending_dsts with
  | Some _ ->
      Array.iteri
        (fun i r ->
          if i < Array.length t.pending_args then
            Hashtbl.replace vals r t.pending_args.(i))
        params
  | None -> ());
  let caller_vals =
    match t.frames with f :: _ -> Some f.vals | [] -> None
  in
  t.frames <-
    { vals; call_dsts = t.pending_dsts; caller_vals = (match t.pending_dsts with Some _ -> caller_vals | None -> None) }
    :: t.frames;
  t.pending_dsts <- None;
  t.pending_args <- [||]

let on_leave t _fname =
  match t.frames with
  | [] -> ()
  | frame :: rest ->
      t.frames <- rest;
      (match (frame.call_dsts, frame.caller_vals) with
      | Some dsts, Some cvals ->
          Array.iteri
            (fun i r ->
              if i < Array.length t.last_ret then Hashtbl.replace cvals r t.last_ret.(i))
            dsts
      | _ -> ())

let on_exec t fname bidx iidx (instr : Ir.instr) addr =
  match instr with
  | Call { dsts; args; _ } ->
      (* No vertex: the call is inlined into the trace; remember the
         argument producers for parameter binding at Enter. *)
      t.pending_args <-
        Array.map
          (fun o ->
            match producer_of_operand t o with Some id -> id | None -> fresh_ext t)
          args;
      t.pending_dsts <- Some dsts
  | _ -> record t fname bidx iidx instr addr

let on_term t _fname _bidx (term : Ir.terminator) =
  match term with
  | Ret ops ->
      t.last_ret <-
        Array.map
          (fun o -> match producer_of_operand t o with Some id -> id | None -> fresh_ext t)
          ops
  | Jmp _ | Br _ | Br_memo _ -> ()

let hooks t : Interp.hooks =
  {
    Interp.on_enter = on_enter t;
    on_leave = on_leave t;
    on_exec = on_exec t;
    on_term = on_term t;
    (* the tracer resolves producers dynamically; nothing to precompute *)
    exec_site = None;
    term_site = None;
  }

let entries t = Array.sub t.buf 0 t.count

let truncated t = t.full

let static_instances t =
  let tbl = Hashtbl.create 256 in
  for i = 0 to t.count - 1 do
    let sid = t.buf.(i).static_id in
    Hashtbl.replace tbl sid (1 + Option.value ~default:0 (Hashtbl.find_opt tbl sid))
  done;
  tbl
