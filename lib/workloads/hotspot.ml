(** Hotspot: on-chip thermal simulation (Rodinia).

    The memoized block is the per-cell temperature update: centre
    temperature, north+south sum, east+west sum and dissipated power — 16
    bytes, truncated by 8 bits (Table 2). Power maps are block-structured
    (functional units dissipate at a few discrete levels) and temperature
    fields are smooth, so truncated input tuples repeat across the die and
    across time steps. *)

module Ir = Axmemo_ir.Ir
module B = Axmemo_ir.Builder
module Memory = Axmemo_ir.Memory
module Rng = Axmemo_util.Rng
module Transform = Axmemo_compiler.Transform

let meta : Workload.meta =
  {
    name = "hotspot";
    domain = "Physics Simulation";
    description = "Simulates the temperature of an IC chip";
    dataset = "64x64 power/temperature maps, 20 steps";
    input_bytes = "16";
    trunc_bits = "8";
    error_bound = Axmemo_compiler.Tuning.default_error_bound;
  }

let kernel_name = "hs_update"

let f = B.f32

(* Explicit-Euler update with folded RC constants:
   t' = t + k ((sum_ns - 2t)/ry + (sum_ew - 2t)/rx + p + (amb - t)/rz) *)
let build_kernel () =
  let b =
    B.create ~name:kernel_name ~pure:true ~params:[ F32; F32; F32; F32 ] ~rets:[ F32 ] ()
  in
  let t = B.param b 0 and sum_ns = B.param b 1 and sum_ew = B.param b 2 and p = B.param b 3 in
  let two_t = B.fmul b F32 (f 2.0) t in
  let dns = B.fdiv b F32 (B.fsub b F32 sum_ns two_t) (f 1.2) in
  let dew = B.fdiv b F32 (B.fsub b F32 sum_ew two_t) (f 1.2) in
  let damb = B.fdiv b F32 (B.fsub b F32 (f 80.0) t) (f 4.75) in
  let delta =
    B.fmul b F32 (f 0.05) (B.fadd b F32 dns (B.fadd b F32 dew (B.fadd b F32 p damb)))
  in
  B.ret b [ B.fadd b F32 t delta ];
  B.finish b

let build_main ~side ~iters =
  let b = B.create ~name:Workload.entry_name ~params:[ I64; I64; I64 ] ~rets:[] () in
  let t_a = B.param b 0 and t_b = B.param b 1 and p_base = B.param b 2 in
  let row = 4 * side in
  let cur = B.fresh b and nxt = B.fresh b in
  B.mov b cur t_a;
  B.mov b nxt t_b;
  B.for_loop b ~from:(B.i32 0) ~below:(B.i32 iters) (fun _it ->
      B.for_loop b ~from:(B.i32 1) ~below:(B.i32 (side - 1)) (fun y ->
          B.for_loop b ~from:(B.i32 1) ~below:(B.i32 (side - 1)) (fun x ->
              let idx = B.addi b (B.muli b y (B.i32 side)) x in
              let off = B.cast b Sext_32_64 (B.muli b idx (B.i32 4)) in
              let ta = B.binop b Add I64 (B.rv cur) off in
              let t = B.load b F32 ta 0 in
              let tn = B.load b F32 ta (-row) and ts = B.load b F32 ta row in
              let te = B.load b F32 ta 4 and tw = B.load b F32 ta (-4) in
              let sum_ns = B.fadd b F32 tn ts in
              let sum_ew = B.fadd b F32 te tw in
              let pw = B.load b F32 (B.binop b Add I64 p_base off) 0 in
              let t' =
                match B.call b kernel_name ~rets:1 [ t; sum_ns; sum_ew; pw ] with
                | [ v ] -> v
                | _ -> assert false
              in
              B.store b F32 ~src:t' ~base:(B.binop b Add I64 (B.rv nxt) off) ~offset:0));
      (* Swap the ping-pong buffers. *)
      let tmp = B.fresh b in
      B.mov b tmp (B.rv cur);
      B.mov b cur (B.rv nxt);
      B.mov b nxt (B.rv tmp));
  B.ret b [];
  B.finish b

(* Block-structured power map: a few rectangular units at discrete levels. *)
let generate_power rng ~side =
  let p = Array.make (side * side) 0.5 in
  let levels = [| 0.0; 1.0; 2.5; 4.0 |] in
  for _ = 0 to 9 do
    let x0 = Rng.int rng (side - 8) and y0 = Rng.int rng (side - 8) in
    let w = 4 + Rng.int rng 12 and h = 4 + Rng.int rng 12 in
    let lvl = Rng.choose rng levels in
    for y = y0 to min (side - 1) (y0 + h) do
      for x = x0 to min (side - 1) (x0 + w) do
        p.((y * side) + x) <- lvl
      done
    done
  done;
  p

let make (variant : Workload.variant) : Workload.instance =
  let seed, side, iters = match variant with Sample -> (17L, 32, 10) | Eval -> (37L, 64, 20) in
  let rng = Rng.create (Rng.derive_stream seed) in
  let n = side * side in
  let power = generate_power rng ~side in
  let mem = Memory.create () in
  let t_a = Workload.reserve_f32s mem n in
  let t_b = Workload.reserve_f32s mem n in
  let p_base = Workload.reserve_f32s mem n in
  (* Both temperature buffers start from the same field. *)
  Array.iteri
    (fun i p ->
      let temp = 65.0 +. (10.0 *. p) in
      Memory.store_f32 mem (t_a + (4 * i)) temp;
      Memory.store_f32 mem (t_b + (4 * i)) temp)
    power;
  Workload.write_f32s mem ~base:p_base power;
  let program = Workload.program_with_math [ build_main ~side ~iters; build_kernel () ] in
  (* After an even number of swaps the final field is back in buffer A; read
     whichever buffer holds the last write. *)
  let final_base = if iters mod 2 = 0 then t_a else t_b in
  {
    meta;
    program;
    mem;
    entry = Workload.entry_name;
    args = [| VI (Int64.of_int t_a); VI (Int64.of_int t_b); VI (Int64.of_int p_base) |];
    regions =
      [ { Transform.kernel = kernel_name; lut_id = 0; truncs = [| 8; 8; 8; 8 |] } ];
    barrier = None;
    read_outputs = (fun () -> Floats (Workload.read_f32s mem ~base:final_base ~count:n));
  }
