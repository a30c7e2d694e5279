(** FFT: radix-2 Cooley-Tukey over 4096 points (AxBench).

    The memoized block is the twiddle-factor computation: one 4-byte angle
    in, (cos, sin) packed out, no truncation (Table 2). In the textbook
    loop nest the same m/2 distinct angles are recomputed n/m times per
    stage, so the LUT hit rate is naturally very high — the paper reports
    >90% and the largest dynamic-instruction reduction on this benchmark. *)

module Ir = Axmemo_ir.Ir
module B = Axmemo_ir.Builder
module Memory = Axmemo_ir.Memory
module Rng = Axmemo_util.Rng
module Transform = Axmemo_compiler.Transform

let meta : Workload.meta =
  {
    name = "fft";
    domain = "Signal Processing";
    description = "Radix-2 Cooley-Tukey FFT";
    dataset = "4096 floating-point data points";
    input_bytes = "4";
    trunc_bits = "0";
    error_bound = Axmemo_compiler.Tuning.default_error_bound;
  }

let kernel_name = "fft_twiddle"

let f = B.f32

let build_kernel () =
  let b = B.create ~name:kernel_name ~pure:true ~params:[ F32 ] ~rets:[ F32; F32 ] () in
  let theta = B.param b 0 in
  let c = match B.call b Mathlib.cos_name ~rets:1 [ theta ] with [ v ] -> v | _ -> assert false in
  let s = match B.call b Mathlib.sin_name ~rets:1 [ theta ] with [ v ] -> v | _ -> assert false in
  B.ret b [ c; s ];
  B.finish b

(* In-place iterative FFT over split re/im arrays. *)
let build_main ~n ~log2n =
  let b = B.create ~name:Workload.entry_name ~params:[ I64; I64 ] ~rets:[] () in
  let re_base = B.param b 0 and im_base = B.param b 1 in
  let addr_of base idx = B.binop b Add I64 base (B.cast b Sext_32_64 (B.muli b idx (B.i32 4))) in
  ignore log2n;
  (* Bit-reversal permutation (incremental reversed counter: amortized O(1)
     per element, as real FFT codes do). *)
  let j = B.fresh b in
  B.mov b j (B.i32 0);
  B.for_loop b ~from:(B.i32 0) ~below:(B.i32 (n - 1)) (fun i ->
      let swap = B.icmp b Ilt I32 i (B.rv j) in
      B.if_ b swap
        ~then_:(fun () ->
          let ai = addr_of re_base i and aj = addr_of re_base (B.rv j) in
          let ri = B.load b F32 ai 0 and rj = B.load b F32 aj 0 in
          B.store b F32 ~src:rj ~base:ai ~offset:0;
          B.store b F32 ~src:ri ~base:aj ~offset:0;
          let bi = addr_of im_base i and bj = addr_of im_base (B.rv j) in
          let ii = B.load b F32 bi 0 and ij = B.load b F32 bj 0 in
          B.store b F32 ~src:ij ~base:bi ~offset:0;
          B.store b F32 ~src:ii ~base:bj ~offset:0)
        ~else_:(fun () -> ());
      let bit = B.fresh b in
      B.mov b bit (B.i32 (n / 2));
      B.while_loop b
        ~cond:(fun () ->
          B.icmp b Ine I32 (B.binop b And I32 (B.rv j) (B.rv bit)) (B.i32 0))
        ~body:(fun () ->
          B.mov b j (B.binop b Xor I32 (B.rv j) (B.rv bit));
          B.mov b bit (B.binop b Lshr I32 (B.rv bit) (B.i32 1)));
      B.mov b j (B.binop b Or I32 (B.rv j) (B.rv bit)));
  (* Butterfly stages. *)
  B.for_loop b ~from:(B.i32 1) ~below:(B.i32 (log2n + 1)) (fun s ->
      let m = B.binop b Shl I32 (B.i32 1) s in
      let half = B.binop b Lshr I32 m (B.i32 1) in
      let nblocks = B.binop b Div I32 (B.i32 n) m in
      let neg_two_pi_over_m =
        B.fdiv b F32 (f (-6.283185307179586)) (B.cast b I_to_f m)
      in
      B.for_loop b ~from:(B.i32 0) ~below:nblocks (fun kb ->
          let k = B.muli b kb m in
          B.for_loop b ~from:(B.i32 0) ~below:half (fun j ->
              let theta = B.fmul b F32 (B.cast b I_to_f j) neg_two_pi_over_m in
              let wr, wi =
                match B.call b kernel_name ~rets:2 [ theta ] with
                | [ a; b' ] -> (a, b')
                | _ -> assert false
              in
              let lo = B.addi b k j in
              let hi = B.addi b lo half in
              let a_lo_re = addr_of re_base lo and a_hi_re = addr_of re_base hi in
              let a_lo_im = addr_of im_base lo and a_hi_im = addr_of im_base hi in
              let xr = B.load b F32 a_hi_re 0 and xi = B.load b F32 a_hi_im 0 in
              let tr = B.fsub b F32 (B.fmul b F32 wr xr) (B.fmul b F32 wi xi) in
              let ti = B.fadd b F32 (B.fmul b F32 wr xi) (B.fmul b F32 wi xr) in
              let yr = B.load b F32 a_lo_re 0 and yi = B.load b F32 a_lo_im 0 in
              B.store b F32 ~src:(B.fsub b F32 yr tr) ~base:a_hi_re ~offset:0;
              B.store b F32 ~src:(B.fsub b F32 yi ti) ~base:a_hi_im ~offset:0;
              B.store b F32 ~src:(B.fadd b F32 yr tr) ~base:a_lo_re ~offset:0;
              B.store b F32 ~src:(B.fadd b F32 yi ti) ~base:a_lo_im ~offset:0)));
  B.ret b [];
  B.finish b

let make (variant : Workload.variant) : Workload.instance =
  let seed, log2n = match variant with Sample -> (3L, 10) | Eval -> (29L, 12) in
  let n = 1 lsl log2n in
  let rng = Rng.create (Rng.derive_stream seed) in
  let mem = Memory.create () in
  let re_base = Workload.reserve_f32s mem n in
  let im_base = Workload.reserve_f32s mem n in
  (* A multi-tone signal with additive noise; the imaginary part is zero. *)
  for i = 0 to n - 1 do
    let t = float_of_int i in
    Memory.store_f32 mem (re_base + (4 * i))
      (sin (t /. 7.0) +. (0.5 *. sin (t /. 23.0)) +. Rng.gaussian rng ~mean:0.0 ~stddev:0.1)
  done;
  let program = Workload.program_with_math [ build_main ~n ~log2n; build_kernel () ] in
  {
    meta;
    program;
    mem;
    entry = Workload.entry_name;
    args = [| VI (Int64.of_int re_base); VI (Int64.of_int im_base) |];
    regions = [ { Transform.kernel = kernel_name; lut_id = 0; truncs = [| 0 |] } ];
    barrier = None;
    read_outputs =
      (fun () ->
        let r = Workload.read_f32s mem ~base:re_base ~count:n in
        let i = Workload.read_f32s mem ~base:im_base ~count:n in
        Floats (Array.append r i));
  }
