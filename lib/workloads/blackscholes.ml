(** Blackscholes: European option pricing (AxBench / PARSEC).

    The memoized block is the whole pricing kernel: six 4-byte inputs (spot,
    strike, rate, volatility, time, option type) — 24 bytes, no truncation
    (Table 2). Financial data is quantized by market conventions (ticks,
    standard maturities), so option parameter tuples repeat heavily; the
    synthetic dataset draws options from a small grid of distinct tuples to
    reproduce that redundancy. *)

module Ir = Axmemo_ir.Ir
module B = Axmemo_ir.Builder
module Memory = Axmemo_ir.Memory
module Rng = Axmemo_util.Rng
module Transform = Axmemo_compiler.Transform

let meta : Workload.meta =
  {
    name = "blackscholes";
    domain = "Financial Analysis";
    description = "Calculates the price of European-style options";
    dataset = "20K options drawn from 200 distinct market tuples";
    input_bytes = "24";
    trunc_bits = "0";
    error_bound = Axmemo_compiler.Tuning.default_error_bound;
  }

let cndf_name = "bs_cndf"
let kernel_name = "bs_kernel"

let f = B.f32

(* Cumulative normal distribution, Abramowitz & Stegun 26.2.17. *)
let build_cndf () =
  let b = B.create ~name:cndf_name ~pure:true ~params:[ F32 ] ~rets:[ F32 ] () in
  let x = B.param b 0 in
  let ax = B.funop b Fabs F32 x in
  let k = B.fdiv b F32 (f 1.0) (B.fadd b F32 (f 1.0) (B.fmul b F32 (f 0.2316419) ax)) in
  let poly =
    let acc = f 1.330274429 in
    let acc = B.fadd b F32 (f (-1.821255978)) (B.fmul b F32 k acc) in
    let acc = B.fadd b F32 (f 1.781477937) (B.fmul b F32 k acc) in
    let acc = B.fadd b F32 (f (-0.356563782)) (B.fmul b F32 k acc) in
    let acc = B.fadd b F32 (f 0.319381530) (B.fmul b F32 k acc) in
    B.fmul b F32 k acc
  in
  let half_sq = B.fmul b F32 (f (-0.5)) (B.fmul b F32 ax ax) in
  let e = B.call b Mathlib.exp_name ~rets:1 [ half_sq ] in
  let pdf =
    match e with
    | [ e ] -> B.fmul b F32 (f 0.3989422804) e
    | _ -> assert false
  in
  let tail = B.fmul b F32 pdf poly in
  let pos = B.fsub b F32 (f 1.0) tail in
  let res = B.select b (B.fcmp b Flt F32 x (f 0.0)) tail pos in
  B.ret b [ res ];
  B.finish b

let build_kernel () =
  let b =
    B.create ~name:kernel_name ~pure:true
      ~params:[ F32; F32; F32; F32; F32; F32 ]
      ~rets:[ F32 ] ()
  in
  let s = B.param b 0
  and strike = B.param b 1
  and rate = B.param b 2
  and vol = B.param b 3
  and time = B.param b 4
  and otype = B.param b 5 in
  let sqrt_t = B.funop b Fsqrt F32 time in
  let log_sk =
    match B.call b Mathlib.log_name ~rets:1 [ B.fdiv b F32 s strike ] with
    | [ v ] -> v
    | _ -> assert false
  in
  let vol_sq_half = B.fmul b F32 (f 0.5) (B.fmul b F32 vol vol) in
  let num = B.fadd b F32 log_sk (B.fmul b F32 (B.fadd b F32 rate vol_sq_half) time) in
  let den = B.fmul b F32 vol sqrt_t in
  let d1 = B.fdiv b F32 num den in
  let d2 = B.fsub b F32 d1 den in
  let nd1 = match B.call b cndf_name ~rets:1 [ d1 ] with [ v ] -> v | _ -> assert false in
  let nd2 = match B.call b cndf_name ~rets:1 [ d2 ] with [ v ] -> v | _ -> assert false in
  let neg_rt = B.fmul b F32 (B.funop b Fneg F32 rate) time in
  let disc =
    match B.call b Mathlib.exp_name ~rets:1 [ neg_rt ] with
    | [ v ] -> B.fmul b F32 strike v
    | _ -> assert false
  in
  let call_price = B.fsub b F32 (B.fmul b F32 s nd1) (B.fmul b F32 disc nd2) in
  (* put = K e^{-rt} (1 - N(d2)) - S (1 - N(d1)) *)
  let put_price =
    B.fsub b F32
      (B.fmul b F32 disc (B.fsub b F32 (f 1.0) nd2))
      (B.fmul b F32 s (B.fsub b F32 (f 1.0) nd1))
  in
  let is_put = B.fcmp b Fgt F32 otype (f 0.5) in
  B.ret b [ B.select b is_put put_price call_price ];
  B.finish b

(* Driver: for each option, load the six packed fields, price, store. *)
let build_main n =
  let b = B.create ~name:Workload.entry_name ~params:[ I64; I64 ] ~rets:[] () in
  let in_base = B.param b 0 and out_base = B.param b 1 in
  B.for_loop b ~from:(B.i32 0) ~below:(B.i32 n) (fun i ->
      let rec_addr =
        B.binop b Add I64 in_base (B.cast b Sext_32_64 (B.muli b i (B.i32 24)))
      in
      let ld off = B.load b F32 rec_addr off in
      let p0 = ld 0 and p1 = ld 4 and p2 = ld 8 and p3 = ld 12 and p4 = ld 16 and p5 = ld 20 in
      let price =
        match B.call b kernel_name ~rets:1 [ p0; p1; p2; p3; p4; p5 ] with
        | [ v ] -> v
        | _ -> assert false
      in
      let out_addr =
        B.binop b Add I64 out_base (B.cast b Sext_32_64 (B.muli b i (B.i32 4)))
      in
      B.store b F32 ~src:price ~base:out_addr ~offset:0);
  B.ret b [];
  B.finish b

let round_f32 x = Int32.float_of_bits (Int32.bits_of_float x)

let moneyness = [| 0.8; 0.9; 0.95; 1.0; 1.05; 1.1; 1.25 |]

(* [total] options drawn from a pool of [distinct] records, written as
   packed six-f32 records from [base]. *)
let fill_options rng mem ~base ~distinct ~total =
  let record _ =
    let s = 20.0 +. (5.0 *. float_of_int (Rng.int rng 17)) in
    let strike = s *. Rng.choose rng moneyness in
    let rate = 0.01 *. float_of_int (1 + Rng.int rng 8) in
    let vol = 0.05 *. float_of_int (2 + Rng.int rng 10) in
    let time = 0.25 *. float_of_int (1 + Rng.int rng 12) in
    let otype = if Rng.bool rng then 1.0 else 0.0 in
    [| round_f32 s; round_f32 strike; round_f32 rate; round_f32 vol; round_f32 time; otype |]
  in
  let pool = Array.init distinct record in
  for i = 0 to total - 1 do
    Workload.write_f32s mem ~base:(base + (24 * i)) (Rng.choose rng pool)
  done

let make (variant : Workload.variant) : Workload.instance =
  let seed, distinct, total =
    match variant with
    | Sample -> (11L, 150, 4_000)
    | Eval -> (42L, 200, 20_000)
  in
  let rng = Rng.create (Rng.derive_stream seed) in
  let mem = Memory.create () in
  let in_base = Workload.reserve_f32s mem (6 * total) in
  let out_base = Workload.reserve_f32s mem total in
  fill_options rng mem ~base:in_base ~distinct ~total;
  let program =
    Workload.program_with_math [ build_main total; build_kernel (); build_cndf () ]
  in
  {
    meta;
    program;
    mem;
    entry = Workload.entry_name;
    args = [| VI (Int64.of_int in_base); VI (Int64.of_int out_base) |];
    regions = [ { Transform.kernel = kernel_name; lut_id = 0; truncs = Array.make 6 0 } ];
    barrier = None;
    read_outputs = (fun () -> Floats (Workload.read_f32s mem ~base:out_base ~count:total));
  }
