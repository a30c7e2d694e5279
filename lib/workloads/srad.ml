(** SRAD: speckle-reducing anisotropic diffusion (Rodinia, medical imaging).

    The memoized block is the per-pixel diffusion-coefficient computation:
    the four directional derivatives, the centre intensity, and the global
    speckle statistic q0² — 24 bytes, truncated by 18 bits (Table 2). q0²
    is a kernel {e input}, so its per-iteration change flows into the hash
    and no explicit invalidation is needed. Ultrasound-like images are
    locally smooth, so heavily truncated derivative tuples repeat. *)

module Ir = Axmemo_ir.Ir
module B = Axmemo_ir.Builder
module Memory = Axmemo_ir.Memory
module Rng = Axmemo_util.Rng
module Transform = Axmemo_compiler.Transform

let meta : Workload.meta =
  {
    name = "srad";
    domain = "Medical Imaging";
    description = "Image denoising by anisotropic diffusion";
    dataset = "96x96 synthetic speckle image, 4 iterations";
    input_bytes = "24";
    trunc_bits = "18";
    error_bound = Axmemo_compiler.Tuning.image_error_bound;
  }

let kernel_name = "srad_coef"

let f = B.f32

(* Diffusion coefficient (Yu & Acton):
   G2 = (dN^2+dS^2+dW^2+dE^2)/Jc^2;  L = (dN+dS+dW+dE)/Jc
   num = G2/2 - L^2/16;  den = (1 + L/4)^2;  qsqr = num/den
   c = 1 / (1 + (qsqr - q0sqr) / (q0sqr (1 + q0sqr))), clamped to [0,1]. *)
let build_kernel () =
  let b =
    B.create ~name:kernel_name ~pure:true
      ~params:[ F32; F32; F32; F32; F32; F32 ]
      ~rets:[ F32 ] ()
  in
  let dn = B.param b 0 and ds = B.param b 1 and dw = B.param b 2 and de = B.param b 3 in
  let jc = B.param b 4 and q0sqr = B.param b 5 in
  let sq v = B.fmul b F32 v v in
  let g2 =
    B.fdiv b F32
      (B.fadd b F32 (sq dn) (B.fadd b F32 (sq ds) (B.fadd b F32 (sq dw) (sq de))))
      (sq jc)
  in
  let l = B.fdiv b F32 (B.fadd b F32 dn (B.fadd b F32 ds (B.fadd b F32 dw de))) jc in
  let num = B.fsub b F32 (B.fmul b F32 (f 0.5) g2) (B.fmul b F32 (f 0.0625) (sq l)) in
  let den = sq (B.fadd b F32 (f 1.0) (B.fmul b F32 (f 0.25) l)) in
  let qsqr = B.fdiv b F32 num den in
  let den2 =
    B.fdiv b F32 (B.fsub b F32 qsqr q0sqr)
      (B.fmul b F32 q0sqr (B.fadd b F32 (f 1.0) q0sqr))
  in
  let c = B.fdiv b F32 (f 1.0) (B.fadd b F32 (f 1.0) den2) in
  let c = B.select b (B.fcmp b Flt F32 c (f 0.0)) (f 0.0) c in
  let c = B.select b (B.fcmp b Fgt F32 c (f 1.0)) (f 1.0) c in
  B.ret b [ c ];
  B.finish b

let build_main ~side ~iters ~stats_base =
  let b = B.create ~name:Workload.entry_name ~params:[ I64; I64 ] ~rets:[] () in
  let j_base = B.param b 0 and c_base = B.param b 1 in
  let row = 4 * side in
  let n = side * side in
  let sbase = B.i64 (Int64.of_int stats_base) in
  B.for_loop b ~from:(B.i32 0) ~below:(B.i32 iters) (fun _it ->
      (* Global speckle statistic over the whole field. *)
      let sum = B.fresh b and sum2 = B.fresh b in
      B.mov b sum (f 0.0);
      B.mov b sum2 (f 0.0);
      B.for_loop b ~from:(B.i32 0) ~below:(B.i32 n) (fun i ->
          let a = B.binop b Add I64 j_base (B.cast b Sext_32_64 (B.muli b i (B.i32 4))) in
          let v = B.load b F32 a 0 in
          B.mov b sum (B.fadd b F32 (B.rv sum) v);
          B.mov b sum2 (B.fadd b F32 (B.rv sum2) (B.fmul b F32 v v)));
      let nf = f (float_of_int n) in
      let mean = B.fdiv b F32 (B.rv sum) nf in
      let var =
        B.fsub b F32 (B.fdiv b F32 (B.rv sum2) nf) (B.fmul b F32 mean mean)
      in
      let q0sqr = B.fdiv b F32 var (B.fmul b F32 mean mean) in
      B.store b F32 ~src:q0sqr ~base:sbase ~offset:0;
      (* Pass 1: diffusion coefficients. *)
      B.for_loop b ~from:(B.i32 1) ~below:(B.i32 (side - 1)) (fun y ->
          B.for_loop b ~from:(B.i32 1) ~below:(B.i32 (side - 1)) (fun x ->
              let idx = B.addi b (B.muli b y (B.i32 side)) x in
              let off = B.cast b Sext_32_64 (B.muli b idx (B.i32 4)) in
              let ja = B.binop b Add I64 j_base off in
              let jc = B.load b F32 ja 0 in
              let dn = B.fsub b F32 (B.load b F32 ja (-row)) jc in
              let ds = B.fsub b F32 (B.load b F32 ja row) jc in
              let dw = B.fsub b F32 (B.load b F32 ja (-4)) jc in
              let de = B.fsub b F32 (B.load b F32 ja 4) jc in
              let q0 = B.load b F32 sbase 0 in
              let c =
                match B.call b kernel_name ~rets:1 [ dn; ds; dw; de; jc; q0 ] with
                | [ v ] -> v
                | _ -> assert false
              in
              B.store b F32 ~src:c ~base:(B.binop b Add I64 c_base off) ~offset:0));
      (* Pass 2: divergence update using southern/eastern coefficients. *)
      B.for_loop b ~from:(B.i32 1) ~below:(B.i32 (side - 1)) (fun y ->
          B.for_loop b ~from:(B.i32 1) ~below:(B.i32 (side - 1)) (fun x ->
              let idx = B.addi b (B.muli b y (B.i32 side)) x in
              let off = B.cast b Sext_32_64 (B.muli b idx (B.i32 4)) in
              let ja = B.binop b Add I64 j_base off in
              let ca = B.binop b Add I64 c_base off in
              let jc = B.load b F32 ja 0 in
              let cc = B.load b F32 ca 0 in
              let cs = B.load b F32 ca row and ce = B.load b F32 ca 4 in
              let dn = B.fsub b F32 (B.load b F32 ja (-row)) jc in
              let ds = B.fsub b F32 (B.load b F32 ja row) jc in
              let dw = B.fsub b F32 (B.load b F32 ja (-4)) jc in
              let de = B.fsub b F32 (B.load b F32 ja 4) jc in
              let div =
                B.fadd b F32
                  (B.fadd b F32 (B.fmul b F32 cc dn) (B.fmul b F32 cs ds))
                  (B.fadd b F32 (B.fmul b F32 cc dw) (B.fmul b F32 ce de))
              in
              let j' = B.fadd b F32 jc (B.fmul b F32 (f 0.125) div) in
              B.store b F32 ~src:j' ~base:ja ~offset:0)));
  B.ret b [];
  B.finish b

let make (variant : Workload.variant) : Workload.instance =
  let seed, side, iters = match variant with Sample -> (53L, 48, 3) | Eval -> (59L, 96, 4) in
  let rng = Rng.create (Rng.derive_stream seed) in
  (* Ultrasound-like: gently-sloped tissue regions plus sparse speckle; the
     intensity floor keeps Jc away from zero. *)
  let img =
    Workload.synth_image rng ~width:side ~height:side ~tones:6 ~slope:1.0
      ~speckle_fraction:0.03 ~speckle_sigma:5.0 ()
  in
  let mem = Memory.create () in
  let j_base = Workload.reserve_f32s mem (side * side) in
  let c_base = Workload.reserve_f32s mem (side * side) in
  let stats_base = Workload.reserve_f32s mem 4 in
  Array.iteri (fun i v -> Memory.store_f32 mem (j_base + (4 * i)) (Float.max 8.0 v)) img;
  let program =
    Workload.program_with_math [ build_main ~side ~iters ~stats_base; build_kernel () ]
  in
  {
    meta;
    program;
    mem;
    entry = Workload.entry_name;
    args = [| VI (Int64.of_int j_base); VI (Int64.of_int c_base) |];
    regions =
      [ { Transform.kernel = kernel_name; lut_id = 0; truncs = [| 18; 18; 18; 18; 18; 18 |] } ];
    barrier = None;
    read_outputs =
      (fun () -> Floats (Workload.read_f32s mem ~base:j_base ~count:(side * side)));
  }
