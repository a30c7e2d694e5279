(** Sobel: 3x3 edge-detection filter (AxBench).

    The memoized block takes the nine neighbouring pixels — 36 bytes, the
    paper's motivating example for CRC tags — truncated by 16 bits each
    (Table 2). All nine loads fuse into [ld_crc]. The synthetic image is
    piecewise-smooth (soft gradients with a few shapes), giving the local
    3x3 windows the redundancy natural images exhibit once truncated. *)

module Ir = Axmemo_ir.Ir
module B = Axmemo_ir.Builder
module Memory = Axmemo_ir.Memory
module Rng = Axmemo_util.Rng
module Transform = Axmemo_compiler.Transform

let meta : Workload.meta =
  {
    name = "sobel";
    domain = "Image Processing";
    description = "Applies Sobel filter on an image";
    dataset = "128x128 synthetic piecewise-smooth image";
    input_bytes = "36";
    trunc_bits = "16";
    error_bound = Axmemo_compiler.Tuning.image_error_bound;
  }

let kernel_name = "sobel_kernel"

let f = B.f32

(* Gradient magnitude of the 3x3 window:
   gx = (p2 + 2 p5 + p8) - (p0 + 2 p3 + p6)
   gy = (p6 + 2 p7 + p8) - (p0 + 2 p1 + p2) *)
let build_kernel () =
  let b =
    B.create ~name:kernel_name ~pure:true
      ~params:[ F32; F32; F32; F32; F32; F32; F32; F32; F32 ]
      ~rets:[ F32 ] ()
  in
  let p i = B.param b i in
  let two = f 2.0 in
  let gx =
    B.fsub b F32
      (B.fadd b F32 (p 2) (B.fadd b F32 (B.fmul b F32 two (p 5)) (p 8)))
      (B.fadd b F32 (p 0) (B.fadd b F32 (B.fmul b F32 two (p 3)) (p 6)))
  in
  let gy =
    B.fsub b F32
      (B.fadd b F32 (p 6) (B.fadd b F32 (B.fmul b F32 two (p 7)) (p 8)))
      (B.fadd b F32 (p 0) (B.fadd b F32 (B.fmul b F32 two (p 1)) (p 2)))
  in
  let mag = B.funop b Fsqrt F32 (B.fadd b F32 (B.fmul b F32 gx gx) (B.fmul b F32 gy gy)) in
  (* Clamp to the displayable range as the AxBench kernel does. *)
  let clamped = B.select b (B.fcmp b Fgt F32 mag (f 255.0)) (f 255.0) mag in
  B.ret b [ clamped ];
  B.finish b

let build_main ~width ~height =
  let b = B.create ~name:Workload.entry_name ~params:[ I64; I64 ] ~rets:[] () in
  let in_base = B.param b 0 and out_base = B.param b 1 in
  let row_bytes = 4 * width in
  B.for_loop b ~from:(B.i32 1) ~below:(B.i32 (height - 1)) (fun y ->
      B.for_loop b ~from:(B.i32 1) ~below:(B.i32 (width - 1)) (fun x ->
          let idx = B.addi b (B.muli b y (B.i32 width)) x in
          let center =
            B.binop b Add I64 in_base (B.cast b Sext_32_64 (B.muli b idx (B.i32 4)))
          in
          let ld off = B.load b F32 center off in
          let p0 = ld (-row_bytes - 4)
          and p1 = ld (-row_bytes)
          and p2 = ld (-row_bytes + 4)
          and p3 = ld (-4)
          and p4 = ld 0
          and p5 = ld 4
          and p6 = ld (row_bytes - 4)
          and p7 = ld row_bytes
          and p8 = ld (row_bytes + 4) in
          let mag =
            match
              B.call b kernel_name ~rets:1 [ p0; p1; p2; p3; p4; p5; p6; p7; p8 ]
            with
            | [ v ] -> v
            | _ -> assert false
          in
          let out_addr =
            B.binop b Add I64 out_base (B.cast b Sext_32_64 (B.muli b idx (B.i32 4)))
          in
          B.store b F32 ~src:mag ~base:out_addr ~offset:0));
  B.ret b [];
  B.finish b

let make (variant : Workload.variant) : Workload.instance =
  let seed, width, height =
    match variant with Sample -> (7L, 64, 64) | Eval -> (19L, 128, 128)
  in
  let rng = Rng.create (Rng.derive_stream seed) in
  let img = Workload.synth_image rng ~width ~height ~tones:14 ~slope:0.05 () in
  let mem = Memory.create () in
  let in_base = Workload.reserve_f32s mem (width * height) in
  let out_base = Workload.reserve_f32s mem (width * height) in
  Workload.write_f32s mem ~base:in_base img;
  let program = Workload.program_with_math [ build_main ~width ~height; build_kernel () ] in
  {
    meta;
    program;
    mem;
    entry = Workload.entry_name;
    args = [| VI (Int64.of_int in_base); VI (Int64.of_int out_base) |];
    regions =
      [ { Transform.kernel = kernel_name; lut_id = 0; truncs = Array.make 9 16 } ];
    barrier = None;
    read_outputs =
      (fun () -> Floats (Workload.read_f32s mem ~base:out_base ~count:(width * height)));
  }
