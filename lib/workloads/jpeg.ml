(** JPEG: 8x8 DCT + quantization (AxBench compression).

    Table 2 lists two logical LUTs of 16-byte inputs with truncation levels
    (2, 7). As in libjpeg, the DCT is fixed-point: pixel data and
    coefficients are integers, so the truncation is the paper's "absolute
    precision" integer mode — 2 bits merges ±2 intensity levels into one
    entry, 7 bits merges ±64. We memoize the {e even half} of the 8-point
    1D DCT: with s_i = x_i + x_{7-i}, one kernel produces (X0, X4) and a
    second (X2, X6), each from the same four 4-byte integer sums — two
    LUTs, 16 bytes each. The odd coefficients are computed directly, which
    is why JPEG has the lowest memoization coverage of the suite (Table 1)
    and only modest gains. *)

module Ir = Axmemo_ir.Ir
module B = Axmemo_ir.Builder
module Memory = Axmemo_ir.Memory
module Rng = Axmemo_util.Rng
module Transform = Axmemo_compiler.Transform

let meta : Workload.meta =
  {
    name = "jpeg";
    domain = "Compression";
    description = "Compresses an image using the JPEG pipeline";
    dataset = "128x128 synthetic image, 8x8 blocks";
    input_bytes = "(16, 16)";
    trunc_bits = "(2, 7)";
    error_bound = Axmemo_compiler.Tuning.image_error_bound;
  }

let kernel_a_name = "jpeg_dct_even_a" (* (X0, X4) *)
let kernel_b_name = "jpeg_dct_even_b" (* (X2, X6) *)

let f = B.f32

(* Fixed-point even-half DCT: integer sums in, rounded integer coefficients
   out (scaled by 8 to keep fractional precision through the second pass,
   as libjpeg's scaled integer DCT does). *)
let fixed_point_scale = 8.0

let round_to_i32 b v = B.cast b F_to_i (B.funop b Fround F32 v)

let build_kernel_a () =
  let b =
    B.create ~name:kernel_a_name ~pure:true ~params:[ I32; I32; I32; I32 ]
      ~rets:[ I32; I32 ] ()
  in
  let p i = B.cast b I_to_f (B.param b i) in
  let s0 = p 0 and s1 = p 1 and s2 = p 2 and s3 = p 3 in
  let x0 =
    B.fmul b F32 (f (0.35355339 *. fixed_point_scale))
      (B.fadd b F32 (B.fadd b F32 s0 s1) (B.fadd b F32 s2 s3))
  in
  let x4 =
    B.fmul b F32 (f (0.35355339 *. fixed_point_scale))
      (B.fadd b F32 (B.fsub b F32 s0 s1) (B.fsub b F32 s3 s2))
  in
  B.ret b [ round_to_i32 b x0; round_to_i32 b x4 ];
  B.finish b

let build_kernel_b () =
  let b =
    B.create ~name:kernel_b_name ~pure:true ~params:[ I32; I32; I32; I32 ]
      ~rets:[ I32; I32 ] ()
  in
  let p i = B.cast b I_to_f (B.param b i) in
  let s0 = p 0 and s1 = p 1 and s2 = p 2 and s3 = p 3 in
  let d03 = B.fsub b F32 s0 s3 and d12 = B.fsub b F32 s1 s2 in
  let x2 =
    B.fadd b F32
      (B.fmul b F32 (f (0.46193977 *. fixed_point_scale)) d03)
      (B.fmul b F32 (f (0.19134172 *. fixed_point_scale)) d12)
  in
  let x6 =
    B.fsub b F32
      (B.fmul b F32 (f (0.19134172 *. fixed_point_scale)) d03)
      (B.fmul b F32 (f (0.46193977 *. fixed_point_scale)) d12)
  in
  B.ret b [ round_to_i32 b x2; round_to_i32 b x6 ];
  B.finish b

(* Luminance quantization table (JPEG Annex K), flattened row-major. *)
let qtable =
  [|
    16; 11; 10; 16; 24; 40; 51; 61;
    12; 12; 14; 19; 26; 58; 60; 55;
    14; 13; 16; 24; 40; 57; 69; 56;
    14; 17; 22; 29; 51; 87; 80; 62;
    18; 22; 37; 56; 68; 109; 103; 77;
    24; 35; 55; 64; 81; 104; 113; 92;
    49; 64; 78; 87; 103; 121; 120; 101;
    72; 92; 95; 98; 112; 100; 103; 99;
  |]

(* One 1D 8-point fixed-point DCT: [load] yields integer lane i, [store]
   receives integer coefficient k. The even half goes through the two
   memoized kernels; the odd half is computed directly in float and
   rounded. *)
let emit_dct1d b ~load ~store =
  let x = Array.init 8 (fun i -> load i) in
  let s = Array.init 4 (fun i -> B.addi b x.(i) x.(7 - i)) in
  let d = Array.init 4 (fun i -> B.cast b I_to_f (B.subi b x.(i) x.(7 - i))) in
  let x0, x4 =
    match B.call b kernel_a_name ~rets:2 [ s.(0); s.(1); s.(2); s.(3) ] with
    | [ a; c ] -> (a, c)
    | _ -> assert false
  in
  let x2, x6 =
    match B.call b kernel_b_name ~rets:2 [ s.(0); s.(1); s.(2); s.(3) ] with
    | [ a; c ] -> (a, c)
    | _ -> assert false
  in
  let odd c0 c1 c2 c3 =
    let v =
      B.fadd b F32
        (B.fadd b F32
           (B.fmul b F32 (f (c0 *. fixed_point_scale)) d.(0))
           (B.fmul b F32 (f (c1 *. fixed_point_scale)) d.(1)))
        (B.fadd b F32
           (B.fmul b F32 (f (c2 *. fixed_point_scale)) d.(2))
           (B.fmul b F32 (f (c3 *. fixed_point_scale)) d.(3)))
    in
    round_to_i32 b v
  in
  let x1 = odd 0.49039264 0.41573481 0.27778512 0.09754516 in
  let x3 = odd 0.41573481 (-0.09754516) (-0.49039264) (-0.27778512) in
  let x5 = odd 0.27778512 (-0.49039264) 0.09754516 0.41573481 in
  let x7 = odd 0.09754516 (-0.27778512) 0.41573481 (-0.49039264) in
  List.iteri (fun k v -> store k v) [ x0; x1; x2; x3; x4; x5; x6; x7 ]

let build_main ~side ~tmp_base ~qtable_base =
  let b = B.create ~name:Workload.entry_name ~params:[ I64; I64 ] ~rets:[] () in
  let img_base = B.param b 0 and out_base = B.param b 1 in
  let blocks = side / 8 in
  let tb = B.i64 (Int64.of_int tmp_base) in
  let qb = B.i64 (Int64.of_int qtable_base) in
  B.for_loop b ~from:(B.i32 0) ~below:(B.i32 blocks) (fun by ->
      B.for_loop b ~from:(B.i32 0) ~below:(B.i32 blocks) (fun bx ->
          (* Row pass: image block rows -> tmp (scaled integers). *)
          B.for_loop b ~from:(B.i32 0) ~below:(B.i32 8) (fun r ->
              let row_idx = B.addi b (B.muli b by (B.i32 8)) r in
              let row_start =
                B.addi b (B.muli b row_idx (B.i32 side)) (B.muli b bx (B.i32 8))
              in
              let src =
                B.binop b Add I64 img_base (B.cast b Sext_32_64 (B.muli b row_start (B.i32 4)))
              in
              let dst = B.binop b Add I64 tb (B.cast b Sext_32_64 (B.muli b r (B.i32 32))) in
              emit_dct1d b
                ~load:(fun i -> B.load b I32 src (4 * i))
                ~store:(fun k v -> B.store b I32 ~src:v ~base:dst ~offset:(4 * k)));
          (* Column pass: tmp columns -> quantized output. *)
          B.for_loop b ~from:(B.i32 0) ~below:(B.i32 8) (fun c ->
              let col_base = B.binop b Add I64 tb (B.cast b Sext_32_64 (B.muli b c (B.i32 4))) in
              emit_dct1d b
                ~load:(fun i -> B.load b I32 col_base (32 * i))
                ~store:(fun k v ->
                  (* Undo the two fixed-point scalings and quantize:
                     round(X / (scale^2 q[k][c])). *)
                  let qidx = B.addi b (B.i32 (8 * k)) c in
                  let qa =
                    B.binop b Add I64 qb (B.cast b Sext_32_64 (B.muli b qidx (B.i32 4)))
                  in
                  let q = B.load b F32 qa 0 in
                  let denom = B.fmul b F32 q (f (fixed_point_scale *. fixed_point_scale)) in
                  let quant =
                    round_to_i32 b (B.fdiv b F32 (B.cast b I_to_f v) denom)
                  in
                  let gy = B.addi b (B.muli b by (B.i32 8)) (B.i32 k) in
                  let gx = B.addi b (B.muli b bx (B.i32 8)) c in
                  let out_idx = B.addi b (B.muli b gy (B.i32 side)) gx in
                  let oa =
                    B.binop b Add I64 out_base
                      (B.cast b Sext_32_64 (B.muli b out_idx (B.i32 4)))
                  in
                  B.store b I32 ~src:quant ~base:oa ~offset:0))));
  B.ret b [];
  B.finish b

(* Synthetic photographic image: smooth luminance plus mild texture,
   quantized to 8-bit levels as any decoded image would be. *)
let fill_image rng mem ~base ~side =
  let col = Array.init side (fun x -> 50.0 *. sin (float_of_int x /. 21.0)) in
  let row = Array.init side (fun y -> 40.0 *. cos (float_of_int y /. 17.0)) in
  for i = 0 to (side * side) - 1 do
    let base_level = 128.0 +. col.(i mod side) +. row.(i / side) in
    let texture = 8.0 *. Rng.gaussian rng ~mean:0.0 ~stddev:0.3 in
    let v = int_of_float (Float.max 0.0 (Float.min 255.0 (base_level +. texture))) in
    Memory.store_i32 mem (base + (4 * i)) (Int32.of_int v)
  done

let make (variant : Workload.variant) : Workload.instance =
  let seed, side = match variant with Sample -> (71L, 64) | Eval -> (73L, 128) in
  let rng = Rng.create (Rng.derive_stream seed) in
  let mem = Memory.create () in
  (* 8-bit pixels as i32s: the same 4-byte slots as f32s. *)
  let img_base = Workload.reserve_f32s mem (side * side) in
  let out_base = Workload.reserve_f32s mem (side * side) in
  let tmp_base = Workload.reserve_f32s mem 64 in
  let qtable_base = Workload.reserve_f32s mem (Array.length qtable) in
  fill_image rng mem ~base:img_base ~side;
  Workload.write_f32s mem ~base:qtable_base (Array.map float_of_int qtable);
  let program =
    Workload.program_with_math
      [ build_main ~side ~tmp_base ~qtable_base; build_kernel_a (); build_kernel_b () ]
  in
  {
    meta;
    program;
    mem;
    entry = Workload.entry_name;
    args = [| VI (Int64.of_int img_base); VI (Int64.of_int out_base) |];
    regions =
      [
        { Transform.kernel = kernel_a_name; lut_id = 0; truncs = Array.make 4 2 };
        { Transform.kernel = kernel_b_name; lut_id = 1; truncs = Array.make 4 7 };
      ];
    barrier = None;
    read_outputs =
      (fun () ->
        let raw = Workload.read_i32s mem ~base:out_base ~count:(side * side) in
        Floats (Array.map float_of_int raw));
  }
