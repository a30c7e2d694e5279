(** K-means: colour clustering of an image (AxBench).

    The memoized block is the per-pixel assignment kernel: (r, g, b) — 12
    bytes, truncated by 16 bits (Table 2) — to the nearest of four
    centroids. The centroids live in memory and are {e read} by the pure
    kernel; because they change every iteration, the driver calls the phase
    barrier after each centroid update and the compiler turns it into LUT
    [invalidate]s — the paper's stated use of that instruction. *)

module Ir = Axmemo_ir.Ir
module B = Axmemo_ir.Builder
module Memory = Axmemo_ir.Memory
module Rng = Axmemo_util.Rng
module Transform = Axmemo_compiler.Transform

let meta : Workload.meta =
  {
    name = "kmeans";
    domain = "Machine Learning";
    description = "K-means clustering on an image";
    dataset = "96x96 synthetic image, 4 clusters, 6 iterations";
    input_bytes = "12";
    trunc_bits = "16";
    error_bound = Axmemo_compiler.Tuning.image_error_bound;
  }

let kernel_name = "km_assign"
let k_clusters = 4

let f = B.f32

(* Nearest centroid by squared distance; centroid_base is baked in at build
   time (static data segment address). *)
let build_kernel ~centroid_base =
  let b = B.create ~name:kernel_name ~pure:true ~params:[ F32; F32; F32 ] ~rets:[ I32 ] () in
  let r = B.param b 0 and g = B.param b 1 and bl = B.param b 2 in
  let base = B.i64 (Int64.of_int centroid_base) in
  let best = B.fresh b and best_d = B.fresh b in
  B.mov b best (B.i32 0);
  B.mov b best_d (f 1e30);
  for c = 0 to k_clusters - 1 do
    let off = 12 * c in
    let cr = B.load b F32 base off in
    let cg = B.load b F32 base (off + 4) in
    let cb = B.load b F32 base (off + 8) in
    let dr = B.fsub b F32 r cr and dg = B.fsub b F32 g cg and db = B.fsub b F32 bl cb in
    let d =
      B.fadd b F32 (B.fmul b F32 dr dr) (B.fadd b F32 (B.fmul b F32 dg dg) (B.fmul b F32 db db))
    in
    let better = B.fcmp b Flt F32 d (B.rv best_d) in
    B.mov b best_d (B.select b better d (B.rv best_d));
    B.mov b best (B.select b better (B.i32 c) (B.rv best))
  done;
  B.ret b [ B.rv best ];
  B.finish b

(* Driver: [iters] rounds of assignment + centroid update, then a final pass
   writing the clustered image (each pixel replaced by its centroid). *)
let build_main ~n ~iters ~centroid_base ~sums_base ~counts_base =
  let b = B.create ~name:Workload.entry_name ~params:[ I64; I64; I64 ] ~rets:[] () in
  let img_base = B.param b 0 and assign_base = B.param b 1 and out_base = B.param b 2 in
  let cbase = B.i64 (Int64.of_int centroid_base) in
  let sbase = B.i64 (Int64.of_int sums_base) in
  let nbase = B.i64 (Int64.of_int counts_base) in
  let px_addr base i = B.binop b Add I64 base (B.cast b Sext_32_64 (B.muli b i (B.i32 12))) in
  B.for_loop b ~from:(B.i32 0) ~below:(B.i32 iters) (fun _it ->
      (* Clear accumulators. *)
      for c = 0 to k_clusters - 1 do
        B.store b F32 ~src:(f 0.0) ~base:sbase ~offset:(12 * c);
        B.store b F32 ~src:(f 0.0) ~base:sbase ~offset:((12 * c) + 4);
        B.store b F32 ~src:(f 0.0) ~base:sbase ~offset:((12 * c) + 8);
        B.store b I32 ~src:(B.i32 0) ~base:nbase ~offset:(4 * c)
      done;
      (* Assignment pass. *)
      B.for_loop b ~from:(B.i32 0) ~below:(B.i32 n) (fun i ->
          let a = px_addr img_base i in
          let r = B.load b F32 a 0 and g = B.load b F32 a 4 and bl = B.load b F32 a 8 in
          let idx =
            match B.call b kernel_name ~rets:1 [ r; g; bl ] with
            | [ v ] -> v
            | _ -> assert false
          in
          let ia = B.binop b Add I64 assign_base (B.cast b Sext_32_64 (B.muli b i (B.i32 4))) in
          B.store b I32 ~src:idx ~base:ia ~offset:0;
          (* Accumulate into sums[idx]. *)
          let soff = B.cast b Sext_32_64 (B.muli b idx (B.i32 12)) in
          let sa = B.binop b Add I64 sbase soff in
          B.store b F32 ~src:(B.fadd b F32 (B.load b F32 sa 0) r) ~base:sa ~offset:0;
          B.store b F32 ~src:(B.fadd b F32 (B.load b F32 sa 4) g) ~base:sa ~offset:4;
          B.store b F32 ~src:(B.fadd b F32 (B.load b F32 sa 8) bl) ~base:sa ~offset:8;
          let na = B.binop b Add I64 nbase (B.cast b Sext_32_64 (B.muli b idx (B.i32 4))) in
          B.store b I32 ~src:(B.addi b (B.load b I32 na 0) (B.i32 1)) ~base:na ~offset:0);
      (* Centroid update. *)
      for c = 0 to k_clusters - 1 do
        let cnt = B.load b I32 nbase (4 * c) in
        let nonzero = B.icmp b Igt I32 cnt (B.i32 0) in
        let cntf = B.cast b I_to_f (B.select b nonzero cnt (B.i32 1)) in
        let upd off =
          let s = B.load b F32 sbase ((12 * c) + off) in
          let old = B.load b F32 cbase ((12 * c) + off) in
          let fresh = B.fdiv b F32 s cntf in
          B.store b F32 ~src:(B.select b nonzero fresh old) ~base:cbase ~offset:((12 * c) + off)
        in
        upd 0;
        upd 4;
        upd 8
      done;
      (* Centroids changed: retire all memoized assignments. *)
      ignore (B.call b Workload.barrier_name ~rets:0 []));
  (* Output pass: paint each pixel with its final centroid. *)
  B.for_loop b ~from:(B.i32 0) ~below:(B.i32 n) (fun i ->
      let ia = B.binop b Add I64 assign_base (B.cast b Sext_32_64 (B.muli b i (B.i32 4))) in
      let idx = B.load b I32 ia 0 in
      let coff = B.cast b Sext_32_64 (B.muli b idx (B.i32 12)) in
      let ca = B.binop b Add I64 cbase coff in
      let oa = px_addr out_base i in
      B.store b F32 ~src:(B.load b F32 ca 0) ~base:oa ~offset:0;
      B.store b F32 ~src:(B.load b F32 ca 4) ~base:oa ~offset:4;
      B.store b F32 ~src:(B.load b F32 ca 8) ~base:oa ~offset:8);
  B.ret b [];
  B.finish b

let tones = [| (0.9, 0.25, 0.2); (0.25, 0.8, 0.3); (0.2, 0.3, 0.9); (0.85, 0.8, 0.25) |]

(* Colour image built from one gently-sloped luminance field modulating a
   handful of region colours: pixels of a region share a truncation cell per
   channel, as flat areas of photographs do. *)
let fill_pixels rng mem ~base ~side =
  let luma = Workload.synth_image rng ~width:side ~height:side ~tones:10 ~slope:0.04 () in
  Array.iteri
    (fun i l ->
      let r, g, b = tones.(int_of_float (l /. 48.0) mod Array.length tones) in
      let a = base + (12 * i) in
      Memory.store_f32 mem a (l *. r);
      Memory.store_f32 mem (a + 4) (l *. g);
      Memory.store_f32 mem (a + 8) (l *. b))
    luma

let make (variant : Workload.variant) : Workload.instance =
  let seed, side, iters = match variant with Sample -> (13L, 48, 4) | Eval -> (31L, 96, 6) in
  let n = side * side in
  let rng = Rng.create (Rng.derive_stream seed) in
  let mem = Memory.create () in
  let img_base = Workload.reserve_f32s mem (3 * n) in
  let centroid_base = Workload.reserve_f32s mem (3 * k_clusters) in
  let sums_base = Workload.reserve_f32s mem (3 * k_clusters) in
  let counts_base = Workload.reserve_f32s mem k_clusters in
  let assign_base = Workload.reserve_f32s mem n in
  let out_base = Workload.reserve_f32s mem (3 * n) in
  fill_pixels rng mem ~base:img_base ~side;
  Workload.write_f32s mem ~base:centroid_base
    [| 30.0; 30.0; 30.0; 200.0; 40.0; 40.0; 40.0; 200.0; 40.0; 40.0; 40.0; 200.0 |];
  let program =
    Workload.program_with_math
      [
        build_main ~n ~iters ~centroid_base ~sums_base ~counts_base;
        build_kernel ~centroid_base;
      ]
  in
  {
    meta;
    program;
    mem;
    entry = Workload.entry_name;
    args =
      [| VI (Int64.of_int img_base); VI (Int64.of_int assign_base); VI (Int64.of_int out_base) |];
    regions = [ { Transform.kernel = kernel_name; lut_id = 0; truncs = [| 16; 16; 16 |] } ];
    barrier = Some Workload.barrier_name;
    read_outputs =
      (fun () -> Floats (Workload.read_f32s mem ~base:out_base ~count:(3 * n)));
  }
