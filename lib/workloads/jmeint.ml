(** Jmeint: triangle-triangle intersection (AxBench, 3D gaming).

    The memoized block is the whole intersection test over the two
    triangles' vertices, truncated by 6 bits (Table 2). The paper notes the
    input size as 36 bytes (half-precision vertex data); our vertices are
    binary32, so the streamed block input is 72 bytes — the widest of all
    benchmarks either way. Random triangle pairs essentially never repeat,
    so the LUT hit rate is ~0 and AxMemo shows no speedup — the paper's
    negative result, reproduced.

    The kernel follows Möller's test: both plane-rejection stages exactly,
    then an interval-overlap decision along the plane-intersection line.
    The quality metric is the misclassification rate against the baseline
    run of the same kernel, so only memoization-induced flips count. *)

module Ir = Axmemo_ir.Ir
module B = Axmemo_ir.Builder
module Memory = Axmemo_ir.Memory
module Rng = Axmemo_util.Rng
module Transform = Axmemo_compiler.Transform

let meta : Workload.meta =
  {
    name = "jmeint";
    domain = "3D Gaming";
    description = "Detects the intersection of two triangles";
    dataset = "10K random triangle pairs";
    input_bytes = "72 (paper: 36 at fp16)";
    trunc_bits = "6";
    error_bound = Axmemo_compiler.Tuning.default_error_bound;
  }

let kernel_name = "jm_trisect"

let f = B.f32

(* Vector helpers over operand triples. *)
let vsub b (ax, ay, az) (bx, by, bz) =
  (B.fsub b F32 ax bx, B.fsub b F32 ay by, B.fsub b F32 az bz)

let cross b (ax, ay, az) (bx, by, bz) =
  ( B.fsub b F32 (B.fmul b F32 ay bz) (B.fmul b F32 az by),
    B.fsub b F32 (B.fmul b F32 az bx) (B.fmul b F32 ax bz),
    B.fsub b F32 (B.fmul b F32 ax by) (B.fmul b F32 ay bx) )

let dot b (ax, ay, az) (bx, by, bz) =
  B.fadd b F32 (B.fmul b F32 ax bx) (B.fadd b F32 (B.fmul b F32 ay by) (B.fmul b F32 az bz))

let min3 b a c d =
  let m = B.select b (B.fcmp b Flt F32 a c) a c in
  B.select b (B.fcmp b Flt F32 m d) m d

let max3 b a c d =
  let m = B.select b (B.fcmp b Fgt F32 a c) a c in
  B.select b (B.fcmp b Fgt F32 m d) m d

let build_kernel () =
  let b =
    B.create ~name:kernel_name ~pure:true
      ~params:(List.init 18 (fun _ : Ir.ty -> F32))
      ~rets:[ I32 ] ()
  in
  let v i = (B.param b (3 * i), B.param b ((3 * i) + 1), B.param b ((3 * i) + 2)) in
  let v0 = v 0 and v1 = v 1 and v2 = v 2 in
  let u0 = v 3 and u1 = v 4 and u2 = v 5 in
  let early_reject cond =
    let rej = B.block b "reject" in
    let cont = B.block b "cont" in
    B.br b cond rej cont;
    B.switch_to b rej;
    B.ret b [ B.i32 0 ];
    B.switch_to b cont
  in
  (* Plane of triangle V against vertices of U. *)
  let n1 = cross b (vsub b v1 v0) (vsub b v2 v0) in
  let d1 = B.funop b Fneg F32 (dot b n1 v0) in
  let du0 = B.fadd b F32 (dot b n1 u0) d1 in
  let du1 = B.fadd b F32 (dot b n1 u1) d1 in
  let du2 = B.fadd b F32 (dot b n1 u2) d1 in
  let same_side =
    B.binop b And I32
      (B.fcmp b Fgt F32 (B.fmul b F32 du0 du1) (f 0.0))
      (B.fcmp b Fgt F32 (B.fmul b F32 du0 du2) (f 0.0))
  in
  early_reject same_side;
  (* Plane of triangle U against vertices of V. *)
  let n2 = cross b (vsub b u1 u0) (vsub b u2 u0) in
  let d2 = B.funop b Fneg F32 (dot b n2 u0) in
  let dv0 = B.fadd b F32 (dot b n2 v0) d2 in
  let dv1 = B.fadd b F32 (dot b n2 v1) d2 in
  let dv2 = B.fadd b F32 (dot b n2 v2) d2 in
  let same_side2 =
    B.binop b And I32
      (B.fcmp b Fgt F32 (B.fmul b F32 dv0 dv1) (f 0.0))
      (B.fcmp b Fgt F32 (B.fmul b F32 dv0 dv2) (f 0.0))
  in
  early_reject same_side2;
  (* Intersection-line direction; compare projection intervals. *)
  let d = cross b n1 n2 in
  let pv0 = dot b d v0 and pv1 = dot b d v1 and pv2 = dot b d v2 in
  let pu0 = dot b d u0 and pu1 = dot b d u1 and pu2 = dot b d u2 in
  let v_min = min3 b pv0 pv1 pv2 and v_max = max3 b pv0 pv1 pv2 in
  let u_min = min3 b pu0 pu1 pu2 and u_max = max3 b pu0 pu1 pu2 in
  let overlap =
    B.binop b And I32
      (B.fcmp b Fle F32 v_min u_max)
      (B.fcmp b Fle F32 u_min v_max)
  in
  B.ret b [ overlap ];
  B.finish b

let build_main n =
  let b = B.create ~name:Workload.entry_name ~params:[ I64; I64 ] ~rets:[] () in
  let in_base = B.param b 0 and out_base = B.param b 1 in
  B.for_loop b ~from:(B.i32 0) ~below:(B.i32 n) (fun i ->
      let rec_addr =
        B.binop b Add I64 in_base (B.cast b Sext_32_64 (B.muli b i (B.i32 72)))
      in
      let args = List.init 18 (fun k -> B.load b F32 rec_addr (4 * k)) in
      let hit =
        match B.call b kernel_name ~rets:1 args with [ v ] -> v | _ -> assert false
      in
      let out = B.binop b Add I64 out_base (B.cast b Sext_32_64 (B.muli b i (B.i32 4))) in
      B.store b I32 ~src:hit ~base:out ~offset:0);
  B.ret b [];
  B.finish b

let make (variant : Workload.variant) : Workload.instance =
  let seed, total = match variant with Sample -> (61L, 2_000) | Eval -> (67L, 10_000) in
  let rng = Rng.create (Rng.derive_stream seed) in
  let mem = Memory.create () in
  let in_base = Workload.reserve_f32s mem (18 * total) in
  let out_base = Workload.reserve_f32s mem total in
  (* Triangle pairs: 18 uniform coordinates each. *)
  for i = 0 to (18 * total) - 1 do
    Memory.store_f32 mem (in_base + (4 * i)) (Rng.uniform rng (-1.0) 1.0)
  done;
  let program = Workload.program_with_math [ build_main total; build_kernel () ] in
  {
    meta;
    program;
    mem;
    entry = Workload.entry_name;
    args = [| VI (Int64.of_int in_base); VI (Int64.of_int out_base) |];
    regions =
      [ { Transform.kernel = kernel_name; lut_id = 0; truncs = Array.make 18 6 } ];
    barrier = None;
    read_outputs =
      (fun () ->
        let raw = Workload.read_i32s mem ~base:out_base ~count:total in
        Bools (Array.map (fun v -> v <> 0) raw));
  }
