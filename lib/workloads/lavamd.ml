(** LavaMD: particle interactions within a cut-off radius (Rodinia).

    The memoized block is the pairwise interaction coefficient: a distance
    vector (dx, dy, dz) — 12 bytes, no truncation (Table 2) — mapped to the
    exponential kernel exp(-2 a^2 r^2). The paper's dataset has particles at
    random {e initial} positions; reuse stems from repeated displacement
    vectors. Our substitute places particles on a perturbation-free crystal
    lattice (as in solid-state MD), which yields the same kind of repeated
    displacement vectors without truncation. *)

module Ir = Axmemo_ir.Ir
module B = Axmemo_ir.Builder
module Memory = Axmemo_ir.Memory
module Rng = Axmemo_util.Rng
module Transform = Axmemo_compiler.Transform

let meta : Workload.meta =
  {
    name = "lavamd";
    domain = "Molecular Dynamics";
    description = "Simulates particle interactions with charge";
    dataset = "8 boxes x 24 lattice particles";
    input_bytes = "12";
    trunc_bits = "0";
    error_bound = Axmemo_compiler.Tuning.default_error_bound;
  }

let kernel_name = "md_coef"

let f = B.f32

let alpha2 = 0.5

(* vij = exp(-2 a^2 r^2) — the LavaMD potential's radial factor. *)
let build_kernel () =
  let b = B.create ~name:kernel_name ~pure:true ~params:[ F32; F32; F32 ] ~rets:[ F32 ] () in
  let dx = B.param b 0 and dy = B.param b 1 and dz = B.param b 2 in
  let r2 =
    B.fadd b F32 (B.fmul b F32 dx dx) (B.fadd b F32 (B.fmul b F32 dy dy) (B.fmul b F32 dz dz))
  in
  let arg = B.fmul b F32 (f (-2.0 *. alpha2)) r2 in
  let v = match B.call b Mathlib.exp_name ~rets:1 [ arg ] with [ v ] -> v | _ -> assert false in
  B.ret b [ v ];
  B.finish b

(* For every particle, accumulate forces from all particles of all boxes
   (the box grid is small enough that every box neighbours every other). *)
let build_main ~n_particles =
  let b = B.create ~name:Workload.entry_name ~params:[ I64; I64; I64 ] ~rets:[] () in
  let pos_base = B.param b 0 and q_base = B.param b 1 and force_base = B.param b 2 in
  let vec_addr base i = B.binop b Add I64 base (B.cast b Sext_32_64 (B.muli b i (B.i32 12))) in
  B.for_loop b ~from:(B.i32 0) ~below:(B.i32 n_particles) (fun i ->
      let ai = vec_addr pos_base i in
      let xi = B.load b F32 ai 0 and yi = B.load b F32 ai 4 and zi = B.load b F32 ai 8 in
      let fx = B.fresh b and fy = B.fresh b and fz = B.fresh b in
      B.mov b fx (f 0.0);
      B.mov b fy (f 0.0);
      B.mov b fz (f 0.0);
      B.for_loop b ~from:(B.i32 0) ~below:(B.i32 n_particles) (fun j ->
          let aj = vec_addr pos_base j in
          let xj = B.load b F32 aj 0 and yj = B.load b F32 aj 4 and zj = B.load b F32 aj 8 in
          let dx = B.fsub b F32 xi xj in
          let dy = B.fsub b F32 yi yj in
          let dz = B.fsub b F32 zi zj in
          let v =
            match B.call b kernel_name ~rets:1 [ dx; dy; dz ] with
            | [ v ] -> v
            | _ -> assert false
          in
          let qj =
            B.load b F32 (B.binop b Add I64 q_base (B.cast b Sext_32_64 (B.muli b j (B.i32 4)))) 0
          in
          let s = B.fmul b F32 qj v in
          B.mov b fx (B.fadd b F32 (B.rv fx) (B.fmul b F32 s dx));
          B.mov b fy (B.fadd b F32 (B.rv fy) (B.fmul b F32 s dy));
          B.mov b fz (B.fadd b F32 (B.rv fz) (B.fmul b F32 s dz)));
      let fa = vec_addr force_base i in
      B.store b F32 ~src:(B.rv fx) ~base:fa ~offset:0;
      B.store b F32 ~src:(B.rv fy) ~base:fa ~offset:4;
      B.store b F32 ~src:(B.rv fz) ~base:fa ~offset:8);
  B.ret b [];
  B.finish b

(* Crystal lattice: positions are integer multiples of the lattice constant,
   so displacement vectors repeat across particle pairs exactly. *)
let fill_particles rng mem ~pos_base ~q_base ~boxes_per_side ~per_box =
  let lattice = 0.25 in
  let i = ref 0 in
  for bx = 0 to boxes_per_side - 1 do
    for by = 0 to boxes_per_side - 1 do
      for bz = 0 to boxes_per_side - 1 do
        for _ = 1 to per_box do
          let cell () = float_of_int (Rng.int rng 4) *. lattice in
          let x = (float_of_int bx) +. cell () in
          let y = (float_of_int by) +. cell () in
          let z = (float_of_int bz) +. cell () in
          let q = float_of_int (1 + Rng.int rng 3) *. 0.5 in
          let a = pos_base + (12 * !i) in
          Memory.store_f32 mem a x;
          Memory.store_f32 mem (a + 4) y;
          Memory.store_f32 mem (a + 8) z;
          Memory.store_f32 mem (q_base + (4 * !i)) q;
          incr i
        done
      done
    done
  done

let make (variant : Workload.variant) : Workload.instance =
  let seed, boxes_per_side, per_box =
    match variant with Sample -> (41L, 2, 10) | Eval -> (43L, 2, 24)
  in
  let rng = Rng.create (Rng.derive_stream seed) in
  let n = boxes_per_side * boxes_per_side * boxes_per_side * per_box in
  let mem = Memory.create () in
  let pos_base = Workload.reserve_f32s mem (3 * n) in
  let q_base = Workload.reserve_f32s mem n in
  let force_base = Workload.reserve_f32s mem (3 * n) in
  fill_particles rng mem ~pos_base ~q_base ~boxes_per_side ~per_box;
  let program = Workload.program_with_math [ build_main ~n_particles:n; build_kernel () ] in
  {
    meta;
    program;
    mem;
    entry = Workload.entry_name;
    args = [| VI (Int64.of_int pos_base); VI (Int64.of_int q_base); VI (Int64.of_int force_base) |];
    regions = [ { Transform.kernel = kernel_name; lut_id = 0; truncs = [| 0; 0; 0 |] } ];
    barrier = None;
    read_outputs = (fun () -> Floats (Workload.read_f32s mem ~base:force_base ~count:(3 * n)));
  }
