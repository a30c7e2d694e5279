module Ir = Axmemo_ir.Ir
module Memory = Axmemo_ir.Memory
module Stats = Axmemo_util.Stats

type variant = Sample | Eval

type outputs = Floats of float array | Bools of bool array

type meta = {
  name : string;
  domain : string;
  description : string;
  dataset : string;
  input_bytes : string;
  trunc_bits : string;
  error_bound : float;
}

type instance = {
  meta : meta;
  program : Ir.program;
  mem : Memory.t;
  entry : string;
  args : Ir.value array;
  regions : Axmemo_compiler.Transform.region list;
  barrier : string option;
  read_outputs : unit -> outputs;
}

let entry_name = "main"

let barrier_name = "axmemo_phase_barrier"

let barrier_func () : Ir.func =
  {
    Ir.fname = barrier_name;
    params = [||];
    ret_tys = [||];
    blocks = [| { Ir.label = "entry"; instrs = [||]; term = Ret [||] } |];
    nregs = 0;
    pure = false;
  }

let quality_loss ~reference ~approx =
  match (reference, approx) with
  | Floats r, Floats a -> Stats.output_error ~reference:r ~approx:a
  | Bools r, Bools a -> Stats.misclassification_rate ~reference:r ~approx:a
  | Floats _, Bools _ | Bools _, Floats _ ->
      invalid_arg "Workload.quality_loss: output shape mismatch"

let element_errors ~reference ~approx =
  match (reference, approx) with
  | Floats r, Floats a ->
      (* Relative error with a scale floor at 1% of the reference RMS, so
         elements whose true value is (near) zero do not blow the CDF up. *)
      let n = Array.length r in
      if n <> Array.length a then
        invalid_arg "Workload.element_errors: length mismatch";
      let rms =
        sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 r /. float_of_int (max 1 n))
      in
      let floor = Float.max 1e-12 (0.01 *. rms) in
      Array.init n (fun i ->
          abs_float (a.(i) -. r.(i)) /. Float.max (abs_float r.(i)) floor)
  | Bools r, Bools a ->
      Array.init (Array.length r) (fun i -> if r.(i) = a.(i) then 0.0 else 1.0)
  | Floats _, Bools _ | Bools _, Floats _ ->
      invalid_arg "Workload.element_errors: output shape mismatch"

let reserve_f32s mem n = Memory.alloc mem ~bytes:(4 * n) ~align:64

let write_f32s mem ~base data =
  for i = 0 to Array.length data - 1 do
    Memory.store_f32 mem (base + (4 * i)) data.(i)
  done

let read_f32s mem ~base ~count = Array.init count (fun i -> Memory.load_f32 mem (base + (4 * i)))

let read_i32s mem ~base ~count =
  Array.init count (fun i -> Int32.to_int (Memory.load_i32 mem (base + (4 * i))))

module Rng = Axmemo_util.Rng

let synth_image rng ~width ~height ?(tones = 12) ?(slope = 0.05) ?(speckle_fraction = 0.0)
    ?(speckle_sigma = 0.0) () =
  let img = Array.make (width * height) 0.0 in
  let bg_tone = 80.0 +. Rng.float rng 60.0 in
  (* Anisotropic gradient: the x and y slopes are incommensurate so no two
     pixels are bit-identical — only truncation merges them. *)
  let aniso = 1.3179 in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      img.((y * width) + x) <-
        bg_tone +. (slope *. (float_of_int x +. (aniso *. float_of_int y)))
    done
  done;
  for _ = 1 to tones do
    let x0 = Rng.int rng (max 1 (width - 12)) and y0 = Rng.int rng (max 1 (height - 12)) in
    let w = 8 + Rng.int rng (width / 3) and h = 8 + Rng.int rng (height / 3) in
    let tone = Rng.float rng 255.0 in
    let s = slope *. Rng.uniform rng 0.2 1.5 in
    for y = y0 to min (height - 1) (y0 + h) do
      for x = x0 to min (width - 1) (x0 + w) do
        img.((y * width) + x) <-
          tone +. (s *. (float_of_int (x - x0) +. (aniso *. float_of_int (y - y0))))
      done
    done
  done;
  if speckle_fraction > 0.0 then
    Array.iteri
      (fun i v ->
        if Rng.float rng 1.0 < speckle_fraction then
          img.(i) <- v +. Rng.gaussian rng ~mean:0.0 ~stddev:speckle_sigma)
      img;
  Array.iteri (fun i v -> img.(i) <- Float.max 0.0 (Float.min 255.0 v)) img;
  img

let program_with_math funcs =
  let program =
    { Ir.funcs = Array.of_list (funcs @ (barrier_func () :: Mathlib.functions ())) }
  in
  (match Ir.validate program with
  | Ok () -> ()
  | Error errs -> failwith ("Workload: invalid program:\n" ^ String.concat "\n" errs));
  program
