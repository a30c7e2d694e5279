(** Common shape of the ten evaluated benchmarks (Table 2).

    Each benchmark module exposes a {!meta} record (the static Table 2 row)
    and a [make] function producing a fresh, fully wired {!instance}:
    program IR (kernels + driver + math library), memory pre-loaded with a
    deterministic synthetic dataset, the memoization regions with their
    Table 2 truncation levels, and a way to read the outputs back for the
    quality metrics.

    Sample and evaluation datasets are disjoint (different seeds and sizes),
    matching the paper's profiling methodology. *)

type variant = Sample | Eval

type outputs = Floats of float array | Bools of bool array

type meta = {
  name : string;
  domain : string;
  description : string;
  dataset : string;  (** evaluation dataset description *)
  input_bytes : string;  (** memoization input size per LUT, for Table 2 *)
  trunc_bits : string;  (** truncation level(s), for Table 2 *)
  error_bound : float;  (** profiling bound: 0.1%, or 1% for image outputs *)
}

type instance = {
  meta : meta;
  program : Axmemo_ir.Ir.program;
  mem : Axmemo_ir.Memory.t;
  entry : string;
  args : Axmemo_ir.Ir.value array;
  regions : Axmemo_compiler.Transform.region list;
  barrier : string option;
      (** marker function for phase-boundary LUT invalidation, if any *)
  read_outputs : unit -> outputs;
}

val entry_name : string
(** Drivers are always named this ("main"). *)

val barrier_name : string
(** Name of the no-op phase marker function. *)

val barrier_func : unit -> Axmemo_ir.Ir.func
(** A fresh copy of the marker function (impure, empty). *)

val quality_loss : reference:outputs -> approx:outputs -> float
(** Equation 2 for float outputs; misclassification rate for booleans.
    @raise Invalid_argument if the two outputs have different shapes. *)

val element_errors : reference:outputs -> approx:outputs -> float array
(** Element-wise relative errors (0/1 for booleans), for the Figure 10b CDF. *)

(** {1 Memory helpers for dataset setup}

    A generator reserves every region first, in a fixed order, and only then
    fills the regions in place, so the addresses are fixed by the reservation
    order alone and {!Axmemo_ir.Memory} grows its buffer once, to the final
    high-water mark. The random draws are part of the dataset: a generator
    must draw the same numbers in the same order (mind that OCaml evaluates
    tuple components and function arguments right to left), or every
    simulated number downstream changes. *)

val reserve_f32s : Axmemo_ir.Memory.t -> int -> int
(** [reserve_f32s mem n] reserves [n] zeroed f32 slots, 64-byte aligned, and
    returns the base address. *)

val write_f32s : Axmemo_ir.Memory.t -> base:int -> float array -> unit
(** [write_f32s mem ~base data] stores [data] as consecutive f32s. *)

val read_f32s : Axmemo_ir.Memory.t -> base:int -> count:int -> float array
val read_i32s : Axmemo_ir.Memory.t -> base:int -> count:int -> int array

val synth_image :
  Axmemo_util.Rng.t ->
  width:int ->
  height:int ->
  ?tones:int ->
  ?slope:float ->
  ?speckle_fraction:float ->
  ?speckle_sigma:float ->
  unit ->
  float array
(** Piecewise gently-sloped image in a 0..255 intensity scale: a soft
    background plus rectangular regions, each with its own tone and a small
    per-pixel gradient ([slope] intensity levels per pixel). Within a region
    the local windows fall into the same truncation cell — the redundancy
    natural images exhibit — while the continuous gradient ensures exact
    bit-equality is rare, so memoization {e needs} the approximation
    (Figure 11). [speckle_fraction] of pixels get extra Gaussian noise of
    [speckle_sigma] levels (for SRAD's speckle). *)

val program_with_math : Axmemo_ir.Ir.func list -> Axmemo_ir.Ir.program
(** Bundle workload functions with the math library and the barrier marker,
    then {!Axmemo_ir.Ir.validate} (raising [Failure] on violations). *)
