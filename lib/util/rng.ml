(* The 64-bit splitmix state lives unboxed in an 8-byte buffer: reading and
   writing it with [Bytes.get/set_int64_ne] keeps every intermediate int64 in
   a register, so a draw allocates nothing beyond a boxed float result. *)
type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let golden = 0x9E3779B97F4A7C15L

let[@inline] next_state t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 s;
  s

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] int64 t = mix (next_state t)

let split t = create (int64 t)

let copy = Bytes.copy

let bits32 t = Int64.to_int32 (Int64.shift_right_logical (int64 t) 32)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free for our purposes: modulo bias is negligible at 62 bits.
     Shifting by 2 keeps the value below 2^62, hence non-negative as a
     63-bit OCaml int. *)
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  v mod bound

let[@inline] float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  v /. 9007199254740992.0 *. bound

let uniform t lo hi = lo +. float t (hi -. lo)

let rec gaussian t ~mean ~stddev =
  let u1 = float t 1.0 in
  if u1 <= 1e-300 then gaussian t ~mean ~stddev
  else
    let u2 = float t 1.0 in
    mean +. (stddev *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let bool t = Int64.logand (int64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))

(* Root seed: one process-wide knob from which every stochastic stream in
   the repository (dataset generators, the Random replacement policy, fault
   streams) derives its own seed. 0 means "unset": [derive_stream] is then
   the identity, so default runs keep their historical fixed seeds and stay
   bit-identical across PRs. Set once at CLI startup, before any worker
   domain spawns; domains share the heap, so all workers observe it. *)
let root = ref 0L

let set_root_seed s = root := s
let root_seed () = !root

let derive_stream salt =
  if !root = 0L then salt
  else
    let s = mix (Int64.add (mix !root) salt) in
    (* Never hand out 0: some consumers (xorshift state) treat it as an
       absorbing state. *)
    if s = 0L then salt else s
