(** Deterministic pseudo-random number generation.

    All stochastic behaviour in the repository (dataset synthesis, shuffles)
    flows through this module so that experiments are bit-reproducible. The
    generator is splitmix64, which has a 64-bit state, passes BigCrush, and is
    trivially splittable. *)

type t
(** Mutable generator state. The 64-bit state is held unboxed, so a draw
    allocates nothing itself: [int64] returns a boxed result unless the
    call is inlined, [float]/[uniform] allocate only their boxed float
    result, and [int]/[bool] allocate nothing. *)

val create : int64 -> t
(** [create seed] returns a fresh generator seeded with [seed]. Two generators
    created with the same seed produce identical streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t]. *)

val copy : t -> t
(** [copy t] duplicates the current state without advancing [t]. *)

val int64 : t -> int64
(** [int64 t] returns the next raw 64-bit output. *)

val bits32 : t -> int32
(** [bits32 t] returns 32 uniformly random bits. *)

val int : t -> int -> int
(** [int t bound] returns a uniform integer in \[0, bound). [bound] must be
    positive. *)

val float : t -> float -> float
(** [float t bound] returns a uniform float in \[0, bound). *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] returns a uniform float in \[lo, hi). *)

val gaussian : t -> mean:float -> stddev:float -> float
(** [gaussian t ~mean ~stddev] draws from a normal distribution using the
    Box-Muller transform. *)

val bool : t -> bool
(** [bool t] returns a fair coin flip. *)

val shuffle : t -> 'a array -> unit
(** [shuffle t a] permutes [a] in place (Fisher-Yates). *)

val choose : t -> 'a array -> 'a
(** [choose t a] picks a uniform element of the non-empty array [a]. *)

(** {2 Root seed}

    Every stochastic stream in the repository derives its seed through
    {!derive_stream}, so one recorded root seed re-keys datasets, the Random
    replacement policy, and fault-injection streams together ([--seed] on
    the CLI). *)

val set_root_seed : int64 -> unit
(** [set_root_seed s] installs the process-wide root seed. Call once at
    startup, before worker domains spawn. [0L] restores the default
    (historical fixed seeds). *)

val root_seed : unit -> int64
(** The current root seed; [0L] when unset. *)

val derive_stream : int64 -> int64
(** [derive_stream salt] mixes [salt] with the root seed into an
    independent stream seed. With the root unset it returns [salt]
    unchanged, keeping default runs bit-identical. Never returns [0L] when
    the root is set. *)
