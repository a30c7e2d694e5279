(** Inversek2j benchmark (Table 2). *)

val meta : Workload.meta
val make : Workload.variant -> Workload.instance
val kernel_name : string
val build_kernel : unit -> Axmemo_ir.Ir.func

val l1 : float
(** First link length (mm). *)

val l2 : float
(** Second link length (mm). *)
