(* Shared pieces of the benchmark: the host clock, summary statistics, the
   in-memory span recorder, output checks, the simulated-statistics digest
   and the metric record every workload reports. *)

module Json = Axmemo_util.Json
module Workload = Axmemo_workloads.Workload
module Runner = Axmemo.Runner

(* ---- host clock --------------------------------------------------------- *)

(* CLOCK_MONOTONIC in nanoseconds; [@@noalloc] and unboxed, so a pair of
   reads inside a memo-hook wrapper allocates nothing. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_since t0 = float_of_int (now_ns () - t0) *. 1e-9
let ms_of_ns ns = float_of_int ns *. 1e-6

(* Mean cost of one [now_ns] read, subtracted from per-callback timers so
   the memo layer is not charged for its own stopwatch. *)
let clock_read_ns =
  lazy
    (let n = 200_000 in
     let t0 = now_ns () in
     for _ = 1 to n do
       ignore (Sys.opaque_identity (now_ns ()))
     done;
     float_of_int (now_ns () - t0) /. float_of_int n)

(* ---- statistics --------------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks (the "inclusive" method). *)
let quantile q xs =
  match sorted xs with
  | [||] -> 0.0
  | a ->
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = truncate pos in
      let hi = min (Array.length a - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

let mean_of = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* ---- spans -------------------------------------------------------------- *)

(* One span per layer call made from this benchmark's own code. [group]
   ties together the spans of one cell or one request (negative: a serving
   workload's set-up instance); [parent] is the index of the enclosing
   span (-1 for a root). Spans stay in memory and are written out once,
   when the run ends. *)
type span = {
  group : int;
  name : string;
  parent : int;
  start_ns : int;
  mutable end_ns : int;
}

type spans = { mutable items : span array; mutable len : int; mutable open_ : int list }

let spans_create () = { items = [||]; len = 0; open_ = [] }

let span (s : spans option) ~group name f =
  match s with
  | None -> f ()
  | Some s ->
      let parent = match s.open_ with p :: _ -> p | [] -> -1 in
      let sp = { group; name; parent; start_ns = now_ns (); end_ns = 0 } in
      if s.len = Array.length s.items then begin
        let bigger = Array.make (max 64 (2 * s.len)) sp in
        Array.blit s.items 0 bigger 0 s.len;
        s.items <- bigger
      end;
      let idx = s.len in
      s.items.(idx) <- sp;
      s.len <- s.len + 1;
      s.open_ <- idx :: s.open_;
      let close () =
        sp.end_ns <- now_ns ();
        s.open_ <- List.tl s.open_
      in
      match f () with
      | v ->
          close ();
          v
      | exception e ->
          close ();
          raise e

(* Self time per span name: duration minus the part covered by direct
   children (children of one parent never overlap: the benchmark is
   single-threaded and closes spans in LIFO order). *)
let self_ns (s : spans) =
  let child = Array.make s.len 0 in
  for i = 0 to s.len - 1 do
    let sp = s.items.(i) in
    if sp.parent >= 0 then
      child.(sp.parent) <- child.(sp.parent) + (sp.end_ns - sp.start_ns)
  done;
  let tbl = Hashtbl.create 32 in
  for i = 0 to s.len - 1 do
    let sp = s.items.(i) in
    let self = sp.end_ns - sp.start_ns - child.(i) in
    let prev = Option.value ~default:0 (Hashtbl.find_opt tbl sp.name) in
    Hashtbl.replace tbl sp.name (prev + self)
  done;
  tbl

let total_ns (s : spans) name =
  let t = ref 0 in
  for i = 0 to s.len - 1 do
    let sp = s.items.(i) in
    if sp.name = name then t := !t + (sp.end_ns - sp.start_ns)
  done;
  !t

let durations_ns (s : spans) name =
  let acc = ref [] in
  for i = s.len - 1 downto 0 do
    let sp = s.items.(i) in
    if sp.name = name then acc := float_of_int (sp.end_ns - sp.start_ns) :: !acc
  done;
  !acc

let spans_json (s : spans) =
  let base = if s.len = 0 then 0 else s.items.(0).start_ns in
  Json.Arr
    (List.init s.len (fun i ->
         let sp = s.items.(i) in
         Json.Obj
           [
             ("id", Json.Int i);
             ("group", Json.Int sp.group);
             ("name", Json.Str sp.name);
             ("parent", Json.Int sp.parent);
             ("start_ns", Json.Int (sp.start_ns - base));
             ("end_ns", Json.Int (sp.end_ns - base));
           ]))

(* ---- output checks ------------------------------------------------------ *)

let outputs_finite = function
  | Workload.Floats a -> Array.for_all Float.is_finite a
  | Workload.Bools _ -> true

let same_shape (a : Workload.outputs) (b : Workload.outputs) =
  match (a, b) with
  | Workload.Floats x, Workload.Floats y -> Array.length x = Array.length y
  | Workload.Bools x, Workload.Bools y -> Array.length x = Array.length y
  | _ -> false

(* [None] when [outputs] pass, else the reason. *)
let check_outputs ~reference outputs =
  if not (same_shape reference outputs) then Some "output shape differs from its baseline"
  else if not (outputs_finite outputs) then Some "non-finite output"
  else None

(* Overwrite the first output element with NaN: the self-check's proof that
   a corrupted output fails the run. *)
let corrupt = function
  | Workload.Floats a when Array.length a > 0 ->
      let a = Array.copy a in
      a.(0) <- Float.nan;
      Workload.Floats a
  | o -> o

(* ---- digest ------------------------------------------------------------- *)

(* Every simulated statistic goes through [%h] (exact hex floats) or [%d],
   so equal digests mean bit-identical simulations. *)
let add_outputs buf = function
  | Workload.Floats a -> Array.iter (fun x -> Printf.bprintf buf "%h," x) a
  | Workload.Bools a -> Array.iter (fun b -> Buffer.add_char buf (if b then '1' else '0')) a

let add_result buf (r : Runner.result) =
  Printf.bprintf buf "%s|c%d|n%d|m%d|l%d|h%d|x%d|e%h|" r.Runner.label r.Runner.cycles
    r.Runner.dyn_normal r.Runner.dyn_memo r.Runner.lookups r.Runner.hits
    r.Runner.collisions r.Runner.energy.Axmemo_energy.Model.total_pj;
  add_outputs buf r.Runner.outputs;
  Buffer.add_char buf '\n'

let digest_of_buffer buf = Digest.to_hex (Digest.string (Buffer.contents buf))

(* ---- metrics ------------------------------------------------------------ *)

type kind = Host | Exact

type metric = { name : string; value : float; unit_ : string; kind : kind; note : string }

let metric ?(note = "") kind name unit_ value = { name; value; unit_; kind; note }
let host ?note name unit_ value = metric ?note Host name unit_ value
let exact ?note name unit_ value = metric ?note Exact name unit_ value

(* What one pass of a workload's timed phase produced, after checking. *)
type evaluation = {
  attempted : int;
  failed : int;
  failures : string list;  (* first few reasons, for stderr *)
  instructions : int;  (* simulated dyn_normal + dyn_memo over every unit *)
  digest : string;
  sim_metrics : metric list;  (* exact end-to-end metrics *)
}
