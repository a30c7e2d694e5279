(* The [kernels] workload — all ten kernels under the baseline and the
   L1(8KB)+L2(512KB) AxMemo configuration through [Runner.run] — and the
   single-core layer probes that rebuild [Runner]'s composition from public
   calls. The probes also serve the [serve] and [cluster] workloads, run on
   the kernels of their mix. *)

module Interp = Axmemo_ir.Interp
module Hierarchy = Axmemo_cache.Hierarchy
module Sa_cache = Axmemo_cache.Sa_cache
module Pipeline = Axmemo_cpu.Pipeline
module Memo_unit = Axmemo_memo.Memo_unit
module Transform = Axmemo_compiler.Transform
module Workloads = Axmemo_workloads.Registry
module Profile = Axmemo_obs.Profile
open Common

let configs = [ Runner.Baseline; Runner.l1_8k_l2_512k ]
let all = List.map (fun ((m : Workload.meta), _) -> m.Workload.name) Workloads.all

type cell = {
  id : int;
  kernel : string;
  config : Runner.config;
  make : Workload.variant -> Workload.instance;
}

let cells_of kernels =
  List.concat_map
    (fun k ->
      match Workloads.find k with
      | Some (_, make) -> List.map (fun config -> (k, config, make)) configs
      | None -> invalid_arg ("unknown kernel " ^ k))
    kernels
  |> List.mapi (fun id (kernel, config, make) -> { id; kernel; config; make })

let is_memo c = c.config <> Runner.Baseline

(* A fresh instance per cell: runs mutate the instance's memory. The
   outputs read before the run fix the shape the run must reproduce. *)
type prepared = { cell : cell; instance : Workload.instance; shape : Workload.outputs }

let synth ?spans variant cells =
  List.map
    (fun cell ->
      span spans ~group:cell.id "workloads.synth" (fun () ->
          let instance = cell.make variant in
          { cell; instance; shape = instance.Workload.read_outputs () }))
    cells

(* ---- the untraced timed phase ------------------------------------------- *)

let run_cells prepared =
  List.map
    (fun p ->
      ( p,
        match Runner.run p.cell.config p.instance with
        | r -> Ok r
        | exception e -> Error (Printexc.to_string e) ))
    prepared

(* Checks every cell, pairs each memo cell with its kernel's baseline, and
   derives the paper-result metrics. *)
let evaluate ~corrupt_first results =
  let failures = ref [] and failed = Hashtbl.create 8 in
  let fail cell why =
    Hashtbl.replace failed cell.id ();
    failures := Printf.sprintf "%s/%s: %s" cell.kernel (Runner.config_label cell.config) why :: !failures
  in
  let buf = Buffer.create 4096 in
  let checked =
    List.mapi
      (fun i (p, r) ->
        match r with
        | Error e ->
            fail p.cell ("raised " ^ e);
            Buffer.add_string buf (Printf.sprintf "%d:raised\n" p.cell.id);
            (p, None)
        | Ok (r : Runner.result) ->
            let r =
              if corrupt_first && i = 0 then { r with Runner.outputs = corrupt r.Runner.outputs }
              else r
            in
            add_result buf r;
            (match check_outputs ~reference:p.shape r.Runner.outputs with
            | Some why -> fail p.cell why
            | None -> ());
            (p, Some r))
      results
  in
  let ok = List.filter_map (fun (p, r) -> Option.map (fun r -> (p.cell, r)) r) checked in
  let pairs =
    List.filter_map
      (fun (c, m) ->
        if not (is_memo c) then None
        else
          List.find_map
            (fun (b, base) ->
              if b.kernel = c.kernel && not (is_memo b) then Some (c, base, m) else None)
            ok)
      ok
  in
  let losses =
    List.filter_map
      (fun (c, (base : Runner.result), (m : Runner.result)) ->
        match Workload.quality_loss ~reference:base.Runner.outputs ~approx:m.Runner.outputs with
        | q when Float.is_finite q -> Some q
        | _ ->
            fail c "quality loss is not finite";
            None
        | exception Invalid_argument why ->
            fail c why;
            None)
      pairs
  in
  let mean f = mean_of (List.map f pairs) in
  let lookups = List.fold_left (fun n (c, (r : Runner.result)) -> if is_memo c then n + r.Runner.lookups else n) 0 ok in
  let hits = List.fold_left (fun n (c, (r : Runner.result)) -> if is_memo c then n + r.Runner.hits else n) 0 ok in
  let speedup = mean (fun (_, base, m) -> Runner.speedup ~baseline:base m) in
  let paper = 2.82 in
  {
    attempted = List.length results;
    failed = Hashtbl.length failed;
    failures = List.rev !failures;
    instructions =
      List.fold_left (fun n (_, (r : Runner.result)) -> n + r.Runner.dyn_normal + r.Runner.dyn_memo) 0 ok;
    digest = digest_of_buffer buf;
    sim_metrics =
      [
        exact "sim_speedup_mean" "x" speedup
          ~note:
            (Printf.sprintf
               "paper Fig. 7a L1(8KB)+L2(512KB): %.2fx, relative difference %+.1f%%; the only reference the repo holds, the model is otherwise unvalidated"
               paper
               (100.0 *. (speedup -. paper) /. paper));
        exact "sim_energy_saving_mean" "x" (mean (fun (_, base, m) -> Runner.energy_saving ~baseline:base m));
        exact "quality_loss_max" "ratio" (List.fold_left Float.max 0.0 losses);
        exact "lut_hit_rate" "ratio" (ratio hits lookups)
          ~note:(Printf.sprintf "%d hits / %d lookups" hits lookups);
      ];
  }

(* ---- Runner's composition, rebuilt from public calls -------------------- *)

(* Three stacks on identical inputs: bare execution, plus the pipeline/cache
   timing model, plus the memo unit (memo cells only; a baseline cell's
   full stack is its pipeline stack). The memoized program without memo
   hooks takes every lookup as a miss, so the bare and pipeline stacks of a
   memo cell execute the same instruction stream as each other. *)
type stack = Bare | Pipe | Full

(* Per memo-hook callback: calls, host ns, minor words. Index 0 send,
   1 lookup, 2 update, 3 invalidate. *)
type memo_acc = { calls : int array; ns : int array; words : float array }

let memo_acc () = { calls = Array.make 4 0; ns = Array.make 4 0; words = Array.make 4 0.0 }

let wrap_memo acc (h : Interp.memo_hooks) : Interp.memo_hooks =
  let charge k t0 w0 =
    let t1 = now_ns () in
    acc.calls.(k) <- acc.calls.(k) + 1;
    acc.ns.(k) <- acc.ns.(k) + (t1 - t0);
    acc.words.(k) <- acc.words.(k) +. (Gc.minor_words () -. w0)
  in
  {
    Interp.send =
      (fun ~lut ~ty ~trunc v ->
        let w0 = Gc.minor_words () in
        let t0 = now_ns () in
        h.Interp.send ~lut ~ty ~trunc v;
        charge 0 t0 w0);
    lookup =
      (fun ~lut ->
        let w0 = Gc.minor_words () in
        let t0 = now_ns () in
        let r = h.Interp.lookup ~lut in
        charge 1 t0 w0;
        r);
    update =
      (fun ~lut payload ->
        let w0 = Gc.minor_words () in
        let t0 = now_ns () in
        h.Interp.update ~lut payload;
        charge 2 t0 w0);
    invalidate =
      (fun ~lut ->
        let w0 = Gc.minor_words () in
        let t0 = now_ns () in
        h.Interp.invalidate ~lut;
        charge 3 t0 w0);
  }

type composed = {
  cycles : int;
  steps : int;
  lookups : int;
  hits : int;
  sends : int;
  outputs : Workload.outputs;
  run_ns : int;  (* Interp.run only *)
  run_words : float;  (* minor words allocated inside Interp.run *)
  l1 : Sa_cache.stats option;
}

let machine = Axmemo_cpu.Machine.hpi

let timed_run interp (inst : Workload.instance) =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  ignore (Interp.run interp inst.Workload.entry inst.Workload.args);
  let t1 = now_ns () in
  (t1 - t0, Gc.minor_words () -. w0)

let compose ?spans ?(acc = memo_acc ()) stack cell (inst : Workload.instance) =
  let sp name f = span spans ~group:cell.id name f in
  let finish ~cycles ~lookups ~hits ~sends ~interp ~l1 (run_ns, run_words) =
    {
      cycles;
      steps = Interp.steps interp;
      lookups;
      hits;
      sends;
      outputs = inst.Workload.read_outputs ();
      run_ns;
      run_words;
      l1;
    }
  in
  match cell.config with
  | Runner.Baseline ->
      let program = inst.Workload.program in
      let hierarchy = sp "cache.create" (fun () -> Hierarchy.create Hierarchy.hpi_default) in
      let pipe =
        sp "cpu.create" (fun () -> Pipeline.create ~machine ~program ~hierarchy ())
      in
      let hooks = if stack = Bare then None else Some (Pipeline.hooks pipe) in
      let interp =
        sp "ir.compile" (fun () -> Interp.create ?hooks ~program ~mem:inst.Workload.mem ())
      in
      let t = sp "ir.run" (fun () -> timed_run interp inst) in
      finish ~cycles:(Pipeline.cycles pipe) ~lookups:0 ~hits:0 ~sends:0 ~interp
        ~l1:(Some (Sa_cache.stats (Hierarchy.l1 hierarchy)))
        t
  | Runner.Hw_memo
      { l1_bytes; l2_bytes; approximate = true; monitor; total_l2 = None; adaptive = false }
    ->
      let regions = inst.Workload.regions in
      let program, decls =
        sp "compiler.transform" (fun () ->
            ( Transform.memoize ?barrier:inst.Workload.barrier ~entry:inst.Workload.entry
                inst.Workload.program regions,
              Transform.lut_decls inst.Workload.program regions ))
      in
      let hier_cfg =
        match l2_bytes with
        | None -> Hierarchy.hpi_default
        | Some lut -> Hierarchy.carve_l2 Hierarchy.hpi_default ~lut_bytes:lut
      in
      let hierarchy = sp "cache.create" (fun () -> Hierarchy.create hier_cfg) in
      let unit =
        sp "memo.create" (fun () ->
            Memo_unit.create { Memo_unit.default_config with l1_bytes; l2_bytes; monitor } decls)
      in
      let lookup_level () =
        match Memo_unit.last_lookup_level unit with
        | Memo_unit.Hit_l1 -> `L1
        | Memo_unit.Hit_l2 -> `L2
        | Memo_unit.Hit_l3 -> `L3
        | Memo_unit.Miss -> `Miss
      in
      let pipe =
        sp "cpu.create" (fun () ->
            Pipeline.create ~machine ~lookup_level ~l2_lut_present:(l2_bytes <> None)
              ~l1_lut_ways:(Memo_unit.l1_ways unit)
              ~crc_bytes_per_cycle:Axmemo_isa.Timing.crc_bytes_per_cycle ~program ~hierarchy ())
      in
      let hooks = if stack = Bare then None else Some (Pipeline.hooks pipe) in
      let memo = if stack = Full then Some (wrap_memo acc (Memo_unit.hooks unit)) else None in
      let interp =
        sp "ir.compile" (fun () ->
            Interp.create ?memo ?hooks ~program ~mem:inst.Workload.mem ())
      in
      let t = sp "ir.run" (fun () -> timed_run interp inst) in
      let ms = Memo_unit.stats unit in
      finish ~cycles:(Pipeline.cycles pipe) ~lookups:ms.Memo_unit.lookups
        ~hits:(ms.Memo_unit.l1_hits + ms.Memo_unit.l2_hits)
        ~sends:ms.Memo_unit.sends ~interp
        ~l1:(Some (Sa_cache.stats (Hierarchy.l1 hierarchy)))
        t
  | config -> invalid_arg ("no rebuilt composition for " ^ Runner.config_label config)

(* The composition check: a rebuilt full stack must reproduce Runner.run's
   cycles, hits and outputs bit for bit. *)
let outputs_digest o =
  let b = Buffer.create 256 in
  add_outputs b o;
  Buffer.contents b

let same_as_runner (c : composed) (r : Runner.result) =
  c.cycles = r.Runner.cycles && c.hits = r.Runner.hits && c.lookups = r.Runner.lookups
  && outputs_digest c.outputs = outputs_digest r.Runner.outputs

(* ---- the layer probe ----------------------------------------------------- *)

(* Per cell, each on a fresh instance with identical inputs: Runner.run (the
   reference and the untraced cost), Runner.run_telemetry, Runner.run
   ~profile, the traced full stack, then [reps] alternating bare/pipeline
   stacks whose minimum time counts. Returns the per-layer metrics, the
   composition-check mismatches and the traced full-stack wall time. *)
type probe = { metrics : metric list; mismatches : string list; traced_s : float }

let layer_probe ?spans ~variant ~reps cells =
  let acc = memo_acc () in
  let mismatches = ref [] in
  let tot = Hashtbl.create 16 in
  let add k v = Hashtbl.replace tot k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tot k)) in
  let get k = Option.value ~default:0.0 (Hashtbl.find_opt tot k) in
  let timed f =
    let t0 = now_ns () in
    let v = f () in
    (v, float_of_int (now_ns () - t0))
  in
  let fresh c = c.make variant in
  let traced_ns = ref 0 in
  List.iter
    (fun c ->
      let reference, runner_ns = timed (fun () -> Runner.run c.config (fresh c)) in
      let instrs = float_of_int (reference.Runner.dyn_normal + reference.Runner.dyn_memo) in
      let _, telem_ns = timed (fun () -> Runner.run_telemetry c.config (fresh c)) in
      let inst = fresh c in
      let profile = Profile.create ~regions:(Runner.profile_regions inst) in
      let _, profile_ns = timed (fun () -> Runner.run ~profile c.config inst) in
      add "runner_instrs" instrs;
      add "telemetry_ns" (telem_ns -. runner_ns);
      add "profile_ns" (profile_ns -. runner_ns);
      let inst = fresh c in
      let full, full_ns =
        timed (fun () -> span spans ~group:c.id "kernels.cell" (fun () -> compose ?spans ~acc Full c inst))
      in
      traced_ns := !traced_ns + int_of_float full_ns;
      if not (same_as_runner full reference) then
        mismatches :=
          Printf.sprintf "%s/%s: rebuilt stack differs from Runner.run (cycles %d vs %d, hits %d vs %d)"
            c.kernel (Runner.config_label c.config) full.cycles reference.Runner.cycles full.hits
            reference.Runner.hits
          :: !mismatches;
      add "cycles" (float_of_int full.cycles);
      add "instructions" (float_of_int full.steps);
      add "lookups" (float_of_int full.lookups);
      add "hits" (float_of_int full.hits);
      add "sends" (float_of_int full.sends);
      (match full.l1 with
      | Some s ->
          add "l1_accesses" (float_of_int s.Sa_cache.accesses);
          add "l1_misses" (float_of_int s.Sa_cache.misses)
      | None -> ());
      let best = Array.make 2 infinity and words = Array.make 2 0.0 and steps = ref 0 in
      for _ = 1 to reps do
        List.iteri
          (fun i stack ->
            let r = compose stack c (fresh c) in
            best.(i) <- Float.min best.(i) (float_of_int r.run_ns);
            words.(i) <- r.run_words;
            steps := r.steps)
          [ Bare; Pipe ]
      done;
      add "stack_steps" (float_of_int !steps);
      add "bare_ns" best.(0);
      add "pipe_ns" best.(1);
      add "bare_words" words.(0);
      add "pipe_words" words.(1))
    cells;
  let per k base = if get base = 0.0 then 0.0 else get k /. get base in
  let clock = Lazy.force clock_read_ns in
  let calls = Array.fold_left ( + ) 0 acc.calls in
  let memo_ns = float_of_int (Array.fold_left ( + ) 0 acc.ns) -. (float_of_int calls *. clock) in
  let per_call k =
    if acc.calls.(k) = 0 then 0.0
    else (float_of_int acc.ns.(k) /. float_of_int acc.calls.(k)) -. clock
  in
  let lookups = get "lookups" in
  let per_lookup v = if lookups = 0.0 then 0.0 else v /. lookups in
  let span_ms name = match spans with Some s -> ms_of_ns (total_ns s name) | None -> 0.0 in
  let count name = match spans with Some s -> List.length (durations_ns s name) | None -> 0 in
  let per_span name = if count name = 0 then 0.0 else span_ms name /. float_of_int (count name) in
  {
    mismatches = List.rev !mismatches;
    traced_s = float_of_int !traced_ns *. 1e-9;
    metrics =
      [
        host "compiler.transform_ms" "ms" (per_span "compiler.transform");
        host "ir.compile_ms" "ms" (per_span "ir.compile");
        host "ir.bare_ns_per_instr" "ns" (per "bare_ns" "stack_steps");
        exact "ir.alloc_words_per_instr" "words" (per "bare_words" "stack_steps");
        exact "ir.instructions" "count" (get "instructions");
        host "cpu.model_ns_per_instr" "ns" ((get "pipe_ns" -. get "bare_ns") /. Float.max 1.0 (get "stack_steps"));
        exact "cpu.alloc_words_per_instr" "words"
          ((get "pipe_words" -. get "bare_words") /. Float.max 1.0 (get "stack_steps"));
        host "cpu.model_to_bare_ratio" "ratio" (per "pipe_ns" "bare_ns");
        exact "cpu.cycles" "cycles" (get "cycles");
        exact "cache.l1.accesses" "count" (get "l1_accesses");
        exact "cache.l1.miss_rate" "ratio" (per "l1_misses" "l1_accesses");
        host "memo.ns_per_lookup" "ns" (per_lookup memo_ns)
          ~note:(Printf.sprintf "self time of send/lookup/update/invalidate, %.1f ns clock read subtracted per call" clock);
        host "memo.lookup_ns" "ns" (per_call 1);
        host "memo.send_ns" "ns" (per_call 0);
        host "memo.update_ns" "ns" (per_call 2);
        exact "memo.alloc_words_per_lookup" "words" (per_lookup (Array.fold_left ( +. ) 0.0 acc.words));
        host "telemetry.overhead_ns_per_instr" "ns" (per "telemetry_ns" "runner_instrs");
        host "obs.profile_ns_per_instr" "ns" (per "profile_ns" "runner_instrs");
      ];
  }
  |> fun p ->
  (* counts the serve and cluster workloads take from their own runs *)
  ( p,
    [
      ("memo.lookups", lookups);
      ("memo.sends", get "sends");
      ("memo.hits", get "hits");
    ] )
