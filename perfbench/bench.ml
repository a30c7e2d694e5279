(* The repository benchmark.

     bench.exe --workload kernels|serve|cluster --seed N --seconds S --trace 0|1

   One process, one domain, a closed batch: each iteration synthesises the
   workload's inputs (set-up), runs its timed phase, then checks every
   unit's outputs and digests every simulated statistic. Iterations repeat
   until [--seconds] have been spent (at least three); times are medians.
   With [--trace 1] a separate traced run follows and reports per-layer
   metrics instead of end-to-end ones. The last stdout line is one JSON
   object; the exit code is nonzero when any check failed. *)

open Common

let process_start = now_ns ()

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;  (* Sample inputs, short streams, one iteration: the self-check *)
  corrupt : bool;  (* overwrite one output with NaN before checking *)
  out_dir : string;
}

let usage =
  "usage: bench.exe --workload kernels|serve|cluster --seed N --seconds S --trace 0|1 \
   [--size full|tiny] [--corrupt-output] [--out DIR]"

let die msg =
  prerr_endline ("bench: " ^ msg);
  prerr_endline usage;
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let tiny = ref false and corrupt = ref false and out_dir = ref ".bench_build/perfbench" in
  let int_of name v = match int_of_string_opt v with Some n -> n | None -> die (name ^ ": not an integer: " ^ v) in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := Some v;
        go rest
    | "--seed" :: v :: rest ->
        seed := Some (int_of "--seed" v);
        go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when Float.is_finite s && s >= 0.0 -> seconds := Some s
        | _ -> die ("--seconds: not a non-negative number: " ^ v));
        go rest
    | "--trace" :: v :: rest ->
        (match v with
        | "0" -> trace := Some false
        | "1" -> trace := Some true
        | _ -> die ("--trace: expected 0 or 1, got " ^ v));
        go rest
    | "--size" :: v :: rest ->
        (match v with
        | "full" -> tiny := false
        | "tiny" -> tiny := true
        | _ -> die ("--size: expected full or tiny, got " ^ v));
        go rest
    | "--corrupt-output" :: rest ->
        corrupt := true;
        go rest
    | "--out" :: v :: rest ->
        out_dir := v;
        go rest
    | a :: _ -> die ("unexpected argument " ^ a)
  in
  go (List.tl (Array.to_list Sys.argv));
  let need name = function Some v -> v | None -> die ("missing " ^ name) in
  let workload = need "--workload" !workload in
  if not (List.mem workload [ "kernels"; "serve"; "cluster" ]) then die ("unknown workload " ^ workload);
  {
    workload;
    seed = need "--seed" !seed;
    seconds = need "--seconds" !seconds;
    trace = need "--trace" !trace;
    tiny = !tiny;
    corrupt = !corrupt;
    out_dir = !out_dir;
  }

(* ---- iterations ------------------------------------------------------------ *)

type iteration = {
  setup_s : float;
  run_s : float;
  eval : evaluation;
  minor_words : float;
  major_collections : int;
  top_heap_words : int;
}

(* Runs set-up + timed phase + checks; only the timed phase counts in run_s. *)
let iterate ~setup ~run ~check =
  let t0 = now_ns () in
  let prepared = setup () in
  let setup_s = secs_since t0 in
  let w0 = Gc.minor_words () and g0 = (Gc.quick_stat ()).Gc.major_collections in
  let t1 = now_ns () in
  let pass = run prepared in
  let run_s = secs_since t1 in
  let minor_words = Gc.minor_words () -. w0 in
  let gc = Gc.quick_stat () in
  {
    setup_s;
    run_s;
    eval = check prepared pass;
    minor_words;
    major_collections = gc.Gc.major_collections - g0;
    top_heap_words = gc.Gc.top_heap_words;
  }

(* Set-up alone is cheap and noisy, so besides the one per iteration it is
   repeated first until [setup_instances] instances have been synthesised,
   at least [min_setups] times (a [serve] or [cluster] set-up synthesises
   two instances in a few ms, and one sample swings by half). The count is
   fixed, not timed, so the heap the first pass starts from does not depend
   on host speed. The first of those set-ups also carries the one-time
   process initialisation. setup_s is the median of all of them. *)
let min_setups = 6
let setup_instances = 200

(* Iterations repeat until [args.seconds] have passed, at least three
   (one at the tiny size). Returns every set-up time and every iteration. *)
let loop ~args ~instances ~setup ~run ~check =
  let min_iters = if args.tiny then 1 else 3 in
  let extra =
    List.init
      (if args.tiny then 1 else max min_setups ((setup_instances + instances - 1) / instances))
      (fun i ->
        let t0 = if i = 0 then process_start else now_ns () in
        ignore (Sys.opaque_identity (setup ()));
        secs_since t0)
  in
  let start = now_ns () in
  let rec go i acc =
    if i >= min_iters && secs_since start >= args.seconds then List.rev acc
    else go (i + 1) (iterate ~setup ~run ~check:(check ~corrupt_first:(args.corrupt && i = 0)) :: acc)
  in
  let its = go 0 [] in
  (extra @ List.map (fun it -> it.setup_s) its, its)

(* ---- output --------------------------------------------------------------- *)

let fmt_value v = Printf.sprintf "%.17g" v

let print_metric ~workload (m : metric) =
  Printf.printf "metric %-8s %-34s %-22s %-9s %-6s%s\n" workload m.name (fmt_value m.value) m.unit_
    (match m.kind with Host -> "host" | Exact -> "exact")
    (if m.note = "" then "" else "# " ^ m.note)

let result_json ~correct ~attempted ~failed metrics =
  let finite v = if Float.is_finite v then v else 0.0 in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun m ->
                  (m.name, Json.Obj [ ("value", Json.Float (finite m.value)); ("unit", Json.Str m.unit_) ]))
                metrics) );
       ])

let write_spans args spans =
  let rec mkdir_p d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdir_p args.out_dir;
  let path =
    Filename.concat args.out_dir (Printf.sprintf "spans-%s-seed%d.json" args.workload args.seed)
  in
  Json.write_file path
    (Json.Obj
       [
         ("workload", Json.Str args.workload);
         ("seed", Json.Int args.seed);
         ("spans", spans_json spans);
       ]);
  path

let print_self_times spans =
  let tbl = self_ns spans in
  let rows = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  List.iter
    (fun (name, ns) ->
      Printf.printf "self   %-34s %12.3f ms  (%d spans)\n" name (ms_of_ns ns)
        (List.length (durations_ns spans name)))
    rows

(* ---- traced run ------------------------------------------------------------ *)

type traced = {
  traced_s : float;  (* run_s of the traced run *)
  mismatches : string list;  (* composition-check failures *)
  instances : int;  (* synthesised per set-up, for workloads.synth_ms *)
  layer : metric list;
}

(* A layer the workload bypasses still gets a real per-call time: it is
   measured on a tiny run of a serving workload that exercises it, and the
   note says so. Exact counts of a bypassed layer are this workload's own:
   zero. The probe's composition checks count like the workload's own. *)
let bypass_probes ~own ws =
  let have = Hashtbl.create 64 in
  List.iter (fun m -> Hashtbl.replace have m.name ()) own;
  let probes =
    List.map (fun w -> (w, Serving.trace ~spans:(spans_create ()) ~reps:1 w (Serving.configs ~tiny:true w))) ws
  in
  let metrics =
    List.concat_map
      (fun (w, (t : Serving.trace)) ->
        List.filter_map
          (fun m ->
            if Hashtbl.mem have m.name then None
            else begin
              Hashtbl.replace have m.name ();
              match m.kind with
              | Host -> Some { m with note = Printf.sprintf "bypassed; measured on the tiny %s probe" (Serving.name w) }
              | Exact -> Some { m with value = 0.0; note = "bypassed" }
            end)
          t.Serving.metrics)
      probes
  in
  (metrics, List.concat_map (fun (_, (t : Serving.trace)) -> t.Serving.mismatches) probes)

let trace_kernels ~args ~variant spans =
  let cells = Kernels.cells_of Kernels.all in
  ignore (Kernels.synth ~spans variant cells);
  let p, counts = Kernels.layer_probe ~spans ~variant ~reps:(if args.tiny then 1 else 2) cells in
  let lookups = List.assoc "memo.lookups" counts and hits = List.assoc "memo.hits" counts in
  let own =
    p.Kernels.metrics
    @ [
        exact "memo.lookups" "count" lookups;
        exact "memo.sends" "count" (List.assoc "memo.sends" counts);
        exact "memo.hit_rate" "ratio" (if lookups = 0.0 then 0.0 else hits /. lookups)
          ~note:(Printf.sprintf "%.0f hits / %.0f lookups" hits lookups);
      ]
  in
  let probed, probe_mismatches = bypass_probes ~own [ Serving.Serve_wl; Serving.Cluster_wl ] in
  {
    traced_s = p.Kernels.traced_s;
    mismatches = p.Kernels.mismatches @ probe_mismatches;
    instances = List.length cells;
    layer = own @ probed;
  }

let trace_serving ~args w spans =
  let reps = if args.tiny then 1 else 3 in
  ignore (Serving.synth ~spans ~tiny:args.tiny w);
  let t = Serving.trace ~spans ~reps w (Serving.configs ~tiny:args.tiny w) in
  let cells = Kernels.cells_of (Serving.mix w) in
  let p, _ =
    Kernels.layer_probe ~spans ~variant:(Serving.variant ~tiny:args.tiny w) ~reps:(min reps 2) cells
  in
  let own = p.Kernels.metrics @ t.Serving.metrics in
  let other = match w with Serving.Serve_wl -> Serving.Cluster_wl | Serving.Cluster_wl -> Serving.Serve_wl in
  let probed, probe_mismatches = bypass_probes ~own [ other ] in
  {
    traced_s = t.Serving.traced_s;
    mismatches = t.Serving.mismatches @ p.Kernels.mismatches @ probe_mismatches;
    instances = List.length (Serving.mix w);
    layer = own @ probed;
  }

let main () =
  let args = parse_args () in
  Axmemo_util.Rng.set_root_seed (Int64.of_int args.seed);
  let variant = if args.tiny then Workload.Sample else Workload.Eval in
  let serving =
    match args.workload with
    | "serve" -> Some Serving.Serve_wl
    | "cluster" -> Some Serving.Cluster_wl
    | _ -> None
  in
  (* -- untraced iterations: the end-to-end metrics -- *)
  let setups, its, trace =
    match serving with
    | None ->
        let cells = Kernels.cells_of Kernels.all in
        let setups, its =
          loop ~args ~instances:(List.length cells)
            ~setup:(fun () -> Kernels.synth variant cells)
            ~run:Kernels.run_cells
            ~check:(fun ~corrupt_first _ pass -> Kernels.evaluate ~corrupt_first pass)
        in
        (setups, its, trace_kernels ~args ~variant)
    | Some w ->
        let cfgs = Serving.configs ~tiny:args.tiny w in
        let setups, its =
          loop ~args ~instances:(List.length (Serving.mix w))
            ~setup:(fun () -> Serving.synth ~tiny:args.tiny w)
            ~run:(fun _ -> Serving.run_pass cfgs)
            ~check:(fun ~corrupt_first shapes pass -> Serving.evaluate ~corrupt_first ~shapes pass)
        in
        (setups, its, trace_serving ~args w)
  in
  (* -- determinism and totals -- *)
  let first = List.hd its in
  let drift = List.exists (fun it -> it.eval.digest <> first.eval.digest) its in
  let attempted = List.fold_left (fun n it -> n + it.eval.attempted) 0 its in
  let failed =
    List.fold_left
      (fun n it -> n + if it.eval.digest <> first.eval.digest then it.eval.attempted else it.eval.failed)
      0 its
  in
  List.iter (fun it -> List.iteri (fun i f -> if i < 5 then prerr_endline ("check failed: " ^ f)) it.eval.failures) its;
  if drift then prerr_endline "check failed: simulated digests differ between iterations of one seed";
  let run_s = median (List.map (fun it -> it.run_s) its) in
  let setup_s = median setups in
  let instructions = first.eval.instructions in
  (* The peak is read when the first pass ends, so it does not depend on how
     many passes the host's speed fits into --seconds. *)
  let heap_mb = float_of_int (first.top_heap_words * (Sys.word_size / 8)) /. 1e6 in
  let setup = host "setup_s" "s" setup_s ~note:(Printf.sprintf "median of %d set-ups" (List.length setups)) in
  let run = host "run_s" "s" run_s ~note:(Printf.sprintf "median of %d iterations" (List.length its)) in
  let heap = host "heap_peak_mb" "MB" heap_mb ~note:"top of the major heap after the first pass" in
  let minstr =
    host "minstr_per_s" "Minstr/s" (float_of_int instructions /. run_s /. 1e6)
      ~note:(Printf.sprintf "%d simulated instructions per iteration" instructions)
  in
  let error_rate =
    exact "error_rate" "ratio" (ratio failed attempted)
      ~note:(Printf.sprintf "%d failed / %d attempted" failed attempted)
  in
  let applicable = List.map (fun m -> m.name) first.eval.sim_metrics in
  Printf.printf "workload %s seed %d iterations %d size %s\n" args.workload args.seed (List.length its)
    (if args.tiny then "tiny" else "full");
  Printf.printf "iterations run_s %s\n"
    (String.concat " " (List.map (fun it -> Printf.sprintf "%.4f" it.run_s) its));
  Printf.printf "set-ups %d, first (with process start) %.6f s, quartiles %.6f %.6f %.6f s\n" (List.length setups)
    (List.hd setups) (quantile 0.25 setups) (median setups) (quantile 0.75 setups);
  List.iter (print_metric ~workload:args.workload) ([ setup; run; minstr; heap; error_rate ] @ first.eval.sim_metrics);
  List.iter
    (fun (n, where) ->
      if not (List.mem n applicable) then Printf.printf "metric %-8s %-34s n/a (%s only)\n" args.workload n where)
    [
      ("sim_speedup_mean", "kernels");
      ("sim_energy_saving_mean", "kernels");
      ("quality_loss_max", "kernels");
      ("sim_latency_p50_cycles", "serve, cluster");
      ("sim_latency_tail_cycles", "serve, cluster");
      ("goodput_rate", "serve, cluster");
    ];
  Printf.printf "digest %s %s\n" args.workload first.eval.digest;
  let lut = List.find (fun m -> m.name = "lut_hit_rate") first.eval.sim_metrics in
  let correct = ref (failed = 0 && not drift) in
  (* The result line carries BENCHMARK.json's end-to-end metrics, the ones
     steady across runs and seeds. run_s and minstr_per_s are only printed:
     host speed drifts by more than the largest allowed bound between runs
     (metrics.json gives the figures). *)
  let metrics =
    if not args.trace then [ setup; heap; lut ]
    else begin
      let spans = spans_create () in
      let t = trace spans in
      List.iter (fun m -> prerr_endline ("composition check failed: " ^ m)) t.mismatches;
      if t.mismatches <> [] then correct := false;
      let per_instr v = v /. float_of_int (max 1 instructions) in
      let layer =
        [ host "workloads.synth_ms" "ms" (setup_s *. 1e3 /. float_of_int t.instances) ]
        @ t.layer
        @ [
            exact "gc.minor_words_per_instr" "words"
              (per_instr (median (List.map (fun it -> it.minor_words) its)));
            exact "gc.major_collections" "count"
              (median (List.map (fun it -> float_of_int it.major_collections) its));
            host "trace.run_s" "s" t.traced_s;
            host "trace.overhead_s" "s" (t.traced_s -. run_s)
              ~note:(Printf.sprintf "traced run_s %.4f - untraced run_s %.4f" t.traced_s run_s);
          ]
      in
      List.iter (print_metric ~workload:args.workload) layer;
      print_self_times spans;
      Printf.printf "spans %s\n" (write_spans args spans);
      layer
    end
  in
  print_endline (result_json ~correct:!correct ~attempted ~failed metrics);
  exit (if !correct then 0 else 1)

let () = main ()
