(* The [serve] and [cluster] workloads: Serve.run over Poisson arrivals, and
   the traced replay of each outcome's requests through a fresh engine. *)

module Serve = Axmemo_serve.Serve
module Arrival = Axmemo_serve.Arrival
module Corun = Axmemo_multicore.Corun
module Arbiter = Axmemo_multicore.Arbiter
module Shared_lut = Axmemo_multicore.Shared_lut
module Cluster = Axmemo_cluster.Cluster
module Dram_lut = Axmemo_tier.Dram_lut
module Registry = Axmemo_telemetry.Registry
module Timeline = Axmemo_watch.Timeline
module Alert = Axmemo_watch.Alert
module Schedule = Axmemo_multicore.Schedule
open Common

type which = Serve_wl | Cluster_wl

let name = function Serve_wl -> "serve" | Cluster_wl -> "cluster"
let mix = function Serve_wl -> [ "blackscholes"; "sobel" ] | Cluster_wl -> [ "kmeans"; "sobel" ]

(* [cluster] runs kmeans on its Sample inputs: an Eval kmeans request costs
   ~0.3 s of host time, and the latency tail needs a few dozen requests. *)
let variant ~tiny = function
  | Serve_wl -> if tiny then Workload.Sample else Workload.Eval
  | Cluster_wl -> Workload.Sample

(* [serve]: one node of 2 cores, loads 0.5 (idle dispatcher) and 2.0 (queue
   and shed path; the short queue makes it shed within the stream), watch
   on. [cluster]: 4 nodes of 2 cores with a DRAM L3 tier at load 0.8. *)
let configs ~tiny which =
  let variant = variant ~tiny which in
  match which with
  | Serve_wl ->
      List.map
        (fun load ->
          {
            Serve.default with
            cluster =
              {
                Corun.default with
                ncores = 2;
                partition = Shared_lut.Free_for_all;
                workloads = mix which;
                requests = (if tiny then 8 else 24);
                variant;
              };
            nodes = 1;
            arrival = Arrival.Poisson;
            load;
            queue_capacity = 4;
            watch = Some Serve.default_watch;
          })
        [ 0.5; 2.0 ]
  | Cluster_wl ->
      [
        {
          Serve.default with
          cluster =
            {
              Corun.default with
              ncores = 2;
              workloads = mix which;
              requests = (if tiny then 8 else 48);
              variant;
              l3 = Some Dram_lut.default;
            };
          nodes = 4;
          arrival = Arrival.Poisson;
          load = 0.8;
        };
      ]

(* Set-up: one instance per mix workload, whose pre-run outputs fix the
   shape every served request must reproduce. *)
let synth ?spans ~tiny which =
  let variant = variant ~tiny which in
  List.mapi
    (fun i name ->
      span spans ~group:(-1 - i) "workloads.synth" (fun () ->
          match Axmemo_workloads.Registry.find name with
          | Some (_, make) -> (name, (make variant).Workload.read_outputs ())
          | None -> invalid_arg ("unknown kernel " ^ name)))
    (mix which)

(* The timed phase: every Serve.run, plus rendering its report in memory. *)
let run_pass cfgs =
  List.map
    (fun cfg ->
      match Serve.run cfg with
      | o -> (cfg, Ok (o, String.length (Json.to_string (Serve.report [ o ]))))
      | exception e -> (cfg, Error (Printexc.to_string e)))
    cfgs

let counter_sum suffix (snaps : (string * Registry.snapshot) list) =
  List.fold_left
    (fun n (reg, snap) ->
      let is_core =
        let base = match String.rindex_opt reg '.' with Some i -> String.sub reg (i + 1) (String.length reg - i - 1) | None -> reg in
        String.starts_with ~prefix:"core" base
      in
      if not is_core then n
      else
        match List.assoc_opt suffix snap with
        | Some (Registry.Counter c) -> n + c
        | _ -> n)
    0 snaps

let evaluate ~corrupt_first ~shapes pass =
  let failures = ref [] and failed = ref 0 and attempted = ref 0 in
  let fail why =
    incr failed;
    failures := why :: !failures
  in
  let buf = Buffer.create 4096 in
  let totals = ref [] and lookups = ref 0 and hits = ref 0 and instrs = ref 0 in
  let good = ref 0 and arrived_all = ref 0 in
  List.iteri
    (fun i (cfg, r) ->
      match r with
      | Error e ->
          attempted := !attempted + cfg.Serve.cluster.Corun.requests;
          for _ = 1 to cfg.Serve.cluster.Corun.requests do
            fail (Serve.label cfg ^ ": raised " ^ e)
          done;
          Printf.bprintf buf "%d:raised\n" i
      | Ok ((o : Serve.outcome), _) ->
          attempted := !attempted + o.Serve.arrived;
          arrived_all := !arrived_all + o.Serve.arrived;
          let label = Serve.label cfg in
          (* run-level conservation laws: a breach fails every request *)
          let run_bad =
            if o.Serve.arrived <> o.Serve.served + o.Serve.shed_count then
              Some "arrived <> served + shed"
            else if o.Serve.trace_unmatched_ends <> 0 then Some "unmatched trace ends"
            else None
          in
          Printf.bprintf buf "%s|a%d|s%d|d%d|m%d|slo%d|r%h|p50%h|p99%h|g%h\n" label o.Serve.arrived
            o.Serve.served o.Serve.shed_count o.Serve.makespan_cycles o.Serve.slo_cycles
            o.Serve.rate o.Serve.total.Serve.p50 o.Serve.total.Serve.p99 o.Serve.goodput_rate;
          List.iteri
            (fun j (rq : Serve.request_record) ->
              let res = rq.Serve.result in
              let res =
                if corrupt_first && i = 0 && j = 0 then
                  { res with Common.Runner.outputs = corrupt res.Common.Runner.outputs }
                else res
              in
              Printf.bprintf buf "r%d|w%s|k%d|a%d|s%d|f%d|" rq.Serve.rid rq.Serve.workload
                rq.Serve.core rq.Serve.arrival rq.Serve.start rq.Serve.finish;
              add_result buf res;
              let why =
                match run_bad with
                | Some why -> Some why
                | None -> (
                    match res.Runner.crashed with
                    | Some e -> Some ("crashed " ^ e)
                    | None -> (
                        match List.assoc_opt rq.Serve.workload shapes with
                        | None -> Some "no reference shape"
                        | Some shape -> check_outputs ~reference:shape res.Runner.outputs))
              in
              (match why with
              | Some why -> fail (Printf.sprintf "%s r%d: %s" label rq.Serve.rid why)
              | None -> ());
              totals := float_of_int rq.Serve.total :: !totals;
              lookups := !lookups + res.Runner.lookups;
              hits := !hits + res.Runner.hits;
              instrs := !instrs + res.Runner.dyn_normal + res.Runner.dyn_memo;
              if rq.Serve.slo_ok then incr good)
            o.Serve.requests;
          (* shed requests have no outputs, but a breach still fails them *)
          if run_bad <> None then
            for _ = 1 to o.Serve.shed_count do
              fail (label ^ ": shed request in a run that broke conservation")
            done)
    pass;
  let n = List.length !totals in
  let sorted_totals = sorted !totals in
  (* the highest percentile with at least ten served requests beyond it *)
  let tail_rank = n - 11 in
  let tail, tail_note =
    if tail_rank < 0 then
      (Array.fold_left Float.max 0.0 sorted_totals, Printf.sprintf "max of %d samples (fewer than 11)" n)
    else
      ( sorted_totals.(tail_rank),
        Printf.sprintf "p%.1f, %d samples, 10 beyond it"
          (100.0 *. float_of_int (tail_rank + 1) /. float_of_int n)
          n )
  in
  {
    attempted = !attempted;
    failed = min !failed !attempted;
    failures = List.rev !failures;
    instructions = !instrs;
    digest = digest_of_buffer buf;
    sim_metrics =
      [
        exact "lut_hit_rate" "ratio" (ratio !hits !lookups)
          ~note:(Printf.sprintf "%d hits / %d lookups" !hits !lookups);
        exact "sim_latency_p50_cycles" "cycles" (median !totals)
          ~note:(Printf.sprintf "%d served requests" n);
        exact "sim_latency_tail_cycles" "cycles" tail ~note:tail_note;
        exact "goodput_rate" "ratio" (ratio !good !arrived_all)
          ~note:(Printf.sprintf "%d within SLO / %d arrived" !good !arrived_all);
      ];
  }

(* ---- traced replay -------------------------------------------------------- *)

(* Host time of one Serve.run and of the engine calls its replay made. *)
type run_times = {
  serve_ns : float;  (* the Serve.run span *)
  calib_ns : float;
  create_ns : float;
  exec_ns : float list;  (* one per served request *)
  settle_ns : float;
  flush_ns : float;
  watch_ns : float;  (* traffic probes, timeline rebuild and alert rules *)
}

(* Exact counts read from the replayed engines. *)
type engine_counts = {
  shared : int;
  contended : int;
  traffic : int * int * int;  (* remote probes, invalidations, messages *)
  tier : Dram_lut.stats;
}

let no_counts = { shared = 0; contended = 0; traffic = (0, 0, 0); tier = Dram_lut.zero_stats }

let add_tier (a : Dram_lut.stats) (b : Dram_lut.stats) =
  {
    a with
    Dram_lut.probes = a.Dram_lut.probes + b.Dram_lut.probes;
    evictions = a.Dram_lut.evictions + b.Dram_lut.evictions;
    row_activations = a.Dram_lut.row_activations + b.Dram_lut.row_activations;
    row_hits = a.Dram_lut.row_hits + b.Dram_lut.row_hits;
  }

(* What the replay needs from one Serve.run: its outcome without the large
   parts (request outputs, registries, tracer), so the replay runs on a
   heap no bigger than Serve.run's own; a retained outcome would make every
   major collection of the replay mark it. *)
type plan = {
  cfg : Serve.config;
  records : Serve.request_record list;  (* dispatch order, outputs dropped *)
  shed : Schedule.arrival list;
  makespan : int;
  watched : (string * string) option;  (* Serve.run's timeline and alerts, rendered *)
  lookups : int;
  hits : int;
  sends : int;
  windows : int;
}

let plan_of cfg (o : Serve.outcome) =
  let sum f = List.fold_left (fun n (rq : Serve.request_record) -> n + f rq.Serve.result) 0 o.Serve.requests in
  {
    cfg;
    records =
      List.map
        (fun (rq : Serve.request_record) ->
          { rq with Serve.result = { rq.Serve.result with Runner.outputs = Workload.Floats [||] } })
        o.Serve.requests;
    shed = o.Serve.shed;
    makespan = o.Serve.makespan_cycles;
    watched =
      Option.map
        (fun tl -> (Json.to_string (Timeline.to_json tl), Json.to_string (Alert.to_json o.Serve.alerts)))
        o.Serve.timeline;
    lookups = sum (fun r -> r.Runner.lookups);
    hits = sum (fun r -> r.Runner.hits);
    sends = counter_sum "memo.sends" o.Serve.snapshots;
    windows = (match o.Serve.timeline with Some tl -> Timeline.window_count tl | None -> 0);
  }

(* Serve.run's watch path rebuilt from public calls: the timeline from the
   outcome's arrivals, sheds and completions, with the engine-traffic
   deltas the replay measured around each request, then the alert rules.
   It must reproduce the outcome's timeline and alerts exactly. Returns
   the host time of the Timeline and Alert calls. *)
let rebuild_watch ?spans ~group (wc : Serve.watch_config) plan deltas mismatches =
  let records = plan.records in
  (* queue depth at each dispatch, as Serve.run samples it *)
  let depths =
    List.map
      (fun (r : Serve.request_record) ->
        List.fold_left
          (fun n (q : Serve.request_record) ->
            if q.Serve.arrival <= r.Serve.start && q.Serve.start > r.Serve.start then n + 1 else n)
          0 records)
      records
  in
  let arrivals =
    List.sort compare
      (List.map (fun (r : Serve.request_record) -> (r.Serve.rid, r.Serve.arrival, false)) records
      @ List.map (fun (a : Schedule.arrival) -> (a.Schedule.request.Schedule.rid, a.Schedule.at, true)) plan.shed)
  in
  let ncores = plan.cfg.Serve.cluster.Corun.ncores in
  let t0 = now_ns () in
  let tl =
    span spans ~group "watch.timeline" (fun () ->
        let window =
          if wc.Serve.window_cycles > 0 then wc.Serve.window_cycles else max 1 (plan.makespan / 32)
        in
        let tl = Timeline.create ~window ~nodes:plan.cfg.Serve.nodes () in
        List.iter (fun (_, at, shed) -> if shed then Timeline.shed tl ~at else Timeline.admit tl ~at) arrivals;
        List.iter
          (fun (r : Serve.request_record) ->
            let res = r.Serve.result in
            Timeline.complete tl
              {
                Timeline.at = r.Serve.finish;
                node = r.Serve.core / ncores;
                total_cycles = r.Serve.total;
                queue_wait_cycles = r.Serve.queue_wait;
                slo_ok = r.Serve.slo_ok;
                cold = r.Serve.cold;
                lookups = res.Runner.lookups;
                hits = res.Runner.hits;
                energy_pj = res.Runner.energy.Axmemo_energy.Model.total_pj;
                traffic = Option.value ~default:Timeline.traffic_zero (Hashtbl.find_opt deltas r.Serve.rid);
              })
          records;
        List.iter2 (fun (r : Serve.request_record) d -> Timeline.depth tl ~at:r.Serve.start d) records depths;
        tl)
  in
  let alerts = span spans ~group "watch.alerts" (fun () -> Alert.evaluate wc.Serve.rules tl) in
  let ns = float_of_int (now_ns () - t0) in
  if plan.watched <> Some (Json.to_string (Timeline.to_json tl), Json.to_string (Alert.to_json alerts)) then
    mismatches := (Serve.label plan.cfg ^ ": rebuilt timeline or alerts differ from Serve.run's") :: !mismatches;
  ns

(* Replays one outcome's served requests, in dispatch order, through a fresh
   engine built the way Serve.run builds it, timing every call. Each
   request must reproduce its cycles in Serve.run exactly; a difference is
   reported in [mismatches]. *)
let replay_run ?spans ~group which ~serve_ns plan mismatches =
  let cfg = plan.cfg in
  let timed name ~group f =
    let t0 = now_ns () in
    let v = span spans ~group name f in
    (v, float_of_int (now_ns () - t0))
  in
  let _, calib_ns = timed "serve.calibrate" ~group (fun () -> Serve.calibrate cfg) in
  (* With watch on, Serve.run reads the engine's traffic counters before and
     after each request; the replay does the same, timing the reads. *)
  let deltas = Hashtbl.create 64 and probe_ns = ref 0.0 in
  let exec_all ~probe exec =
    let probe rid =
      match cfg.Serve.watch with
      | None -> fun () -> ()
      | Some _ ->
          let before, ns = timed "watch.probe" ~group:(group lor rid) probe in
          probe_ns := !probe_ns +. ns;
          fun () ->
            let after, ns = timed "watch.probe" ~group:(group lor rid) probe in
            probe_ns := !probe_ns +. ns;
            Hashtbl.replace deltas rid (Timeline.traffic_sub after before)
    in
    List.map
      (fun (rq : Serve.request_record) ->
        let finish_probe = probe rq.Serve.rid in
        let res, ns =
          timed
            ~group:(group lor rq.Serve.rid)
            (match which with Serve_wl -> "multicore.exec_request" | Cluster_wl -> "cluster.exec_request")
            (fun () -> exec rq)
        in
        finish_probe ();
        if res.Runner.cycles <> rq.Serve.result.Runner.cycles then
          mismatches :=
            Printf.sprintf "%s r%d: replay %d cycles, Serve.run %d" (Serve.label cfg) rq.Serve.rid
              res.Runner.cycles rq.Serve.result.Runner.cycles
            :: !mismatches;
        ns)
      plan.records
  in
  let times create_ns exec_ns settle_ns flush_ns =
    let watch_ns =
      match cfg.Serve.watch with
      | None -> 0.0
      | Some wc -> !probe_ns +. rebuild_watch ?spans ~group wc plan deltas mismatches
    in
    { serve_ns; calib_ns; create_ns; exec_ns; settle_ns; flush_ns; watch_ns }
  in
  match which with
  | Serve_wl ->
      let cl, create_ns =
        timed "multicore.create" ~group (fun () -> Corun.create_cluster ~metrics:true cfg.Serve.cluster)
      in
      let probe () =
        let samples, bad, trips = Corun.monitor_observed cl in
        {
          Timeline.remote_probes = 0;
          inv_sent = Corun.invalidations_sent cl;
          net_messages = 0;
          quality_samples = samples;
          quality_bad = bad;
          monitor_trips = trips;
        }
      in
      let exec_ns =
        exec_all ~probe (fun rq ->
            Corun.exec_request cl ~workload:rq.Serve.workload ~core:rq.Serve.core ~start:rq.Serve.start)
      in
      let s, settle_ns = timed "multicore.settle" ~group (fun () -> Corun.settle_arbiter cl) in
      let (), flush_ns = timed "telemetry.flush" ~group (fun () -> Corun.flush_metrics cl) in
      ( times create_ns exec_ns settle_ns flush_ns,
        { no_counts with shared = s.Arbiter.accesses; contended = s.Arbiter.contended } )
  | Cluster_wl ->
      let t, create_ns =
        timed "cluster.create" ~group (fun () ->
            Cluster.create ~metrics:true
              { Cluster.default with Cluster.nodes = cfg.Serve.nodes; node = cfg.Serve.cluster })
      in
      let probe () =
        let remote_probes, inv_sent, net_messages = Cluster.watch_traffic t in
        let samples, bad, trips = Cluster.monitor_observed t in
        {
          Timeline.remote_probes;
          inv_sent;
          net_messages;
          quality_samples = samples;
          quality_bad = bad;
          monitor_trips = trips;
        }
      in
      let exec_ns =
        exec_all ~probe (fun rq ->
            Cluster.exec_request t ~workload:rq.Serve.workload ~gcore:rq.Serve.core
              ~start:rq.Serve.start)
      in
      let s, settle_ns = timed "cluster.settle" ~group (fun () -> Cluster.settle t) in
      let (), flush_ns = timed "telemetry.flush" ~group (fun () -> Cluster.flush_metrics t) in
      let tier = ref Dram_lut.zero_stats in
      for node = 0 to Cluster.nodes t - 1 do
        Option.iter
          (fun d -> tier := add_tier !tier (Dram_lut.stats d))
          (Corun.dram_lut (Cluster.node_cluster t ~node))
      done;
      ( times create_ns exec_ns settle_ns flush_ns,
        {
          shared = s.Cluster.shared_accesses;
          contended = s.Cluster.contended_accesses;
          traffic = Cluster.watch_traffic t;
          tier = !tier;
        } )

(* The traced run of a serving workload, [reps] times: each Serve.run and
   its report rendering under a span, followed at once by the replay of
   its outcome. [serve.self_ms] is what remains of a Serve.run once its
   replay's calibration, engine creation, request execution, settlement
   and flush are taken out; pairing each run with its own replay keeps
   both sides under the same host conditions. It is a difference of two
   timings, so host noise can push it below zero. The median over
   repetitions is reported; request times pool every repetition. *)
type trace = { traced_s : float; mismatches : string list; metrics : metric list }

let trace ?spans ~reps which cfgs =
  let mismatches = ref [] in
  let traced = ref [] and selfs = ref [] and runs = ref [] and counts = ref [] in
  let last = ref [] in
  for rep = 0 to reps - 1 do
    let traced_ns = ref 0.0 and self = ref 0.0 in
    counts := [];
    last :=
      List.mapi
        (fun i cfg ->
          (* one Serve.run's spans; a request's add its rid. Above every
             kernels cell id, so the layer probe's groups stay distinct. *)
          let group = ((rep + 1) lsl 24) lor (i lsl 20) in
          (* both sides of the pairing start from a collected heap *)
          Gc.full_major ();
          let t0 = now_ns () in
          let o = span spans ~group "serve.run" (fun () -> Serve.run cfg) in
          let serve_ns = float_of_int (now_ns () - t0) in
          ignore
            (span spans ~group "telemetry.report" (fun () ->
                 Json.to_string (Serve.report [ o ])));
          traced_ns := !traced_ns +. float_of_int (now_ns () - t0);
          let plan = plan_of cfg o in
          Gc.full_major ();
          let t, c = replay_run ?spans ~group which ~serve_ns plan mismatches in
          runs := t :: !runs;
          counts := c :: !counts;
          self :=
            !self +. t.serve_ns -. t.calib_ns -. t.create_ns
            -. List.fold_left ( +. ) 0.0 t.exec_ns
            -. t.settle_ns -. t.flush_ns -. t.watch_ns;
          plan)
        cfgs;
    traced := (!traced_ns *. 1e-9) :: !traced;
    selfs := !self :: !selfs
  done;
  let runs = !runs and counts = !counts in
  let mean_ms f = mean_of (List.map f runs) *. 1e-6 in
  let execs = List.concat_map (fun t -> t.exec_ns) runs in
  let q p = quantile p execs *. 1e-6 in
  let sum f = List.fold_left (fun n c -> n + f c) 0 counts in
  let shared = sum (fun c -> c.shared) and contended = sum (fun c -> c.contended) in
  let remote = sum (fun c -> let r, _, _ = c.traffic in r) in
  let inv = sum (fun c -> let _, i, _ = c.traffic in i) in
  let net = sum (fun c -> let _, _, m = c.traffic in m) in
  let tier = List.fold_left (fun a c -> add_tier a c.tier) Dram_lut.zero_stats counts in
  let unattributed = !mismatches <> [] in
  let engine = match which with Serve_wl -> "multicore" | Cluster_wl -> "cluster" in
  let reports = match spans with Some s -> durations_ns s "telemetry.report" | None -> [] in
  let total f = List.fold_left (fun n p -> n + f p) 0 !last in
  let lookups = total (fun p -> p.lookups) and hits = total (fun p -> p.hits) in
  let sends = total (fun p -> p.sends) in
  let per_run = float_of_int (max 1 (List.length cfgs)) in
  {
    traced_s = median !traced;
    mismatches = List.rev !mismatches;
    metrics =
      [
        host (engine ^ ".create_ms") "ms" (mean_ms (fun t -> t.create_ns));
        host (engine ^ ".exec_request_ms_p50") "ms" (q 0.5)
          ~note:(Printf.sprintf "%d replayed requests" (List.length execs));
        host (engine ^ ".exec_request_ms_p90") "ms" (q 0.9);
        host (engine ^ ".settle_ms") "ms" (mean_ms (fun t -> t.settle_ns));
        exact "multicore.contended_ratio" "ratio" (ratio contended shared)
          ~note:(Printf.sprintf "%d contended / %d shared accesses" contended shared);
        host "serve.calibrate_ms" "ms" (mean_ms (fun t -> t.calib_ns));
        (if unattributed then host "serve.self_ms" "ms" 0.0 ~note:"unattributed: the replay is not exact"
         else host "serve.self_ms" "ms" (median !selfs *. 1e-6 /. per_run));
        host "telemetry.flush_ms" "ms" (mean_ms (fun t -> t.flush_ns));
        host "telemetry.report_ms" "ms" (mean_of reports *. 1e-6);
        exact "memo.lookups" "count" (float_of_int lookups);
        exact "memo.sends" "count" (float_of_int sends);
        exact "memo.hit_rate" "ratio" (ratio hits lookups)
          ~note:(Printf.sprintf "%d hits / %d lookups" hits lookups);
        exact "cluster.remote_probes" "count" (float_of_int remote);
        exact "cluster.inv_sent" "count" (float_of_int inv);
        exact "cluster.net_messages" "count" (float_of_int net);
        exact "tier.probes" "count" (float_of_int tier.Dram_lut.probes);
        exact "tier.row_hit_rate" "ratio"
          (ratio tier.Dram_lut.row_hits (tier.Dram_lut.row_activations + tier.Dram_lut.row_hits))
          ~note:
            (Printf.sprintf "%d row hits / %d activations + row hits" tier.Dram_lut.row_hits
               (tier.Dram_lut.row_activations + tier.Dram_lut.row_hits));
        exact "tier.evictions" "count" (float_of_int tier.Dram_lut.evictions);
      ]
      @
      match which with
      | Serve_wl ->
          [
            host "watch.overhead_ms" "ms" (mean_ms (fun t -> t.watch_ns))
              ~note:"traffic probes + timeline rebuild + alert rules, per Serve.run";
            exact "watch.windows" "count" (float_of_int (total (fun p -> p.windows)));
          ]
      | Cluster_wl -> [ exact "watch.windows" "count" 0.0 ];
  }
