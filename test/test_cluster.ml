(* Tests for the sharded multi-node cluster: shard-routing totality and
   uniformity, 1-node warm start matching a plain co-run node, directory vs
   broadcast invalidation semantics (same final LUT contents, strictly
   fewer messages), the directory covering every resident entry,
   settlement conservation, replication hit-share monotonicity in the
   threshold, serial/parallel report byte-identity, and the config
   validators behind the CLI's flag hygiene. *)

module Cluster = Axmemo_cluster.Cluster
module Corun = Axmemo_multicore.Corun
module Snapshot = Axmemo_tier.Snapshot
module Dram_lut = Axmemo_tier.Dram_lut
module Shared_lut = Axmemo_multicore.Shared_lut
module Arbiter = Axmemo_multicore.Arbiter
module Memo_unit = Axmemo_memo.Memo_unit
module Runner = Axmemo.Runner
module Json = Axmemo_util.Json

(* --- shard routing --- *)

(* Deterministic 64-bit key stream (splitmix-style), so the uniformity
   check never depends on global RNG state. *)
let key_stream n =
  let x = ref 0x9E3779B97F4A7C15L in
  Array.init n (fun _ ->
      x := Int64.add !x 0x9E3779B97F4A7C15L;
      let z = !x in
      let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
      let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
      Int64.logxor z (Int64.shift_right_logical z 31))

let test_shard_total () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:500 ~name:"shard in range"
       (QCheck.pair QCheck.int64 (QCheck.int_range 1 8))
       (fun (key, nodes) ->
         let s = Cluster.shard_of_key ~nodes key in
         s >= 0 && s < nodes))

let test_shard_uniformity () =
  (* Random key sets spread across shards with Jain >= 0.95 — the balance
     the report's shard_balance_jain metric is expected to show. *)
  List.iter
    (fun nodes ->
      let keys = key_stream 4096 in
      let buckets = Array.make nodes 0 in
      Array.iter
        (fun k ->
          let s = Cluster.shard_of_key ~nodes k in
          buckets.(s) <- buckets.(s) + 1)
        keys;
      let j =
        Axmemo_multicore.Schedule.jain_fairness (Array.map float_of_int buckets)
      in
      if j < 0.95 then
        Alcotest.failf "nodes=%d: shard Jain %.4f < 0.95" nodes j)
    [ 2; 3; 4; 8 ]

let test_shard_independent_of_low_bits () =
  (* Set-index bits (the low ones) must not move an entry's home. *)
  let k = 0x12345678L in
  let nodes = 4 in
  let home = Cluster.shard_of_key ~nodes k in
  for low = 0 to 255 do
    let k' = Int64.logor (Int64.logand k (Int64.lognot 0xFFL)) (Int64.of_int low) in
    Alcotest.(check int) "home stable under low bits" home
      (Cluster.shard_of_key ~nodes k')
  done

let test_ring_hops () =
  Alcotest.(check int) "adjacent" 1 (Cluster.ring_hops ~nodes:4 0 1);
  Alcotest.(check int) "wrap" 1 (Cluster.ring_hops ~nodes:4 0 3);
  Alcotest.(check int) "across" 2 (Cluster.ring_hops ~nodes:4 0 2);
  Alcotest.(check int) "self" 0 (Cluster.ring_hops ~nodes:4 2 2)

(* --- 1-node cluster = co-run warm start --- *)

let test_single_node_identity () =
  (* Warm start, the path a 1-node serve run takes: one node-0 capture of
     a closed-stream warm-up (small LUTs, so every level down to the DRAM
     tier holds entries) restored into a fresh Corun node and into a fresh
     1-node cluster must land the same entries in the same recency order. *)
  let warm =
    {
      Corun.default with
      ncores = 2;
      workloads = [ "blackscholes"; "sobel" ];
      requests = 6;
      l1_bytes = 1024;
      shared_l2_bytes = 4096;
      l3 = Some { Axmemo_tier.Dram_lut.default with size_bytes = 256 * 1024; row_bytes = 1024 };
    }
  in
  let o, warmed = Cluster.run_keep (Cluster.of_node warm) in
  Alcotest.(check int) "no net traffic" 0 o.Cluster.stats.net_messages;
  let snap = Corun.capture_snapshot (Cluster.node_cluster warmed ~node:0) in
  Alcotest.(check bool) "snapshot reaches the tier" true
    (match Snapshot.section snap "l3" with
    | Some s -> Array.length s.Snapshot.entries > 0
    | None -> false);
  let corun = Corun.create_cluster warm in
  let one = Cluster.create (Cluster.of_node warm) in
  let restored, _, _ = Corun.restore_snapshot_stats corun snap in
  Alcotest.(check bool) "entries restored" true (restored > 0);
  Alcotest.(check int) "restored count" restored (Cluster.restore_snapshot one snap);
  let unprefixed (s : Snapshot.section) =
    let n = s.Snapshot.name in
    if String.starts_with ~prefix:"n0." n then
      { s with Snapshot.name = String.sub n 3 (String.length n - 3) }
    else Alcotest.failf "section %S lacks the n0. prefix" n
  in
  Alcotest.(check string) "re-captured sections"
    (Snapshot.to_bytes (Corun.capture_snapshot corun))
    (Snapshot.to_bytes
       {
         Snapshot.sections =
           List.map unprefixed (Cluster.capture_snapshot one).Snapshot.sections;
       })

(* --- directory vs broadcast --- *)

let kmeans_cluster ~directory =
  {
    Cluster.default with
    nodes = 2;
    directory;
    node =
      { Corun.default with ncores = 2; workloads = [ "kmeans"; "sobel" ]; requests = 4 };
  }

let strip_wall (o : Cluster.outcome) =
  List.map
    (fun (r : Cluster.request_run) ->
      (r.Cluster.rid, r.Cluster.gcore, r.Cluster.start, r.Cluster.finish,
       { r.Cluster.result with Runner.sim_wall_seconds = 0.0 }))
    o.Cluster.requests

let test_directory_equals_broadcast () =
  (* kmeans retires mid-program invalidates; the directory must reach the
     same final LUT contents and the same execution as broadcast mode while
     never sending more node messages — and strictly fewer invalidations
     than the flat per-core broadcast fan-out (the measured
     corun.invalidate.* baseline it has to beat). *)
  let od, td = Cluster.run_keep (kmeans_cluster ~directory:true) in
  let ob, tb = Cluster.run_keep (kmeans_cluster ~directory:false) in
  Alcotest.(check string) "final LUT contents"
    (Snapshot.to_bytes (Cluster.capture_snapshot tb))
    (Snapshot.to_bytes (Cluster.capture_snapshot td));
  Alcotest.(check bool) "same execution" true (strip_wall od = strip_wall ob);
  let sd = od.Cluster.stats and sb = ob.Cluster.stats in
  Alcotest.(check int) "same events" sb.Cluster.inv_events sd.Cluster.inv_events;
  Alcotest.(check bool) "invalidates happened" true (sd.Cluster.inv_events > 0);
  (* Broadcast mode messages every other node per event. *)
  Alcotest.(check int) "broadcast sends everything"
    (sb.Cluster.inv_events * 1)
    sb.Cluster.inv_sent;
  Alcotest.(check bool) "directory never sends more" true
    (sd.Cluster.inv_sent <= sb.Cluster.inv_sent);
  Alcotest.(check int) "sent + filtered = node fan-out"
    (sd.Cluster.inv_events * 1)
    (sd.Cluster.inv_sent + sd.Cluster.inv_filtered);
  Alcotest.(check bool) "strictly beats flat core broadcast" true
    (sd.Cluster.inv_sent < od.Cluster.inv_broadcast_equivalent);
  Alcotest.(check int) "flat fan-out" (sd.Cluster.inv_events * 3)
    od.Cluster.inv_broadcast_equivalent

(* --- directory covers residency --- *)

(* 2 nodes x 2 cores with small SRAM LUTs, a DRAM tier and replication on
   every remote hit: kmeans' mid-request phase-barrier invalidate lands
   while replica tier copies are still queued for the end-of-request
   flush. *)
let replicated_tier_cluster =
  {
    Cluster.default with
    nodes = 2;
    replicate_threshold = 1;
    node =
      {
        Corun.default with
        ncores = 2;
        workloads = [ "kmeans"; "sobel" ];
        requests = 8;
        l1_bytes = 1024;
        shared_l2_bytes = 4096;
        l3 = Some { Dram_lut.default with size_bytes = 256 * 1024; row_bytes = 1024 };
      };
  }

(* Directory sharer masks must cover real residency: every valid entry in
   a node's L1s, shared level and DRAM tier has that node's bit set in its
   LUT's mask, or a later invalidate would skip a node holding the LUT. *)
let check_directory_covers t =
  for j = 0 to Cluster.nodes t - 1 do
    let nd = Cluster.node_cluster t ~node:j in
    let structures =
      List.init (Cluster.cores_per_node t) (fun c ->
          Memo_unit.lut_entries (Corun.core_unit nd ~core:c))
      @ [ Shared_lut.entries (Corun.shared_lut nd) ]
      @ Option.to_list (Option.map Dram_lut.entries (Corun.dram_lut nd))
    in
    let outside =
      List.fold_left
        (fun acc entries ->
          acc
          + List.length
              (List.filter
                 (fun (lut, _, _) -> Cluster.sharers t ~lut land (1 lsl j) = 0)
                 entries))
        0 structures
    in
    Alcotest.(check int) (Printf.sprintf "node %d entries outside the directory" j) 0 outside
  done

let test_directory_covers_residency () =
  List.iter
    (fun cfg -> check_directory_covers (snd (Cluster.run_keep cfg)))
    [ replicated_tier_cluster; kmeans_cluster ~directory:true ]

(* --- settlement conservation --- *)

let test_settlement_conservation () =
  (* Every settled access and stall is accounted exactly once: per-node
     bank figures sum to the cluster settlement, and each core's finish
     time is its busy time plus every settled addition. *)
  let o, t = Cluster.run_keep replicated_tier_cluster in
  Alcotest.(check bool) "replicas installed" true (o.Cluster.stats.replica_installs > 0);
  (* Settlement is a pure function of the recorded logs (no profile
     collectors are attached here), so settling again reproduces the run's. *)
  let s = Cluster.settle t in
  let sum f = Array.fold_left (fun a n -> a + f n) 0 o.Cluster.per_node in
  Alcotest.(check int) "shared accesses"
    s.Cluster.shared_accesses (sum (fun n -> n.Cluster.bank_accesses));
  Alcotest.(check int) "contended accesses"
    s.Cluster.contended_accesses
    (sum (fun n -> n.Cluster.bank_contended) + o.Cluster.net.Arbiter.contended);
  Array.iter
    (fun (c : Cluster.core_summary) ->
      Alcotest.(check int)
        (Printf.sprintf "g%d finish" c.Cluster.gcore)
        c.Cluster.finish_cycles
        (c.busy_cycles + c.bank_stall_cycles + c.net_stall_cycles + c.net_latency_cycles))
    o.Cluster.cores

(* --- replication --- *)

let rep_cluster threshold =
  {
    Cluster.default with
    nodes = 2;
    replicate_threshold = threshold;
    node =
      { Corun.default with ncores = 2; workloads = [ "blackscholes"; "sobel" ]; requests = 8 };
  }

let test_replication_monotone () =
  (* A lower install threshold can only convert more remote hits into
     replica hits: the hit share is monotone non-increasing in the
     threshold, and a threshold no remote entry ever reaches yields no
     replicas at all. *)
  let o1 = Cluster.run (rep_cluster 1) in
  let o4 = Cluster.run (rep_cluster 4) in
  let off = Cluster.run (rep_cluster 0) in
  Alcotest.(check bool) "replicas installed at t=1" true
    (o1.Cluster.stats.replica_installs > 0);
  Alcotest.(check bool) "replica hits at t=1" true (o1.Cluster.stats.replica_hits > 0);
  Alcotest.(check bool) "share monotone" true
    (o1.Cluster.replication_hit_share >= o4.Cluster.replication_hit_share);
  Alcotest.(check int) "off = no installs" 0 off.Cluster.stats.replica_installs;
  Alcotest.(check (float 0.0)) "off = zero share" 0.0 off.Cluster.replication_hit_share;
  Alcotest.(check bool) "share bounded" true
    (o1.Cluster.replication_hit_share >= 0.0 && o1.Cluster.replication_hit_share <= 1.0)

(* --- serial vs parallel byte-identity --- *)

let test_matrix_jobs_byte_identical () =
  let cfgs =
    [
      {
        Cluster.default with
        nodes = 2;
        node = { Corun.default with ncores = 2; workloads = [ "blackscholes"; "sobel" ]; requests = 6 };
      };
      {
        Cluster.default with
        nodes = 4;
        replicate_threshold = 2;
        node = { Corun.default with ncores = 1; workloads = [ "kmeans"; "sobel" ]; requests = 4 };
      };
    ]
  in
  let render jobs =
    Json.to_string ~indent:2 (Cluster.report (Cluster.run_matrix ~jobs cfgs))
  in
  Alcotest.(check string) "jobs=1 == jobs=4" (render 1) (render 4)

(* --- scale-out sanity --- *)

let test_scale_out_throughput () =
  (* Fixed total work over growing node counts: 2 nodes must beat 1 node
     on the shard-friendly mix — the cluster-smoke gate in miniature. *)
  let cell nodes =
    Cluster.run
      {
        Cluster.default with
        nodes;
        node =
          { Corun.default with ncores = 2; workloads = [ "blackscholes"; "sobel" ]; requests = 8 };
      }
  in
  let o1 = cell 1 and o2 = cell 2 in
  Alcotest.(check bool) "2 nodes beat 1" true
    (o2.Cluster.throughput_rps > o1.Cluster.throughput_rps);
  Alcotest.(check bool) "balanced shards" true (o2.Cluster.shard_balance >= 0.9)

(* --- config validation (CLI flag hygiene backs onto these) --- *)

let test_validate_rejects () =
  let rejects cfg =
    try
      Cluster.validate cfg;
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "0 nodes" true (rejects { Cluster.default with nodes = 0 });
  Alcotest.(check bool) "63 nodes" true (rejects { Cluster.default with nodes = 63 });
  Alcotest.(check bool) "negative threshold" true
    (rejects { Cluster.default with replicate_threshold = -1 });
  Alcotest.(check bool) "0-cycle messages" true
    (rejects { Cluster.default with net_msg_cycles = 0 });
  Alcotest.(check bool) "0 ports" true (rejects { Cluster.default with net_ports = 0 });
  Alcotest.(check bool) "negative hop energy" true
    (rejects { Cluster.default with net_hop_pj = -1.0 });
  Alcotest.(check bool) "nan hop energy" true
    (rejects { Cluster.default with net_hop_pj = Float.nan });
  Cluster.validate Cluster.default

let () =
  Alcotest.run "cluster"
    [
      ( "sharding",
        [
          Alcotest.test_case "total" `Quick test_shard_total;
          Alcotest.test_case "uniform" `Quick test_shard_uniformity;
          Alcotest.test_case "low bits" `Quick test_shard_independent_of_low_bits;
          Alcotest.test_case "ring hops" `Quick test_ring_hops;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "1-node = corun" `Quick test_single_node_identity;
          Alcotest.test_case "directory = broadcast" `Quick test_directory_equals_broadcast;
          Alcotest.test_case "directory covers residency" `Quick
            test_directory_covers_residency;
          Alcotest.test_case "settlement conservation" `Quick test_settlement_conservation;
          Alcotest.test_case "replication monotone" `Quick test_replication_monotone;
          Alcotest.test_case "jobs byte-identical" `Quick test_matrix_jobs_byte_identical;
          Alcotest.test_case "scale-out" `Quick test_scale_out_throughput;
        ] );
      ( "validation",
        [ Alcotest.test_case "rejects" `Quick test_validate_rejects ] );
    ]
