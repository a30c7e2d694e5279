(* Tests for the dynamic tracer and the DDDG candidate analysis. *)

module Ir = Axmemo_ir.Ir
module B = Axmemo_ir.Builder
module Memory = Axmemo_ir.Memory
module Interp = Axmemo_ir.Interp
module Trace = Axmemo_trace.Trace
module Ddg = Axmemo_ddg.Ddg
module Machine = Axmemo_cpu.Machine

let trace_of funcs entry args =
  let program = { Ir.funcs = Array.of_list funcs } in
  let trace = Trace.create ~machine:Machine.hpi ~program () in
  let t =
    Interp.create ~hooks:(Trace.hooks trace) ~program ~mem:(Memory.create ()) ()
  in
  ignore (Interp.run t entry args);
  trace

(* f(x) = (x + 1) * (x + 2): a little diamond. *)
let diamond () =
  let b = B.create ~name:"f" ~params:[ Ir.I32 ] ~rets:[ Ir.I32 ] () in
  let x = B.param b 0 in
  let a = B.addi b x (B.i32 1) in
  let c = B.addi b x (B.i32 2) in
  B.ret b [ B.muli b a c ];
  B.finish b

let test_trace_entry_count () =
  let tr = trace_of [ diamond () ] "f" [| VI 5L |] in
  Alcotest.(check int) "three vertices" 3 (Array.length (Trace.entries tr))

let test_trace_dataflow () =
  let tr = trace_of [ diamond () ] "f" [| VI 5L |] in
  let e = Trace.entries tr in
  (* entries: 0 = add, 1 = add, 2 = mul with srcs [0;1] *)
  Alcotest.(check bool) "mul consumes both adds" true
    (Array.to_list e.(2).srcs = [ 0; 1 ] || Array.to_list e.(2).srcs = [ 1; 0 ]);
  (* both adds read the parameter: same external id *)
  Alcotest.(check bool) "adds share the external param" true
    (e.(0).srcs = e.(1).srcs && Array.length e.(0).srcs = 1 && e.(0).srcs.(0) < 0)

let test_trace_static_ids_stable_across_iterations () =
  let b = B.create ~name:"loop" ~params:[] ~rets:[ Ir.I32 ] () in
  let acc = B.fresh b in
  B.mov b acc (B.i32 0);
  B.for_loop b ~from:(B.i32 0) ~below:(B.i32 5) (fun i ->
      B.mov b acc (B.addi b (B.rv acc) i));
  B.ret b [ B.rv acc ];
  let tr = trace_of [ B.finish b ] "loop" [||] in
  let inst = Trace.static_instances tr in
  (* the loop-body add executes 5 times under one static id *)
  let five = Hashtbl.fold (fun _ n acc -> if n = 5 then acc + 1 else acc) inst 0 in
  Alcotest.(check bool) "some static id repeats 5x" true (five > 0)

let test_trace_load_store_dependency () =
  let b = B.create ~name:"ls" ~params:[ Ir.I64 ] ~rets:[ Ir.I32 ] () in
  let base = B.param b 0 in
  B.store b I32 ~src:(B.addi b (B.i32 1) (B.i32 2)) ~base ~offset:0;
  B.ret b [ B.load b I32 base 0 ];
  let tr = trace_of [ B.finish b ] "ls" [| VI 128L |] in
  let e = Trace.entries tr in
  (* entries: 0 = add, 1 = store, 2 = load; load must depend on the store *)
  Alcotest.(check bool) "load sees store" true (Array.exists (fun s -> s = 1) e.(2).srcs);
  Alcotest.(check bool) "flags" true (e.(2).is_load && e.(1).is_store)

let test_trace_cross_call_renaming () =
  let callee =
    let b = B.create ~name:"g" ~pure:true ~params:[ Ir.I32 ] ~rets:[ Ir.I32 ] () in
    B.ret b [ B.addi b (B.param b 0) (B.i32 10) ];
    B.finish b
  in
  let main =
    let b = B.create ~name:"m" ~params:[] ~rets:[ Ir.I32 ] () in
    let x = B.addi b (B.i32 1) (B.i32 2) in
    match B.call b "g" ~rets:1 [ x ] with
    | [ r ] ->
        B.ret b [ B.addi b r (B.i32 0) ];
        B.finish b
    | _ -> assert false
  in
  let tr = trace_of [ main; callee ] "m" [||] in
  let e = Trace.entries tr in
  (* entries: 0 = caller add, 1 = callee add (param <- entry 0), 2 = final add *)
  Alcotest.(check int) "three entries, call is transparent" 3 (Array.length e);
  Alcotest.(check bool) "callee add reads caller value" true
    (Array.exists (fun s -> s = 0) e.(1).srcs);
  Alcotest.(check bool) "caller uses callee result" true
    (Array.exists (fun s -> s = 1) e.(2).srcs)

let test_trace_truncation () =
  let b = B.create ~name:"big" ~params:[] ~rets:[ Ir.I32 ] () in
  let acc = B.fresh b in
  B.mov b acc (B.i32 0);
  B.for_loop b ~from:(B.i32 0) ~below:(B.i32 1000) (fun i ->
      B.mov b acc (B.addi b (B.rv acc) i));
  B.ret b [ B.rv acc ];
  let program = { Ir.funcs = [| B.finish b |] } in
  let trace = Trace.create ~max_entries:50 ~machine:Machine.hpi ~program () in
  let t = Interp.create ~hooks:(Trace.hooks trace) ~program ~mem:(Memory.create ()) () in
  ignore (Interp.run t "big" [||]);
  Alcotest.(check bool) "truncated" true (Trace.truncated trace);
  Alcotest.(check int) "capped" 50 (Array.length (Trace.entries trace))

(* --- DDG --- *)

let test_consumers () =
  let tr = trace_of [ diamond () ] "f" [| VI 5L |] in
  let cons = Ddg.consumers_of (Trace.entries tr) in
  Alcotest.(check (list int)) "add0 feeds mul" [ 2 ] cons.(0);
  Alcotest.(check (list int)) "mul feeds nothing" [] cons.(2)

let test_grow_candidate_diamond () =
  let tr = trace_of [ diamond () ] "f" [| VI 5L |] in
  let entries = Trace.entries tr in
  let consumers = Ddg.consumers_of entries in
  let params = { Ddg.default_params with min_ci_ratio = 0.0 } in
  match Ddg.grow_candidate params entries ~consumers 2 with
  | None -> Alcotest.fail "expected a candidate rooted at the multiply"
  | Some c ->
      Alcotest.(check int) "whole diamond" 3 (List.length c.vertices);
      (* one external input: the shared parameter *)
      Alcotest.(check int) "single input" 1 c.n_inputs;
      (* two 1-cycle adds + one 3-cycle multiply *)
      Alcotest.(check int) "weight = adds + mul" 5 c.total_weight

let test_grow_candidate_respects_threshold () =
  let tr = trace_of [ diamond () ] "f" [| VI 5L |] in
  let entries = Trace.entries tr in
  let consumers = Ddg.consumers_of entries in
  let params = { Ddg.default_params with min_ci_ratio = 1000.0 } in
  Alcotest.(check bool) "nothing above an absurd threshold" true
    (Ddg.grow_candidate params entries ~consumers 2 = None)

let test_analysis_dedups_loop_iterations () =
  (* A loop recomputing the same expensive expression: many dynamic
     candidates, one unique signature. *)
  let b = B.create ~name:"l" ~params:[ Ir.F32 ] ~rets:[ Ir.F32 ] () in
  let acc = B.fresh b in
  B.mov b acc (B.param b 0);
  B.for_loop b ~from:(B.i32 0) ~below:(B.i32 20) (fun _ ->
      let x = B.rv acc in
      let y = B.fdiv b F32 (B.fmul b F32 x x) (B.fadd b F32 x (B.f32 3.0)) in
      B.mov b acc y);
  B.ret b [ B.rv acc ];
  let tr = trace_of [ B.finish b ] "l" [| VF 1.5 |] in
  let a = Ddg.analyze ~params:{ Ddg.default_params with min_ci_ratio = 3.0 } (Trace.entries tr) in
  Alcotest.(check bool) "many dynamic candidates" true (a.total_dynamic >= 20);
  Alcotest.(check bool) "few unique" true (List.length a.unique <= 3);
  Alcotest.(check bool) "coverage positive" true (a.coverage > 0.0 && a.coverage <= 1.0);
  Alcotest.(check bool) "ratio positive" true (a.avg_ci_ratio > 0.0)

let test_analysis_empty_trace () =
  let a = Ddg.analyze [||] in
  Alcotest.(check int) "no candidates" 0 a.total_dynamic;
  Alcotest.(check (float 0.0)) "coverage" 0.0 a.coverage

let prop_candidate_is_closed =
  (* Every candidate must have a single output: no internal vertex feeds a
     consumer outside the set. *)
  QCheck.Test.make ~name:"candidates are closed subgraphs" ~count:30
    (QCheck.int_range 2 30) (fun n ->
      let b = B.create ~name:"p" ~params:[ Ir.I32 ] ~rets:[ Ir.I32 ] () in
      let acc = B.fresh b in
      B.mov b acc (B.param b 0);
      B.for_loop b ~from:(B.i32 0) ~below:(B.i32 n) (fun i ->
          B.mov b acc (B.muli b (B.addi b (B.rv acc) i) (B.i32 3)));
      B.ret b [ B.rv acc ];
      let tr = trace_of [ B.finish b ] "p" [| VI 7L |] in
      let entries = Trace.entries tr in
      let consumers = Ddg.consumers_of entries in
      let a = Ddg.analyze ~params:{ Ddg.default_params with min_ci_ratio = 0.5 } entries in
      List.for_all
        (fun (c : Ddg.candidate) ->
          let in_s v = List.mem v c.vertices in
          List.for_all
            (fun v ->
              v = c.root
              || List.for_all (fun consumer -> in_s consumer) consumers.(v))
            c.vertices)
        a.unique)

let () =
  Alcotest.run "trace_ddg"
    [
      ( "trace",
        [
          Alcotest.test_case "entry count" `Quick test_trace_entry_count;
          Alcotest.test_case "dataflow" `Quick test_trace_dataflow;
          Alcotest.test_case "static ids" `Quick test_trace_static_ids_stable_across_iterations;
          Alcotest.test_case "load-store dep" `Quick test_trace_load_store_dependency;
          Alcotest.test_case "cross-call renaming" `Quick test_trace_cross_call_renaming;
          Alcotest.test_case "truncation" `Quick test_trace_truncation;
        ] );
      ( "ddg",
        [
          Alcotest.test_case "consumers" `Quick test_consumers;
          Alcotest.test_case "grow diamond" `Quick test_grow_candidate_diamond;
          Alcotest.test_case "threshold" `Quick test_grow_candidate_respects_threshold;
          Alcotest.test_case "loop dedup" `Quick test_analysis_dedups_loop_iterations;
          Alcotest.test_case "empty trace" `Quick test_analysis_empty_trace;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_candidate_is_closed ]);
    ]
