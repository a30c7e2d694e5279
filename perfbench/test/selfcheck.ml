(* Self-check of the benchmark command, at a tiny size:

   - every workload, untraced and traced, exits 0 with a correct result
     whose metrics are exactly BENCHMARK.json's end-to-end (untraced) or
     per-layer (traced) names, each finite and carrying its declared unit;
   - two runs of one seed print the same simulated digest;
   - a deliberately corrupted output makes every workload exit nonzero;
   - metrics.json describes exactly the metrics BENCHMARK.json names, with
     the same units and directions.

   usage: selfcheck.exe BENCH_EXE METRICS_JSON BENCHMARK_JSON *)

module Json = Axmemo_util.Json

let failures = ref 0

let check cond what =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let read_json path =
  match Json.read_file path with Ok j -> j | Error e -> failwith (path ^ ": " ^ e)

let member k j = match Json.member k j with Some v -> v | None -> failwith ("missing " ^ k)
let str = function Json.Str s -> s | _ -> failwith "expected a string"
let arr = function Json.Arr l -> l | _ -> failwith "expected an array"

let named_units j key =
  List.map (fun m -> (str (member "name" m), (str (member "unit" m), str (member "better" m)))) (arr (member key j))

(* Runs the benchmark, returning its exit code and stdout lines. *)
let run exe args =
  let out_r, out_w = Unix.pipe () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin out_w devnull
  in
  Unix.close out_w;
  Unix.close devnull;
  let ic = Unix.in_channel_of_descr out_r in
  let rec lines acc = match input_line ic with l -> lines (l :: acc) | exception End_of_file -> List.rev acc in
  let out = lines [] in
  close_in ic;
  let code = match Unix.waitpid [] pid with _, Unix.WEXITED c -> c | _ -> -1 in
  (code, out)

let last l = List.nth l (List.length l - 1)

let digest_line out = List.find_opt (String.starts_with ~prefix:"digest ") out

let () =
  let exe, metrics_path, bench_path =
    match Sys.argv with
    | [| _; e; m; b |] -> (e, m, b)
    | _ -> failwith "usage: selfcheck.exe BENCH_EXE METRICS_JSON BENCHMARK_JSON"
  in
  let bench = read_json bench_path and spec = read_json metrics_path in
  let e2e = named_units bench "end_to_end" and layer = named_units bench "per_layer" in
  check (named_units spec "end_to_end" = e2e) "metrics.json end_to_end matches BENCHMARK.json";
  check (named_units spec "per_layer" = layer) "metrics.json per_layer matches BENCHMARK.json";
  let workloads = List.map (fun w -> str (member "name" w)) (arr (member "workloads" bench)) in
  let base w = [ "--workload"; w; "--seed"; "3"; "--seconds"; "0"; "--size"; "tiny"; "--out"; "spans" ] in
  List.iter
    (fun w ->
      let untraced = ref [] in
      List.iter
        (fun (trace, expected) ->
          let what = Printf.sprintf "%s --trace %s" w trace in
          let code, out = run exe (base w @ [ "--trace"; trace ]) in
          if trace = "0" then untraced := out;
          check (code = 0) (what ^ ": exit 0");
          match Json.parse (last out) with
          | Error e -> check false (what ^ ": result line parses: " ^ e)
          | Ok r ->
              check (member "correct" r = Json.Bool true) (what ^ ": correct");
              check (member "failed" r = Json.Int 0) (what ^ ": no failed unit");
              check
                (match member "attempted" r with Json.Int n -> n >= 1 | _ -> false)
                (what ^ ": attempted >= 1");
              let got = match member "metrics" r with Json.Obj l -> l | _ -> [] in
              check
                (List.sort compare (List.map fst got) = List.sort compare (List.map fst expected))
                (what ^ ": metric names are exactly BENCHMARK.json's");
              List.iter
                (fun (name, (unit_, _)) ->
                  match List.assoc_opt name got with
                  | None -> check false (Printf.sprintf "%s: %s emitted" what name)
                  | Some m ->
                      let v =
                        match Json.member "value" m with
                        | Some (Json.Float f) -> Some f
                        | Some (Json.Int i) -> Some (float_of_int i)
                        | _ -> None
                      in
                      check
                        (match v with Some f -> Float.is_finite f | None -> false)
                        (Printf.sprintf "%s: %s is a finite number" what name);
                      check
                        (Json.member "unit" m = Some (Json.Str unit_))
                        (Printf.sprintf "%s: %s carries unit %s" what name unit_))
                expected)
        [ ("0", e2e); ("1", layer) ];
      let _, again = run exe (base w @ [ "--trace"; "0" ]) in
      check
        (digest_line !untraced <> None && digest_line !untraced = digest_line again)
        (w ^ ": same seed, same digest");
      let code, out = run exe (base w @ [ "--trace"; "0"; "--corrupt-output" ]) in
      check (code <> 0) (w ^ ": a corrupted output exits nonzero");
      check
        (match Json.parse (last out) with
        | Ok r -> member "correct" r = Json.Bool false
        | Error _ -> false)
        (w ^ ": a corrupted output reports correct=false"))
    workloads;
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end;
  print_endline "perfbench self-check: ok"
