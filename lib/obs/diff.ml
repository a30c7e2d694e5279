module Json = Axmemo_util.Json

type tol = { rel : float; abs : float }

type tolerances = { default : tol; rules : (string * tol) list }
(* [rules] is kept sorted by descending pattern length so the first match
   is the most specific one. *)

let exact = { default = { rel = 0.0; abs = 0.0 }; rules = [] }

let parse_tol_value s =
  let parse_float x =
    match float_of_string_opt (String.trim x) with
    | Some f when f >= 0.0 -> Some f
    | _ -> None
  in
  match String.split_on_char ':' s with
  | [ r ] -> (
      match parse_float r with Some rel -> Some { rel; abs = 0.0 } | None -> None)
  | [ r; a ] -> (
      match (parse_float r, parse_float a) with
      | Some rel, Some abs -> Some { rel; abs }
      | _ -> None)
  | _ -> None

let parse_tolerances spec =
  let entries = String.split_on_char ',' spec in
  let rec go acc = function
    | [] ->
        let default =
          match List.assoc_opt "default" acc with
          | Some t -> t
          | None -> exact.default
        in
        let rules =
          List.filter (fun (name, _) -> name <> "default") acc
          |> List.stable_sort (fun (a, _) (b, _) ->
                 compare (String.length b) (String.length a))
        in
        Ok { default; rules }
    | e :: rest -> (
        let e = String.trim e in
        if e = "" then go acc rest
        else
          match String.index_opt e '=' with
          | None -> Error (Printf.sprintf "tolerance entry %S: expected name=rel[:abs]" e)
          | Some i -> (
              let name = String.trim (String.sub e 0 i) in
              let value = String.sub e (i + 1) (String.length e - i - 1) in
              if name = "" then Error (Printf.sprintf "tolerance entry %S: empty metric name" e)
              else
                match parse_tol_value value with
                | Some t -> go ((name, t) :: acc) rest
                | None ->
                    Error
                      (Printf.sprintf
                         "tolerance entry %S: bad value (want rel[:abs], non-negative)" e)))
  in
  go [] entries

(* '*' matches any substring (including empty); everything else is literal. *)
let glob_match pat s =
  let np = String.length pat and ns = String.length s in
  let rec go p i =
    if p = np then i = ns
    else if pat.[p] = '*' then
      let rec try_from j = j <= ns && (go (p + 1) j || try_from (j + 1)) in
      try_from i
    else i < ns && pat.[p] = s.[i] && go (p + 1) (i + 1)
  in
  go 0 0

let tol_for t name =
  match List.find_opt (fun (pat, _) -> glob_match pat name) t.rules with
  | Some (_, tol) -> tol
  | None -> t.default

type delta = {
  run_key : string;
  metric : string;
  a : float;
  b : float;
  abs_delta : float;
  rel_delta : float;
  tol : tol;
  violation : bool;
}

type report_diff = {
  deltas : delta list;
  changed : delta list;
  violations : delta list;
  missing_in_b : string list;
  missing_in_a : string list;
}

(* ------------------------------------------------------------------ *)
(* Flattening one run object to (metric name, value) pairs. Strings are
   hashed onto a comparison axis where only equality matters. *)

type scalar = Num of float | Text of string

let flatten_run run =
  let out = ref [] in
  let emit name v = out := (name, v) :: !out in
  let emit_json prefix (name, v) =
    match (v : Json.t) with
    | Int i -> emit (prefix ^ name) (Num (float_of_int i))
    | Float f -> emit (prefix ^ name) (Num f)
    | Bool b -> emit (prefix ^ name) (Num (if b then 1.0 else 0.0))
    | Str s -> emit (prefix ^ name) (Text s)
    | Null | Arr _ | Obj _ -> ()
  in
  (match Json.member "summary" run with
  | Some (Json.Obj kvs) -> List.iter (emit_json "summary.") kvs
  | _ -> ());
  (* The optional "service" section nests (latency percentiles per class),
     so it flattens recursively: every scalar leaf becomes a
     service.<path>.<leaf> metric and is gate-visible like the summary.
     Arrays are skipped, same as everywhere else in the differ. *)
  let rec emit_tree prefix (name, v) =
    match (v : Json.t) with
    | Obj kvs -> List.iter (emit_tree (prefix ^ name ^ ".")) kvs
    | _ -> emit_json prefix (name, v)
  in
  (match Json.member "service" run with
  | Some (Json.Obj kvs) -> List.iter (emit_tree "service.") kvs
  | _ -> ());
  (* The sharded-cluster section gates the same way: shard balance,
     directory traffic and replication shares all become cluster.<path>
     metrics. *)
  (match Json.member "cluster" run with
  | Some (Json.Obj kvs) -> List.iter (emit_tree "cluster.") kvs
  | _ -> ());
  (* Live-timeline and alert sections flatten the same way, so a shifted
     per-window delta (timeline.w3.admitted) or an alert that starts or
     stops firing (alerts.slo_burn.fired) is a gated regression. *)
  (match Json.member "timeline" run with
  | Some (Json.Obj kvs) -> List.iter (emit_tree "timeline.") kvs
  | _ -> ());
  (match Json.member "alerts" run with
  | Some (Json.Obj kvs) -> List.iter (emit_tree "alerts.") kvs
  | _ -> ());
  (* The attribution profile keys each region by name and LUT id
     (profile.<region>@<lut>.class_cycles.fp), so a cycle moved between
     regions or classes is a gated regression. *)
  (match Json.member "profile" run with
  | Some p ->
      Option.iter (fun v -> emit_json "profile." ("total_cycles", v))
        (Json.member "total_cycles" p);
      (match Json.member "regions" p with
      | Some (Json.Arr rs) ->
          List.iter
            (fun r ->
              match (Json.member "region" r, Json.member "lut" r, r) with
              | Some (Json.Str name), Some (Json.Int lut), Json.Obj kvs ->
                  let prefix = Printf.sprintf "profile.%s@%d." name lut in
                  List.iter
                    (fun (k, v) -> if k <> "region" && k <> "lut" then emit_tree prefix (k, v))
                    kvs
              | _ -> ())
            rs
      | _ -> ())
  | None -> ());
  (match Json.member "metrics" run with
  | Some metrics ->
      (match Json.member "counters" metrics with
      | Some (Json.Obj kvs) -> List.iter (emit_json "counters.") kvs
      | _ -> ());
      (match Json.member "gauges" metrics with
      | Some (Json.Obj kvs) -> List.iter (emit_json "gauges.") kvs
      | _ -> ());
      (match Json.member "histograms" metrics with
      | Some (Json.Obj kvs) ->
          List.iter
            (fun (name, h) ->
              let grab field =
                match Json.member field h with
                | Some v -> emit_json ("histograms." ^ name ^ ".") (field, v)
                | None -> ()
              in
              grab "total";
              grab "sum")
            kvs
      | _ -> ())
  | None -> ());
  List.rev !out

let run_key run =
  match (Json.member "benchmark" run, Json.member "config" run) with
  | Some (Json.Str b), Some (Json.Str c) -> Ok (b ^ "/" ^ c)
  | _ -> Error "run without string benchmark/config fields"

let runs_of report =
  match Json.member "runs" report with
  | Some (Json.Arr runs) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | r :: rest -> (
            match run_key r with
            | Ok k -> go ((k, r) :: acc) rest
            | Error e -> Error e)
      in
      go [] runs
  | _ -> Error "report has no \"runs\" array"

let compare_scalar ~run_key ~metric ~tol a b =
  match (a, b) with
  | Text sa, Text sb ->
      let same = String.equal sa sb in
      {
        run_key;
        metric;
        a = 0.0;
        b = (if same then 0.0 else 1.0);
        abs_delta = (if same then 0.0 else 1.0);
        rel_delta = (if same then 0.0 else Float.nan);
        tol;
        violation = not same;
      }
  | _ ->
      let num = function Num f -> f | Text _ -> Float.nan in
      let a = num a and b = num b in
      let abs_delta = b -. a in
      let rel_delta =
        if abs_delta = 0.0 then 0.0
        else if a = 0.0 then Float.nan
        else abs_delta /. a
      in
      let within =
        Float.abs abs_delta <= tol.abs
        || ((not (Float.is_nan rel_delta)) && Float.abs rel_delta <= tol.rel)
      in
      { run_key; metric; a; b; abs_delta; rel_delta; tol; violation = not within }

let diff ?(tol = exact) a b =
  match (runs_of a, runs_of b) with
  | Error e, _ -> Error ("report A: " ^ e)
  | _, Error e -> Error ("report B: " ^ e)
  | Ok runs_a, Ok runs_b ->
      let missing_in_b =
        List.filter_map
          (fun (k, _) -> if List.mem_assoc k runs_b then None else Some k)
          runs_a
      in
      let missing_in_a =
        List.filter_map
          (fun (k, _) -> if List.mem_assoc k runs_a then None else Some k)
          runs_b
      in
      let deltas =
        List.concat_map
          (fun (key, run_a) ->
            match List.assoc_opt key runs_b with
            | None -> []
            | Some run_b ->
                let fa = flatten_run run_a and fb = flatten_run run_b in
                let names =
                  List.sort_uniq String.compare
                    (List.map fst fa @ List.map fst fb)
                in
                List.map
                  (fun metric ->
                    let t = tol_for tol metric in
                    let va =
                      Option.value ~default:(Num Float.nan) (List.assoc_opt metric fa)
                    and vb =
                      Option.value ~default:(Num Float.nan) (List.assoc_opt metric fb)
                    in
                    match (List.assoc_opt metric fa, List.assoc_opt metric fb) with
                    | Some _, Some _ ->
                        compare_scalar ~run_key:key ~metric ~tol:t va vb
                    | _ ->
                        (* metric on one side only: always a violation *)
                        {
                          run_key = key;
                          metric;
                          a = (match va with Num f -> f | Text _ -> Float.nan);
                          b = (match vb with Num f -> f | Text _ -> Float.nan);
                          abs_delta = Float.nan;
                          rel_delta = Float.nan;
                          tol = t;
                          violation = true;
                        })
                  names)
          runs_a
      in
      Ok
        {
          deltas;
          changed =
            List.filter (fun d -> d.abs_delta <> 0.0 || Float.is_nan d.abs_delta) deltas;
          violations = List.filter (fun d -> d.violation) deltas;
          missing_in_b;
          missing_in_a;
        }

let diff_files ?tol path_a path_b =
  match Json.read_file path_a with
  | Error e -> Error (path_a ^ ": " ^ e)
  | Ok a -> (
      match Json.read_file path_b with
      | Error e -> Error (path_b ^ ": " ^ e)
      | Ok b -> diff ?tol a b)

let gate_ok d = d.violations = [] && d.missing_in_b = [] && d.missing_in_a = []

let render ?(show_all = false) d =
  let buf = Buffer.create 1024 in
  List.iter
    (fun k -> Printf.bprintf buf "MISSING in B: %s\n" k)
    d.missing_in_b;
  List.iter
    (fun k -> Printf.bprintf buf "MISSING in A: %s\n" k)
    d.missing_in_a;
  let show tag x =
    Printf.bprintf buf "%s %s %s: %g -> %g (delta %+g" tag x.run_key x.metric x.a x.b
      x.abs_delta;
    if (not (Float.is_nan x.rel_delta)) && x.a <> 0.0 then
      Printf.bprintf buf ", %+.3f%%" (100.0 *. x.rel_delta);
    Printf.bprintf buf "; tol rel=%g abs=%g)\n" x.tol.rel x.tol.abs
  in
  List.iter (show "FAIL") d.violations;
  if show_all then
    List.iter (fun x -> if not x.violation then show "ok  " x) d.changed;
  let nruns =
    List.sort_uniq String.compare (List.map (fun x -> x.run_key) d.deltas)
    |> List.length
  in
  Printf.bprintf buf
    "%d runs compared, %d metrics, %d changed, %d violations%s\n" nruns
    (List.length d.deltas) (List.length d.changed)
    (List.length d.violations)
    (if d.missing_in_a = [] && d.missing_in_b = [] then ""
     else
       Printf.sprintf ", %d unmatched runs"
         (List.length d.missing_in_a + List.length d.missing_in_b));
  Buffer.contents buf
