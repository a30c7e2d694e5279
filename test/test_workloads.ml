(* Per-benchmark tests: every workload builds, validates, runs, and agrees
   with an independent OCaml oracle where one is available. *)

module W = Axmemo_workloads
module Workload = W.Workload
module Ir = Axmemo_ir.Ir
module Memory = Axmemo_ir.Memory
module Interp = Axmemo_ir.Interp
module Rng = Axmemo_util.Rng
module Stats = Axmemo_util.Stats

let run_baseline (instance : Workload.instance) =
  let t = Interp.create ~program:instance.program ~mem:instance.mem () in
  ignore (Interp.run t instance.entry instance.args);
  instance.read_outputs ()

let floats = function
  | Workload.Floats f -> f
  | Workload.Bools _ -> Alcotest.fail "expected float outputs"

let bools = function
  | Workload.Bools b -> b
  | Workload.Floats _ -> Alcotest.fail "expected bool outputs"

(* --- generic checks over the whole registry --- *)

let test_registry_complete () =
  Alcotest.(check int) "ten benchmarks" 10 (List.length W.Registry.all);
  Alcotest.(check (list string)) "paper order"
    [ "blackscholes"; "fft"; "inversek2j"; "jmeint"; "jpeg"; "kmeans"; "sobel";
      "hotspot"; "lavamd"; "srad" ]
    W.Registry.names

let test_find () =
  Alcotest.(check bool) "find hit" true (W.Registry.find "sobel" <> None);
  Alcotest.(check bool) "find miss" true (W.Registry.find "nope" = None)

let generic_checks name make () =
  let (instance : Workload.instance) = make Workload.Sample in
  Alcotest.(check bool) "program validates" true (Ir.validate instance.program = Ok ());
  (* Every region kernel exists, is pure, and trunc arities match. *)
  List.iter
    (fun (r : Axmemo_compiler.Transform.region) ->
      let k = Ir.find_func instance.program r.kernel in
      Alcotest.(check bool) (r.kernel ^ " pure") true k.pure;
      Alcotest.(check int) "trunc arity" (Array.length k.params) (Array.length r.truncs))
    instance.regions;
  let out = run_baseline instance in
  (match out with
  | Workload.Floats f ->
      Alcotest.(check bool) "non-empty" true (Array.length f > 0);
      Alcotest.(check bool) "all finite" true (Array.for_all Float.is_finite f);
      let distinct = Array.length (Array.of_seq (Hashtbl.to_seq_keys (
        let h = Hashtbl.create 16 in
        Array.iter (fun v -> Hashtbl.replace h v ()) f; h))) in
      Alcotest.(check bool) "not constant" true (distinct > 1)
  | Workload.Bools b -> Alcotest.(check bool) "non-empty" true (Array.length b > 0));
  ignore name

let test_sample_eval_disjoint () =
  (* Sample and Eval datasets must differ (disjoint input sets, Section 5). *)
  let a = floats (run_baseline (W.Blackscholes.make Workload.Sample)) in
  let b = floats (run_baseline (W.Blackscholes.make Workload.Eval)) in
  Alcotest.(check bool) "different sizes or content" true
    (Array.length a <> Array.length b || a <> b)

(* --- blackscholes oracle: closed-form prices --- *)

let cndf x =
  let l = abs_float x in
  let k = 1.0 /. (1.0 +. (0.2316419 *. l)) in
  let poly =
    k
    *. (0.319381530
       +. (k *. (-0.356563782 +. (k *. (1.781477937 +. (k *. (-1.821255978 +. (k *. 1.330274429))))))))
  in
  let w = 1.0 -. (0.3989422804 *. exp (-0.5 *. l *. l) *. poly) in
  if x < 0.0 then 1.0 -. w else w

let bs_price s k r v t otype =
  let d1 = (log (s /. k) +. ((r +. (0.5 *. v *. v)) *. t)) /. (v *. sqrt t) in
  let d2 = d1 -. (v *. sqrt t) in
  let call = (s *. cndf d1) -. (k *. exp (-.r *. t) *. cndf d2) in
  if otype > 0.5 then
    (k *. exp (-.r *. t) *. (1.0 -. cndf d2)) -. (s *. (1.0 -. cndf d1))
  else call

let test_blackscholes_oracle () =
  let instance = W.Blackscholes.make Workload.Sample in
  (* Re-read the packed option records before running. *)
  let in_base =
    match instance.args.(0) with Ir.VI v -> Int64.to_int v | _ -> assert false
  in
  let n = 4000 in
  let expected =
    Array.init n (fun i ->
        let f j = Memory.load_f32 instance.mem (in_base + (24 * i) + (4 * j)) in
        bs_price (f 0) (f 1) (f 2) (f 3) (f 4) (f 5))
  in
  let got = floats (run_baseline instance) in
  let err = Stats.output_error ~reference:expected ~approx:got in
  Alcotest.(check bool) (Printf.sprintf "Er vs closed form = %.2g" err) true (err < 1e-3)

(* --- fft oracle: Parseval's theorem --- *)

let test_fft_parseval () =
  let instance = W.Fft.make Workload.Sample in
  let n = 1024 in
  let re0 =
    match instance.args.(0) with
    | Ir.VI v -> Workload.read_f32s instance.mem ~base:(Int64.to_int v) ~count:n
    | _ -> assert false
  in
  let input_energy = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 re0 in
  let out = floats (run_baseline instance) in
  let output_energy = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 out in
  let ratio = output_energy /. (float_of_int n *. input_energy) in
  Alcotest.(check bool) (Printf.sprintf "Parseval ratio %.4f" ratio) true
    (abs_float (ratio -. 1.0) < 0.01)

(* --- inversek2j oracle: forward(inverse(x)) = x --- *)

let test_inversek2j_roundtrip () =
  let instance = W.Inversek2j.make Workload.Sample in
  (* The (x, y) targets are the packed f32 pairs at args.(0). *)
  let targets =
    match instance.args.(0) with
    | Ir.VI v -> Workload.read_f32s instance.mem ~base:(Int64.to_int v) ~count:(2 * 6000)
    | _ -> assert false
  in
  let out = floats (run_baseline instance) in
  let l1 = W.Inversek2j.l1 and l2 = W.Inversek2j.l2 in
  let max_err = ref 0.0 in
  for i = 0 to 6000 - 1 do
    let x = targets.(2 * i) and y = targets.((2 * i) + 1) in
    let th1 = out.(2 * i) and th2 = out.((2 * i) + 1) in
    let x' = (l1 *. cos th1) +. (l2 *. cos (th1 +. th2)) in
    let y' = (l1 *. sin th1) +. (l2 *. sin (th1 +. th2)) in
    let e = sqrt (((x -. x') ** 2.0) +. ((y -. y') ** 2.0)) in
    if e > !max_err then max_err := e
  done;
  (* millimetre workspace; the f32 + polynomial pipeline keeps the position
     error well under a millimetre *)
  Alcotest.(check bool) (Printf.sprintf "max fk error %.4f mm" !max_err) true
    (!max_err < 1.0)

(* --- jmeint oracle: hand-constructed cases through the kernel --- *)

let run_jmeint_kernel coords =
  let program = { Ir.funcs = [| W.Jmeint.build_kernel () |] } in
  let t = Interp.create ~program ~mem:(Memory.create ()) () in
  match Interp.run t W.Jmeint.kernel_name (Array.map (fun v -> Ir.VF v) coords) with
  | [| VI r |] -> r <> 0L
  | _ -> Alcotest.fail "expected one int"

let test_jmeint_known_cases () =
  (* Two triangles crossing through each other. *)
  let crossing =
    [| 0.0; 0.0; 0.0; 2.0; 0.0; 0.0; 0.0; 2.0; 0.0;
       0.5; 0.5; -1.0; 0.5; 0.5; 1.0; 1.5; 0.5; 0.0 |]
  in
  Alcotest.(check bool) "crossing detected" true (run_jmeint_kernel crossing);
  (* Far apart. *)
  let disjoint =
    [| 0.0; 0.0; 0.0; 1.0; 0.0; 0.0; 0.0; 1.0; 0.0;
       10.0; 10.0; 10.0; 11.0; 10.0; 10.0; 10.0; 11.0; 10.0 |]
  in
  Alcotest.(check bool) "disjoint rejected" false (run_jmeint_kernel disjoint);
  (* Parallel planes, overlapping in x-y but separated in z. *)
  let parallel =
    [| 0.0; 0.0; 0.0; 1.0; 0.0; 0.0; 0.0; 1.0; 0.0;
       0.0; 0.0; 1.0; 1.0; 0.0; 1.0; 0.0; 1.0; 1.0 |]
  in
  Alcotest.(check bool) "parallel rejected" false (run_jmeint_kernel parallel)

let test_jmeint_classes_present () =
  let out = bools (run_baseline (W.Jmeint.make Workload.Sample)) in
  Alcotest.(check bool) "both classes occur" true
    (Array.exists (fun b -> b) out && Array.exists not out)

(* --- jpeg: quantization zeroes high frequencies of a smooth image --- *)

let test_jpeg_sparsity () =
  let out = floats (run_baseline (W.Jpeg.make Workload.Sample)) in
  let zeros = Array.fold_left (fun acc v -> if v = 0.0 then acc + 1 else acc) 0 out in
  let frac = float_of_int zeros /. float_of_int (Array.length out) in
  Alcotest.(check bool) (Printf.sprintf "zero fraction %.2f" frac) true (frac > 0.3);
  Alcotest.(check bool) "some nonzero coefficients" true (frac < 0.99)

let test_jpeg_qtable () =
  Alcotest.(check int) "64 entries" 64 (Array.length W.Jpeg.qtable);
  Alcotest.(check int) "annex K corner" 16 W.Jpeg.qtable.(0)

(* --- kmeans: centroids stay in the colour cube and separate --- *)

let test_kmeans_centroids () =
  let instance = W.Kmeans.make Workload.Sample in
  let out = floats (run_baseline instance) in
  (* outputs are the clustered image: every pixel equals one of k centroids *)
  let distinct = Hashtbl.create 16 in
  let n = Array.length out / 3 in
  for i = 0 to n - 1 do
    Hashtbl.replace distinct (out.(3 * i), out.((3 * i) + 1), out.((3 * i) + 2)) ()
  done;
  Alcotest.(check bool) "at most k distinct colours" true
    (Hashtbl.length distinct <= W.Kmeans.k_clusters);
  Alcotest.(check bool) "at least 2 clusters used" true (Hashtbl.length distinct >= 2);
  Array.iter
    (fun v -> Alcotest.(check bool) "in colour range" true (v >= 0.0 && v <= 256.0))
    out

(* --- sobel oracle: direct convolution --- *)

let test_sobel_oracle () =
  let instance = W.Sobel.make Workload.Sample in
  let width = 64 and height = 64 in
  let rng = Rng.create 7L in
  let img = Workload.synth_image rng ~width ~height ~tones:14 ~slope:0.05 () in
  let f32 x = Int32.float_of_bits (Int32.bits_of_float x) in
  let expected = Array.make (width * height) 0.0 in
  for y = 1 to height - 2 do
    for x = 1 to width - 2 do
      let p dy dx = f32 img.(((y + dy) * width) + x + dx) in
      let gx = p (-1) 1 +. (2.0 *. p 0 1) +. p 1 1 -. (p (-1) (-1) +. (2.0 *. p 0 (-1)) +. p 1 (-1)) in
      let gy = p 1 (-1) +. (2.0 *. p 1 0) +. p 1 1 -. (p (-1) (-1) +. (2.0 *. p (-1) 0) +. p (-1) 1) in
      let m = sqrt ((gx *. gx) +. (gy *. gy)) in
      expected.((y * width) + x) <- Float.min 255.0 m
    done
  done;
  let got = floats (run_baseline instance) in
  let err = Stats.output_error ~reference:expected ~approx:got in
  Alcotest.(check bool) (Printf.sprintf "Er vs direct convolution %.2g" err) true
    (err < 1e-4)

(* --- hotspot: bounded, converging temperatures --- *)

let test_hotspot_sane () =
  let out = floats (run_baseline (W.Hotspot.make Workload.Sample)) in
  Array.iter
    (fun v -> Alcotest.(check bool) "plausible temperature" true (v > 0.0 && v < 500.0))
    out

(* --- lavamd: forces finite, lattice symmetry keeps them bounded --- *)

let test_lavamd_sane () =
  let out = floats (run_baseline (W.Lavamd.make Workload.Sample)) in
  Alcotest.(check bool) "nonzero forces" true (Array.exists (fun v -> abs_float v > 1e-6) out);
  Array.iter
    (fun v -> Alcotest.(check bool) "bounded" true (abs_float v < 1e4))
    out

(* --- srad: diffusion reduces variance --- *)

let test_srad_denoises () =
  let instance = W.Srad.make Workload.Sample in
  let side = 48 in
  let j_base =
    match instance.args.(0) with Ir.VI v -> Int64.to_int v | _ -> assert false
  in
  let before = Workload.read_f32s instance.mem ~base:j_base ~count:(side * side) in
  let var_before = Stats.stddev before in
  let after = floats (run_baseline instance) in
  let var_after = Stats.stddev after in
  Alcotest.(check bool)
    (Printf.sprintf "stddev %.2f -> %.2f" var_before var_after)
    true
    (var_after < var_before)

(* --- dataset digests ---

   MD5 of each instance's memory image [0, used_bytes), of its args and of
   its pre-run outputs, for every workload x variant x root seed (0 = unset).
   The digests were captured before the generators were rewritten to fill
   memory in place, so a reordered random draw, a moved region or a changed
   rounding fails here, at the dataset, rather than later as a baseline
   diff. Columns: workload, variant, root seed, memory, args, outputs,
   used bytes. *)

let dataset_digests =
  [
    ("blackscholes", Workload.Sample, 0L,
     "41ecbac8a411f7eff185556a0d3ec9b0", "999684cce16ddf8ec2cec7e65e44cd4e",
     "5524bf12089f712d23e63f4e7f820484", 112000);
    ("blackscholes", Workload.Eval, 0L,
     "a1b411240a61a93332fcd3aac45ec723", "ad0421f549461e91121e6d49c2a4eb4a",
     "bdc6db72f34e7315b37c7708e588511f", 560000);
    ("fft", Workload.Sample, 0L,
     "9a39e84300fc6da0ccbd23843ddc4535", "33b26975f7038b4c3483b9fc2df89331",
     "a285caed0e00d6b1fbf208284e309de9", 8192);
    ("fft", Workload.Eval, 0L,
     "76338a6cb0aadffcff069e4f255bc2f3", "6124c2512ae4067dfad4516d91220e2c",
     "30c3714a9d7d373a5ae9118a3c133686", 32768);
    ("inversek2j", Workload.Sample, 0L,
     "fc064084efd919a95a143bbea938d335", "c0d2b9bbe7cd0015787d90275efb44e5",
     "8c620a1aa0c79cba4ea179907d342fb0", 96000);
    ("inversek2j", Workload.Eval, 0L,
     "d6ffb2505fcb77a59b9112c75690ede8", "ac18ca5375d40118d9b915d7019fb0f4",
     "5f6b6fee24749fab201b248f46a75596", 480000);
    ("jmeint", Workload.Sample, 0L,
     "3265bae9c32e00cdaf1d38b895971b86", "a5577e63d7e529a3621017671f1d0bc8",
     "4fbc19d9eacc3b5aab2c7de09b0978fd", 152000);
    ("jmeint", Workload.Eval, 0L,
     "07921799d85d580bd06319eb7243e27a", "bd94c654287e27cc0e472881410e6282",
     "45b565af28a2998fa8d5dae7eb6e660e", 760000);
    ("jpeg", Workload.Sample, 0L,
     "4629e0bc3e48a33999f0b9acba05a60a", "6124c2512ae4067dfad4516d91220e2c",
     "967205acb355a9b717489940875d3f01", 33280);
    ("jpeg", Workload.Eval, 0L,
     "82e58b84a3d3fd137b034d51b9d733b9", "31a13e1c14f35b34557fea394fcd034e",
     "80e9a4ed2a8258fc7629a70eec3e09bc", 131584);
    ("kmeans", Workload.Sample, 0L,
     "3de33e5a70f12d1a5a9df58c4eeedfb4", "646c621ebe1edb7a6494d97a971cde85",
     "9ac5c2d1f2aad9664e853152eb1003cb", 64704);
    ("kmeans", Workload.Eval, 0L,
     "4306fd0390a661674e590310df3d6bde", "a8e113041e816af1d263f91fdb10daa1",
     "928094d3b6a2ed515a55264f982f69ec", 258240);
    ("sobel", Workload.Sample, 0L,
     "4a71cf0f1f2336d30d88e133f5e5b2ab", "6124c2512ae4067dfad4516d91220e2c",
     "967205acb355a9b717489940875d3f01", 32768);
    ("sobel", Workload.Eval, 0L,
     "8591a003f1f310592425a27c784a44ce", "31a13e1c14f35b34557fea394fcd034e",
     "80e9a4ed2a8258fc7629a70eec3e09bc", 131072);
    ("hotspot", Workload.Sample, 0L,
     "4c4cba273e41d965281b5dc88f62cf8a", "31443f52bdaaa60a1a61e25dae4668cf",
     "340c6ae8a0198c58ca403d660480a951", 12288);
    ("hotspot", Workload.Eval, 0L,
     "e086f58607b8482ee1316bdcebd6fa4f", "338e84b1b22767a2ec70e1a45d9d4fbb",
     "ee4cb702d10fdb8ea66d22888fe004bc", 49152);
    ("lavamd", Workload.Sample, 0L,
     "d0a12cb7e4885ef0e5f627373c69c039", "38e9fa0e9ecb658b3f8f615d5c2e684d",
     "46489040a9b98bbde922b9dbe15962ba", 2240);
    ("lavamd", Workload.Eval, 0L,
     "e0915b73fea547d91a496115a0e5fe79", "c91299f16d2f2cca7eee393626dbe407",
     "2f88aff800d25a8c7580cfe9203594e0", 5376);
    ("srad", Workload.Sample, 0L,
     "20436d2b9e7ad91d3e21be467afa0bfb", "4be4c5d7d05edd5c19797f6ed5e04ed0",
     "7223ed768129f49092fa4b635023f0b3", 18448);
    ("srad", Workload.Eval, 0L,
     "ca63c0e71e7d6bc96976078f03994a64", "52d3e0a35675118d3eb505b0c72b5aa9",
     "850626b81fec89e795af0ad35302fb62", 73744);
    ("blackscholes", Workload.Sample, 101L,
     "fd838506f20b55356858623e353011b7", "999684cce16ddf8ec2cec7e65e44cd4e",
     "5524bf12089f712d23e63f4e7f820484", 112000);
    ("blackscholes", Workload.Eval, 101L,
     "2cd5e1a58ef90244dbf492587dbf4375", "ad0421f549461e91121e6d49c2a4eb4a",
     "bdc6db72f34e7315b37c7708e588511f", 560000);
    ("fft", Workload.Sample, 101L,
     "a26358bb684eba56b41c94ec42805048", "33b26975f7038b4c3483b9fc2df89331",
     "6822ddcccf1610df527038d6d20942a4", 8192);
    ("fft", Workload.Eval, 101L,
     "0fbea9b1c0e187fd1b79d9debc1e3f9f", "6124c2512ae4067dfad4516d91220e2c",
     "e11459881cd3b1da6c2f540aabc18b64", 32768);
    ("inversek2j", Workload.Sample, 101L,
     "99aa5e18d74c1d23fc33c0a3ede573c1", "c0d2b9bbe7cd0015787d90275efb44e5",
     "8c620a1aa0c79cba4ea179907d342fb0", 96000);
    ("inversek2j", Workload.Eval, 101L,
     "710c8c0756a7066a55d2702bf26818e5", "ac18ca5375d40118d9b915d7019fb0f4",
     "5f6b6fee24749fab201b248f46a75596", 480000);
    ("jmeint", Workload.Sample, 101L,
     "7e2359f5cc2a9b1d5f1f9ef156b392a0", "a5577e63d7e529a3621017671f1d0bc8",
     "4fbc19d9eacc3b5aab2c7de09b0978fd", 152000);
    ("jmeint", Workload.Eval, 101L,
     "200934d6e9c63e126907b0f83cdf6f68", "bd94c654287e27cc0e472881410e6282",
     "45b565af28a2998fa8d5dae7eb6e660e", 760000);
    ("jpeg", Workload.Sample, 101L,
     "f412eee14ff62458131406863fafdd83", "6124c2512ae4067dfad4516d91220e2c",
     "967205acb355a9b717489940875d3f01", 33280);
    ("jpeg", Workload.Eval, 101L,
     "95c7153ccadd74d2027324c3f68a07c7", "31a13e1c14f35b34557fea394fcd034e",
     "80e9a4ed2a8258fc7629a70eec3e09bc", 131584);
    ("kmeans", Workload.Sample, 101L,
     "b4dcb9e616ee3b7248f3c6485df27b96", "646c621ebe1edb7a6494d97a971cde85",
     "9ac5c2d1f2aad9664e853152eb1003cb", 64704);
    ("kmeans", Workload.Eval, 101L,
     "38d3081695ebfbbe397ae44cfd2bed17", "a8e113041e816af1d263f91fdb10daa1",
     "928094d3b6a2ed515a55264f982f69ec", 258240);
    ("sobel", Workload.Sample, 101L,
     "486f8903ae0f0cc4d3fb71a8e40fe868", "6124c2512ae4067dfad4516d91220e2c",
     "967205acb355a9b717489940875d3f01", 32768);
    ("sobel", Workload.Eval, 101L,
     "962cdfc63bf7ca4f19aab6d618f9e535", "31a13e1c14f35b34557fea394fcd034e",
     "80e9a4ed2a8258fc7629a70eec3e09bc", 131072);
    ("hotspot", Workload.Sample, 101L,
     "c902b2f9c55d5eadf1891a73a6d9a2cc", "31443f52bdaaa60a1a61e25dae4668cf",
     "0a74bb782d10232488ff7c0a207bbb3b", 12288);
    ("hotspot", Workload.Eval, 101L,
     "dcb32d2ee4705734d2ec3d92d0a5675d", "338e84b1b22767a2ec70e1a45d9d4fbb",
     "c964405c7d1200a322f30d249361f43f", 49152);
    ("lavamd", Workload.Sample, 101L,
     "f8ca2508416e4767385f193efdd17f09", "38e9fa0e9ecb658b3f8f615d5c2e684d",
     "46489040a9b98bbde922b9dbe15962ba", 2240);
    ("lavamd", Workload.Eval, 101L,
     "90c43f9ca6f86d0dab8d254e25c74f3f", "c91299f16d2f2cca7eee393626dbe407",
     "2f88aff800d25a8c7580cfe9203594e0", 5376);
    ("srad", Workload.Sample, 101L,
     "f84d5b36c6ece74b151a1b702708f197", "4be4c5d7d05edd5c19797f6ed5e04ed0",
     "5095308573e9e6833e2f81e788242199", 18448);
    ("srad", Workload.Eval, 101L,
     "361927d822aa3871efd0112e44e383aa", "52d3e0a35675118d3eb505b0c72b5aa9",
     "f01c7386971b4a2f9c5c383634f51024", 73744);
  ]

let memory_image mem =
  let n = Memory.used_bytes mem in
  let words = (n + 3) / 4 in
  let b = Bytes.create (4 * words) in
  for i = 0 to words - 1 do
    Bytes.set_int32_le b (4 * i) (Memory.load_i32 mem (4 * i))
  done;
  Bytes.sub_string b 0 n

let args_image args =
  String.concat ","
    (Array.to_list
       (Array.map
          (function
            | Ir.VI x -> Printf.sprintf "i%Lx" x
            | Ir.VF f -> Printf.sprintf "f%Lx" (Int64.bits_of_float f))
          args))

let outputs_image = function
  | Workload.Floats f ->
      String.concat ","
        (Array.to_list (Array.map (fun v -> Printf.sprintf "%Lx" (Int64.bits_of_float v)) f))
  | Workload.Bools b -> String.init (Array.length b) (fun i -> if b.(i) then '1' else '0')

let md5 s = Digest.to_hex (Digest.string s)

let test_dataset_digests name make () =
  List.iter
    (fun (wname, variant, seed, mem_md5, args_md5, out_md5, used) ->
      if wname = name then begin
        let (instance : Workload.instance) =
          Fun.protect
            ~finally:(fun () -> Rng.set_root_seed 0L)
            (fun () ->
              Rng.set_root_seed seed;
              make variant)
        in
        let label what =
          Printf.sprintf "%s %s seed %Ld %s" name
            (match variant with Workload.Sample -> "sample" | Workload.Eval -> "eval")
            seed what
        in
        Alcotest.(check int) (label "used bytes") used (Memory.used_bytes instance.mem);
        Alcotest.(check string) (label "memory") mem_md5 (md5 (memory_image instance.mem));
        Alcotest.(check string) (label "args") args_md5 (md5 (args_image instance.args));
        Alcotest.(check string) (label "outputs") out_md5
          (md5 (outputs_image (instance.read_outputs ())))
      end)
    dataset_digests

(* --- synthesis allocation budget ---

   The memory buffer is sized once to the allocator's high-water mark, so a
   fresh instance holds little more than its dataset. A return to the
   doubling buffer (a 1 MiB buffer for blackscholes' 0.56 MB) fails here. *)

let test_blackscholes_live_words () =
  Gc.full_major ();
  let before = (Gc.stat ()).live_words in
  let instance = W.Blackscholes.make Workload.Eval in
  Gc.full_major ();
  let grown = ((Gc.stat ()).live_words - before) * (Sys.word_size / 8) in
  let used = Memory.used_bytes (Sys.opaque_identity instance).mem in
  Alcotest.(check bool)
    (Printf.sprintf "live growth %d bytes for %d used" grown used)
    true
    (grown <= used + (256 * 1024))

(* --- memoized smoke: every workload through the full runner --- *)

let memoized_smoke ((meta : Workload.meta), make) () =
  let base = Axmemo.Runner.run Baseline (make Workload.Sample) in
  let r = Axmemo.Runner.run Axmemo.Runner.l1_8k (make Workload.Sample) in
  if meta.name = "jmeint" then
    Alcotest.(check bool) "jmeint stays cold" true (r.hit_rate < 0.01)
  else
    Alcotest.(check bool)
      (Printf.sprintf "%s finds reuse (%.3f)" meta.name r.hit_rate)
      true (r.hit_rate > 0.05);
  Alcotest.(check bool) "monitor stays quiet" false r.memo_disabled;
  let loss = Workload.quality_loss ~reference:base.outputs ~approx:r.outputs in
  Alcotest.(check bool) (Printf.sprintf "%s loss %.4f bounded" meta.name loss) true
    (loss < 0.05)

(* --- synth_image generator properties --- *)

let prop_synth_image_in_range =
  QCheck.Test.make ~name:"synth_image stays in [0,255]" ~count:20 QCheck.int64 (fun seed ->
      let rng = Rng.create seed in
      let img = Workload.synth_image rng ~width:32 ~height:32 () in
      Array.for_all (fun v -> v >= 0.0 && v <= 255.0) img)

let () =
  let generic =
    List.map
      (fun ((m : Workload.meta), make) ->
        Alcotest.test_case m.name `Quick (generic_checks m.name make))
      W.Registry.all
  in
  Alcotest.run "workloads"
    [
      ( "registry",
        [
          Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "sample/eval disjoint" `Quick test_sample_eval_disjoint;
        ] );
      ("builds and runs", generic);
      ( "oracles",
        [
          Alcotest.test_case "blackscholes closed form" `Quick test_blackscholes_oracle;
          Alcotest.test_case "fft parseval" `Quick test_fft_parseval;
          Alcotest.test_case "inversek2j roundtrip" `Quick test_inversek2j_roundtrip;
          Alcotest.test_case "jmeint known cases" `Quick test_jmeint_known_cases;
          Alcotest.test_case "jmeint classes" `Quick test_jmeint_classes_present;
          Alcotest.test_case "jpeg sparsity" `Quick test_jpeg_sparsity;
          Alcotest.test_case "jpeg qtable" `Quick test_jpeg_qtable;
          Alcotest.test_case "kmeans centroids" `Quick test_kmeans_centroids;
          Alcotest.test_case "sobel convolution" `Quick test_sobel_oracle;
          Alcotest.test_case "hotspot bounded" `Quick test_hotspot_sane;
          Alcotest.test_case "lavamd forces" `Quick test_lavamd_sane;
          Alcotest.test_case "srad denoises" `Quick test_srad_denoises;
        ] );
      ( "dataset digests",
        List.map
          (fun ((m : Workload.meta), make) ->
            Alcotest.test_case m.name `Quick (test_dataset_digests m.name make))
          W.Registry.all );
      ( "allocation",
        [ Alcotest.test_case "blackscholes live words" `Quick test_blackscholes_live_words ]
      );
      ( "memoized smoke",
        List.map
          (fun ((m : Workload.meta), _ as wl) ->
            Alcotest.test_case m.name `Slow (memoized_smoke wl))
          W.Registry.all );
      ("properties", [ QCheck_alcotest.to_alcotest prop_synth_image_in_range ]);
    ]
