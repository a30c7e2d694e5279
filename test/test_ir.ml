(* Tests for the IR: memory, builder, validation, payloads, interpreter
   semantics. *)

module Ir = Axmemo_ir.Ir
module Memory = Axmemo_ir.Memory
module B = Axmemo_ir.Builder
module Interp = Axmemo_ir.Interp
module Payload = Axmemo_ir.Payload

let run_func ?memo fn args =
  let program = { Ir.funcs = [| fn |] } in
  let mem = Memory.create () in
  let t = Interp.create ?memo ~program ~mem () in
  Interp.run t fn.Ir.fname args

let run_program ?memo funcs entry args mem =
  let program = { Ir.funcs = Array.of_list funcs } in
  let t = Interp.create ?memo ~program ~mem () in
  Interp.run t entry args

let vi = function Ir.VI v -> v | Ir.VF _ -> Alcotest.fail "expected int"
let vf = function Ir.VF v -> v | Ir.VI _ -> Alcotest.fail "expected float"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* --- Memory --- *)

let test_memory_roundtrip () =
  let m = Memory.create () in
  Memory.store_i32 m 0 0xDEADBEEFl;
  Alcotest.(check int32) "i32" 0xDEADBEEFl (Memory.load_i32 m 0);
  Memory.store_i64 m 8 0x1122334455667788L;
  Alcotest.(check int64) "i64" 0x1122334455667788L (Memory.load_i64 m 8);
  Memory.store_f32 m 16 1.5;
  Alcotest.(check (float 0.0)) "f32" 1.5 (Memory.load_f32 m 16);
  Memory.store_f64 m 24 3.14159;
  Alcotest.(check (float 0.0)) "f64" 3.14159 (Memory.load_f64 m 24)

let test_memory_alloc_aligned () =
  let m = Memory.create () in
  let a = Memory.alloc m ~bytes:3 ~align:8 in
  let b = Memory.alloc m ~bytes:8 ~align:64 in
  Alcotest.(check int) "first aligned" 0 (a mod 8);
  Alcotest.(check int) "second aligned" 0 (b mod 64);
  Alcotest.(check bool) "disjoint" true (b >= a + 3)

let test_memory_alloc_bad_align () =
  let m = Memory.create () in
  Alcotest.check_raises "align 3" (Invalid_argument "Memory.alloc: align") (fun () ->
      ignore (Memory.alloc m ~bytes:4 ~align:3))

let test_memory_typed_mismatch () =
  let m = Memory.create () in
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Memory.store: value kind does not match type") (fun () ->
      Memory.store m Ir.I32 0 (VF 1.0))

let test_memory_oom () =
  let m = Memory.create ~size_bytes:4096 () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Memory.alloc m ~bytes:10_000 ~align:8);
       false
     with Invalid_argument _ -> true)

(* --- Builder + interpreter semantics --- *)

let test_arith_i32_wraparound () =
  let b = B.create ~name:"w" ~params:[] ~rets:[ Ir.I32 ] () in
  B.ret b [ B.addi b (B.i32 0x7FFFFFFF) (B.i32 1) ];
  let r = run_func (B.finish b) [||] in
  Alcotest.(check int64) "wraps to min_int32" (-2147483648L) (vi r.(0))

let test_div_by_zero () =
  let b = B.create ~name:"d" ~params:[ Ir.I32 ] ~rets:[ Ir.I32 ] () in
  B.ret b [ B.binop b Div I32 (B.i32 1) (B.param b 0) ];
  let fn = B.finish b in
  Alcotest.(check bool) "raises" true
    (try
       ignore (run_func fn [| VI 0L |]);
       false
     with Failure _ -> true)

let test_f32_rounding () =
  let b = B.create ~name:"r" ~params:[ Ir.F32 ] ~rets:[ Ir.F32 ] () in
  B.ret b [ B.fadd b F32 (B.param b 0) (B.f32 1e-10) ];
  let r = run_func (B.finish b) [| VF 1.0 |] in
  Alcotest.(check (float 0.0)) "rounded to f32" 1.0 (vf r.(0))

let test_shift_masking () =
  let b = B.create ~name:"s" ~params:[] ~rets:[ Ir.I32 ] () in
  (* shift count 33 on i32 = shift by 1 *)
  B.ret b [ B.binop b Shl I32 (B.i32 1) (B.i32 33) ];
  let r = run_func (B.finish b) [||] in
  Alcotest.(check int64) "mod-32 count" 2L (vi r.(0))

let test_select () =
  let b = B.create ~name:"sel" ~params:[ Ir.I32 ] ~rets:[ Ir.I32 ] () in
  B.ret b [ B.select b (B.param b 0) (B.i32 10) (B.i32 20) ];
  let fn = B.finish b in
  Alcotest.(check int64) "true" 10L (vi (run_func fn [| VI 1L |]).(0));
  Alcotest.(check int64) "false" 20L (vi (run_func fn [| VI 0L |]).(0))

let test_casts_roundtrip () =
  let b = B.create ~name:"c" ~params:[ Ir.F32 ] ~rets:[ Ir.F32 ] () in
  B.ret b [ B.cast b F32_of_bits (B.cast b Bits_of_f32 (B.param b 0)) ];
  let fn = B.finish b in
  Alcotest.(check (float 0.0)) "bits roundtrip" (-2.25) (vf (run_func fn [| VF (-2.25) |]).(0))

let test_f_to_i_truncates () =
  let b = B.create ~name:"f2i" ~params:[ Ir.F32 ] ~rets:[ Ir.I32 ] () in
  B.ret b [ B.cast b F_to_i (B.param b 0) ];
  let fn = B.finish b in
  Alcotest.(check int64) "toward zero pos" 2L (vi (run_func fn [| VF 2.9 |]).(0));
  Alcotest.(check int64) "toward zero neg" (-2L) (vi (run_func fn [| VF (-2.9) |]).(0))

let test_for_loop_sum () =
  let b = B.create ~name:"sum" ~params:[] ~rets:[ Ir.I32 ] () in
  let acc = B.fresh b in
  B.mov b acc (B.i32 0);
  B.for_loop b ~from:(B.i32 0) ~below:(B.i32 10) (fun i ->
      B.mov b acc (B.addi b (B.rv acc) i));
  B.ret b [ B.rv acc ];
  let r = run_func (B.finish b) [||] in
  Alcotest.(check int64) "sum 0..9" 45L (vi r.(0))

let test_while_loop () =
  let b = B.create ~name:"wl" ~params:[] ~rets:[ Ir.I32 ] () in
  let x = B.fresh b in
  B.mov b x (B.i32 1);
  B.while_loop b
    ~cond:(fun () -> B.icmp b Ilt I32 (B.rv x) (B.i32 100))
    ~body:(fun () -> B.mov b x (B.muli b (B.rv x) (B.i32 2)));
  B.ret b [ B.rv x ];
  Alcotest.(check int64) "doubles past 100" 128L (vi (run_func (B.finish b) [||]).(0))

let test_if_both_arms () =
  let mk cond_v =
    let b = B.create ~name:"ite" ~params:[ Ir.I32 ] ~rets:[ Ir.I32 ] () in
    let r = B.fresh b in
    B.if_ b (B.param b 0)
      ~then_:(fun () -> B.mov b r (B.i32 111))
      ~else_:(fun () -> B.mov b r (B.i32 222));
    B.ret b [ B.rv r ];
    vi (run_func (B.finish b) [| VI cond_v |]).(0)
  in
  Alcotest.(check int64) "then" 111L (mk 1L);
  Alcotest.(check int64) "else" 222L (mk 0L)

let test_call_results () =
  let callee =
    let b = B.create ~name:"two" ~pure:true ~params:[ Ir.I32 ] ~rets:[ Ir.I32; Ir.I32 ] () in
    B.ret b [ B.addi b (B.param b 0) (B.i32 1); B.addi b (B.param b 0) (B.i32 2) ];
    B.finish b
  in
  let main =
    let b = B.create ~name:"main" ~params:[] ~rets:[ Ir.I32 ] () in
    match B.call b "two" ~rets:2 [ B.i32 10 ] with
    | [ a; c ] ->
        B.ret b [ B.addi b a c ];
        B.finish b
    | _ -> assert false
  in
  let r = run_program [ main; callee ] "main" [||] (Memory.create ()) in
  Alcotest.(check int64) "11 + 12" 23L (vi r.(0))

let test_loads_stores_via_interp () =
  let b = B.create ~name:"mem" ~params:[ Ir.I64 ] ~rets:[ Ir.F32 ] () in
  let base = B.param b 0 in
  B.store b F32 ~src:(B.f32 2.5) ~base ~offset:8;
  B.ret b [ B.load b F32 base 8 ];
  let r = run_func (B.finish b) [| VI 64L |] in
  Alcotest.(check (float 0.0)) "store/load" 2.5 (vf r.(0))

let test_step_limit () =
  let b = B.create ~name:"inf" ~params:[] ~rets:[ Ir.I32 ] () in
  let x = B.fresh b in
  B.mov b x (B.i32 0);
  B.while_loop b
    ~cond:(fun () -> B.icmp b Ige I32 (B.rv x) (B.i32 0))
    ~body:(fun () -> B.mov b x (B.i32 0));
  B.ret b [ B.rv x ];
  let fn = B.finish b in
  Alcotest.(check bool) "infinite loop trapped" true
    (try
       let program = { Ir.funcs = [| fn |] } in
       let t = Interp.create ~max_steps:1000 ~program ~mem:(Memory.create ()) () in
       ignore (Interp.run t "inf" [||]);
       false
     with Failure _ -> true)

(* --- validation --- *)

let test_validate_ok () =
  let fn =
    let b = B.create ~name:"ok" ~params:[ Ir.I32 ] ~rets:[ Ir.I32 ] () in
    B.ret b [ B.param b 0 ];
    B.finish b
  in
  Alcotest.(check bool) "valid" true (Ir.validate { Ir.funcs = [| fn |] } = Ok ())

let test_validate_unknown_label () =
  let fn =
    {
      Ir.fname = "bad";
      params = [||];
      ret_tys = [||];
      blocks = [| { Ir.label = "entry"; instrs = [||]; term = Jmp "nowhere" } |];
      nregs = 0;
      pure = false;
    }
  in
  Alcotest.(check bool) "invalid" true (Ir.validate { Ir.funcs = [| fn |] } <> Ok ())

let test_validate_pure_store () =
  let b = B.create ~name:"p" ~pure:true ~params:[ Ir.I64 ] ~rets:[] () in
  B.store b I32 ~src:(B.i32 1) ~base:(B.param b 0) ~offset:0;
  B.ret b [];
  let fn = B.finish b in
  Alcotest.(check bool) "pure function may not store" true
    (Ir.validate { Ir.funcs = [| fn |] } <> Ok ())

let test_validate_call_arity () =
  let callee =
    let b = B.create ~name:"g" ~params:[ Ir.I32; Ir.I32 ] ~rets:[] () in
    B.ret b [];
    B.finish b
  in
  let bad =
    let b = B.create ~name:"f" ~params:[] ~rets:[] () in
    ignore (B.call b "g" ~rets:0 [ B.i32 1 ]);
    B.ret b [];
    B.finish b
  in
  Alcotest.(check bool) "arity mismatch caught" true
    (Ir.validate { Ir.funcs = [| bad; callee |] } <> Ok ())

let test_validate_pure_calls_impure () =
  let impure =
    let b = B.create ~name:"imp" ~params:[] ~rets:[] () in
    B.ret b [];
    B.finish b
  in
  let pure =
    let b = B.create ~name:"pur" ~pure:true ~params:[] ~rets:[] () in
    ignore (B.call b "imp" ~rets:0 []);
    B.ret b [];
    B.finish b
  in
  Alcotest.(check bool) "caught" true (Ir.validate { Ir.funcs = [| pure; impure |] } <> Ok ())

let test_builder_double_terminator () =
  let b = B.create ~name:"t" ~params:[] ~rets:[] () in
  B.ret b [];
  Alcotest.(check bool) "second terminator rejected" true
    (try
       B.ret b [];
       false
     with Failure _ -> true)

let test_pp_smoke () =
  let fn =
    let b = B.create ~name:"pp" ~params:[ Ir.F32 ] ~rets:[ Ir.F32 ] () in
    B.ret b [ B.fadd b F32 (B.param b 0) (B.f32 1.0) ];
    B.finish b
  in
  let s = Format.asprintf "%a" Ir.pp_func fn in
  Alcotest.(check bool) "mentions fadd" true (contains s "fadd");
  Alcotest.(check bool) "mentions function name" true (contains s "pp")

let test_static_count () =
  let fn =
    let b = B.create ~name:"sc" ~params:[] ~rets:[ Ir.I32 ] () in
    let x = B.addi b (B.i32 1) (B.i32 2) in
    let y = B.addi b x (B.i32 3) in
    B.ret b [ y ];
    B.finish b
  in
  Alcotest.(check int) "two instrs" 2 (Ir.static_count { Ir.funcs = [| fn |] })

(* --- payload --- *)

let test_payload_roundtrips () =
  let cases =
    [
      (Payload.Pf32, [| Ir.VF 1.5 |]);
      (Payload.Pf64, [| Ir.VF 3.141592653589793 |]);
      (Payload.Pi32, [| Ir.VI (-7L) |]);
      (Payload.Pi64, [| Ir.VI 0x1234_5678_9ABC_DEF0L |]);
      (Payload.Pf32x2, [| Ir.VF (-0.5); Ir.VF 8.25 |]);
      (Payload.Pi32x2, [| Ir.VI 42L; Ir.VI (-42L) |]);
    ]
  in
  List.iter
    (fun (kind, vs) ->
      let back = Payload.unpack kind (Payload.pack kind vs) in
      Alcotest.(check int) "arity" (Array.length vs) (Array.length back);
      Array.iteri
        (fun i v ->
          match (v, back.(i)) with
          | Ir.VI a, Ir.VI b -> Alcotest.(check int64) "int" a b
          | Ir.VF a, Ir.VF b -> Alcotest.(check (float 0.0)) "float" a b
          | _ -> Alcotest.fail "kind flip")
        vs)
    cases

let test_payload_kind_of_rets () =
  Alcotest.(check bool) "f32x2" true (Payload.kind_of_rets [| Ir.F32; Ir.F32 |] = Payload.Pf32x2);
  Alcotest.check_raises "3 outputs rejected"
    (Invalid_argument "Payload.kind_of_rets: signature does not fit one 8-byte LUT entry")
    (fun () -> ignore (Payload.kind_of_rets [| Ir.F32; Ir.F32; Ir.F32 |]))

let test_payload_relative_errors () =
  let e =
    Payload.relative_errors Payload.Pf32
      ~expected:(Payload.pack Payload.Pf32 [| Ir.VF 2.0 |])
      ~actual:(Payload.pack Payload.Pf32 [| Ir.VF 3.0 |])
  in
  Alcotest.(check (float 1e-6)) "50%" 0.5 e.(0)

(* --- memo hooks --- *)

let test_memo_hooks_flow () =
  let sent = ref [] in
  let lookups = ref 0 in
  let updates = ref [] in
  let hooks =
    {
      Interp.send = (fun ~lut ~ty:_ ~trunc:_ v -> sent := (lut, v) :: !sent);
      lookup =
        (fun ~lut:_ ->
          incr lookups;
          if !lookups = 1 then None else Some 77L);
      update = (fun ~lut:_ p -> updates := p :: !updates);
      invalidate = (fun ~lut:_ -> ());
    }
  in
  let fn =
    {
      Ir.fname = "memofn";
      params = [| (0, Ir.I64) |];
      ret_tys = [| Ir.I64 |];
      nregs = 3;
      pure = false;
      blocks =
        [|
          {
            Ir.label = "entry";
            instrs =
              [|
                Ir.Memo (Reg_crc { src = Reg 0; ty = I64; lut = 2; trunc = 0 });
                Ir.Memo (Lookup { dst = 1; lut = 2 });
              |];
            term = Br_memo { on_hit = "hit"; on_miss = "miss" };
          };
          {
            Ir.label = "hit";
            instrs = [| Ir.Mov { dst = 2; src = Reg 1 } |];
            term = Ret [| Reg 2 |];
          };
          {
            Ir.label = "miss";
            instrs = [| Ir.Memo (Update { src = Imm (VI 55L); lut = 2 }) |];
            term = Ret [| Imm (VI 0L) |];
          };
        |];
    }
  in
  let program = { Ir.funcs = [| fn |] } in
  let t = Interp.create ~memo:hooks ~program ~mem:(Memory.create ()) () in
  let r1 = Interp.run t "memofn" [| VI 9L |] in
  Alcotest.(check int64) "miss path" 0L (vi r1.(0));
  Alcotest.(check (list int64)) "update recorded" [ 55L ] !updates;
  let r2 = Interp.run t "memofn" [| VI 9L |] in
  Alcotest.(check int64) "hit path returns payload" 77L (vi r2.(0));
  Alcotest.(check int) "sends observed" 2 (List.length !sent)

let test_memo_without_unit_is_miss () =
  let fn =
    {
      Ir.fname = "m";
      params = [||];
      ret_tys = [| Ir.I64 |];
      nregs = 1;
      pure = false;
      blocks =
        [|
          {
            Ir.label = "entry";
            instrs = [| Ir.Memo (Lookup { dst = 0; lut = 0 }) |];
            term = Br_memo { on_hit = "h"; on_miss = "m" };
          };
          { Ir.label = "h"; instrs = [||]; term = Ret [| Imm (VI 1L) |] };
          { Ir.label = "m"; instrs = [||]; term = Ret [| Imm (VI 0L) |] };
        |];
    }
  in
  let r = run_func fn [||] in
  Alcotest.(check int64) "always miss" 0L (vi r.(0))

(* --- parser --- *)

module Parser = Axmemo_ir.Parser

let test_parse_minimal () =
  let text =
    "pure func inc(r0:i32) -> (i32) [regs=2]\n\
     entry:\n\
     \  r1 = add.i32 r0, 1\n\
     \  ret r1\n"
  in
  match Parser.parse_program text with
  | Error e -> Alcotest.failf "parse failed: %a" Parser.pp_error e
  | Ok p ->
      let fn = Ir.find_func p "inc" in
      Alcotest.(check bool) "pure" true fn.pure;
      Alcotest.(check int) "one block" 1 (Array.length fn.blocks);
      let t = Interp.create ~program:p ~mem:(Memory.create ()) () in
      Alcotest.(check int64) "runs" 42L (vi (Interp.run t "inc" [| VI 41L |]).(0))

let test_parse_comments_and_blanks () =
  let text =
    "# a comment\n\
     \n\
     func f() -> (i32) [regs=1]\n\
     entry:\n\
     \  r0 = const.i32 7\n\
     \  ret r0\n\
     # trailing\n"
  in
  Alcotest.(check bool) "parses" true (Result.is_ok (Parser.parse_program text))

let test_parse_errors_carry_lines () =
  (* Hostile headers are parse errors too, never an exception from the
     parser's own string slicing. *)
  List.iter
    (fun (text, line) ->
      match Parser.parse_program text with
      | Ok _ -> Alcotest.failf "expected a parse error for %S" text
      | Error e -> Alcotest.(check int) (Printf.sprintf "line of %S" text) line e.line)
    [
      ("func f() -> (i32) [regs=1]\nentry:\n  r0 = frobnicate r1\n  ret r0\n", 3);
      ("func )( -> f64 {\n", 1);
      ("func )(%0: f\xc04) -> f64 {\n", 1);
      ("func @main() -> f64 {\n", 1);
    ]

let test_parse_missing_terminator () =
  let text = "func f() -> () [regs=1]\nentry:\n  r0 = const.i32 1\n" in
  Alcotest.(check bool) "rejected" true (Result.is_error (Parser.parse_program text))

let test_parse_rejects_invalid_program () =
  (* Syntactically fine, semantically bad: jump to a missing label. *)
  let text = "func f() -> () [regs=1]\nentry:\n  jmp nowhere\n" in
  Alcotest.(check bool) "validation rejects" true (Result.is_error (Parser.parse_program text))

let all_instruction_forms_func () =
  (* A function exercising every printable instruction form. *)
  let b = B.create ~name:"all_forms" ~params:[ Ir.I64; Ir.F32 ] ~rets:[ Ir.F32 ] () in
  let base = B.param b 0 and x = B.param b 1 in
  let i = B.binop b Add I32 (B.i32 1) (B.i32 2) in
  let i = B.binop b Mul I32 i (B.i32 3) in
  let i = B.binop b Ashr I32 i (B.i32 1) in
  let f = B.fadd b F32 x (B.f32 0.5) in
  let f = B.fdiv b F32 f (B.f32 2.0) in
  let f = B.funop b Fsqrt F32 (B.funop b Fabs F32 f) in
  let c = B.icmp b Ilt I32 i (B.i32 100) in
  let fc = B.fcmp b Fge F32 f (B.f32 0.0) in
  let sel = B.select b c f (B.f32 1.0) in
  let cast = B.cast b I_to_f (B.cast b Trunc_64_32 (B.cast b Bits_of_f32 sel)) in
  B.store b F32 ~src:cast ~base ~offset:4;
  let ld = B.load b F32 base 4 in
  let r = B.fresh b in
  B.if_ b fc ~then_:(fun () -> B.mov b r ld) ~else_:(fun () -> B.mov b r (B.f32 0.0));
  B.for_loop b ~from:(B.i32 0) ~below:(B.i32 3) (fun _ -> ());
  B.ret b [ B.rv r ];
  B.finish b

let test_roundtrip_hand_built () =
  let p = { Ir.funcs = [| all_instruction_forms_func () |] } in
  match Parser.roundtrip p with
  | Error e -> Alcotest.failf "roundtrip failed: %a" Parser.pp_error e
  | Ok p' ->
      (* semantic equivalence: same result on the same inputs *)
      let run prog =
        let mem = Memory.create () in
        let t = Interp.create ~program:prog ~mem () in
        vf (Interp.run t "all_forms" [| VI 64L; VF 2.5 |]).(0)
      in
      Alcotest.(check (float 0.0)) "same behaviour" (run p) (run p')

let test_roundtrip_memo_instructions () =
  let fn =
    {
      Ir.fname = "memofn";
      params = [| (0, Ir.I64) |];
      ret_tys = [| Ir.I64 |];
      nregs = 4;
      pure = false;
      blocks =
        [|
          {
            Ir.label = "entry";
            instrs =
              [|
                Ir.Memo (Ld_crc { dst = 1; ty = F32; base = Reg 0; offset = 8; lut = 2; trunc = 5 });
                Ir.Memo (Reg_crc { src = Reg 1; ty = F32; lut = 2; trunc = 5 });
                Ir.Memo (Lookup { dst = 2; lut = 2 });
              |];
            term = Br_memo { on_hit = "hit"; on_miss = "miss" };
          };
          { Ir.label = "hit"; instrs = [||]; term = Ret [| Reg 2 |] };
          {
            Ir.label = "miss";
            instrs =
              [|
                Ir.Memo (Update { src = Imm (VI 5L); lut = 2 });
                Ir.Memo (Invalidate { lut = 2 });
              |];
            term = Ret [| Imm (VI 0L) |];
          };
        |];
    }
  in
  let p = { Ir.funcs = [| fn |] } in
  match Parser.roundtrip p with
  | Error e -> Alcotest.failf "roundtrip failed: %a" Parser.pp_error e
  | Ok p' ->
      Alcotest.(check bool) "structurally equal" true (p = p')

let test_roundtrip_all_workload_programs () =
  (* The printer/parser pair must round-trip every benchmark, before and
     after the AxMemo transformation. *)
  List.iter
    (fun ((meta : Axmemo_workloads.Workload.meta), make) ->
      let (instance : Axmemo_workloads.Workload.instance) =
        make Axmemo_workloads.Workload.Sample
      in
      (match Parser.roundtrip instance.program with
      | Error e -> Alcotest.failf "%s: %a" meta.name Parser.pp_error e
      | Ok p' ->
          Alcotest.(check bool) (meta.name ^ " structurally equal") true
            (p' = instance.program));
      let memoized =
        Axmemo_compiler.Transform.memoize ?barrier:instance.barrier
          ~entry:instance.entry instance.program instance.regions
      in
      match Parser.roundtrip memoized with
      | Error e -> Alcotest.failf "%s (memoized): %a" meta.name Parser.pp_error e
      | Ok p' ->
          Alcotest.(check bool) (meta.name ^ " memoized equal") true (p' = memoized))
    Axmemo_workloads.Registry.all

(* --- properties --- *)

let prop_payload_roundtrip_i32x2 =
  QCheck.Test.make ~name:"Pi32x2 roundtrip" ~count:300 QCheck.(pair int32 int32)
    (fun (a, c) ->
      let vs = [| Ir.VI (Int64.of_int32 a); Ir.VI (Int64.of_int32 c) |] in
      Payload.unpack Payload.Pi32x2 (Payload.pack Payload.Pi32x2 vs) = vs)

let prop_payload_roundtrip_f64 =
  QCheck.Test.make ~name:"Pf64 roundtrip" ~count:300 QCheck.float (fun x ->
      QCheck.assume (Float.is_finite x);
      Payload.unpack Payload.Pf64 (Payload.pack Payload.Pf64 [| Ir.VF x |]) = [| Ir.VF x |])

let prop_interp_matches_native_i32 =
  QCheck.Test.make ~name:"i32 ops match native semantics" ~count:200
    QCheck.(triple int32 int32 (int_bound 5))
    (fun (x, y, op_idx) ->
      let op, native =
        match op_idx with
        | 0 -> (Ir.Add, Int32.add)
        | 1 -> (Ir.Sub, Int32.sub)
        | 2 -> (Ir.Mul, Int32.mul)
        | 3 -> (Ir.And, Int32.logand)
        | 4 -> (Ir.Or, Int32.logor)
        | _ -> (Ir.Xor, Int32.logxor)
      in
      let b = B.create ~name:"op" ~params:[ Ir.I32; Ir.I32 ] ~rets:[ Ir.I32 ] () in
      B.ret b [ B.binop b op I32 (B.param b 0) (B.param b 1) ];
      let r =
        run_func (B.finish b) [| VI (Int64.of_int32 x); VI (Int64.of_int32 y) |]
      in
      vi r.(0) = Int64.of_int32 (native x y))

(* --- random-program fuzzing ---

   Straight-line programs over i32 arithmetic are generated from a seed, run
   through the interpreter, and checked against an independent evaluator that
   re-implements the semantics directly; the same programs also pin the
   printer/parser round trip. *)

module Rng = Axmemo_util.Rng

type rand_op = { op : Ir.binop; a_src : int; b_src : int; b_imm : int64 option }

let random_straightline rng n =
  List.init n (fun i ->
      let op =
        [| Ir.Add; Ir.Sub; Ir.Mul; Ir.And; Ir.Or; Ir.Xor; Ir.Shl; Ir.Lshr; Ir.Ashr |]
        |> Rng.choose rng
      in
      let a_src = Rng.int rng (i + 1) in
      let b_src = Rng.int rng (i + 1) in
      let b_imm =
        if Rng.bool rng then Some (Int64.of_int (Rng.int rng 1000 - 500)) else None
      in
      { op; a_src; b_src; b_imm })

let build_random_func ops =
  (* r0 is the parameter; instruction i defines r(i+1). *)
  let n = List.length ops in
  let instrs =
    List.mapi
      (fun i { op; a_src; b_src; b_imm } ->
        let b = match b_imm with Some v -> Ir.Imm (VI v) | None -> Ir.Reg b_src in
        Ir.Binop { op; ty = I32; dst = i + 1; a = Reg a_src; b })
      ops
  in
  {
    Ir.fname = "fuzz";
    params = [| (0, Ir.I32) |];
    ret_tys = [| Ir.I32 |];
    nregs = n + 1;
    pure = true;
    blocks =
      [| { Ir.label = "entry"; instrs = Array.of_list instrs; term = Ret [| Reg n |] } |];
  }

(* Independent reference semantics. *)
let reference_eval ops x0 =
  let sext32 v = Int64.shift_right (Int64.shift_left v 32) 32 in
  let regs = Array.make (List.length ops + 1) 0L in
  regs.(0) <- sext32 x0;
  List.iteri
    (fun i { op; a_src; b_src; b_imm } ->
      let a = regs.(a_src) in
      let b = match b_imm with Some v -> v | None -> regs.(b_src) in
      let r =
        match op with
        | Ir.Add -> Int64.add a b
        | Ir.Sub -> Int64.sub a b
        | Ir.Mul -> Int64.mul a b
        | Ir.And -> Int64.logand a b
        | Ir.Or -> Int64.logor a b
        | Ir.Xor -> Int64.logxor a b
        | Ir.Shl -> Int64.shift_left a (Int64.to_int b land 31)
        | Ir.Lshr ->
            Int64.shift_right_logical (Int64.logand a 0xFFFFFFFFL) (Int64.to_int b land 31)
        | Ir.Ashr -> Int64.shift_right a (Int64.to_int b land 31)
        | Ir.Div | Ir.Rem -> assert false
      in
      regs.(i + 1) <- sext32 r)
    ops;
  regs.(List.length ops)

let prop_random_programs_match_reference =
  QCheck.Test.make ~name:"random straight-line programs match reference semantics"
    ~count:200
    QCheck.(triple int64 (int_range 1 40) int32)
    (fun (seed, n, x0) ->
      let rng = Rng.create seed in
      let ops = random_straightline rng n in
      let fn = build_random_func ops in
      let x0 = Int64.of_int32 x0 in
      vi (run_func fn [| VI x0 |]).(0) = reference_eval ops x0)

let prop_random_programs_roundtrip =
  QCheck.Test.make ~name:"random programs survive print/parse" ~count:100
    QCheck.(pair int64 (int_range 1 40))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let fn = build_random_func (random_straightline rng n) in
      match Parser.roundtrip { Ir.funcs = [| fn |] } with
      | Ok p' -> p' = { Ir.funcs = [| fn |] }
      | Error _ -> false)

let prop_random_programs_validate =
  QCheck.Test.make ~name:"random programs validate" ~count:100
    QCheck.(pair int64 (int_range 1 40))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let fn = build_random_func (random_straightline rng n) in
      Ir.validate { Ir.funcs = [| fn |] } = Ok ())

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_payload_roundtrip_i32x2; prop_payload_roundtrip_f64;
      prop_interp_matches_native_i32; prop_random_programs_match_reference;
      prop_random_programs_roundtrip; prop_random_programs_validate ]

let () =
  Alcotest.run "ir"
    [
      ( "memory",
        [
          Alcotest.test_case "roundtrip" `Quick test_memory_roundtrip;
          Alcotest.test_case "alloc aligned" `Quick test_memory_alloc_aligned;
          Alcotest.test_case "bad align" `Quick test_memory_alloc_bad_align;
          Alcotest.test_case "typed mismatch" `Quick test_memory_typed_mismatch;
          Alcotest.test_case "out of memory" `Quick test_memory_oom;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "i32 wraparound" `Quick test_arith_i32_wraparound;
          Alcotest.test_case "div by zero" `Quick test_div_by_zero;
          Alcotest.test_case "f32 rounding" `Quick test_f32_rounding;
          Alcotest.test_case "shift masking" `Quick test_shift_masking;
          Alcotest.test_case "select" `Quick test_select;
          Alcotest.test_case "bit casts" `Quick test_casts_roundtrip;
          Alcotest.test_case "f_to_i truncates" `Quick test_f_to_i_truncates;
          Alcotest.test_case "for loop" `Quick test_for_loop_sum;
          Alcotest.test_case "while loop" `Quick test_while_loop;
          Alcotest.test_case "if both arms" `Quick test_if_both_arms;
          Alcotest.test_case "multi-result call" `Quick test_call_results;
          Alcotest.test_case "loads and stores" `Quick test_loads_stores_via_interp;
          Alcotest.test_case "step limit" `Quick test_step_limit;
        ] );
      ( "validation",
        [
          Alcotest.test_case "accepts valid" `Quick test_validate_ok;
          Alcotest.test_case "unknown label" `Quick test_validate_unknown_label;
          Alcotest.test_case "pure store" `Quick test_validate_pure_store;
          Alcotest.test_case "call arity" `Quick test_validate_call_arity;
          Alcotest.test_case "pure calls impure" `Quick test_validate_pure_calls_impure;
          Alcotest.test_case "double terminator" `Quick test_builder_double_terminator;
          Alcotest.test_case "pretty printer" `Quick test_pp_smoke;
          Alcotest.test_case "static count" `Quick test_static_count;
        ] );
      ( "payload",
        [
          Alcotest.test_case "roundtrips" `Quick test_payload_roundtrips;
          Alcotest.test_case "kind_of_rets" `Quick test_payload_kind_of_rets;
          Alcotest.test_case "relative errors" `Quick test_payload_relative_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "minimal" `Quick test_parse_minimal;
          Alcotest.test_case "comments and blanks" `Quick test_parse_comments_and_blanks;
          Alcotest.test_case "errors carry lines" `Quick test_parse_errors_carry_lines;
          Alcotest.test_case "missing terminator" `Quick test_parse_missing_terminator;
          Alcotest.test_case "invalid program" `Quick test_parse_rejects_invalid_program;
          Alcotest.test_case "roundtrip hand-built" `Quick test_roundtrip_hand_built;
          Alcotest.test_case "roundtrip memo forms" `Quick test_roundtrip_memo_instructions;
          Alcotest.test_case "roundtrip all workloads" `Quick test_roundtrip_all_workload_programs;
        ] );
      ( "memo hooks",
        [
          Alcotest.test_case "flow" `Quick test_memo_hooks_flow;
          Alcotest.test_case "no unit = miss" `Quick test_memo_without_unit_is_miss;
        ] );
      ("properties", qsuite);
    ]
