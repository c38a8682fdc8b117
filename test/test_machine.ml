(* Tests for the machine: functional engine semantics (arithmetic,
   control flow, memory, stubs, FP, widths), the branch predictor, and
   sanity properties of the timing model. *)

open Chex86_isa
module Engine = Chex86_machine.Engine
module Simulator = Chex86_machine.Simulator
module Bpred = Chex86_machine.Bpred
module Counter = Chex86_stats.Counter

(* Build a program from an instruction list (entry at the start). *)
let prog insns =
  let b = Asm.create () in
  Asm.label b "_start";
  List.iter (Asm.emit b) insns;
  Asm.build b

(* Run functionally; return the engine for state inspection. *)
let run_functional ?(max_insns = 1_000_000) program =
  let proc = Chex86_os.Process.load program in
  let engine = Engine.create proc in
  let rec loop n =
    if n > max_insns then Alcotest.fail "instruction budget exceeded"
    else match Engine.step engine with None -> () | Some _ -> loop (n + 1)
  in
  loop 0;
  engine

let check_reg engine reg expected =
  Alcotest.(check int) (Reg.name reg) expected (Engine.read_reg engine reg)

let test_arithmetic () =
  let e =
    run_functional
      (prog
         [
           Mov (W64, Reg RAX, Imm 10);
           Mov (W64, Reg RBX, Imm 3);
           Alu (Add, Reg RAX, Reg RBX);  (* 13 *)
           Alu (Imul, Reg RAX, Imm 4);  (* 52 *)
           Alu (Sub, Reg RAX, Imm 2);  (* 50 *)
           Mov (W64, Reg RCX, Reg RAX);
           Alu (And, Reg RCX, Imm 0x3C);  (* 0x30 *)
           Alu (Or, Reg RCX, Imm 1);  (* 0x31 *)
           Alu (Xor, Reg RCX, Imm 0xF0);  (* 0xC1 *)
           Alu (Shl, Reg RCX, Imm 2);
           Alu (Shr, Reg RCX, Imm 1);
           Neg RBX;
           Halt;
         ])
  in
  check_reg e RAX 50;
  check_reg e RCX (0xC1 lsl 1);
  check_reg e RBX (-3)

let test_lea () =
  let e =
    run_functional
      (prog
         [
           Mov (W64, Reg RBX, Imm 0x1000);
           Mov (W64, Reg RCX, Imm 4);
           Lea (RAX, Insn.mem ~base:RBX ~index:RCX ~scale:8 ~disp:16 ());
           Halt;
         ])
  in
  check_reg e RAX (0x1000 + 32 + 16)

let test_loop_and_conditions () =
  (* sum 1..10 via a loop *)
  let b = Asm.create () in
  Asm.label b "_start";
  Asm.emit b (Mov (W64, Reg RAX, Imm 0));
  Asm.emit b (Mov (W64, Reg RCX, Imm 1));
  Asm.label b "loop";
  Asm.emit b (Alu (Add, Reg RAX, Reg RCX));
  Asm.emit b (Insn.Inc (Reg RCX));
  Asm.emit b (Cmp (Reg RCX, Imm 10));
  Asm.emit b (Jcc (Le, "loop"));
  Asm.emit b Halt;
  let e = run_functional (Asm.build b) in
  check_reg e RAX 55

let test_all_conditions () =
  (* For each condition, set rbx=1 if (5 ? 7) holds. *)
  let check cond expected =
    let b = Asm.create () in
    Asm.label b "_start";
    Asm.emit b (Mov (W64, Reg RBX, Imm 0));
    Asm.emit b (Mov (W64, Reg RAX, Imm 5));
    Asm.emit b (Cmp (Reg RAX, Imm 7));
    Asm.emit b (Jcc (cond, "taken"));
    Asm.emit b (Insn.Jmp "end");
    Asm.label b "taken";
    Asm.emit b (Mov (W64, Reg RBX, Imm 1));
    Asm.label b "end";
    Asm.emit b Halt;
    let e = run_functional (Asm.build b) in
    Alcotest.(check int) (Insn.cond_name cond) expected (Engine.read_reg e RBX)
  in
  check Eq 0;
  check Ne 1;
  check Lt 1;
  check Le 1;
  check Gt 0;
  check Ge 0

let test_memory_widths () =
  let b = Asm.create () in
  let g = Asm.global b "buf" 16 in
  Asm.label b "_start";
  Asm.emit b (Mov (W64, Reg RAX, Imm 0x1122334455667788));
  Asm.emit b (Mov (W64, Mem (Insn.mem_abs g), Reg RAX));
  Asm.emit b (Mov (W8, Reg RBX, Mem (Insn.mem_abs g)));
  Asm.emit b (Mov (W16, Reg RCX, Mem (Insn.mem_abs g)));
  Asm.emit b (Mov (W32, Reg RDX, Mem (Insn.mem_abs g)));
  Asm.emit b (Mov (W8, Mem (Insn.mem_abs (g + 8)), Imm 0x1FF));  (* truncated *)
  Asm.emit b (Mov (W64, Reg RSI, Mem (Insn.mem_abs (g + 8))));
  Asm.emit b Halt;
  let e = run_functional (Asm.build b) in
  check_reg e RBX 0x88;
  check_reg e RCX 0x7788;
  check_reg e RDX 0x55667788;
  check_reg e RSI 0xFF

let test_call_ret_stack () =
  let b = Asm.create () in
  Asm.label b "_start";
  Asm.emit b (Mov (W64, Reg RAX, Imm 1));
  Asm.emit b (Call (Label "double_it"));
  Asm.emit b (Call (Label "double_it"));
  Asm.emit b Halt;
  Asm.label b "double_it";
  Asm.emit b (Alu (Add, Reg RAX, Reg RAX));
  Asm.emit b Ret;
  let e = run_functional (Asm.build b) in
  check_reg e RAX 4;
  Alcotest.(check int) "stack pointer restored" Program.stack_top
    (Engine.read_reg e RSP)

let test_push_pop () =
  let e =
    run_functional
      (prog
         [
           Mov (W64, Reg RAX, Imm 111);
           Mov (W64, Reg RBX, Imm 222);
           Push (Reg RAX);
           Push (Reg RBX);
           Pop RCX;
           Pop RDX;
           Halt;
         ])
  in
  check_reg e RCX 222;
  check_reg e RDX 111

let test_indirect_control () =
  let b = Asm.create () in
  Asm.label b "_start";
  Asm.emit b (Mov (W64, Reg RAX, Imm 0));
  Asm.emit b (Mov (W64, Reg R10, Imm (Program.text_base + (4 * 4))));  (* &target *)
  Asm.emit b (Insn.Jmp_reg R10);
  Asm.emit b (Mov (W64, Reg RAX, Imm 99));  (* skipped *)
  Asm.label b "target";
  Asm.emit b (Insn.Inc (Reg RAX));
  Asm.emit b Halt;
  let e = run_functional (Asm.build b) in
  check_reg e RAX 1

(* Call through a register; the target address is the known index of the
   "fn" label. *)
let test_call_reg_simple () =
  let b = Asm.create () in
  Asm.label b "_start";
  Asm.emit b (Insn.Jmp "main");
  Asm.label b "fn";
  Asm.emit b (Mov (W64, Reg RAX, Imm 77));
  Asm.emit b Ret;
  Asm.label b "main";
  (* fn is instruction index 1 *)
  Asm.emit b (Mov (W64, Reg R11, Imm (Program.addr_of_index 1)));
  Asm.emit b (Insn.Call_reg R11);
  Asm.emit b Halt;
  let e = run_functional (Asm.build b) in
  check_reg e RAX 77

let test_fp () =
  let b = Asm.create () in
  let g = Asm.global b "out" 8 in
  Asm.label b "_start";
  Asm.emit b (Mov (W64, Reg RAX, Imm 9));
  Asm.emit b (Cvtsi2sd (0, RAX));
  Asm.emit b (Insn.Fp (Fsqrt, 1, 0));  (* xmm1 = 3.0 *)
  Asm.emit b (Insn.Fp (Fadd, 1, 0));  (* 12.0 *)
  Asm.emit b (Insn.Fp (Fmul, 1, 1));  (* 144.0 *)
  Asm.emit b (Movsd_store (Insn.mem_abs g, 1));
  Asm.emit b (Movsd_load (2, Insn.mem_abs g));
  Asm.emit b (Cvtsd2si (RBX, 2));
  Asm.emit b Halt;
  let e = run_functional (Asm.build b) in
  check_reg e RBX 144

let test_malloc_stub () =
  let b = Asm.create () in
  Asm.label b "_start";
  Asm.call_malloc b 64;
  Asm.emit b (Mov (W64, Mem (Insn.mem_of_reg RAX), Imm 42));
  Asm.emit b (Mov (W64, Reg RBX, Mem (Insn.mem_of_reg RAX)));
  Asm.call_free b RAX;
  Asm.emit b Halt;
  let e = run_functional (Asm.build b) in
  check_reg e RBX 42

let test_memset_memcpy_stubs () =
  let b = Asm.create () in
  let src = Asm.global b "src" 16 and dst = Asm.global b "dst" 16 in
  Asm.label b "_start";
  Asm.emit b (Mov (W64, Reg RDI, Imm src));
  Asm.emit b (Mov (W64, Reg RSI, Imm 0xAB));
  Asm.emit b (Mov (W64, Reg RDX, Imm 8));
  Asm.call_extern b "memset";
  Asm.emit b (Mov (W64, Reg RDI, Imm dst));
  Asm.emit b (Mov (W64, Reg RSI, Imm src));
  Asm.emit b (Mov (W64, Reg RDX, Imm 8));
  Asm.call_extern b "memcpy";
  Asm.emit b (Mov (W64, Reg RBX, Mem (Insn.mem_abs dst)));
  Asm.emit b Halt;
  let e = run_functional (Asm.build b) in
  (* 0xAB repeated; the top byte is clipped by OCaml's 63-bit int, so
     compare the low 7 bytes. *)
  Alcotest.(check int) "memset+memcpy pattern" 0xABABABABABABAB
    (Engine.read_reg e RBX land 0xFFFFFFFFFFFFFF)

let test_guest_fault_on_wild_fetch () =
  let b = Asm.create () in
  Asm.label b "_start";
  Asm.emit b (Mov (W64, Reg R10, Imm 0x12345678));
  Asm.emit b (Insn.Jmp_reg R10);
  Asm.emit b Halt;
  let proc = Chex86_os.Process.load (Asm.build b) in
  let engine = Engine.create proc in
  ignore (Engine.step engine);
  ignore (Engine.step engine);
  Alcotest.check_raises "fetch outside text"
    (Engine.Guest_fault "execution left the text segment at 0x12345678") (fun () ->
      ignore (Engine.step engine))

let test_bpred_learns_loop () =
  let g = Counter.create_group () in
  let bp = Bpred.create g in
  (* A loop branch: taken 63 times, then fall through; repeated. *)
  for _ = 1 to 20 do
    for i = 1 to 64 do
      ignore (Bpred.resolve bp ~pc:0x400100 ~kind:(Uop.Cond Insn.Ne) ~taken:(i < 64) ~target:0x400080)
    done
  done;
  let correct = Counter.get g "bpred.cond_correct"
  and wrong = Counter.get g "bpred.cond_mispredict" in
  Alcotest.(check bool)
    (Printf.sprintf "high accuracy (%d/%d)" correct (correct + wrong))
    true
    (float_of_int correct /. float_of_int (correct + wrong) > 0.9)

let test_bpred_ras () =
  let g = Counter.create_group () in
  let bp = Bpred.create g in
  ignore (Bpred.resolve bp ~pc:0x400100 ~kind:Uop.Call ~taken:true ~target:0x400200);
  ignore (Bpred.resolve bp ~pc:0x400300 ~kind:Uop.Call ~taken:true ~target:0x400400);
  ignore (Bpred.resolve bp ~pc:0x400500 ~kind:Uop.Ret ~taken:true ~target:0x400304);
  ignore (Bpred.resolve bp ~pc:0x400600 ~kind:Uop.Ret ~taken:true ~target:0x400104);
  Alcotest.(check int) "returns predicted by RAS" 2 (Counter.get g "bpred.ras_correct")

let test_bpred_btb () =
  let g = Counter.create_group () in
  let bp = Bpred.create g in
  ignore (Bpred.resolve bp ~pc:0x400100 ~kind:Uop.Indirect ~taken:true ~target:0x400800);
  ignore (Bpred.resolve bp ~pc:0x400100 ~kind:Uop.Indirect ~taken:true ~target:0x400800);
  Alcotest.(check int) "second indirect hits BTB" 1 (Counter.get g "bpred.btb_correct")

(* Pins the direction predictor on a fixed stream mixing loop,
   history-correlated, biased and noisy branches over 64 sites, enough
   to allocate and age entries in all three tagged tables.  The count
   was recorded before the tables were packed into flat arrays; a
   standalone [Bpred.t] is fully built and must predict exactly as it
   did. *)
let test_bpred_pinned_stream () =
  let g = Counter.create_group () in
  let bp = Bpred.create g in
  let state = ref 12345 in
  let rand () =
    state := ((!state * 1103515245) + 12345) land 0x3FFF_FFFF;
    !state lsr 12
  in
  let last = ref false and correct = ref 0 in
  for i = 0 to 19_999 do
    let site = rand () mod 64 in
    let pc = 0x400000 + (site * 12) in
    let taken =
      match site mod 4 with
      | 0 -> i mod 7 <> 0
      | 1 -> !last
      | 2 -> rand () mod 3 = 0
      | _ -> site land 8 = 0
    in
    last := taken;
    if Bpred.predict_direction bp pc = taken then incr correct;
    ignore (Bpred.resolve bp ~pc ~kind:(Uop.Cond Insn.Ne) ~taken ~target:(pc - 64))
  done;
  Alcotest.(check int) "correct predictions" 15298 !correct;
  Alcotest.(check int) "resolve agrees with predict_direction" !correct
    (Counter.get g "bpred.cond_correct")

let timed_run program =
  let proc = Chex86_os.Process.load program in
  let sim = Simulator.create proc in
  Simulator.run sim

let test_timing_sanity () =
  let straight =
    prog (List.init 200 (fun i -> Insn.Mov (W64, Reg RAX, Imm i)) @ [ Insn.Halt ])
  in
  let r = timed_run straight in
  Alcotest.(check bool) "cycles positive" true (r.Simulator.cycles > 0);
  Alcotest.(check bool) "bounded by fetch width" true
    (r.Simulator.cycles > 200 / Chex86_machine.Config.default.fetch_width);
  Alcotest.(check int) "uop count" 201 r.Simulator.uops

let test_timing_mispredict_costs () =
  (* Data-dependent unpredictable branches vs the same loop without them. *)
  let branchy =
    let b = Asm.create () in
    Asm.label b "_start";
    Asm.emit b (Mov (W64, Reg R9, Imm 0x1234567));
    Asm.loop_n b ~counter:R15 ~n:2000 (fun () ->
        Chex86_workloads.Kernels.lcg_next b ~state:R9 ~dst:R10;
        Asm.emit b (Test (Reg R10, Imm 1));
        let skip = Asm.fresh b "skip" in
        Asm.emit b (Jcc (Eq, skip));
        Asm.emit b (Insn.Inc (Reg RAX));
        Asm.label b skip);
    Asm.emit b Halt;
    Asm.build b
  in
  let predictable =
    let b = Asm.create () in
    Asm.label b "_start";
    Asm.emit b (Mov (W64, Reg R9, Imm 0x1234567));
    Asm.loop_n b ~counter:R15 ~n:2000 (fun () ->
        Chex86_workloads.Kernels.lcg_next b ~state:R9 ~dst:R10;
        Asm.emit b (Test (Reg R10, Imm 0));  (* never taken *)
        let skip = Asm.fresh b "skip" in
        Asm.emit b (Jcc (Ne, skip));
        Asm.emit b (Insn.Inc (Reg RAX));
        Asm.label b skip);
    Asm.emit b Halt;
    Asm.build b
  in
  let rb = timed_run branchy and rp = timed_run predictable in
  Alcotest.(check bool)
    (Printf.sprintf "mispredicts cost cycles (%d vs %d)" rb.Simulator.cycles
       rp.Simulator.cycles)
    true
    (rb.Simulator.cycles > rp.Simulator.cycles)

(* The key property of the latency split: [commit_latency] (shadow
   lookups off the critical path) must not serialize a dependent chain,
   while the same amount of [extra_latency] must. *)
let test_commit_vs_result_latency () =
  let chase_program () =
    (* A long load-to-load dependent chain through a linked list. *)
    let b = Asm.create () in
    let slot = Asm.global b "head" 8 in
    Asm.label b "_start";
    Chex86_workloads.Kernels.build_list b ~n:400 ~node_size:32 ~head:RBX ~head_slot:slot;
    Chex86_workloads.Kernels.chase_list b ~head:RBX;
    Asm.emit b Halt;
    Asm.build b
  in
  let run_with reaction_of =
    let proc = Chex86_os.Process.load (chase_program ()) in
    let hooks = Chex86_machine.Hooks.none () in
    hooks.Chex86_machine.Hooks.active <- true;
    hooks.Chex86_machine.Hooks.exec_uop <-
      (fun _ uop ~ea:_ ~result:_ ->
        match uop with Chex86_isa.Uop.Load _ -> reaction_of () | _ -> Chex86_machine.Hooks.no_reaction);
    let sim = Simulator.create ~hooks proc in
    (Simulator.run sim).Simulator.cycles
  in
  let baseline = run_with (fun () -> Chex86_machine.Hooks.no_reaction) in
  let commit_side =
    run_with (fun () -> { Chex86_machine.Hooks.no_reaction with commit_latency = 50 })
  in
  let result_side =
    run_with (fun () -> { Chex86_machine.Hooks.no_reaction with extra_latency = 50 })
  in
  Alcotest.(check bool)
    (Printf.sprintf "commit latency is absorbed (%d vs %d)" commit_side baseline)
    true
    (float_of_int commit_side < 1.3 *. float_of_int baseline);
  Alcotest.(check bool)
    (Printf.sprintf "result latency serializes the chain (%d vs %d)" result_side baseline)
    true
    (result_side > 2 * baseline)

(* ---- Direct pipeline-timing regressions ------------------------------ *)

module Pipeline = Chex86_machine.Pipeline
module MHooks = Chex86_machine.Hooks

(* The engine's step/exec_uop records are plain mutable structs, so the
   tests below synthesize exact uop/ea/reaction sequences that the full
   engine cannot easily be coaxed into producing. *)
let eu ?(killed = 0) ?(ea = 0) uop =
  {
    Engine.uop;
    ea;
    reaction =
      (if killed = 0 then MHooks.no_reaction
       else
         { MHooks.extra_latency = 0; commit_latency = 0; flush = false; killed_uops = killed });
  }

let mk_step ~pc uops =
  { Engine.pc; insn = None; native = None; path = Decoder.Simple; uops; branch = None }

let pipeline_cycles steps =
  let g = Counter.create_group () in
  let p = Pipeline.create (Chex86_mem.Hierarchy.create g) g in
  List.iter (Pipeline.on_step p) steps;
  Pipeline.cycles p

(* Regression for the fetch-slot overflow bug: a zero-idiom kill burst of
   [3 * fetch_width] µops must push fetch forward three whole cycles.
   The old code charged a single cycle for an arbitrarily large backlog. *)
let test_fetch_kill_burst_carry () =
  let w = Chex86_machine.Config.default.fetch_width in
  let steps killed =
    List.init 64 (fun i ->
        mk_step ~pc:0x1000 [| eu ~killed:(if i = 0 then killed else 0) Uop.Nop |])
  in
  let base = pipeline_cycles (steps 0) in
  let burst = pipeline_cycles (steps (3 * w)) in
  Alcotest.(check int) "3*fetch_width kill burst carries 3 whole cycles" (base + 3) burst

(* Regression for the store-forwarding table: the old implementation
   wholesale-reset all in-flight forwarding state once its hashtable
   crossed 8192 entries.  The direct-mapped replacement must keep
   forwarding a granule across more than 8192 intervening stores to
   non-conflicting slots, and lose it only to a store that actually
   conflicts on its slot.  The load feeds a long dependent ALU chain so
   its completion time (forwarded vs D-cache) is visible past the
   store-port commit backlog. *)
let test_store_forwarding_survives_old_threshold () =
  let mem0 = Insn.mem_abs 0 in
  let target = 0x100000 in  (* granule 0x20000: slot 0 of the 8192-slot table *)
  let conflict = target + (8192 * 8) in  (* different granule, same slot *)
  let store a = eu ~ea:a (Uop.Store { src = Uop.Imm 0; mem = mem0; width = Insn.W64 }) in
  let load a = eu ~ea:a (Uop.Load { dst = Uop.Greg Reg.RAX; mem = mem0; width = Insn.W64 }) in
  let alu =
    Uop.Alu { op = Insn.Add; dst = Uop.Greg Reg.RAX; src1 = Uop.Greg Reg.RAX; src2 = Uop.Imm 1 }
  in
  (* 8192 distinct granules, none landing in slot 0: crosses the old
     reset threshold together with [target]. *)
  let fillers = List.init 8192 (fun i -> store (8 * (if i < 8191 then i + 1 else 8193))) in
  let run ~conflicting =
    let uops =
      (store target :: fillers)
      @ (if conflicting then [ store conflict ] else [])
      @ load target
        :: List.init 8192 (fun _ -> eu alu)
    in
    pipeline_cycles (List.map (fun u -> mk_step ~pc:0x1000 [| u |]) uops)
  in
  let forwarded = run ~conflicting:false in
  let displaced = run ~conflicting:true in
  Alcotest.(check bool)
    (Printf.sprintf "forwarding survives 8192+ stores (%d < %d)" forwarded displaced)
    true (forwarded < displaced)

let timing_counters (r : Simulator.result) =
  List.filter
    (fun (name, _) ->
      String.starts_with ~prefix:"pipeline." name || String.starts_with ~prefix:"bpred." name)
    (Counter.to_list r.Simulator.counters)

(* The branch predictor and the forwarding table are built by the first
   timed step, but their counters are registered with the machine: a
   functional run lists every [pipeline.*] and [bpred.*] counter a timed
   run does, each at 0. *)
let test_functional_run_lists_timing_counters () =
  let program () =
    let b = Asm.create () in
    Asm.label b "_start";
    Asm.loop_n b ~counter:R15 ~n:100 (fun () -> Asm.emit b (Insn.Inc (Reg RAX)));
    Asm.emit b Halt;
    Asm.build b
  in
  let run f = f (Simulator.create (Chex86_os.Process.load (program ()))) in
  let functional = timing_counters (run (fun sim -> Simulator.run_functional sim)) in
  let timed = timing_counters (run (fun sim -> Simulator.run sim)) in
  Alcotest.(check (list string)) "same timing counters" (List.map fst timed)
    (List.map fst functional);
  Alcotest.(check int) "8 pipeline + 6 bpred counters" 14 (List.length functional);
  List.iter (fun (name, v) -> Alcotest.(check int) name 0 v) functional;
  Alcotest.(check bool) "the timed run predicted branches" true
    (List.assoc "bpred.cond_correct" timed > 0)

let test_simulator_budget () =
  let b = Asm.create () in
  Asm.label b "_start";
  Asm.label b "spin";
  Asm.emit b (Insn.Jmp "spin");
  let proc = Chex86_os.Process.load (Asm.build b) in
  let sim = Simulator.create proc in
  let r = Simulator.run ~max_insns:1000 sim in
  Alcotest.(check bool) "budget exhausted" true (r.Simulator.outcome = Simulator.Budget_exhausted)

let () =
  Alcotest.run "machine"
    [
      ( "engine",
        [
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "lea" `Quick test_lea;
          Alcotest.test_case "loop + flags" `Quick test_loop_and_conditions;
          Alcotest.test_case "all conditions" `Quick test_all_conditions;
          Alcotest.test_case "memory widths" `Quick test_memory_widths;
          Alcotest.test_case "call/ret" `Quick test_call_ret_stack;
          Alcotest.test_case "push/pop" `Quick test_push_pop;
          Alcotest.test_case "indirect jump" `Quick test_indirect_control;
          Alcotest.test_case "indirect call" `Quick test_call_reg_simple;
          Alcotest.test_case "fp" `Quick test_fp;
          Alcotest.test_case "malloc stub" `Quick test_malloc_stub;
          Alcotest.test_case "memset/memcpy stubs" `Quick test_memset_memcpy_stubs;
          Alcotest.test_case "guest fault" `Quick test_guest_fault_on_wild_fetch;
        ] );
      ( "bpred",
        [
          Alcotest.test_case "learns loop" `Quick test_bpred_learns_loop;
          Alcotest.test_case "RAS" `Quick test_bpred_ras;
          Alcotest.test_case "BTB" `Quick test_bpred_btb;
          Alcotest.test_case "pinned stream" `Quick test_bpred_pinned_stream;
        ] );
      ( "timing",
        [
          Alcotest.test_case "sanity" `Quick test_timing_sanity;
          Alcotest.test_case "mispredict cost" `Quick test_timing_mispredict_costs;
          Alcotest.test_case "commit vs result latency" `Quick
            test_commit_vs_result_latency;
          Alcotest.test_case "budget" `Quick test_simulator_budget;
          Alcotest.test_case "fetch kill-burst carry" `Quick test_fetch_kill_burst_carry;
          Alcotest.test_case "store forwarding past old threshold" `Quick
            test_store_forwarding_survives_old_threshold;
          Alcotest.test_case "functional run lists timing counters" `Quick
            test_functional_run_lists_timing_counters;
        ] );
    ]
