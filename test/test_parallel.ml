(* The parallel sweep engine's contract: a sweep at jobs>=2 is
   bit-identical to the serial jobs=1 run.

   - determinism: (workload x variant) simulations and the security
     sweep produce identical counters/histograms/cycle counts at any
     job count;
   - differential: the functional engine and the timing pipeline agree
     on committed architectural side effects, and all CHEx86 variants
     agree on final memory state for benign programs (qcheck-generated
     mini-programs feed the same oracle);
   - qcheck laws for the lib/stats merge APIs;
   - regression tests for the shared-mutable-state hazards the parallel
     run exposed (the Runner memo table) and for cross-domain RNG
     stream stability. *)

module Runner = Chex86_harness.Runner
module Security = Chex86_harness.Security
module Pool = Chex86_harness.Pool
module W = Chex86_workloads.Workloads
module Counter = Chex86_stats.Counter
module Histogram = Chex86_stats.Histogram
module Rng = Chex86_stats.Rng

open Chex86_isa
open Insn

(* --- qcheck: Counter snapshot/merge laws --------------------------------- *)

let group_of_events events =
  let g = Counter.create_group () in
  List.iter (fun (name, by) -> Counter.incr ~by g name) events;
  g

let events_gen =
  QCheck.(
    list_of_size (Gen.int_range 0 30)
      (pair (oneofl [ "a"; "b"; "c"; "cap.hit"; "cap.miss" ]) (int_range 0 1000)))

let snap_list s = Counter.snapshot_to_list s

let qcheck_counter_merge_commutative =
  QCheck.Test.make ~name:"Counter.merge is commutative" (QCheck.pair events_gen events_gen)
    (fun (ea, eb) ->
      let a = Counter.group_snapshot (group_of_events ea)
      and b = Counter.group_snapshot (group_of_events eb) in
      snap_list (Counter.merge a b) = snap_list (Counter.merge b a))

let qcheck_counter_merge_associative =
  QCheck.Test.make ~name:"Counter.merge is associative"
    (QCheck.triple events_gen events_gen events_gen)
    (fun (ea, eb, ec) ->
      let a = Counter.group_snapshot (group_of_events ea)
      and b = Counter.group_snapshot (group_of_events eb)
      and c = Counter.group_snapshot (group_of_events ec) in
      snap_list (Counter.merge (Counter.merge a b) c)
      = snap_list (Counter.merge a (Counter.merge b c)))

let qcheck_counter_merge_identity =
  QCheck.Test.make ~name:"Counter.empty_snapshot is the merge identity" events_gen
    (fun events ->
      let s = Counter.group_snapshot (group_of_events events) in
      snap_list (Counter.merge s Counter.empty_snapshot) = snap_list s
      && snap_list (Counter.merge Counter.empty_snapshot s) = snap_list s)

let qcheck_counter_merge_is_sequential_accumulation =
  QCheck.Test.make
    ~name:"merge (snapshot a) (snapshot b) = snapshot of sequential accumulation"
    (QCheck.pair events_gen events_gen)
    (fun (ea, eb) ->
      let merged =
        Counter.merge
          (Counter.group_snapshot (group_of_events ea))
          (Counter.group_snapshot (group_of_events eb))
      in
      let sequential = group_of_events (ea @ eb) in
      snap_list merged = snap_list (Counter.group_snapshot sequential))

let qcheck_counter_absorb_roundtrip =
  QCheck.Test.make ~name:"absorb/of_snapshot round-trips" events_gen (fun events ->
      let g = group_of_events events in
      let copy = Counter.of_snapshot (Counter.group_snapshot g) in
      Counter.to_list copy = Counter.to_list g)

(* --- qcheck: Histogram snapshot/merge laws -------------------------------- *)

let hist_of_samples samples =
  let h = Histogram.create () in
  List.iter (fun (v, w) -> Histogram.add ~weight:w h v) samples;
  h

let samples_gen =
  QCheck.(
    list_of_size (Gen.int_range 0 30) (pair (int_range (-50) 50) (int_range 1 20)))

let hsnap_list s = Histogram.snapshot_to_list s

let hist_equal a b =
  Histogram.sorted a = Histogram.sorted b
  && Histogram.count a = Histogram.count b
  && Histogram.total a = Histogram.total b
  && Histogram.min_value a = Histogram.min_value b
  && Histogram.max_value a = Histogram.max_value b

let qcheck_histogram_merge_commutative =
  QCheck.Test.make ~name:"Histogram.merge is commutative"
    (QCheck.pair samples_gen samples_gen)
    (fun (sa, sb) ->
      let a = Histogram.snapshot (hist_of_samples sa)
      and b = Histogram.snapshot (hist_of_samples sb) in
      hsnap_list (Histogram.merge a b) = hsnap_list (Histogram.merge b a))

let qcheck_histogram_merge_associative =
  QCheck.Test.make ~name:"Histogram.merge is associative"
    (QCheck.triple samples_gen samples_gen samples_gen)
    (fun (sa, sb, sc) ->
      let a = Histogram.snapshot (hist_of_samples sa)
      and b = Histogram.snapshot (hist_of_samples sb)
      and c = Histogram.snapshot (hist_of_samples sc) in
      hsnap_list (Histogram.merge (Histogram.merge a b) c)
      = hsnap_list (Histogram.merge a (Histogram.merge b c)))

let qcheck_histogram_merge_identity =
  QCheck.Test.make ~name:"Histogram.empty_snapshot is the merge identity" samples_gen
    (fun samples ->
      let s = Histogram.snapshot (hist_of_samples samples) in
      hsnap_list (Histogram.merge s Histogram.empty_snapshot) = hsnap_list s
      && hsnap_list (Histogram.merge Histogram.empty_snapshot s) = hsnap_list s)

let qcheck_histogram_merge_is_sequential_accumulation =
  QCheck.Test.make
    ~name:"merged histogram = sequentially accumulated histogram"
    (QCheck.pair samples_gen samples_gen)
    (fun (sa, sb) ->
      let merged =
        Histogram.of_snapshot
          (Histogram.merge
             (Histogram.snapshot (hist_of_samples sa))
             (Histogram.snapshot (hist_of_samples sb)))
      in
      hist_equal merged (hist_of_samples (sa @ sb)))

(* --- run equality ---------------------------------------------------------- *)

let check_run_equal label (a : Runner.run) (b : Runner.run) =
  let check what = Alcotest.(check int) (label ^ ": " ^ what) in
  Alcotest.(check bool) (label ^ ": outcome") true (a.Runner.outcome = b.Runner.outcome);
  check "macro_insns" a.Runner.macro_insns b.Runner.macro_insns;
  check "uops" a.Runner.uops b.Runner.uops;
  check "uops_injected" a.Runner.uops_injected b.Runner.uops_injected;
  check "uops_killed" a.Runner.uops_killed b.Runner.uops_killed;
  check "cycles" a.Runner.cycles b.Runner.cycles;
  check "shadow_bytes" a.Runner.shadow_bytes b.Runner.shadow_bytes;
  check "resident_bytes" a.Runner.resident_bytes b.Runner.resident_bytes;
  check "mem_bytes" a.Runner.mem_bytes b.Runner.mem_bytes;
  Alcotest.(check bool) (label ^ ": pwned") a.Runner.pwned b.Runner.pwned;
  Alcotest.(check bool) (label ^ ": profile") true (a.Runner.profile = b.Runner.profile);
  Alcotest.(check (list (pair string int)))
    (label ^ ": every counter")
    (Counter.to_list a.Runner.counters)
    (Counter.to_list b.Runner.counters)

(* --- determinism: parallel sweep == serial sweep --------------------------- *)

let sweep_configs =
  [
    ("insecure", Runner.insecure);
    ("hardware", Runner.Chex (Chex86.Variant.make Chex86.Variant.Hardware_only));
    ("bt", Runner.Chex (Chex86.Variant.make Chex86.Variant.Binary_translation));
    ("always-on", Runner.Chex (Chex86.Variant.make Chex86.Variant.Microcode_always_on));
    ("prediction", Runner.prediction);
    ("asan", Runner.Asan);
  ]

let sweep_workloads = [ "mcf"; "swaptions"; "canneal" ]

(* [Pool.sweep]'s per-task values, in task order; a faulted task fails
   the test (checked in the main domain, after the sweep). *)
let sweep_values ?batch_size ~jobs ~key f tasks =
  let results, _, _ = Pool.sweep ?batch_size ~jobs ~key (fun task _ctx -> f task) tasks in
  Array.map
    (function Ok v -> v | Error fault -> Alcotest.fail (Pool.fault_to_string fault))
    results

(* All 6 variants on 3 representative workloads, simulated through the
   pool (bypassing the memo) at jobs=1 and jobs=4: every counter,
   histogram-backed stat and cycle count must be bit-identical. *)
let test_sweep_determinism () =
  let tasks =
    List.concat_map
      (fun wname ->
        List.map (fun (cname, config) -> (wname, cname, config)) sweep_configs)
      sweep_workloads
    |> Array.of_list
  in
  let simulate (wname, _, config) =
    Runner.run_program config ((W.find wname).build ~scale:1)
  in
  let key (wname, cname, _) = wname ^ "/" ^ cname in
  let serial = sweep_values ~jobs:1 ~key simulate tasks in
  let parallel = sweep_values ~jobs:4 ~key simulate tasks in
  Array.iteri
    (fun i (wname, cname, _) ->
      check_run_equal (wname ^ "/" ^ cname) serial.(i) parallel.(i))
    tasks

(* [pool.chunks] records the dispatch rounds actually paid, so it is the
   one counter allowed to vary with the (jobs, batch) geometry;
   determinism comparisons drop it (pool.mli documents this contract). *)
let drop_chunks counters =
  List.filter (fun (name, _) -> name <> "pool.chunks") counters

(* The security sweep: sharded over 4 domains at several batch sizes vs
   serial, with the merged stats compared bucket by bucket. This is the
   acceptance criterion for batched dispatch: --jobs N --batch-size B is
   byte-identical to serial for B in {1, 8, 32}. *)
let test_security_sweep_determinism () =
  let subset = List.filteri (fun i _ -> i mod 19 = 0) Chex86_exploits.Exploits.all in
  Alcotest.(check bool) "subset is representative" true (List.length subset >= 40);
  let sweep ~jobs ~batch_size =
    let slots, stats, _ = Security.sweep_stats_supervised ~jobs ~batch_size subset in
    ( List.map
        (fun (_, r) ->
          match r with Ok r -> r | Error f -> Alcotest.fail (Pool.fault_to_string f))
        slots,
      stats )
  in
  let serial, sstats = sweep ~jobs:1 ~batch_size:1 in
  Alcotest.(check int) "every exploit in the subset blocked"
    (List.length subset)
    (Counter.get sstats.Pool.counters "sweep.blocked");
  List.iter
    (fun batch ->
      let parallel, pstats = sweep ~jobs:4 ~batch_size:batch in
      let label what =
        Printf.sprintf "batch=%d: %s" batch what
      in
      List.iter2
        (fun (a : Security.result) (b : Security.result) ->
          Alcotest.(check string) (label "same exploit order")
            a.exploit.Chex86_exploits.Exploit.name b.exploit.Chex86_exploits.Exploit.name;
          check_run_equal
            (label ("security/" ^ a.exploit.Chex86_exploits.Exploit.name))
            a.under_protection b.under_protection)
        serial parallel;
      Alcotest.(check (list (pair string int)))
        (label "merged sweep counters identical")
        (drop_chunks (Counter.to_list sstats.Pool.counters))
        (drop_chunks (Counter.to_list pstats.Pool.counters));
      Alcotest.(check bool) (label "merged sweep histograms identical") true
        (List.for_all2
           (fun (na, ha) (nb, hb) -> na = nb && hist_equal ha hb)
           sstats.Pool.histograms pstats.Pool.histograms);
      Alcotest.(check int)
        (label "pool.chunks = ceil(n/batch)")
        ((List.length subset + batch - 1) / batch)
        (Counter.get pstats.Pool.counters "pool.chunks"))
    [ 1; 8; 32 ]

(* Pool.sweep: per-task RNG streams are seeded from the task key, so
   neither task results nor merged stats may depend on the job count. *)
let test_pool_ctx_determinism () =
  let tasks = Array.init 32 (fun i -> Printf.sprintf "task-%02d" i) in
  (* The body runs on worker domains, where Alcotest's reporter is not
     safe to call: it returns whether ctx carried the task key, and the
     main domain checks that after the sweep. *)
  let body key (ctx : Pool.ctx) =
    let draws = List.init 16 (fun _ -> Rng.int ctx.Pool.rng 1000) in
    List.iter
      (fun v ->
        Counter.incr ~by:v ctx.Pool.counters "drawn.sum";
        Histogram.add (ctx.Pool.histogram "drawn") v)
      draws;
    (key = ctx.Pool.key, draws)
  in
  let completed label results =
    Array.map
      (function
        | Ok (same_key, draws) ->
          Alcotest.(check bool) (label ^ ": ctx carries the task key") true same_key;
          draws
        | Error f -> Alcotest.failf "%s: task faulted: %s" label (Pool.fault_to_string f))
      results
  in
  let serial, sstats, _ = Pool.sweep ~jobs:1 ~key:Fun.id body tasks in
  let parallel, pstats, _ = Pool.sweep ~jobs:4 ~key:Fun.id body tasks in
  Alcotest.(check bool) "identical per-task RNG draws" true
    (completed "serial" serial = completed "jobs=4" parallel);
  Alcotest.(check (list (pair string int)))
    "identical merged counters"
    (drop_chunks (Counter.to_list sstats.Pool.counters))
    (drop_chunks (Counter.to_list pstats.Pool.counters));
  Alcotest.(check bool) "identical merged histograms" true
    (List.for_all2
       (fun (na, ha) (nb, hb) -> na = nb && hist_equal ha hb)
       sstats.Pool.histograms pstats.Pool.histograms)

(* --- batched dispatch ------------------------------------------------------ *)

(* Synthetic stats-heavy body shared by the batching tests: RNG draws
   keyed off the task key, folded into counters and a histogram. Any
   scheduling dependence (worker identity, chunk geometry) would show
   up in the draws or the merged stats. *)
let batched_body key (ctx : Pool.ctx) =
  let draws = List.init 12 (fun _ -> Rng.int ctx.Pool.rng 1000) in
  List.iter
    (fun v ->
      Counter.incr ~by:v ctx.Pool.counters "drawn.sum";
      Counter.incr ctx.Pool.counters ("drawn.bucket." ^ string_of_int (v mod 3));
      Histogram.add (ctx.Pool.histogram "drawn") v)
    draws;
  (key, draws)

(* qcheck: ANY (jobs, batch_size) pair is byte-identical to the serial
   jobs=1/batch=1 run — results, merged counters (minus pool.chunks)
   and merged histograms. *)
let qcheck_batched_geometry_immaterial =
  let tasks = Array.init 37 (fun i -> Printf.sprintf "task-%02d" i) in
  let serial, sstats, _ = Pool.sweep ~jobs:1 ~batch_size:1 ~key:Fun.id batched_body tasks in
  QCheck.Test.make ~count:30
    ~name:"sweep: any (jobs, batch_size) = serial"
    QCheck.(pair (int_range 1 6) (int_range 1 48))
    (fun (jobs, batch) ->
      let parallel, pstats, _ =
        Pool.sweep ~jobs ~batch_size:batch ~key:Fun.id batched_body tasks
      in
      serial = parallel
      && drop_chunks (Counter.to_list sstats.Pool.counters)
         = drop_chunks (Counter.to_list pstats.Pool.counters)
      && List.for_all2
           (fun (na, ha) (nb, hb) -> na = nb && hist_equal ha hb)
           sstats.Pool.histograms pstats.Pool.histograms
      && Counter.get pstats.Pool.counters "pool.chunks" = (37 + batch - 1) / batch)

(* Auto batch sizing: about four chunks per worker, clamped to [1, 64];
   fewer dispatch rounds as the batch grows. *)
let test_auto_batch_size () =
  Alcotest.(check int) "empty input" 1 (Pool.auto_batch_size ~jobs:4 0);
  Alcotest.(check int) "small input stays per-task" 1 (Pool.auto_batch_size ~jobs:4 16);
  Alcotest.(check int) "864 tasks over 4 jobs" 54 (Pool.auto_batch_size ~jobs:4 864);
  Alcotest.(check int) "clamped above" 64 (Pool.auto_batch_size ~jobs:1 100_000);
  let chunks_at batch =
    let tasks = Array.init 64 (fun i -> Printf.sprintf "t%02d" i) in
    let _, stats, _ = Pool.sweep ~jobs:2 ~batch_size:batch ~key:Fun.id batched_body tasks in
    Counter.get stats.Pool.counters "pool.chunks"
  in
  Alcotest.(check int) "batch=1 pays one chunk per task" 64 (chunks_at 1);
  Alcotest.(check int) "batch=8 pays 8 chunks" 8 (chunks_at 8);
  Alcotest.(check int) "batch=32 pays 2 chunks" 2 (chunks_at 32);
  Alcotest.(check bool) "chunks drop as the batch grows" true
    (chunks_at 1 > chunks_at 8 && chunks_at 8 > chunks_at 32)

(* --- differential: functional engine vs timing pipeline -------------------- *)

(* The timing model replays the functional engine's committed stream, so
   committed architectural side effects must agree exactly: retired
   macro-ops, decoded/injected/killed micro-ops, the outcome, and the
   exploit pwned flag. *)
let test_functional_vs_timing () =
  List.iter
    (fun wname ->
      let w = W.find wname in
      List.iter
        (fun (cname, config) ->
          let functional = Runner.run_program ~timing:false config (w.build ~scale:1) in
          let timed = Runner.run_program ~timing:true config (w.build ~scale:1) in
          let label = wname ^ "/" ^ cname in
          Alcotest.(check int) (label ^ ": retired macro-ops")
            functional.Runner.macro_insns timed.Runner.macro_insns;
          (* uop accounting lives in the timing pipeline; the functional
             engine reports zero by contract. *)
          Alcotest.(check int) (label ^ ": functional uops are 0") 0
            functional.Runner.uops;
          Alcotest.(check bool) (label ^ ": timing decoded uops") true
            (timed.Runner.uops >= timed.Runner.macro_insns);
          Alcotest.(check bool) (label ^ ": outcome") true
            (functional.Runner.outcome = timed.Runner.outcome);
          Alcotest.(check bool) (label ^ ": pwned")
            functional.Runner.pwned timed.Runner.pwned;
          Alcotest.(check bool) (label ^ ": timing produced cycles") true
            (timed.Runner.cycles > 0 && functional.Runner.cycles = 0))
        [ ("insecure", Runner.insecure); ("prediction", Runner.prediction) ])
    sweep_workloads

let chex_variants =
  [
    ("insecure", Chex86.Variant.make Chex86.Variant.Insecure);
    ("hardware", Chex86.Variant.make Chex86.Variant.Hardware_only);
    ("bt", Chex86.Variant.make Chex86.Variant.Binary_translation);
    ("always-on", Chex86.Variant.make Chex86.Variant.Microcode_always_on);
    ("prediction", Chex86.Variant.default);
  ]

let final_globals program (proc : Chex86_os.Process.t) =
  List.concat_map
    (fun (g : Program.global) ->
      List.init (g.size / 8) (fun i ->
          (g.name, i, Chex86_mem.Image.read64 proc.Chex86_os.Process.mem (g.addr + (8 * i)))))
    program.Program.globals

(* Protection must be observationally transparent on benign programs:
   every CHEx86 variant commits the same final heap/global state and the
   same retired instruction count as the insecure baseline. *)
let test_variants_agree_on_architectural_state () =
  List.iter
    (fun wname ->
      let w = W.find wname in
      let runs =
        List.map
          (fun (cname, variant) ->
            let program = w.build ~scale:1 in
            let run = Chex86.Sim.run ~variant ~timing:false program in
            (cname, program, run))
          chex_variants
      in
      let _, ref_program, ref_run = List.hd runs in
      let reference = final_globals ref_program ref_run.Chex86.Sim.proc in
      List.iter
        (fun (cname, program, run) ->
          let label = wname ^ "/" ^ cname in
          Alcotest.(check bool) (label ^ ": completed") true
            (run.Chex86.Sim.outcome = Chex86.Sim.Completed);
          Alcotest.(check int) (label ^ ": retired macro-ops")
            ref_run.Chex86.Sim.result.Chex86_machine.Simulator.macro_insns
            run.Chex86.Sim.result.Chex86_machine.Simulator.macro_insns;
          List.iter2
            (fun (name, i, expect) (name', i', got) ->
              if not (name = name' && i = i' && expect = got) then
                Alcotest.failf "%s: global %s[%d] = %d, expected %s[%d] = %d" label
                  name' i' got name i expect)
            reference
            (final_globals program run.Chex86.Sim.proc))
        runs)
    sweep_workloads

(* --- qcheck differential oracle over generated mini-programs --------------- *)

(* A mini-program is a list of abstract ops lowered through the Asm DSL:
   register arithmetic, stores/loads on a scratch global, and bounded
   heap episodes (malloc/store/load/free).  The checksum never folds in
   a heap address, so the final [result] global must agree across every
   protection configuration, including ASan's redzone allocator. *)
type mini_op =
  | Arith of Insn.alu * Reg.t * Reg.t
  | Arith_imm of Insn.alu * Reg.t * int
  | Store of Reg.t * int  (* scratch slot *)
  | Load of Reg.t * int
  | Heap of { size : int; off : int; value : int }

let mini_regs = [| Reg.RAX; Reg.RBX; Reg.RCX; Reg.RDX |]
let mini_alus = [| Insn.Add; Insn.Sub; Insn.And; Insn.Or; Insn.Xor |]

let mini_op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map3
            (fun op a b -> Arith (mini_alus.(op), mini_regs.(a), mini_regs.(b)))
            (int_range 0 4) (int_range 0 3) (int_range 0 3) );
        ( 2,
          map3
            (fun op r k -> Arith_imm (mini_alus.(op), mini_regs.(r), k))
            (int_range 0 4) (int_range 0 3) (int_range 0 255) );
        (2, map2 (fun r slot -> Store (mini_regs.(r), slot)) (int_range 0 3) (int_range 0 7));
        (2, map2 (fun r slot -> Load (mini_regs.(r), slot)) (int_range 0 3) (int_range 0 7));
        ( 1,
          map3
            (fun size_pick off_pick value ->
              let size = if size_pick then 32 else 64 in
              Heap { size; off = 8 * (off_pick mod (size / 8)); value })
            bool (int_range 0 7) (int_range 1 10_000) );
      ])

let mini_program_gen = QCheck.Gen.(list_size (int_range 1 24) mini_op_gen)

let build_mini_program ops =
  let b = Asm.create () in
  let result = Asm.global b "result" 8 in
  let scratch = Asm.global b "scratch" 64 in
  Asm.label b "_start";
  Asm.emit b (Mov (W64, Reg RAX, Imm 0x1234));
  Asm.emit b (Mov (W64, Reg RBX, Imm 0x5678));
  Asm.emit b (Mov (W64, Reg RCX, Imm 0x9abc));
  Asm.emit b (Mov (W64, Reg RDX, Imm 0xdef0));
  List.iter
    (fun op ->
      match op with
      | Arith (alu, dst, src) -> Asm.emit b (Alu (alu, Reg dst, Reg src))
      | Arith_imm (alu, dst, k) -> Asm.emit b (Alu (alu, Reg dst, Imm k))
      | Store (r, slot) -> Asm.emit b (Mov (W64, Mem (mem_abs (scratch + (8 * slot))), Reg r))
      | Load (r, slot) -> Asm.emit b (Mov (W64, Reg r, Mem (mem_abs (scratch + (8 * slot)))))
      | Heap { size; off; value } ->
        (* malloc clobbers rax/rdi: spill the checksum register. *)
        Asm.emit b (Mov (W64, Mem (mem_abs scratch), Reg RAX));
        Asm.call_malloc b size;
        Asm.emit b (Mov (W64, Reg R12, Reg RAX));
        Asm.emit b (Mov (W64, Mem (mem ~base:R12 ~disp:off ()), Imm value));
        Asm.emit b (Mov (W64, Reg RCX, Mem (mem ~base:R12 ~disp:off ())));
        Asm.call_free b R12;
        Asm.emit b (Mov (W64, Reg RAX, Mem (mem_abs scratch))))
    ops;
  Asm.emit b (Alu (Add, Reg RAX, Reg RBX));
  Asm.emit b (Alu (Xor, Reg RAX, Reg RCX));
  Asm.emit b (Alu (Add, Reg RAX, Reg RDX));
  Asm.emit b (Mov (W64, Mem (mem_abs result), Reg RAX));
  Asm.emit b Halt;
  Asm.build b

let mini_result program (proc : Chex86_os.Process.t) =
  Chex86_mem.Image.read64 proc.Chex86_os.Process.mem (Program.global_addr program "result")

let qcheck_mini_program_differential =
  QCheck.Test.make ~count:40 ~name:"mini-programs: same oracle across all configurations"
    (QCheck.make mini_program_gen)
    (fun ops ->
      (* Reference: functional run on the insecure baseline. *)
      let reference =
        let program = build_mini_program ops in
        let run =
          Chex86.Sim.run
            ~variant:(Chex86.Variant.make Chex86.Variant.Insecure)
            ~timing:false program
        in
        if run.Chex86.Sim.outcome <> Chex86.Sim.Completed then
          QCheck.Test.fail_report "insecure baseline did not complete";
        ( mini_result program run.Chex86.Sim.proc,
          run.Chex86.Sim.result.Chex86_machine.Simulator.macro_insns )
      in
      let ref_result, ref_insns = reference in
      (* Every CHEx86 variant, functional and timed, agrees. *)
      List.for_all
        (fun (_, variant) ->
          List.for_all
            (fun timing ->
              let program = build_mini_program ops in
              let run = Chex86.Sim.run ~variant ~timing program in
              run.Chex86.Sim.outcome = Chex86.Sim.Completed
              && mini_result program run.Chex86.Sim.proc = ref_result
              && run.Chex86.Sim.result.Chex86_machine.Simulator.macro_insns = ref_insns)
            [ false; true ])
        chex_variants
      (* ...and so does the ASan baseline (different allocator, same
         architectural answer). *)
      && begin
        let program = build_mini_program ops in
        let _, result, proc = Chex86_asan.Asan_monitor.run ~timing:false program in
        result.Chex86_machine.Simulator.outcome = Chex86_machine.Simulator.Finished
        && mini_result program proc = ref_result
        && result.Chex86_machine.Simulator.macro_insns = ref_insns
      end)

(* --- regression: shared-mutable-state hazards ------------------------------ *)

(* The Runner memo is the harness's only module-level mutable state; it
   used to be an unsynchronized Hashtbl.  Hammer it from 4 domains with
   colliding keys: every call must return the one canonical run object
   and the table must stay consistent. *)
let test_memo_domain_safety () =
  let tasks =
    Array.init 32 (fun i ->
        let wname = List.nth sweep_workloads (i mod 3) in
        let config = if i mod 2 = 0 then Runner.insecure else Runner.prediction in
        (wname, config))
  in
  let results =
    sweep_values ~jobs:4 ~batch_size:1
      ~key:(fun (wname, config) -> wname ^ "/" ^ Runner.config_name config)
      (fun (wname, config) ->
        Runner.run_workload ~tag:"memo-race" ~timing:false ~scale:1 config (W.find wname))
      tasks
  in
  Array.iteri
    (fun i (wname, config) ->
      let canonical =
        Runner.run_workload ~tag:"memo-race" ~timing:false ~scale:1 config (W.find wname)
      in
      Alcotest.(check bool)
        (Printf.sprintf "task %d (%s) got the memoized run" i wname)
        true
        (results.(i) == canonical))
    tasks

(* Rng streams are per-instance; two domains drawing from equal seeds
   must see the serial streams (no hidden global state). *)
let test_rng_streams_domain_independent () =
  let seeds = Array.init 8 (fun i -> 1000 + i) in
  let draw seed =
    let rng = Rng.create seed in
    List.init 64 (fun _ -> Rng.next_int64 rng)
  in
  let serial = Array.map draw seeds in
  let parallel = sweep_values ~jobs:4 ~batch_size:1 ~key:string_of_int draw seeds in
  Alcotest.(check bool) "identical streams" true (serial = parallel)

(* Pool.seed_of_key is part of the determinism contract: pin it. *)
let test_seed_of_key_stable () =
  Alcotest.(check bool) "distinct keys, distinct seeds" true
    (Pool.seed_of_key "mcf/insecure" <> Pool.seed_of_key "mcf/prediction");
  Alcotest.(check int) "stable across calls" (Pool.seed_of_key "mcf/insecure")
    (Pool.seed_of_key "mcf/insecure");
  Alcotest.(check bool) "non-negative" true (Pool.seed_of_key "" >= 0)

(* Pool.run_chunks must return results in task order, and re-raise an
   exception from a chunk body deterministically: the lowest-index
   failure wins, whichever slot ran into it first. *)
let test_run_chunks_basics () =
  let tasks = Array.init 100 (fun i -> i) in
  (* With [~fail_at:n], the body of every chunk holding a task >= n
     raises, naming that chunk's first such task. *)
  let doubled ?(fail_at = max_int) () =
    let results, _, _ =
      Pool.run_chunks ~jobs:4 ~batch_size:3 ~key:string_of_int
        (fun ~slot:_ ~chunk:_ ~start ~len ->
          if start + len > fail_at then failwith (string_of_int (max start fail_at));
          Array.init len (fun k ->
              let i = tasks.(start + k) in
              Pool.run_task ~key:(string_of_int i) (fun _ -> 2 * i)))
        tasks
    in
    results
  in
  Alcotest.(check bool) "order preserved" true
    (doubled () = Array.init 100 (fun i -> Ok (2 * i)));
  let exn =
    try
      ignore (doubled ~fail_at:40 ());
      None
    with Failure msg -> Some msg
  in
  Alcotest.(check (option string)) "lowest-index failure reported" (Some "40") exn

let () =
  Alcotest.run "parallel"
    [
      ( "counter-merge",
        [
          QCheck_alcotest.to_alcotest qcheck_counter_merge_commutative;
          QCheck_alcotest.to_alcotest qcheck_counter_merge_associative;
          QCheck_alcotest.to_alcotest qcheck_counter_merge_identity;
          QCheck_alcotest.to_alcotest qcheck_counter_merge_is_sequential_accumulation;
          QCheck_alcotest.to_alcotest qcheck_counter_absorb_roundtrip;
        ] );
      ( "histogram-merge",
        [
          QCheck_alcotest.to_alcotest qcheck_histogram_merge_commutative;
          QCheck_alcotest.to_alcotest qcheck_histogram_merge_associative;
          QCheck_alcotest.to_alcotest qcheck_histogram_merge_identity;
          QCheck_alcotest.to_alcotest qcheck_histogram_merge_is_sequential_accumulation;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map basics" `Quick test_run_chunks_basics;
          Alcotest.test_case "seed_of_key stable" `Quick test_seed_of_key_stable;
          Alcotest.test_case "ctx determinism" `Quick test_pool_ctx_determinism;
        ] );
      ( "batched",
        [
          Alcotest.test_case "auto batch sizing" `Quick test_auto_batch_size;
          QCheck_alcotest.to_alcotest qcheck_batched_geometry_immaterial;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "sweep jobs=1 == jobs=4" `Slow test_sweep_determinism;
          Alcotest.test_case "security sweep jobs=1 == jobs=4" `Slow
            test_security_sweep_determinism;
        ] );
      ( "differential",
        [
          Alcotest.test_case "functional vs timing" `Slow test_functional_vs_timing;
          Alcotest.test_case "variants agree on final state" `Slow
            test_variants_agree_on_architectural_state;
          QCheck_alcotest.to_alcotest qcheck_mini_program_differential;
        ] );
      ( "shared-state-regressions",
        [
          Alcotest.test_case "runner memo is domain-safe" `Quick test_memo_domain_safety;
          Alcotest.test_case "rng streams domain-independent" `Quick
            test_rng_streams_domain_independent;
        ] );
    ]
