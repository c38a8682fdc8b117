(* Tests for the experiment harness: runner outcomes and memoization,
   and shape assertions on the regenerated tables/figures (the claims
   EXPERIMENTS.md records are enforced here at reduced scale). *)

module Runner = Chex86_harness.Runner
module Experiments = Chex86_harness.Experiments
module W = Chex86_workloads.Workloads
module Counter = Chex86_stats.Counter

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_runner_memoizes () =
  let w = W.find "swaptions" in
  let a = Runner.run_workload ~scale:1 Runner.insecure w in
  let b = Runner.run_workload ~scale:1 Runner.insecure w in
  Alcotest.(check bool) "same run object returned" true (a == b)

let test_runner_config_names () =
  Alcotest.(check string) "asan" "ASan" (Runner.config_name Runner.Asan);
  Alcotest.(check string) "prediction" "CHEx86: Micro-code Prediction Driven"
    (Runner.config_name Runner.prediction)

let test_figure_shapes () =
  (* The paper's qualitative ordering on a pointer-intensive workload:
     ASan inflates uops far beyond CHEx86 prediction, which inflates
     beyond the insecure baseline; cycle counts order the same way. *)
  let w = W.find "freqmine" in
  let base = Runner.run_workload ~scale:1 Runner.insecure w in
  let pred = Runner.run_workload ~scale:1 Runner.prediction w in
  let asan = Runner.run_workload ~scale:1 Runner.Asan w in
  Alcotest.(check bool) "uops: asan > chex" true (asan.Runner.uops > pred.Runner.uops);
  Alcotest.(check bool) "uops: chex > base" true (pred.Runner.uops > base.Runner.uops);
  Alcotest.(check bool) "cycles: asan > chex" true
    (asan.Runner.cycles > pred.Runner.cycles);
  Alcotest.(check bool) "cycles: chex >= base" true
    (pred.Runner.cycles >= base.Runner.cycles);
  (* Fig 9: both protections consume real shadow storage; the insecure
     baseline none.  (The asan-vs-chex ordering depends on footprint and
     is only meaningful at full scale, so it is not asserted here.) *)
  Alcotest.(check bool) "both consume shadow storage" true
    (asan.Runner.shadow_bytes > 0 && pred.Runner.shadow_bytes > 0);
  Alcotest.(check int) "baseline has no shadow storage" 0 base.Runner.shadow_bytes

(* Regression: a headline aggregate over no completed workload took the
   geometric mean of an empty set and printed it as a result:
   "SPEC: CHEx86 (prediction) slowdown vs insecure: -100.0%; speedup vs
   ASan: 0.00x" and a "-100% (avg)" Table IV row, exit 0.  An empty
   aggregate renders n/a and says why; a partial one names its coverage.
   The sweep is two PARSEC workloads (so no SPEC one), with canneal's
   ASan cell crashed by an injected fault.  CHEX86_WORKLOADS is read on
   the process's first [Experiments.workloads] call, which this is. *)
let test_empty_aggregates_render_na () =
  Unix.putenv "CHEX86_WORKLOADS" "blackscholes,canneal";
  Alcotest.(check (list string)) "swept workloads" [ "blackscholes"; "canneal" ]
    (List.map (fun (w : Chex86_workloads.Bench_spec.t) -> w.name) (Experiments.workloads ()));
  let faulted = Runner.job_key (Runner.job ~scale:Experiments.scale Runner.Asan (W.find "canneal")) in
  Chex86_harness.Faultinject.arm
    (Chex86_harness.Faultinject.of_list [ (faulted, Chex86_harness.Faultinject.crash ()) ]);
  let fig6, table4 =
    Fun.protect ~finally:Chex86_harness.Faultinject.disarm (fun () ->
        (Experiments.figure6 (), Experiments.table4 ()))
  in
  Alcotest.(check bool) "no -100" false (contains ~needle:"-100" fig6 || contains ~needle:"-100" table4);
  Alcotest.(check bool) "SPEC headline is n/a" true
    (contains
       ~needle:
         "SPEC: CHEx86 (prediction) slowdown vs insecure: n/a; speedup vs ASan: n/a (no SPEC \
          workloads in this sweep)"
       fig6);
  Alcotest.(check bool) "PARSEC headline names its coverage" true
    (contains ~needle:"(over 1 of 2 PARSEC workloads; 1 faulted)" fig6);
  Alcotest.(check bool) "Table IV's measured row is n/a" true
    (contains ~needle:"n/a" table4 && contains ~needle:"(no SPEC workloads in this sweep)" table4)

let test_capability_cache_sensitivity () =
  (* Fig 7: a larger capability cache cannot have a higher miss rate. *)
  let w = W.find "perlbench" in
  let miss (run : Runner.run) =
    Counter.ratio run.Runner.counters ~num:"capcache.miss" ~den:"capcache.hit"
  in
  let small =
    Runner.run_workload ~scale:1
      (Runner.Chex (Chex86.Variant.make ~cap_cache_entries:64 Chex86.Variant.Microcode_prediction))
      w
  and big =
    Runner.run_workload ~scale:1
      (Runner.Chex (Chex86.Variant.make ~cap_cache_entries:128 Chex86.Variant.Microcode_prediction))
      w
  in
  Alcotest.(check bool) "128-entry <= 64-entry miss rate" true (miss big <= miss small)

(* Regression: the memo key named a configuration by its scheme alone,
   so asking for perlbench with a 128-entry capability cache after the
   default (64-entry) run returned the 64-entry run: capcache.miss read
   376,702 instead of 370,462.  The key now names the whole variant. *)
let test_distinct_configs_distinct_runs () =
  Runner.reset_for_tests ();
  let w = W.find "perlbench" in
  let small = Runner.run_workload ~scale:1 Runner.prediction w in
  let big =
    Runner.run_workload ~scale:1
      (Runner.Chex (Chex86.Variant.make ~cap_cache_entries:128 Chex86.Variant.Microcode_prediction))
      w
  in
  Alcotest.(check bool) "a second memo entry" false (small == big);
  Alcotest.(check bool) "the 128-entry run simulated its own cache" true
    (Counter.get small.Runner.counters "capcache.miss"
    <> Counter.get big.Runner.counters "capcache.miss")

(* Equal configurations are one cell, however they were spelled: the
   default variant and one built with the default sizes share a key, so
   a sweep over both runs one task and returns the same value twice. *)
let test_equal_configs_share_task () =
  Runner.reset_for_tests ();
  let w = W.find "swaptions" in
  let spelled =
    Runner.Chex
      (Chex86.Variant.make ~cap_cache_entries:64 ~alias_cache_sets:128
         Chex86.Variant.Microcode_prediction)
  in
  let cells, report =
    Runner.sweep ~jobs:2 [ Runner.job ~scale:1 Runner.prediction w; Runner.job ~scale:1 spelled w ]
  in
  Alcotest.(check int) "one task" 1 report.Chex86_harness.Pool.tasks;
  match cells with
  | [ Ok a; Ok b ] -> Alcotest.(check bool) "the same run twice" true (a == b)
  | _ -> Alcotest.fail "expected two completed cells"

let test_table2_text () =
  let out = Experiments.table2 () in
  List.iter
    (fun (name, _) ->
      (* Each generated pattern row must classify as itself: the name
         appears at least twice (generator column + classification). *)
      let occurrences =
        let rec count i acc =
          if i + String.length name > String.length out then acc
          else if String.sub out i (String.length name) = name then count (i + 1) (acc + 1)
          else count (i + 1) acc
        in
        count 0 0
      in
      Alcotest.(check bool) (name ^ " classified as itself") true (occurrences >= 2))
    Chex86_workloads.Patterns.all

let test_table3_text () =
  let out = Experiments.table3 () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("mentions " ^ needle) true (contains ~needle out))
    [ "3.4 GHz"; "224 entries"; "LTAGE"; "72/56 entries"; "4096 entries" ]

let test_table1_text () =
  let out = Experiments.table1 () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("mentions " ^ needle) true (contains ~needle out))
    [ "MOV"; "LEA"; "MOVI"; "PID(rcx) <- PID(Mem[EA])"; "Agreement" ]

let test_figure1_text () =
  let out = Experiments.figure1 () in
  Alcotest.(check bool) "covers 2006-2018" true
    (contains ~needle:"2006" out && contains ~needle:"2018" out)

(* Every [Runner.outcome] failure path is a reported value, never an
   exception escaping [run_program]. *)
let test_outcome_budget_exhausted () =
  let program =
    let b = Chex86_isa.Asm.create () in
    Chex86_isa.Asm.label b "_start";
    Chex86_isa.Asm.label b "spin";
    Chex86_isa.Asm.emit b (Chex86_isa.Insn.Jmp "spin");
    Chex86_isa.Asm.build b
  in
  let run = Runner.run_program ~timing:false ~max_insns:10_000 Runner.insecure program in
  (match run.Runner.outcome with
  | Runner.Budget_exhausted -> ()
  | _ -> Alcotest.fail "expected Budget_exhausted");
  Alcotest.(check bool) "consumed the whole budget" true (run.Runner.macro_insns >= 10_000)

let test_outcome_faulted () =
  (* An indirect jump to an address far outside the text segment is a
     guest fault (wild *loads* are served zeros by the sparse memory). *)
  let program =
    let b = Chex86_isa.Asm.create () in
    Chex86_isa.Asm.label b "_start";
    Chex86_isa.Asm.emit b (Chex86_isa.Insn.Mov (W64, Reg RAX, Imm 0x7eee_0000));
    Chex86_isa.Asm.emit b (Chex86_isa.Insn.Jmp_reg RAX);
    Chex86_isa.Asm.emit b Chex86_isa.Insn.Halt;
    Chex86_isa.Asm.build b
  in
  let run = Runner.run_program ~timing:false Runner.insecure program in
  match run.Runner.outcome with
  | Runner.Faulted _ -> ()
  | _ -> Alcotest.fail "expected Faulted"

let test_outcome_aborted () =
  (* An allocator-integrity exploit on the *insecure* baseline dies in
     the allocator's own checks: reported as Aborted. *)
  let exploit =
    List.find
      (fun (e : Chex86_exploits.Exploit.t) ->
        e.insecure = Chex86_exploits.Exploit.Allocator_abort)
      Chex86_exploits.Exploits.all
  in
  let run =
    Runner.run_program ~timing:false ~max_insns:2_000_000 Runner.insecure
      (exploit.build ())
  in
  match run.Runner.outcome with
  | Runner.Aborted _ -> ()
  | _ -> Alcotest.fail "expected Aborted"

(* CHEX86_WORKLOADS resolution: an unknown name is an error naming it,
   with or without --strict; there is no fallback to another set. *)
let test_resolve_workloads () =
  let all = W.all in
  let names ws = List.map (fun (w : Chex86_workloads.Bench_spec.t) -> w.name) ws in
  (match Experiments.resolve_workloads ~all "mcf , canneal" with
  | Ok ws -> Alcotest.(check (list string)) "subset picked" [ "mcf"; "canneal" ] (names ws)
  | Error e -> Alcotest.fail e);
  (match Experiments.resolve_workloads ~all "" with
  | Ok ws -> Alcotest.(check int) "empty spec sweeps all" (List.length all) (List.length ws)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun spec ->
      match Experiments.resolve_workloads ~all spec with
      | Ok _ -> Alcotest.failf "%S should be rejected" spec
      | Error msg ->
        Alcotest.(check bool) ("error names the unknown workload in " ^ spec) true
          (contains ~needle:"\"bogus\"" msg))
    [ "bogus,mcf"; "bogus" ]

(* CHEX86_SCALE: anything but an integer >= 1 is an error naming the
   value, never a silent fallback to scale 1. *)
let test_parse_scale () =
  List.iter
    (fun bad ->
      match Experiments.parse_scale bad with
      | Ok n -> Alcotest.failf "CHEX86_SCALE=%S accepted as %d" bad n
      | Error msg ->
        Alcotest.(check bool) ("error names " ^ bad) true (contains ~needle:bad msg))
    [ "abc"; "0"; "-2" ];
  Alcotest.(check (result int string)) "3 is 3" (Ok 3) (Experiments.parse_scale "3")

let test_ablation_tlb_filter () =
  (* The alias-hosting filter can only reduce alias-cache lookups. *)
  let w = W.find "mcf" in
  let lookups (r : Runner.run) =
    Counter.get r.Runner.counters "aliascache.hit"
    + Counter.get r.Runner.counters "aliascache.victim_hit"
    + Counter.get r.Runner.counters "aliascache.miss"
  in
  let on =
    Runner.run_workload ~scale:1
      (Runner.Chex (Chex86.Variant.make Chex86.Variant.Microcode_prediction))
      w
  and off =
    Runner.run_workload ~scale:1
      (Runner.Chex
         (Chex86.Variant.make ~tlb_alias_filter:false Chex86.Variant.Microcode_prediction))
      w
  in
  Alcotest.(check bool) "filter saves lookups" true (lookups on < lookups off);
  Alcotest.(check bool) "filtered events counted" true
    (Counter.get on.Runner.counters "alias.tlb_filtered" > 0);
  (* Detection must be unaffected: both runs complete cleanly. *)
  Alcotest.(check bool) "no false positives either way" true
    (on.Runner.outcome = Runner.Completed && off.Runner.outcome = Runner.Completed)

let test_ablation_scope_reduces_bloat () =
  let w = W.find "canneal" in
  let narrow =
    Chex86.Variant.make
      ~scope:(Chex86.Variant.Ranges [ (Chex86_isa.Program.text_base, Chex86_isa.Program.text_base + 64) ])
      Chex86.Variant.Microcode_prediction
  in
  let scoped = Runner.run_workload ~scale:1 (Runner.Chex narrow) w in
  let full = Runner.run_workload ~scale:1 Runner.prediction w in
  Alcotest.(check bool) "scoped run injects fewer uops" true
    (scoped.Runner.uops_injected < full.Runner.uops_injected)

let test_ablation_victim_cache_helps () =
  let w = W.find "perlbench" in
  let miss (r : Runner.run) =
    let hit = Counter.get r.Runner.counters "aliascache.hit"
    and victim = Counter.get r.Runner.counters "aliascache.victim_hit"
    and m = Counter.get r.Runner.counters "aliascache.miss" in
    float_of_int m /. float_of_int (max 1 (hit + victim + m))
  in
  let with_victim = Runner.run_workload ~scale:1 Runner.prediction w
  and without =
    Runner.run_workload ~scale:1
      (Runner.Chex
         (Chex86.Variant.make ~alias_victim_entries:0 Chex86.Variant.Microcode_prediction))
      w
  in
  Alcotest.(check bool) "victim cache does not hurt" true
    (miss with_victim <= miss without +. 0.01)

(* An ablation is one supervised sweep: an injected crash in one cell
   renders that cell FAULTED with the fault report under the table, and
   every other row still renders.  (Ablations used to run serially
   outside the pool, where a crash killed the target.) *)
let test_ablation_cell_fault () =
  let no_victim =
    Runner.Chex (Chex86.Variant.make ~alias_victim_entries:0 Chex86.Variant.Microcode_prediction)
  in
  let faulted = Runner.job_key (Runner.job ~scale:Experiments.scale no_victim (W.find "mcf")) in
  Runner.reset_for_tests ();
  Chex86_harness.Faultinject.arm
    (Chex86_harness.Faultinject.of_list [ (faulted, Chex86_harness.Faultinject.crash ()) ]);
  let out =
    Fun.protect
      ~finally:(fun () ->
        Chex86_harness.Faultinject.disarm ();
        Runner.reset_for_tests ())
      Chex86_harness.Ablations.victim_cache_ablation
  in
  let lines = String.split_on_char '\n' out in
  let row name = List.find_opt (String.starts_with ~prefix:(name ^ " ")) lines in
  (match row "mcf" with
  | Some l ->
    Alcotest.(check bool) "the crashed cell renders FAULTED" true (contains ~needle:"FAULTED" l)
  | None -> Alcotest.fail "no mcf row");
  List.iter
    (fun name ->
      match row name with
      | Some l -> Alcotest.(check bool) (name ^ " renders") false (contains ~needle:"FAULTED" l)
      | None -> Alcotest.fail ("no row for " ^ name))
    [ "perlbench"; "gcc"; "xalancbmk"; "leela"; "canneal" ];
  Alcotest.(check bool) "fault footer" true
    (contains ~needle:"sweep fault report: 12 task(s), 11 ok, 1 crashed" out)

let test_security_summary () =
  (* Full sweep: every exploit of all three suites blocked. *)
  let slots, _, _ =
    Chex86_harness.Security.sweep_stats_supervised Chex86_exploits.Exploits.all
  in
  let results =
    List.map
      (fun (_, r) ->
        match r with
        | Ok r -> r
        | Error f -> Alcotest.fail (Chex86_harness.Pool.fault_to_string f))
      slots
  in
  List.iter
    (fun suite ->
      let s = Chex86_harness.Security.summarize suite results in
      Alcotest.(check int)
        (Chex86_exploits.Exploit.suite_name suite ^ " all blocked")
        s.Chex86_harness.Security.total s.Chex86_harness.Security.blocked;
      Alcotest.(check int)
        (Chex86_exploits.Exploit.suite_name suite ^ " expected classes")
        s.Chex86_harness.Security.total s.Chex86_harness.Security.expected_class)
    [
      Chex86_exploits.Exploit.Ripe;
      Chex86_exploits.Exploit.Asan_suite;
      Chex86_exploits.Exploit.How2heap;
    ]

let () =
  Alcotest.run "harness"
    [
      ( "runner",
        [
          Alcotest.test_case "memoization" `Quick test_runner_memoizes;
          Alcotest.test_case "distinct configs, distinct runs" `Slow
            test_distinct_configs_distinct_runs;
          Alcotest.test_case "equal configs share one task" `Quick
            test_equal_configs_share_task;
          Alcotest.test_case "config names" `Quick test_runner_config_names;
          Alcotest.test_case "budget exhaustion reported" `Quick
            test_outcome_budget_exhausted;
          Alcotest.test_case "guest fault reported" `Quick test_outcome_faulted;
          Alcotest.test_case "allocator abort reported" `Quick test_outcome_aborted;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "empty aggregates render n/a" `Quick
            test_empty_aggregates_render_na;
          Alcotest.test_case "figure shapes" `Slow test_figure_shapes;
          Alcotest.test_case "cap cache sensitivity" `Slow
            test_capability_cache_sensitivity;
          Alcotest.test_case "table1 text" `Quick test_table1_text;
          Alcotest.test_case "table2 text" `Quick test_table2_text;
          Alcotest.test_case "table3 text" `Quick test_table3_text;
          Alcotest.test_case "figure1 text" `Quick test_figure1_text;
          Alcotest.test_case "workload resolution strictness" `Quick
            test_resolve_workloads;
          Alcotest.test_case "scale parsing" `Quick test_parse_scale;
        ] );
      ( "multicore",
        [
          Alcotest.test_case "report shape" `Slow (fun () ->
              let out = Chex86_harness.Multicore.report () in
              List.iter
                (fun needle ->
                  Alcotest.(check bool) ("mentions " ^ needle) true
                    (contains ~needle out))
                [ "Threads"; "Cap invalidations"; "Alias invalidations" ]);
        ] );
      ( "ablations",
        [
          Alcotest.test_case "TLB filter" `Slow test_ablation_tlb_filter;
          Alcotest.test_case "scope reduces bloat" `Slow test_ablation_scope_reduces_bloat;
          Alcotest.test_case "victim cache" `Slow test_ablation_victim_cache_helps;
          Alcotest.test_case "a faulted cell renders FAULTED" `Slow test_ablation_cell_fault;
        ] );
      ("security", [ Alcotest.test_case "all suites blocked" `Slow test_security_summary ]);
    ]
