(* Benchmark harness: regenerates EVERY table and figure of the paper's
   evaluation (Sections VI/VII) and runs Bechamel micro-benchmarks of the
   hot CHEx86 hardware structures.

     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- figure6   # one target
     dune exec bench/main.exe -- --jobs 4 figure6   # parallel sweep
     CHEX86_SCALE=2 dune exec bench/main.exe
     CHEX86_WORKLOADS=mcf,canneal dune exec bench/main.exe -- figure6

   --jobs N sizes the domain pool the sweeps shard over (default:
   recommended_domain_count - 1; --jobs 1 is the exact serial path;
   results are bit-identical at any job count). --batch-size N groups
   tasks into chunks of N per dispatch (default: auto, about four
   chunks per worker); results are bit-identical at any batch size
   too. Sweeps are supervised:
   a crashing task degrades its cells to FAULTED instead of killing the
   run (--strict flips the exit code when anything faulted; under
   --workers N a worker that stops responding for --heartbeat S is
   killed and its cell reads LOST), and completed runs checkpoint to
   _chex86_cache/ so an interrupted invocation resumes where it stopped
   (--cache-dir / --no-cache). The
   per-experiment index mapping each target to the paper's table or
   figure lives in DESIGN.md; EXPERIMENTS.md records the
   paper-vs-measured comparison of a full run.  The simulator's own
   speed is perfbench's to measure (perfbench/README.md): its [pairs]
   workload writes the BENCH_<n>.json trajectory. *)

module Experiments = Chex86_harness.Experiments
module Pool = Chex86_harness.Pool

(* --- Bechamel micro-benchmarks of the added hardware structures -------- *)

let microbench_tests () =
  let open Bechamel in
  let counters = Chex86_stats.Counter.create_group () in
  (* capability cache: 9 in 10 accesses cycle a 48-PID working set that
     fits the 64 entries, 1 in 10 goes to a cold PID; about the 90 % hit
     ratio the workloads show (perfbench's core.capcache_hit_ratio) *)
  let cap_cache = Chex86.Cap_cache.create ~entries:64 counters in
  let cap_i = ref 0 in
  let cap_cache_access =
    Test.make ~name:"cap_cache.access (64-entry FA, ~90% hits)"
      (Staged.stage (fun () ->
           incr cap_i;
           let pid =
             if !cap_i mod 10 = 0 then 1000 + (!cap_i land 4095) else 1 + (!cap_i mod 48)
           in
           ignore (Chex86.Cap_cache.access cap_cache pid)))
  in
  (* alias predictor: predict + update on a strided PID stream *)
  let predictor = Chex86.Alias_predictor.create counters in
  let pred_i = ref 0 in
  let predictor_cycle =
    Test.make ~name:"alias_predictor.predict+update"
      (Staged.stage (fun () ->
           incr pred_i;
           let pc = 0x400000 + ((!pred_i mod 64) * 4) in
           ignore (Chex86.Alias_predictor.predict predictor pc);
           Chex86.Alias_predictor.update predictor pc ~alias_page:true
             ~actual:(1 + (!pred_i mod 32))))
  in
  (* 5-level shadow alias table walk *)
  let alias_table = Chex86.Alias_table.create counters in
  for i = 0 to 1023 do
    Chex86.Alias_table.set alias_table (0x10000000 + (i * 8)) (1 + (i mod 64))
  done;
  let walk_i = ref 0 in
  let alias_walk =
    Test.make ~name:"alias_table.walk (5-level)"
      (Staged.stage (fun () ->
           incr walk_i;
           ignore
             (Chex86.Alias_table.get alias_table (0x10000000 + (!walk_i mod 1024 * 8)))))
  in
  (* rule database lookup per micro-op *)
  let rules = Chex86.Rules.create () in
  let uops =
    [|
      Chex86_isa.Uop.Mov { dst = Greg RAX; src = Greg RBX };
      Chex86_isa.Uop.Alu
        { op = Chex86_isa.Insn.Add; dst = Greg RAX; src1 = Greg RAX; src2 = Imm 8 };
      Chex86_isa.Uop.Load
        {
          dst = Greg RAX;
          mem = Chex86_isa.Insn.mem_of_reg RBX;
          width = Chex86_isa.Insn.W64;
        };
      Chex86_isa.Uop.Limm { dst = Greg RAX; imm = 42 };
    |]
  in
  let rule_i = ref 0 in
  let rule_lookup =
    Test.make ~name:"rules.action_for (Table I lookup)"
      (Staged.stage (fun () ->
           incr rule_i;
           ignore (Chex86.Rules.action_for rules uops.(!rule_i land 3))))
  in
  (* decoder crack *)
  let insns =
    [|
      Chex86_isa.Insn.Mov (W64, Reg RAX, Mem (Chex86_isa.Insn.mem_of_reg RBX));
      Chex86_isa.Insn.Alu (Add, Mem (Chex86_isa.Insn.mem_of_reg RBX), Reg RAX);
      Chex86_isa.Insn.Push (Reg RAX);
      Chex86_isa.Insn.Call (Label "f");
    |]
  in
  let dec_i = ref 0 in
  let decode =
    Test.make ~name:"decoder.decode (CISC->uop crack)"
      (Staged.stage (fun () ->
           incr dec_i;
           ignore (Chex86_isa.Decoder.decode insns.(!dec_i land 3))))
  in
  (* tracker propagate + commit *)
  let tracker = Chex86.Tracker.create () in
  let trk_i = ref 0 in
  let tracker_cycle =
    Test.make ~name:"tracker.set+commit"
      (Staged.stage (fun () ->
           incr trk_i;
           let seq = Chex86.Tracker.next_seq tracker in
           Chex86.Tracker.set_pid tracker (Greg RAX) ~seq ~pid:(!trk_i mod 7);
           Chex86.Tracker.commit_upto tracker ~seq))
  in
  (* construction: what every simulated run pays before its first step,
     on one exploit's process (a security sweep builds two machines per
     exploit) *)
  let proc =
    Chex86_os.Process.load ((List.hd Chex86_exploits.Exploits.all).Chex86_exploits.Exploit.build ())
  in
  let hierarchy_create =
    Test.make ~name:"Hierarchy.create (L1I+L1D+L2+DTLB)"
      (Staged.stage (fun () -> ignore (Chex86_mem.Hierarchy.create counters)))
  in
  let simulator_create =
    Test.make ~name:"Simulator.create (one exploit)"
      (Staged.stage (fun () -> ignore (Chex86_machine.Simulator.create proc)))
  in
  let hier = Chex86_mem.Hierarchy.create counters in
  let monitor_create =
    Test.make ~name:"Monitor.create (prediction, one exploit)"
      (Staged.stage (fun () -> ignore (Chex86.Monitor.create ~proc ~hier ())))
  in
  [
    cap_cache_access;
    predictor_cycle;
    alias_walk;
    rule_lookup;
    decode;
    tracker_cycle;
    hierarchy_create;
    simulator_create;
    monitor_create;
  ]

let run_microbenches () =
  let open Bechamel in
  print_endline (Chex86_stats.Render.banner "Bechamel micro-benchmarks (hot structures)");
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 500) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg instances elt in
          let est = Analyze.one ols Toolkit.Instance.monotonic_clock raw in
          let ns = match Analyze.OLS.estimates est with Some (t :: _) -> t | _ -> nan in
          Printf.printf "%-40s %10.1f ns/op\n%!" (Test.Elt.name elt) ns)
        (Test.elements test))
    (microbench_tests ())

(* --- driver -------------------------------------------------------------- *)

let targets =
  Experiments.all
  @ Chex86_harness.Ablations.all
  @ [ ("multicore", Chex86_harness.Multicore.report) ]
  @ [
      ( "microbench",
        fun () ->
          run_microbenches ();
          "" );
    ]

let () =
  (* Cli.parse_common strips the sweep flags (--jobs, --strict,
     --cache-dir, --workers, ...) and applies them to the process-wide
     knobs; whatever remains are target names. *)
  let requested = Chex86_harness.Cli.parse_common (List.tl (Array.to_list Sys.argv)) in
  let chosen =
    if requested = [] then List.map fst targets
    else begin
      List.iter
        (fun name ->
          if not (List.mem_assoc name targets) then begin
            Printf.eprintf "unknown target %S; available: %s\nflags:\n%s\n" name
              (String.concat ", " (List.map fst targets))
              Chex86_harness.Cli.common_flags_doc;
            exit 1
          end)
        requested;
      requested
    end
  in
  (match Chex86_harness.Remote.spec () with
  | Chex86_harness.Remote.Off ->
    Printf.printf "[domain pool: %d job(s)]\n%!" (Pool.jobs ())
  | Chex86_harness.Remote.Spawn n ->
    Printf.printf "[worker processes: %d spawned, heartbeat %gs]\n%!" n
      (Chex86_harness.Remote.heartbeat ()));
  List.iter
    (fun name ->
      let t0 = Pool.now () in
      (* One span per bench target, so trace-summary can break a full
         regeneration down by table/figure. *)
      let out =
        Chex86_harness.Trace.with_span ~stage:"target" [ ("name", name) ]
          (List.assoc name targets)
      in
      if out <> "" then print_endline out;
      Printf.printf "[%s: %.1fs]\n\n%!" name (Pool.now () -. t0))
    chosen;
  Chex86_harness.Cli.exit_for_faults ()
