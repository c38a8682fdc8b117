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
   paper-vs-measured comparison of a full run. *)

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

(* --- simulated-machine throughput --------------------------------------- *)

let run_throughput () =
  print_endline (Chex86_stats.Render.banner "Simulator throughput");
  let w = Chex86_workloads.Workloads.find "mcf" in
  List.iter
    (fun (name, config) ->
      let t0 = Pool.now () in
      let run = Chex86_harness.Runner.run_program config (w.build ~scale:1) in
      let dt = Pool.now () -. t0 in
      Printf.printf "%-40s %8.0f kinsn/s (%d macro-ops in %.2fs)\n%!" name
        (float_of_int run.Chex86_harness.Runner.macro_insns /. dt /. 1000.)
        run.Chex86_harness.Runner.macro_insns dt)
    [
      ("insecure baseline", Chex86_harness.Runner.insecure);
      ("CHEx86 prediction-driven", Chex86_harness.Runner.prediction);
      ("ASan", Chex86_harness.Runner.Asan);
    ]

(* --- BENCH_<n>.json benchmark trajectory --------------------------------- *)

(* `bench` times simulated macro-instructions per second for each
   (workload, variant) pair and appends an atomically written
   BENCH_<n>.json snapshot (next free index) so successive PRs leave a
   perf trajectory to defend.  When an earlier snapshot exists, any pair
   whose insns/sec drops by more than CHEX86_BENCH_MAX_REGRESS (default
   0.20; set to 1 to disable) fails the run with exit 1 — the snapshot is
   still written first so the regression is inspectable. *)

module Json = Chex86_stats.Json
module Runner = Chex86_harness.Runner

let bench_variants =
  [
    ("insecure", Runner.insecure);
    ("chex86", Runner.prediction);
    ("always_on", Runner.Chex (Chex86.Variant.make Chex86.Variant.Microcode_always_on));
    ("asan", Runner.Asan);
  ]

let default_bench_workloads = [ "mcf"; "canneal"; "freqmine" ]

let bench_workloads () =
  match Sys.getenv_opt "CHEX86_WORKLOADS" with
  | None | Some "" -> List.map Chex86_workloads.Workloads.find default_bench_workloads
  | Some _ -> Experiments.workloads ()

let env_float name default =
  match Sys.getenv_opt name with
  | None | Some "" -> default
  | Some s -> (
    match float_of_string_opt s with
    | Some f -> f
    | None ->
      Printf.eprintf "%s: not a number: %S\n" name s;
      exit 1)

let bench_min_seconds () = env_float "CHEX86_BENCH_MIN_SECONDS" 0.5
let bench_max_regress () = env_float "CHEX86_BENCH_MAX_REGRESS" 0.20
let bench_dir () = Option.value (Sys.getenv_opt "CHEX86_BENCH_DIR") ~default:"."

(* Snapshot files are BENCH_<n>.json in [dir]; returns the highest index
   present, with its path. *)
let latest_snapshot dir =
  let best = ref None in
  (try
     Array.iter
       (fun f ->
         if
           String.length f > 11
           && String.sub f 0 6 = "BENCH_"
           && Filename.check_suffix f ".json"
         then
           match int_of_string_opt (String.sub f 6 (String.length f - 11)) with
           | Some n when (match !best with Some (m, _) -> n > m | None -> true) ->
             best := Some (n, Filename.concat dir f)
           | _ -> ())
       (Sys.readdir dir)
   with Sys_error _ -> ());
  !best

(* One timed (workload, variant) cell: repeat fresh end-to-end runs until
   the accumulated simulation time crosses the minimum window, then
   report aggregate macro-insns/sec. *)
let measure_pair (w : Chex86_workloads.Bench_spec.t) config =
  let program = w.build ~scale:Experiments.scale in
  let min_seconds = bench_min_seconds () in
  let runs = ref 0
  and insns = ref 0
  and uops = ref 0
  and cycles = ref 0
  and seconds = ref 0. in
  while !seconds < min_seconds || !runs < 2 do
    let t0 = Pool.now () in
    let r = Runner.run_program config program in
    seconds := !seconds +. (Pool.now () -. t0);
    incr runs;
    insns := !insns + r.Runner.macro_insns;
    uops := !uops + r.Runner.uops;
    cycles := r.Runner.cycles
  done;
  let rate = float_of_int !insns /. !seconds in
  (`Runs !runs, `Insns !insns, `Uops !uops, `Cycles !cycles, `Seconds !seconds, `Rate rate)

let atomic_write_json path (doc : Json.t) =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out tmp in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp path

(* The previous snapshot's insns/sec per (workload, variant). *)
let rates_of_snapshot path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  match Json.of_string body with
  | Error e ->
    Printf.eprintf "bench: unreadable snapshot %s: %s\n" path e;
    []
  | Ok doc -> (
    match Json.member "results" doc with
    | Some (Json.List entries) ->
      List.filter_map
        (fun e ->
          match
            ( Option.bind (Json.member "workload" e) Json.to_string_opt,
              Option.bind (Json.member "variant" e) Json.to_string_opt,
              Option.bind (Json.member "insns_per_sec" e) Json.to_float_opt )
          with
          | Some w, Some v, Some r -> Some ((w, v), r)
          | _ -> None)
        entries
    | _ -> [])

let run_bench () =
  (* The de-allocated cycle core leaves a small, short-lived allocation
     profile; an 8 MW minor heap keeps what remains from being promoted
     (and then major-collected) inside the measured window. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  let dir = bench_dir () in
  let prev = latest_snapshot dir in
  let index = match prev with Some (n, _) -> n + 1 | None -> 1 in
  let workloads = bench_workloads () in
  let results =
    List.concat_map
      (fun (w : Chex86_workloads.Bench_spec.t) ->
        List.map
          (fun (vname, config) ->
            let ( `Runs runs,
                  `Insns insns,
                  `Uops uops,
                  `Cycles cycles,
                  `Seconds seconds,
                  `Rate rate ) =
              measure_pair w config
            in
            Printf.printf "%-12s %-10s %10.0f insn/s (%d run(s), %.2fs)\n%!" w.name
              vname rate runs seconds;
            ( (w.name, vname),
              Json.Obj
                [
                  ("workload", Json.String w.name);
                  ("variant", Json.String vname);
                  ("runs", Json.Int runs);
                  ("macro_insns", Json.Int insns);
                  ("uops", Json.Int uops);
                  ("cycles", Json.Int cycles);
                  ("seconds", Json.Float seconds);
                  ("insns_per_sec", Json.Float rate);
                ],
              rate ))
          bench_variants)
      workloads
  in
  let path = Filename.concat dir (Printf.sprintf "BENCH_%d.json" index) in
  let doc =
    Json.Obj
      [
        ("schema", Json.String "chex86-bench-v1");
        ("index", Json.Int index);
        ("scale", Json.Int Experiments.scale);
        ("unix_time", Json.Float (Unix.time ()));
        ("hostname", Json.String (Unix.gethostname ()));
        ("min_seconds", Json.Float (bench_min_seconds ()));
        ("results", Json.List (List.map (fun (_, obj, _) -> obj) results));
      ]
  in
  atomic_write_json path doc;
  Printf.printf "[wrote %s]\n%!" path;
  (* Trajectory gate: compare against the previous snapshot. *)
  (match prev with
  | None -> ()
  | Some (pn, ppath) ->
    let old_rates = rates_of_snapshot ppath in
    let tolerance = bench_max_regress () in
    let regressions =
      List.filter_map
        (fun (key, _, rate) ->
          match List.assoc_opt key old_rates with
          | Some old_rate when old_rate > 0. && rate < (1. -. tolerance) *. old_rate ->
            Some (key, rate /. old_rate)
          | _ -> None)
        results
    in
    List.iter
      (fun ((w, v), ratio) ->
        Printf.eprintf
          "bench: REGRESSION %s/%s at %.2fx of BENCH_%d.json (floor %.2fx)\n%!" w v
          ratio pn (1. -. tolerance))
      regressions;
    if regressions <> [] then exit 1);
  ""

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
      ( "throughput",
        fun () ->
          run_throughput ();
          "" );
      ("bench", run_bench);
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
