(* Tests for the supervised sweep engine: per-task fault containment,
   the deterministic fault-injection harness, and the on-disk result
   store's checkpoint/resume path.  Every failure
   mode here is *injected* via Faultinject plans keyed on stable task
   keys, so the assertions hold at any job count. *)

module Pool = Chex86_harness.Pool
module Faultinject = Chex86_harness.Faultinject
module Runner = Chex86_harness.Runner
module Counter = Chex86_stats.Counter
module W = Chex86_workloads.Workloads

let with_plan plan f =
  Faultinject.arm plan;
  Fun.protect ~finally:Faultinject.disarm f

(* Fault projection that drops backtrace strings (they depend on where
   the exception was caught, not on what faulted). *)
let fault_shape = function
  | Pool.Crashed { exn; _ } -> "crashed:" ^ exn
  | Pool.Worker_lost { reason } -> "worker_lost:" ^ reason

let report_shape (r : Pool.fault_report) =
  ( (r.tasks, r.ok, r.crashed, r.worker_lost),
    List.map (fun (f : Pool.task_fault) -> (f.index, f.key, fault_shape f.fault)) r.task_faults
  )

let tasks_10 = Array.init 10 (fun i -> i)
let key_of = string_of_int

(* --- supervision basics --------------------------------------------------- *)

let test_all_ok () =
  let results, _, report = Pool.sweep ~jobs:3 ~key:key_of (fun x _ -> x * x) tasks_10 in
  Array.iteri
    (fun i r -> Alcotest.(check (result int reject)) "squared" (Ok (i * i)) r)
    results;
  Alcotest.(check int) "tasks" 10 report.Pool.tasks;
  Alcotest.(check int) "ok" 10 report.Pool.ok;
  Alcotest.(check int) "no faults" 0 report.Pool.crashed

let test_real_crash_contained () =
  (* A genuine task exception (not injected) is classified with its
     backtrace, and every healthy task still returns. *)
  let results, _, report =
    Pool.sweep ~jobs:4 ~key:key_of
      (fun x _ -> if x = 6 then failwith "boom" else x + 1)
      tasks_10
  in
  Array.iteri
    (fun i r ->
      match r with
      | Ok v -> Alcotest.(check int) "healthy result" (i + 1) v
      | Error (Pool.Crashed { exn; backtrace }) ->
        Alcotest.(check int) "only task 6 crashed" 6 i;
        Alcotest.(check bool) "exception text" true
          (String.length exn > 0 && String.length backtrace > 0)
      | Error fault -> Alcotest.fail ("unexpected fault: " ^ Pool.fault_to_string fault))
    results;
  Alcotest.(check int) "one crash" 1 report.Pool.crashed;
  Alcotest.(check int) "nine ok" 9 report.Pool.ok

let test_injected_faults_match_plan () =
  (* A plan crashing three tasks: the report must mirror the plan
     exactly; all healthy tasks return results. *)
  let plan =
    Faultinject.of_list
      [ ("2", Faultinject.crash ()); ("5", Faultinject.crash ()); ("8", Faultinject.crash ()) ]
  in
  let results, _, report =
    with_plan plan (fun () -> Pool.sweep ~jobs:4 ~key:key_of (fun x _ -> x * 10) tasks_10)
  in
  Array.iteri
    (fun i r ->
      match (r, i) with
      | Error (Pool.Crashed _), (2 | 5 | 8) -> ()
      | Ok v, _ -> Alcotest.(check int) "healthy result" (i * 10) v
      | Error f, _ -> Alcotest.failf "task %d unexpectedly faulted: %s" i (fault_shape f))
    results;
  Alcotest.(check int) "crashed" 3 report.Pool.crashed;
  Alcotest.(check int) "ok" 7 report.Pool.ok;
  Alcotest.(check (list (pair int string)))
    "faulted tasks in task order"
    [ (2, "2"); (5, "5"); (8, "8") ]
    (List.map
       (fun (f : Pool.task_fault) -> (f.index, f.key))
       report.Pool.task_faults)

let test_supervised_jobs_invariance () =
  (* Same plan, same tasks: the report and results are identical at any
     job count (modulo backtrace text, which is caught-site noise). *)
  let plan =
    Faultinject.of_list [ ("0", Faultinject.crash ()); ("7", Faultinject.crash ()) ]
  in
  let run jobs =
    with_plan plan (fun () ->
        let results, _, report = Pool.sweep ~jobs ~key:key_of (fun x _ -> x * 2) tasks_10 in
        (Array.map (Result.map_error fault_shape) results, report_shape report))
  in
  let serial = run 1 in
  List.iter
    (fun jobs ->
      let parallel = run jobs in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d matches serial" jobs)
        true (serial = parallel))
    [ 2; 4; 8 ]

let test_seeded_plan_deterministic () =
  let keys = List.init 200 string_of_int in
  let hits rate seed =
    List.filter
      (fun k ->
        Faultinject.arm (Faultinject.seeded ~rate ~seed ());
        let hit = Faultinject.crash_for k in
        Faultinject.disarm ();
        hit)
      keys
  in
  let a = hits 0.25 42 and b = hits 0.25 42 in
  Alcotest.(check (list string)) "same keys fault for same seed" a b;
  Alcotest.(check bool) "rate selects some but not all" true
    (List.length a > 0 && List.length a < 200);
  let c = hits 0.25 43 in
  Alcotest.(check bool) "different seed, different selection" true (a <> c)

(* --- supervised stats ----------------------------------------------------- *)

let test_stats_discard_faulted () =
  (* Each completed task bumps a counter; a faulted attempt's partial
     stats must be discarded wholesale, and the pool.* fault counters
     land in the merged group. *)
  let body x (ctx : Pool.ctx) =
    Counter.incr ctx.Pool.counters "t.count";
    Counter.incr ~by:x ctx.Pool.counters "t.sum";
    (* an injected crash fires before the body, so partial-stats
       discard is exercised by the *real* exception below *)
    if x = 4 then failwith "late crash after stats were touched";
    x
  in
  let results, stats, report =
    Pool.sweep ~jobs:3 ~key:key_of body tasks_10
  in
  Alcotest.(check int) "one crash" 1 report.Pool.crashed;
  (match results.(4) with
  | Error (Pool.Crashed _) -> ()
  | _ -> Alcotest.fail "task 4 should have crashed");
  Alcotest.(check int) "faulted task's counter discarded" 9
    (Counter.get stats.Pool.counters "t.count");
  Alcotest.(check int) "faulted task's sum discarded" (45 - 4)
    (Counter.get stats.Pool.counters "t.sum");
  Alcotest.(check int) "pool.tasks" 10 (Counter.get stats.Pool.counters "pool.tasks");
  Alcotest.(check int) "pool.ok" 9 (Counter.get stats.Pool.counters "pool.ok");
  Alcotest.(check int) "pool.crashed" 1 (Counter.get stats.Pool.counters "pool.crashed")

let test_stats_supervised_matches_plain_when_healthy () =
  (* With no plan armed, the supervised merge equals a plain serial fold
     of per-task contexts, plus the pool.* counters. *)
  let body x (ctx : Pool.ctx) =
    Counter.incr ~by:x ctx.Pool.counters "t.sum";
    Chex86_stats.Histogram.add (ctx.Pool.histogram "t.h") x;
    x
  in
  let plain =
    Pool.merge_snapshots
      (Array.to_list
         (Array.map
            (fun x ->
              let ctx, snapshots = Pool.make_ctx (key_of x) in
              ignore (body x ctx);
              snapshots ())
            tasks_10))
  in
  let _, supervised, _ = Pool.sweep ~jobs:2 ~key:key_of body tasks_10 in
  Alcotest.(check int) "t.sum equal" (Counter.get plain.Pool.counters "t.sum")
    (Counter.get supervised.Pool.counters "t.sum");
  let h stats =
    match List.assoc_opt "t.h" stats.Pool.histograms with
    | Some h -> (Chex86_stats.Histogram.count h, Chex86_stats.Histogram.max_value h)
    | None -> (0, 0)
  in
  Alcotest.(check (pair int int)) "t.h equal" (h plain) (h supervised);
  Alcotest.(check int) "pool.ok present" 10
    (Counter.get supervised.Pool.counters "pool.ok")

(* --- batched supervision --------------------------------------------------- *)

let drop_chunks counters =
  List.filter (fun (name, _) -> name <> "pool.chunks") counters

let test_batched_mid_chunk_crash_isolated () =
  (* Ten tasks in chunks of five; the plan crashes key "7" (mid second
     chunk). Exactly that task faults — its chunk-mates 5,6,8,9 and the
     whole first chunk complete, and the report is keyed per task. *)
  let plan = Faultinject.of_list [ ("7", Faultinject.crash ()) ] in
  let results, _, report =
    with_plan plan (fun () ->
        Pool.sweep ~jobs:2 ~batch_size:5 ~key:key_of
          (fun x _ -> x * 11)
          tasks_10)
  in
  Array.iteri
    (fun i r ->
      match (r, i) with
      | Error (Pool.Crashed _), 7 -> ()
      | Ok v, _ -> Alcotest.(check int) "chunk-mates complete" (i * 11) v
      | Error f, _ -> Alcotest.failf "task %d unexpectedly faulted: %s" i (fault_shape f))
    results;
  Alcotest.(check int) "exactly one task faulted" 1 report.Pool.crashed;
  Alcotest.(check int) "nine ok" 9 report.Pool.ok;
  Alcotest.(check int) "two dispatch rounds" 2 report.Pool.chunks;
  Alcotest.(check (list (pair int string)))
    "fault keyed per task, not per chunk"
    [ (7, "7") ]
    (List.map
       (fun (f : Pool.task_fault) -> (f.index, f.key))
       report.Pool.task_faults)

let test_batched_supervised_matches_unbatched () =
  (* Same plan at several batch sizes: results, merged stats (minus
     pool.chunks) and the report all equal the serial unbatched run. *)
  let plan =
    Faultinject.of_list [ ("2", Faultinject.crash ()); ("6", Faultinject.crash ()) ]
  in
  let body x (ctx : Pool.ctx) =
    Counter.incr ~by:x ctx.Pool.counters "t.sum";
    Chex86_stats.Histogram.add (ctx.Pool.histogram "t.h") x;
    x + Chex86_stats.Rng.int ctx.Pool.rng 100
  in
  let shape (results, (stats : Pool.merged_stats), report) =
    ( Array.map (Result.map_error fault_shape) results,
      drop_chunks (Counter.to_list stats.Pool.counters),
      List.map
        (fun (name, h) -> (name, Chex86_stats.Histogram.sorted h))
        stats.Pool.histograms,
      report_shape report )
  in
  let unbatched =
    with_plan plan (fun () ->
        shape (Pool.sweep ~jobs:1 ~batch_size:1 ~key:key_of body tasks_10))
  in
  List.iter
    (fun batch ->
      let batched =
        with_plan plan (fun () ->
            shape
              (Pool.sweep ~jobs:3 ~batch_size:batch ~key:key_of body tasks_10))
      in
      Alcotest.(check bool)
        (Printf.sprintf "batch=%d matches unbatched" batch)
        true (unbatched = batched))
    [ 1; 3; 10 ]

(* --- security sweep degradation ------------------------------------------ *)

let test_security_sweep_supervised_degrades () =
  let exploits =
    List.filteri (fun i _ -> i < 6) Chex86_exploits.Exploits.all
  in
  let victim = (List.nth exploits 2).Chex86_exploits.Exploit.name in
  let plan = Faultinject.of_list [ (victim, Faultinject.crash ()) ] in
  let slots, stats, report =
    with_plan plan (fun () ->
        Chex86_harness.Security.sweep_stats_supervised ~jobs:2 exploits)
  in
  Alcotest.(check int) "one fault" 1 report.Pool.crashed;
  List.iteri
    (fun i ((e : Chex86_exploits.Exploit.t), r) ->
      match r with
      | Error _ ->
        Alcotest.(check string) "the planned victim faulted" victim e.name;
        Alcotest.(check int) "at the planned slot" 2 i
      | Ok result ->
        Alcotest.(check bool) "healthy evaluations complete" true
          (result.Chex86_harness.Security.exploit.Chex86_exploits.Exploit.name = e.name))
    slots;
  Alcotest.(check int) "sweep.total counts completed only" 5
    (Counter.get stats.Pool.counters "sweep.total")

(* --- on-disk result store -------------------------------------------------- *)

(* The store directory is relative, so everything lands inside dune's
   test sandbox. *)
let store_dir = "_test_chex86_cache"

let rec rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then rm_rf p else Sys.remove p)
      (Sys.readdir dir);
    Unix.rmdir dir
  end

(* Published entries anywhere in the store tree, as full paths. *)
let store_entries () =
  let acc = ref [] in
  let scan dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | names ->
      Array.iter
        (fun name ->
          if Filename.check_suffix name ".run" && String.length name > 0 && name.[0] <> '.'
          then acc := Filename.concat dir name :: !acc)
        names
  in
  scan store_dir;
  (match Sys.readdir (Filename.concat store_dir "objects") with
  | exception Sys_error _ -> ()
  | shards ->
    Array.iter (fun s -> scan (Filename.concat (Filename.concat store_dir "objects") s)) shards);
  List.sort compare !acc

let the_store_entry () =
  match store_entries () with
  | [ entry ] -> entry
  | entries ->
    Alcotest.fail (Printf.sprintf "expected exactly one store entry, found %d"
                     (List.length entries))

let with_store f =
  Runner.reset_for_tests ();
  rm_rf store_dir;
  Runner.Store.configure ~dir:store_dir;
  Fun.protect
    ~finally:(fun () ->
      Runner.Store.disable ();
      rm_rf store_dir;
      Runner.reset_for_tests ())
    f

let run_fields (r : Runner.run) =
  (r.outcome, r.macro_insns, r.uops, r.uops_injected, r.uops_killed, r.cycles,
   r.shadow_bytes, r.resident_bytes, r.mem_bytes, r.pwned)

let test_store_roundtrip () =
  with_store (fun () ->
      let w = W.find "swaptions" in
      let a = Runner.run_workload ~tag:"st1" ~scale:1 Runner.insecure w in
      let s = Runner.Store.stats () in
      Alcotest.(check int) "cold run wrote an entry" 1 s.Runner.Store.writes;
      Alcotest.(check int) "cold run missed" 1 s.Runner.Store.misses;
      (* Forget the in-memory memo: the next call must load from disk
         and simulate nothing. *)
      Runner.reset_for_tests ();
      let b = Runner.run_workload ~tag:"st1" ~scale:1 Runner.insecure w in
      let s = Runner.Store.stats () in
      Alcotest.(check int) "warm run hit the store" 1 s.Runner.Store.hits;
      Alcotest.(check int) "warm run wrote nothing" 0 s.Runner.Store.writes;
      Alcotest.(check bool) "stored run identical" true (run_fields a = run_fields b);
      Alcotest.(check bool) "counters identical" true
        (Counter.to_list a.Runner.counters = Counter.to_list b.Runner.counters))

let test_store_discards_corrupt_entry () =
  with_store (fun () ->
      let w = W.find "swaptions" in
      let a = Runner.run_workload ~tag:"st2" ~scale:1 Runner.insecure w in
      (* Tear the entry as if the process died mid-write. *)
      Unix.truncate (the_store_entry ()) 25;
      Runner.reset_for_tests ();
      let b = Runner.run_workload ~tag:"st2" ~scale:1 Runner.insecure w in
      let s = Runner.Store.stats () in
      Alcotest.(check int) "corrupt entry discarded" 1 s.Runner.Store.discarded;
      Alcotest.(check int) "and quarantined, not deleted" 1 s.Runner.Store.quarantined;
      Alcotest.(check int) "and re-simulated + re-written" 1 s.Runner.Store.writes;
      Alcotest.(check bool) "recomputed run identical" true (run_fields a = run_fields b))

let test_store_rejects_version_and_digest_mismatch () =
  with_store (fun () ->
      let w = W.find "swaptions" in
      let _ = Runner.run_workload ~tag:"st3" ~scale:1 Runner.insecure w in
      let path = the_store_entry () in
      (* Flip one payload byte: the digest line no longer matches. *)
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
      let size = (Unix.fstat fd).Unix.st_size in
      ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
      ignore (Unix.write fd (Bytes.make 1 '\xFF') 0 1);
      Unix.close fd;
      Runner.reset_for_tests ();
      let _ = Runner.run_workload ~tag:"st3" ~scale:1 Runner.insecure w in
      let s = Runner.Store.stats () in
      Alcotest.(check int) "tampered entry discarded" 1 s.Runner.Store.discarded;
      Alcotest.(check int) "no false hit" 0 s.Runner.Store.hits)

let test_killed_then_resumed_sweep () =
  (* The acceptance scenario: a sweep warms the cache, one entry is
     deliberately truncated (a torn write), and the re-run reproduces
     identical results while re-simulating only the damaged task. *)
  with_store (fun () ->
      let jobs_list =
        List.map
          (fun name -> Runner.job ~tag:"resume" ~scale:1 Runner.insecure (W.find name))
          [ "swaptions"; "mcf"; "canneal" ]
      in
      let report = Runner.prefetch_supervised ~jobs:2 jobs_list in
      Alcotest.(check int) "cold sweep healthy" 0 report.Pool.crashed;
      let first =
        List.map
          (fun name ->
            run_fields
              (Runner.run_workload ~tag:"resume" ~scale:1 Runner.insecure (W.find name)))
          [ "swaptions"; "mcf"; "canneal" ]
      in
      Alcotest.(check int) "three entries written" 3 (Runner.Store.stats ()).Runner.Store.writes;
      (* Kill: drop all in-process state; tear one entry. *)
      let victim = List.nth (store_entries ()) 1 in
      Unix.truncate victim 30;
      Runner.reset_for_tests ();
      let report = Runner.prefetch_supervised ~jobs:2 jobs_list in
      Alcotest.(check int) "resumed sweep healthy" 0 report.Pool.crashed;
      let second =
        List.map
          (fun name ->
            run_fields
              (Runner.run_workload ~tag:"resume" ~scale:1 Runner.insecure (W.find name)))
          [ "swaptions"; "mcf"; "canneal" ]
      in
      let s = Runner.Store.stats () in
      Alcotest.(check bool) "resume reproduces identical results" true (first = second);
      Alcotest.(check int) "two tasks loaded from disk" 2 s.Runner.Store.hits;
      Alcotest.(check int) "the torn entry was discarded" 1 s.Runner.Store.discarded;
      Alcotest.(check int) "only the damaged task re-simulated" 1 s.Runner.Store.writes)

let test_prefetch_supervised_records_faults () =
  (* A faulted job is visible through run_workload_result and
     faulted_jobs, and a later supervised prefetch does not run it again. *)
  with_store (fun () ->
      let w = W.find "swaptions" in
      let job = Runner.job ~tag:"st5" ~scale:1 Runner.insecure w in
      let plan = Faultinject.of_list [ (Runner.job_key job, Faultinject.crash ()) ] in
      let report = with_plan plan (fun () -> Runner.prefetch_supervised ~jobs:2 [ job ]) in
      Alcotest.(check int) "the job crashed" 1 report.Pool.crashed;
      (match Runner.run_workload_result ~tag:"st5" ~scale:1 Runner.insecure w with
      | Error (Pool.Crashed _) -> ()
      | _ -> Alcotest.fail "fault should be reported through run_workload_result");
      Alcotest.(check int) "recorded in the fault table" 1
        (List.length (Runner.faulted_jobs ()));
      (* Re-prefetching skips the faulted key entirely. *)
      let report2 = Runner.prefetch_supervised ~jobs:2 [ job ] in
      Alcotest.(check int) "nothing re-attempted" 0 report2.Pool.tasks)

let test_tmp_reclamation () =
  (* Stale .tmp-<pid>-* files from a killed sweep are swept on
     configure; a live writer's tmp files are left alone, and so is a
     dead writer's file younger than the safety age — between the
     liveness probe and the unlink the pid could have been recycled by
     a brand-new writer (runner.ml pid-reuse hazard). *)
  with_store (fun () ->
      (try Unix.mkdir store_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let dead_pid =
        (* A pid guaranteed dead: a reaped child. (Unix.fork is off
           limits once domains exist; create_process is not.) *)
        let pid =
          Unix.create_process "/bin/true" [| "/bin/true" |] Unix.stdin Unix.stdout
            Unix.stderr
        in
        ignore (Unix.waitpid [] pid);
        pid
      in
      let dead_old = Filename.concat store_dir (Printf.sprintf ".tmp-%d-x.run" dead_pid) in
      let dead_young =
        Filename.concat store_dir (Printf.sprintf ".tmp-%d-z.run" dead_pid)
      in
      let mine =
        Filename.concat store_dir (Printf.sprintf ".tmp-%d-y.run" (Unix.getpid ()))
      in
      List.iter
        (fun p ->
          let oc = open_out p in
          output_string oc "torn write";
          close_out oc)
        [ dead_old; dead_young; mine ];
      (* Age one dead tmp past the safety floor; the other stays at
         mtime now. *)
      let old = Unix.time () -. 120. in
      Unix.utimes dead_old old old;
      Runner.Store.configure ~dir:store_dir;
      Alcotest.(check bool) "dead writer's aged tmp reclaimed" false
        (Sys.file_exists dead_old);
      Alcotest.(check bool) "dead writer's young tmp kept (pid reuse guard)" true
        (Sys.file_exists dead_young);
      Alcotest.(check bool) "live writer's tmp kept" true (Sys.file_exists mine);
      Alcotest.(check int) "reclamation counted" 1
        (Runner.Store.stats ()).Runner.Store.tmp_reclaimed)

let test_store_marshal_guard () =
  (* Regression: an entry whose digest line matches a payload truncated
     inside the marshal header passes the digest check, so only the
     guarded [Marshal.from_string] can reject it — as a discard, never
     a crash. *)
  with_store (fun () ->
      let w = W.find "swaptions" in
      let a = Runner.run_workload ~tag:"st6" ~scale:1 Runner.insecure w in
      let path = the_store_entry () in
      let ic = open_in_bin path in
      let body =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (* Rebuild a v2 entry whose digest and length lines both describe
         a payload truncated inside the marshal header. *)
      let version = List.hd (String.split_on_char '\n' body) in
      let nl1 = String.index body '\n' in
      let nl2 = String.index_from body (nl1 + 1) '\n' in
      let header_skip = String.index_from body (nl2 + 1) '\n' + 1 in
      let payload = String.sub body header_skip 10 in
      let oc = open_out_bin path in
      Printf.fprintf oc "%s\n%s\n%d\n%s" version
        (Digest.to_hex (Digest.string payload))
        (String.length payload) payload;
      close_out oc;
      Runner.reset_for_tests ();
      let b = Runner.run_workload ~tag:"st6" ~scale:1 Runner.insecure w in
      let s = Runner.Store.stats () in
      Alcotest.(check int) "digest-valid truncated entry discarded" 1
        s.Runner.Store.discarded;
      Alcotest.(check int) "no false hit" 0 s.Runner.Store.hits;
      Alcotest.(check bool) "re-simulated identical" true (run_fields a = run_fields b))

let () =
  Alcotest.run "supervise"
    [
      ( "pool",
        [
          Alcotest.test_case "all ok" `Quick test_all_ok;
          Alcotest.test_case "real crash contained" `Quick test_real_crash_contained;
          Alcotest.test_case "injected faults match plan" `Quick
            test_injected_faults_match_plan;
          Alcotest.test_case "jobs invariance" `Quick test_supervised_jobs_invariance;
          Alcotest.test_case "seeded plan deterministic" `Quick
            test_seeded_plan_deterministic;
        ] );
      ( "batched",
        [
          Alcotest.test_case "mid-chunk crash isolated" `Quick
            test_batched_mid_chunk_crash_isolated;
          Alcotest.test_case "batched matches unbatched" `Quick
            test_batched_supervised_matches_unbatched;
        ] );
      ( "stats",
        [
          Alcotest.test_case "faulted stats discarded" `Quick test_stats_discard_faulted;
          Alcotest.test_case "healthy merge matches plain" `Quick
            test_stats_supervised_matches_plain_when_healthy;
        ] );
      ( "security",
        [
          Alcotest.test_case "sweep degrades gracefully" `Quick
            test_security_sweep_supervised_degrades;
        ] );
      ( "store",
        [
          Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "corrupt entry discarded" `Quick
            test_store_discards_corrupt_entry;
          Alcotest.test_case "digest mismatch rejected" `Quick
            test_store_rejects_version_and_digest_mismatch;
          Alcotest.test_case "killed-then-resumed sweep" `Quick
            test_killed_then_resumed_sweep;
          Alcotest.test_case "prefetch records faults" `Quick
            test_prefetch_supervised_records_faults;
          Alcotest.test_case "stale tmp reclaimed" `Quick test_tmp_reclamation;
          Alcotest.test_case "marshal guard on digest-valid entry" `Quick
            test_store_marshal_guard;
        ] );
    ]
