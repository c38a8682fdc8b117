(* Tests for the process-isolated dispatch layer: remote sweeps must be
   bit-identical to a serial in-process run of the same kind function at
   any (workers, batch) geometry — including runs where a worker is
   killed mid-chunk, a frame is dropped/corrupted/delayed in transit, or
   no worker can be started at all and the sweep degrades to the
   in-process pool.

   The baseline for every comparison is the selftest kind's body run
   through [Pool.sweep ~jobs:1]: the exact task/ctx path the worker
   uses, minus the transport. *)

module Pool = Chex86_harness.Pool
module Remote = Chex86_harness.Remote
module Faultinject = Chex86_harness.Faultinject
module Counter = Chex86_stats.Counter
module Histogram = Chex86_stats.Histogram

let with_plan plan f =
  Faultinject.arm plan;
  Fun.protect ~finally:Faultinject.disarm f

let selftest_fn =
  match Remote.find_kind Remote.selftest_kind with
  | Some fn -> fn
  | None -> Alcotest.fail "selftest kind not registered"

let tasks_n n = Array.init n (fun i -> Printf.sprintf "task-%d" i)
let arg_of _ = "8"

let serial_baseline ?(arg = arg_of) tasks =
  Pool.sweep ~jobs:1 ~batch_size:1 ~key:Fun.id
    (fun key ctx -> selftest_fn ~key ~arg:(arg key) ctx)
    tasks

(* [pool.chunks] and the [remote.*] counters record dispatch/transport
   behaviour — the documented scheduling-dependent set; everything else
   must match bit for bit. *)
let comparable counters =
  Counter.to_list counters
  |> List.filter (fun (name, _) ->
         name <> "pool.chunks"
         && not (String.length name >= 7 && String.sub name 0 7 = "remote."))

let hists_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (na, ha) (nb, hb) ->
         na = nb
         && Histogram.snapshot_to_list (Histogram.snapshot ha)
            = Histogram.snapshot_to_list (Histogram.snapshot hb))
       a b

let check_matches_serial label (sstats : Pool.merged_stats)
    (rstats : Pool.merged_stats) sresults rresults =
  Alcotest.(check (array (result string reject)))
    (label ^ ": results") sresults rresults;
  Alcotest.(check (list (pair string int)))
    (label ^ ": merged counters")
    (comparable sstats.Pool.counters)
    (comparable rstats.Pool.counters);
  Alcotest.(check bool) (label ^ ": merged histograms") true
    (hists_equal sstats.Pool.histograms rstats.Pool.histograms)

let remote_results_as_opaque results =
  Array.map (fun r -> Result.map_error (fun _ -> ()) r) results

(* --- spawn-mode bit-identity ---------------------------------------------- *)

let test_remote_matches_serial () =
  let tasks = tasks_n 9 in
  let sresults, sstats, _ = serial_baseline tasks in
  let rresults, rstats, report =
    Remote.sweep ~spec:(Remote.Spawn 2) ~batch_size:2 ~kind:Remote.selftest_kind
      ~key:Fun.id ~arg:arg_of tasks
  in
  Alcotest.(check int) "no faults" 0 (List.length report.Pool.task_faults);
  Alcotest.(check int) "no losses" 0 report.Pool.worker_losses;
  Alcotest.(check int) "not degraded" 0
    (Counter.get rstats.Pool.counters "remote.degraded");
  Alcotest.(check int) "workers recorded" 2
    (Counter.get rstats.Pool.counters "remote.workers");
  check_matches_serial "spawn2/batch2" sstats rstats
    (Array.map (fun r -> Result.map_error (fun _ -> ()) r) sresults)
    (remote_results_as_opaque rresults)

(* Any geometry: workers in 1..3, batch in 1..5, always equal to serial. *)
let prop_geometry_invariance =
  QCheck.Test.make ~count:6 ~name:"remote sweep invariant under (workers, batch)"
    QCheck.(pair (int_range 1 3) (int_range 1 5))
    (fun (workers, batch) ->
      let tasks = tasks_n 7 in
      let sresults, sstats, _ = serial_baseline tasks in
      let rresults, rstats, report =
        Remote.sweep ~spec:(Remote.Spawn workers) ~batch_size:batch
          ~kind:Remote.selftest_kind ~key:Fun.id ~arg:arg_of tasks
      in
      (List.length report.Pool.task_faults) = 0
      && remote_results_as_opaque rresults
         = Array.map (fun r -> Result.map_error (fun _ -> ()) r) sresults
      && comparable rstats.Pool.counters = comparable sstats.Pool.counters
      && hists_equal sstats.Pool.histograms rstats.Pool.histograms)

(* --- worker loss ----------------------------------------------------------- *)

(* SIGKILL mid-chunk on the first dispatch: the lost worker's streamed
   results are kept, only the unfinished tasks are re-dispatched, the
   re-run seeds each task from its key — so the final stats are byte-identical
   to a run with no kill at all.  Exactly one loss event is reported and
   no task ends up faulted.  The loss must show as EOF at once, well
   inside the default 30 s heartbeat: a sibling worker that inherited
   the dead worker's socket would hide the EOF until the heartbeat. *)
let test_worker_kill_recovers_bit_identical () =
  let tasks = tasks_n 8 in
  let sresults, sstats, _ = serial_baseline tasks in
  let plan = Faultinject.of_list [ ("task-3", Faultinject.kill_worker ()) ] in
  let t0 = Pool.now () in
  let rresults, rstats, report =
    with_plan plan (fun () ->
        Remote.sweep ~spec:(Remote.Spawn 2) ~batch_size:4 ~kind:Remote.selftest_kind
          ~key:Fun.id ~arg:arg_of tasks)
  in
  Alcotest.(check bool) "loss seen as EOF, not at the heartbeat" true
    (Pool.now () -. t0 < 10.);
  Alcotest.(check int) "exactly one worker loss event" 1 report.Pool.worker_losses;
  Alcotest.(check int) "no task faulted" 0 (List.length report.Pool.task_faults);
  Alcotest.(check int) "no Worker_lost task" 0 report.Pool.worker_lost;
  Alcotest.(check bool) "tasks were re-dispatched" true
    (Counter.get rstats.Pool.counters "remote.redispatched_tasks" >= 1);
  check_matches_serial "after innocent kill" sstats rstats
    (Array.map (fun r -> Result.map_error (fun _ -> ()) r) sresults)
    (remote_results_as_opaque rresults)

(* A worker that stops responding — here it stops itself with SIGSTOP,
   beater thread included — cannot be contained in-process.  The
   heartbeat deadline must SIGKILL it, and with a zero loss budget the
   task is faulted as Worker_lost while the rest of the sweep completes. *)
let test_wedged_worker_killed_at_heartbeat () =
  let tasks = [| "wedge-0"; "task-1"; "task-2" |] in
  let t0 = Pool.now () in
  let rresults, _rstats, report =
    Remote.sweep ~spec:(Remote.Spawn 1) ~batch_size:1 ~heartbeat:0.5
      ~task_loss_budget:0 ~kind:Remote.selftest_kind ~key:Fun.id ~arg:arg_of tasks
  in
  let elapsed = Pool.now () -. t0 in
  Alcotest.(check bool) "killed within the deadline (not wedged forever)" true
    (elapsed < 10.);
  (match rresults.(0) with
  | Error (Pool.Worker_lost _) -> ()
  | Error fault -> Alcotest.fail ("wrong fault: " ^ Pool.fault_to_string fault)
  | Ok _ -> Alcotest.fail "wedged task cannot succeed");
  Alcotest.(check int) "one Worker_lost task" 1 report.Pool.worker_lost;
  Array.iteri
    (fun i r -> if i > 0 then Alcotest.(check bool) "healthy task ok" true (Result.is_ok r))
    rresults

(* A healthy task may run far longer than one heartbeat: the worker's
   beater thread keeps beating while the task spins 2 s without ever
   allocating.  Nothing is lost, and results and stats match the serial
   run. *)
let test_long_task_outlives_heartbeat () =
  let tasks = [| "long-0"; "task-1"; "task-2" |] in
  let arg key = if String.starts_with ~prefix:"long" key then "2" else arg_of key in
  let sresults, sstats, _ = serial_baseline ~arg tasks in
  let rresults, rstats, report =
    Remote.sweep ~spec:(Remote.Spawn 1) ~batch_size:1 ~heartbeat:0.4
      ~kind:Remote.selftest_kind ~key:Fun.id ~arg tasks
  in
  Alcotest.(check int) "no worker loss" 0 report.Pool.worker_losses;
  Alcotest.(check int) "no task faulted" 0 (List.length report.Pool.task_faults);
  check_matches_serial "long task" sstats rstats
    (Array.map (fun r -> Result.map_error (fun _ -> ()) r) sresults)
    (remote_results_as_opaque rresults)

(* --- transport faults ------------------------------------------------------ *)

let transport_case directive label extra_checks =
  let tasks = tasks_n 6 in
  let sresults, sstats, _ = serial_baseline tasks in
  let plan = Faultinject.of_list [ ("task-0", directive) ] in
  let rresults, rstats, report =
    with_plan plan (fun () ->
        Remote.sweep ~spec:(Remote.Spawn 2) ~batch_size:3 ~heartbeat:0.5
          ~kind:Remote.selftest_kind ~key:Fun.id ~arg:arg_of tasks)
  in
  Alcotest.(check int) (label ^ ": no task faulted") 0 (List.length report.Pool.task_faults);
  check_matches_serial label sstats rstats
    (Array.map (fun r -> Result.map_error (fun _ -> ()) r) sresults)
    (remote_results_as_opaque rresults);
  extra_checks rstats report

let test_dropped_frame_recovered () =
  transport_case
    (Faultinject.drop_frame ())
    "drop_frame"
    (fun _rstats report ->
      Alcotest.(check int) "heartbeat killed the starved worker" 1
        report.Pool.worker_losses)

let test_corrupt_frame_rejected_and_resent () =
  transport_case
    (Faultinject.corrupt_frame ())
    "corrupt_frame"
    (fun rstats _report ->
      Alcotest.(check bool) "worker rejected the frame" true
        (Counter.get rstats.Pool.counters "remote.frame_errors" >= 1))

let test_delayed_frame_tolerated () =
  transport_case (Faultinject.delay_frame 0.2) "delay_frame" (fun _ _ -> ())

(* --- degradation ----------------------------------------------------------- *)

let test_degrades_without_worker_exe () =
  let tasks = tasks_n 6 in
  let sresults, sstats, _ = serial_baseline tasks in
  Unix.putenv "CHEX86_WORKER_EXE" "/nonexistent/chex86_worker.exe";
  let rresults, rstats, report =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "CHEX86_WORKER_EXE" "")
      (fun () ->
        Remote.sweep ~spec:(Remote.Spawn 2) ~batch_size:2 ~kind:Remote.selftest_kind
          ~key:Fun.id ~arg:arg_of tasks)
  in
  Alcotest.(check int) "degraded flag" 1
    (Counter.get rstats.Pool.counters "remote.degraded");
  Alcotest.(check int) "no faults" 0 (List.length report.Pool.task_faults);
  check_matches_serial "degraded" sstats rstats
    (Array.map (fun r -> Result.map_error (fun _ -> ()) r) sresults)
    (remote_results_as_opaque rresults)

(* --- knob validation --------------------------------------------------------- *)

(* A non-positive heartbeat must be rejected loudly at the setter, not
   silently wedge a sweep: a 0 heartbeat would kill every worker
   instantly.  A small positive one is floored at 200 ms: at 50 ms a
   beater waiting one runtime tick for the master lock went silent
   long enough to kill a healthy worker. *)
let test_rejects_nonpositive_heartbeat () =
  let saved = Remote.heartbeat () in
  Fun.protect
    ~finally:(fun () -> Remote.set_heartbeat saved)
    (fun () ->
      List.iter
        (fun bad ->
          match Remote.set_heartbeat bad with
          | () -> Alcotest.fail (Printf.sprintf "heartbeat %g accepted" bad)
          | exception Invalid_argument _ -> ())
        [ 0.; -1.; Float.neg_infinity; Float.nan ];
      Remote.set_heartbeat 0.05;
      Alcotest.(check (float 0.)) "floored at 200 ms" 0.2 (Remote.heartbeat ());
      match
        Remote.sweep ~heartbeat:0. ~kind:Remote.selftest_kind ~key:Fun.id
          ~arg:arg_of (tasks_n 2)
      with
      | _ -> Alcotest.fail "sweep ?heartbeat:0 accepted"
      | exception Invalid_argument _ -> ())

(* --- end-to-end: security sweep through workers ----------------------------- *)

let test_security_sweep_remote_matches_local () =
  let subset = List.filteri (fun i _ -> i mod 97 = 0) Chex86_exploits.Exploits.all in
  Alcotest.(check bool) "subset non-trivial" true (List.length subset >= 5);
  let local, lstats, _ = Chex86_harness.Security.sweep_stats_supervised ~jobs:1 subset in
  Remote.set_spec (Remote.Spawn 2);
  let remote, rstats, report =
    Fun.protect
      ~finally:(fun () -> Remote.set_spec Remote.Off)
      (fun () -> Chex86_harness.Security.sweep_stats_supervised ~batch_size:2 subset)
  in
  Alcotest.(check int) "no faults" 0 (List.length report.Pool.task_faults);
  Alcotest.(check (list (pair string int)))
    "sweep counters identical"
    (comparable lstats.Pool.counters)
    (comparable rstats.Pool.counters);
  List.iter2
    (fun (le, lr) (re_, rr) ->
      Alcotest.(check string) "exploit order"
        le.Chex86_exploits.Exploit.name re_.Chex86_exploits.Exploit.name;
      match (lr, rr) with
      | Ok (l : Chex86_harness.Security.result), Ok r ->
        Alcotest.(check bool) "same blocked verdict" true
          (Chex86_harness.Security.blocked l = Chex86_harness.Security.blocked r);
        Alcotest.(check int) "same protected macro insns"
          l.Chex86_harness.Security.under_protection.Chex86_harness.Runner.macro_insns
          r.Chex86_harness.Security.under_protection.Chex86_harness.Runner.macro_insns
      | _ -> Alcotest.fail "unexpected fault in security sweep")
    local remote

let test_campaign_matrix_remote_matches_local () =
  (* Generated campaigns cross the wire by name only (the worker rebuilds
     them through [Exploits.find] / [Campaign.of_name]); the detection
     matrix — including its JSON — must come back byte-identical to the
     in-process run, multi-core race campaigns included. *)
  let module Campaign = Chex86_exploits.Campaign in
  let module Security = Chex86_harness.Security in
  let corpus = Campaign.corpus ~seed:11 ~per_family:1 in
  let configs = [ Chex86_harness.Runner.insecure; Chex86_harness.Runner.prediction ] in
  let json matrix =
    Chex86_stats.Json.to_string (Security.matrix_to_json matrix)
  in
  let local = json (Security.campaign_matrix ~jobs:1 ~configs corpus) in
  Remote.set_spec (Remote.Spawn 2);
  let remote =
    Fun.protect
      ~finally:(fun () -> Remote.set_spec Remote.Off)
      (fun () -> json (Security.campaign_matrix ~batch_size:3 ~configs corpus))
  in
  Alcotest.(check string) "matrix JSON byte-identical through workers" local remote

let () =
  Alcotest.run "remote"
    [
      ( "bit-identity",
        [
          Alcotest.test_case "spawn matches serial" `Quick test_remote_matches_serial;
          QCheck_alcotest.to_alcotest prop_geometry_invariance;
        ] );
      ( "worker loss",
        [
          Alcotest.test_case "mid-chunk kill recovers" `Quick
            test_worker_kill_recovers_bit_identical;
          Alcotest.test_case "wedged worker killed at heartbeat" `Quick
            test_wedged_worker_killed_at_heartbeat;
          Alcotest.test_case "long task outlives heartbeat" `Quick
            test_long_task_outlives_heartbeat;
        ] );
      ( "transport",
        [
          Alcotest.test_case "dropped frame" `Quick test_dropped_frame_recovered;
          Alcotest.test_case "corrupt frame" `Quick test_corrupt_frame_rejected_and_resent;
          Alcotest.test_case "delayed frame" `Quick test_delayed_frame_tolerated;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "no worker exe" `Quick test_degrades_without_worker_exe;
        ] );
      ( "validation",
        [
          Alcotest.test_case "rejects non-positive heartbeat" `Quick
            test_rejects_nonpositive_heartbeat;
        ] );
      ( "security",
        [
          Alcotest.test_case "remote sweep matches local" `Quick
            test_security_sweep_remote_matches_local;
          Alcotest.test_case "campaign matrix remote matches local" `Quick
            test_campaign_matrix_remote_matches_local;
        ] );
    ]
