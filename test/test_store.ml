(* Tests for the v2 content-addressed result store: sharded layout,
   legacy v1 entries never served, race-lost-is-a-hit publish,
   quarantine, ENOSPC degradation, fsck, fault-point / env validation,
   the Remote backoff cap, and the multi-process writer hammer. *)

module Runner = Chex86_harness.Runner
module Store = Runner.Store
module Faultinject = Chex86_harness.Faultinject

let store_dir = "_test_store_cache"

let rec rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then rm_rf p else Sys.remove p)
      (Sys.readdir dir);
    Unix.rmdir dir
  end

let with_store f =
  Runner.reset_for_tests ();
  Faultinject.disarm_points ();
  rm_rf store_dir;
  Store.configure ~dir:store_dir;
  Fun.protect
    ~finally:(fun () ->
      Faultinject.disarm_points ();
      Store.disable ();
      rm_rf store_dir;
      Runner.reset_for_tests ())
    f

let dummy_run i : Runner.run =
  {
    Runner.outcome = Runner.Completed;
    macro_insns = 1000 + i;
    uops = 2000 + i;
    uops_injected = i;
    uops_killed = 0;
    cycles = 3000 + i;
    counters = Chex86_stats.Counter.create_group ();
    shadow_bytes = 64;
    resident_bytes = 4096;
    mem_bytes = 512;
    pwned = false;
    profile = None;
  }

let run_fields (r : Runner.run) =
  (r.Runner.outcome, r.Runner.macro_insns, r.Runner.uops, r.Runner.cycles)

let path_exn ?(digest = "test") key =
  match Store.entry_path ~key ~digest with
  | Some p -> p
  | None -> Alcotest.fail "store not configured"

(* Where a pre-sharding v1 store kept the same entry: the store root. *)
let flat_path entry = Filename.concat store_dir (Filename.basename entry)

(* --- layout ---------------------------------------------------------------- *)

let test_sharded_layout () =
  with_store (fun () ->
      Store.save ~key:"alpha" ~digest:"test" (dummy_run 1);
      let v2 = path_exn "alpha" in
      Alcotest.(check bool) "entry lives in objects/<shard>/" true (Sys.file_exists v2);
      Alcotest.(check bool) "no flat v1 entry" false (Sys.file_exists (flat_path v2));
      let shard = Filename.basename (Filename.dirname v2) in
      Alcotest.(check int) "shard is two hex chars" 2 (String.length shard);
      (match Store.load ~key:"alpha" ~digest:"test" with
      | Some r -> Alcotest.(check bool) "roundtrip" true (run_fields r = run_fields (dummy_run 1))
      | None -> Alcotest.fail "expected a hit");
      let s = Store.stats () in
      Alcotest.(check int) "one write" 1 s.Store.writes;
      Alcotest.(check int) "one hit" 1 s.Store.hits)

let test_legacy_v1_entry_is_a_miss () =
  with_store (fun () ->
      (* Hand-build a pre-sharding v1 entry at the flat root path of a
         real job.  v1 entries predate later timing fixes, so serving
         one would hand out stale cycles. *)
      let w = Chex86_workloads.Workloads.find "swaptions" in
      let key =
        Runner.job_key (Runner.job ~tag:"legacy" ~timing:false ~scale:1 Runner.insecure w)
      in
      let digest = Runner.program_digest (w.build ~scale:1) in
      let v1 = flat_path (path_exn ~digest key) in
      Unix.mkdir store_dir 0o755;
      let stale = dummy_run 7 in
      let payload = Marshal.to_string (stale : Runner.run) [] in
      let oc = open_out_bin v1 in
      Printf.fprintf oc "chex86-store-v1\n%s\n%s"
        (Digest.to_hex (Digest.string payload))
        payload;
      close_out oc;
      let r = Runner.run_workload ~tag:"legacy" ~timing:false ~scale:1 Runner.insecure w in
      Alcotest.(check bool) "stale v1 payload not served" false
        (run_fields r = run_fields stale);
      let s = Store.stats () in
      Alcotest.(check int) "a miss" 1 s.Store.misses;
      Alcotest.(check int) "never a hit" 0 s.Store.hits;
      Alcotest.(check int) "re-simulated and published" 1 s.Store.writes;
      (* fsck quarantines the leftover; a second pass comes back clean. *)
      let r = Store.fsck ~dir:store_dir in
      Alcotest.(check (list string)) "flagged as legacy" [ "legacy v1 entry" ]
        (List.map (fun i -> i.Store.f_problem) r.Store.f_issues);
      Alcotest.(check int) "quarantined" 1 r.Store.f_quarantined;
      Alcotest.(check bool) "gone from the root" false (Sys.file_exists v1);
      Alcotest.(check bool) "second fsck clean" true
        (Store.fsck_clean (Store.fsck ~dir:store_dir)))

let test_lost_race_is_a_hit () =
  with_store (fun () ->
      Store.save ~key:"contested" ~digest:"test" (dummy_run 1);
      (* A second publish of the same key (another process in real
         life) must not raise and must count as a lost race. *)
      Store.save ~key:"contested" ~digest:"test" (dummy_run 1);
      let s = Store.stats () in
      Alcotest.(check int) "one winner" 1 s.Store.writes;
      Alcotest.(check int) "one lost race" 1 s.Store.race_lost;
      Alcotest.(check int) "no write errors" 0 s.Store.write_errors;
      Alcotest.(check bool) "entry intact" true
        (Option.is_some (Store.load ~key:"contested" ~digest:"test")))

(* --- quarantine / degradation ----------------------------------------------- *)

let test_corrupt_entry_quarantined () =
  with_store (fun () ->
      Store.save ~key:"corrupt" ~digest:"test" (dummy_run 3);
      let v2 = path_exn "corrupt" in
      Unix.truncate v2 21;
      Alcotest.(check bool) "torn entry is a miss" true
        (Store.load ~key:"corrupt" ~digest:"test" = None);
      let s = Store.stats () in
      Alcotest.(check int) "quarantined" 1 s.Store.quarantined;
      Alcotest.(check int) "discarded" 1 s.Store.discarded;
      Alcotest.(check bool) "moved out of objects/" false (Sys.file_exists v2);
      let qdir = Filename.concat store_dir "quarantine" in
      Alcotest.(check int) "kept for post-mortem" 1 (Array.length (Sys.readdir qdir));
      (* A second load is a plain miss, not a second quarantine. *)
      Alcotest.(check bool) "second load misses" true
        (Store.load ~key:"corrupt" ~digest:"test" = None);
      Alcotest.(check int) "no double quarantine" 1 (Store.stats ()).Store.quarantined)

let test_enospc_degrades_to_memo_only () =
  with_store (fun () ->
      Store.save ~key:"before" ~digest:"test" (dummy_run 1);
      (* Every publish now fails with ENOSPC at the pre-write point. *)
      Faultinject.arm_points
        [ ("store.publish.pre_write",
           { Faultinject.action = Faultinject.Point_enospc; arm_at = 0 }) ];
      Store.save ~key:"during" ~digest:"test" (dummy_run 2);
      let s = Store.stats () in
      Alcotest.(check bool) "store degraded" true s.Store.degraded;
      Alcotest.(check int) "write error counted" 1 s.Store.write_errors;
      (* Degraded = memo-only writes; loads keep serving and further
         saves are silently skipped, not errors. *)
      Store.save ~key:"after" ~digest:"test" (dummy_run 3);
      Alcotest.(check int) "no further write attempts" 1
        (Store.stats ()).Store.write_errors;
      Alcotest.(check bool) "reads still serve" true
        (Option.is_some (Store.load ~key:"before" ~digest:"test"));
      Faultinject.disarm_points ();
      Store.save ~key:"still-degraded" ~digest:"test" (dummy_run 4);
      let v2 = path_exn "still-degraded" in
      Alcotest.(check bool) "degradation latches for the process" false
        (Sys.file_exists v2);
      (* Reconfiguring (a new sweep) resets the latch. *)
      Store.configure ~dir:store_dir;
      Store.save ~key:"recovered" ~digest:"test" (dummy_run 5);
      let v2 = path_exn "recovered" in
      Alcotest.(check bool) "writes recover after reconfigure" true
        (Sys.file_exists v2))

(* --- fsck ------------------------------------------------------------------- *)

let test_fsck_flags_and_heals_violations () =
  with_store (fun () ->
      List.iteri
        (fun i key -> Store.save ~key ~digest:"test" (dummy_run i))
        [ "fsck-a"; "fsck-b"; "fsck-c" ];
      let r = Store.fsck ~dir:store_dir in
      Alcotest.(check bool) "healthy store is clean" true (Store.fsck_clean r);
      Alcotest.(check int) "all entries scanned" 3 r.Store.f_scanned;
      (* Violation 1: corrupt entry.  Violation 2: entry moved to the
         wrong shard.  Violation 3: foreign file in the store root. *)
      let va = path_exn "fsck-a" in
      Unix.truncate va 19;
      let vb = path_exn "fsck-b" in
      let actual_shard = Filename.basename (Filename.dirname vb) in
      let other = if actual_shard = "00" then "11" else "00" in
      let wrong_shard = Filename.concat (Filename.concat store_dir "objects") other in
      (try Unix.mkdir wrong_shard 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Sys.rename vb (Filename.concat wrong_shard (Filename.basename vb));
      let foreign = Filename.concat store_dir "README.txt" in
      let oc = open_out foreign in
      output_string oc "not an entry";
      close_out oc;
      let r = Store.fsck ~dir:store_dir in
      Alcotest.(check bool) "violations detected" false (Store.fsck_clean r);
      Alcotest.(check bool) "at least three issues" true
        (List.length r.Store.f_issues >= 3);
      (* fsck quarantines what it can (corrupt + misplaced); the
         foreign file is only reported. *)
      Sys.remove foreign;
      let r2 = Store.fsck ~dir:store_dir in
      Alcotest.(check bool) "second run comes back clean" true (Store.fsck_clean r2);
      Alcotest.(check int) "untouched entry still ok" 1 r2.Store.f_ok)

let test_fsck_reclaims_stale_tmp_only () =
  with_store (fun () ->
      Store.save ~key:"tmp-anchor" ~digest:"test" (dummy_run 1);
      let v2 = path_exn "tmp-anchor" in
      let shard_dir = Filename.dirname v2 in
      let dead_pid =
        let pid =
          Unix.create_process "/bin/true" [| "/bin/true" |] Unix.stdin Unix.stdout
            Unix.stderr
        in
        ignore (Unix.waitpid [] pid);
        pid
      in
      let stale = Filename.concat shard_dir (Printf.sprintf ".tmp-%d-0-x.run" dead_pid) in
      let young = Filename.concat shard_dir (Printf.sprintf ".tmp-%d-1-y.run" dead_pid) in
      List.iter
        (fun p ->
          let oc = open_out p in
          output_string oc "torn";
          close_out oc)
        [ stale; young ];
      let old = Unix.time () -. 120. in
      Unix.utimes stale old old;
      let r = Store.fsck ~dir:store_dir in
      Alcotest.(check bool) "tmp files are not violations" true (Store.fsck_clean r);
      Alcotest.(check int) "stale tmp reclaimed" 1 r.Store.f_tmp_reclaimed;
      Alcotest.(check int) "young tmp left pending" 1 r.Store.f_tmp_pending;
      Alcotest.(check bool) "young tmp kept on disk" true (Sys.file_exists young))

(* --- env / spec validation -------------------------------------------------- *)

let with_env pairs f =
  let old = List.map (fun (k, _) -> (k, Sys.getenv_opt k)) pairs in
  List.iter (fun (k, v) -> Unix.putenv k v) pairs;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (k, v) -> Unix.putenv k (Option.value ~default:"" v)) old;
      Faultinject.disarm ();
      Faultinject.disarm_points ())
    f

let check_env_error pairs needle =
  with_env pairs (fun () ->
      match Faultinject.arm_from_env () with
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "error %S names the offending value %S" msg needle)
          true
          (let rec contains i =
             i + String.length needle <= String.length msg
             && (String.sub msg i (String.length needle) = needle || contains (i + 1))
           in
           contains 0)
      | Ok _ -> Alcotest.fail "malformed env must be rejected loudly")

let test_env_validation_fails_loudly () =
  check_env_error [ ("CHEX86_FAULT_RATE", "banana") ] "banana";
  check_env_error [ ("CHEX86_FAULT_RATE", "1.5") ] "1.5";
  (* Malformed SEED/KIND are rejected even when RATE is unset — a typo
     must never silently disable the plan it was meant to shape. *)
  check_env_error [ ("CHEX86_FAULT_SEED", "not-a-seed") ] "not-a-seed";
  check_env_error
    [ ("CHEX86_FAULT_RATE", "0.5"); ("CHEX86_FAULT_KIND", "explode") ]
    "explode";
  check_env_error [ ("CHEX86_FAULT_POINT", "store.publish.bogus") ] "store.publish.bogus";
  check_env_error
    [ ("CHEX86_FAULT_POINT", "store.publish.pre_rename=torn:x") ]
    "torn:x";
  (* No daemon.* points are compiled in. *)
  check_env_error [ ("CHEX86_FAULT_POINT", "daemon.accept=kill") ] "\"daemon.accept\"";
  with_env [ ("CHEX86_FAULT_RATE", "0.25"); ("CHEX86_FAULT_SEED", "7") ] (fun () ->
      match Faultinject.arm_from_env () with
      | Ok true -> ()
      | _ -> Alcotest.fail "valid env must arm the plan")

let test_points_of_spec () =
  (match
     Faultinject.points_of_spec "store.publish.pre_rename=kill@3,store.load.pre_read=delay:0.5"
   with
  | Ok [ (p1, s1); (p2, s2) ] ->
    Alcotest.(check string) "first point" "store.publish.pre_rename" p1;
    Alcotest.(check bool) "kill at 3" true
      (s1.Faultinject.action = Faultinject.Point_kill && s1.Faultinject.arm_at = 3);
    Alcotest.(check string) "second point" "store.load.pre_read" p2;
    Alcotest.(check bool) "delay action" true
      (s2.Faultinject.action = Faultinject.Point_delay 0.5)
  | Ok _ -> Alcotest.fail "expected two points"
  | Error msg -> Alcotest.fail msg);
  (match Faultinject.points_of_spec "store.publish.pre_rename=kill@zero" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad ordinal must be rejected");
  match Faultinject.points_of_spec "not.a.point" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown point must be rejected"

let test_torn_point_never_publishes () =
  (* A torn write at mid_write must leave a tmp artifact at worst,
     never a published entry a reader would trust. *)
  with_store (fun () ->
      Faultinject.arm_points
        [ ("store.publish.mid_write",
           { Faultinject.action = Faultinject.Point_torn 10; arm_at = 1 }) ];
      Store.save ~key:"torn" ~digest:"test" (dummy_run 1);
      Faultinject.disarm_points ();
      (* The publish went through but with a torn payload: the link
         published the truncated file, which the loader must reject. *)
      Alcotest.(check bool) "torn entry never served" true
        (Store.load ~key:"torn" ~digest:"test" = None);
      Alcotest.(check int) "torn entry quarantined" 1 (Store.stats ()).Store.quarantined;
      let r = Store.fsck ~dir:store_dir in
      Alcotest.(check bool) "fsck clean after quarantine" true (Store.fsck_clean r))

(* --- remote backoff cap ----------------------------------------------------- *)

let test_backoff_cap_holds () =
  let module Remote = Chex86_harness.Remote in
  let cap = Remote.max_backoff_delay *. 1.25 in
  List.iter
    (fun restarts ->
      let d = Remote.backoff_delay ~sid:0 ~restarts in
      Alcotest.(check bool)
        (Printf.sprintf "delay finite and capped at ordinal %d" restarts)
        true
        (Float.is_finite d && d > 0. && d <= cap +. 1e-9))
    [ 1; 5; 10; 60; 1030; 5000; max_int ]

(* --- multi-process writers -------------------------------------------------- *)

let chaos_soak_exe () =
  let candidate =
    Filename.concat (Filename.dirname Sys.executable_name) "chaos_soak.exe"
  in
  if Sys.file_exists candidate then Some candidate else None

let parse_counter line name =
  (* "writes=3 race_lost=2 ..." *)
  let tokens = String.split_on_char ' ' (String.trim line) in
  let prefix = name ^ "=" in
  match
    List.find_opt
      (fun t ->
        String.length t > String.length prefix
        && String.sub t 0 (String.length prefix) = prefix)
      tokens
  with
  | Some t ->
    int_of_string (String.sub t (String.length prefix) (String.length t - String.length prefix))
  | None -> Alcotest.fail (Printf.sprintf "missing %s in hammer output %S" name line)

let test_multiprocess_writers () =
  match chaos_soak_exe () with
  | None -> Alcotest.skip ()
  | Some exe ->
    Runner.reset_for_tests ();
    rm_rf store_dir;
    Unix.mkdir store_dir 0o755;
    Fun.protect ~finally:(fun () -> rm_rf store_dir)
    @@ fun () ->
    let shared = 6 and disjoint = 4 in
    let spawn seed =
      let out, inp = Unix.pipe () in
      let pid =
        Unix.create_process exe
          [|
            exe; "--hammer"; store_dir; string_of_int seed; string_of_int shared;
            string_of_int disjoint;
          |]
          Unix.stdin inp Unix.stderr
      in
      Unix.close inp;
      (pid, out)
    in
    let a = spawn 1 and b = spawn 2 in
    (* Both children are waiting on the barrier; release them together
       so the contested keys actually race. *)
    let oc = open_out (Filename.concat store_dir "go") in
    close_out oc;
    let read_child (pid, fd) =
      let ic = Unix.in_channel_of_descr fd in
      let line = input_line ic in
      let _, status = Unix.waitpid [] pid in
      close_in ic;
      Alcotest.(check bool) "hammer child exited 0" true (status = Unix.WEXITED 0);
      line
    in
    let la = read_child a and lb = read_child b in
    Sys.remove (Filename.concat store_dir "go");
    let sum name = parse_counter la name + parse_counter lb name in
    (* Exactly one winner per key: every contested key was published
       once, every private key once, and every lost race was counted
       as such — no double wins, no corruption, no quarantines. *)
    Alcotest.(check int) "one winner per key" (shared + (2 * disjoint)) (sum "writes");
    Alcotest.(check int) "losers counted race_lost" shared (sum "race_lost");
    Alcotest.(check int) "no quarantined entries" 0 (sum "quarantined");
    Alcotest.(check int) "no write errors" 0 (sum "write_errors");
    let r = Store.fsck ~dir:store_dir in
    Alcotest.(check bool) "fsck clean after the stampede" true (Store.fsck_clean r);
    Alcotest.(check int) "all entries on disk" (shared + (2 * disjoint)) r.Store.f_ok

let () =
  Alcotest.run "store"
    [
      ( "layout",
        [
          Alcotest.test_case "sharded v2 layout" `Quick test_sharded_layout;
          Alcotest.test_case "legacy v1 entry is a miss" `Quick
            test_legacy_v1_entry_is_a_miss;
          Alcotest.test_case "lost race is a hit" `Quick test_lost_race_is_a_hit;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "corrupt entry quarantined" `Quick
            test_corrupt_entry_quarantined;
          Alcotest.test_case "ENOSPC degrades to memo-only" `Quick
            test_enospc_degrades_to_memo_only;
          Alcotest.test_case "torn point never publishes" `Quick
            test_torn_point_never_publishes;
        ] );
      ( "fsck",
        [
          Alcotest.test_case "flags and heals violations" `Quick
            test_fsck_flags_and_heals_violations;
          Alcotest.test_case "stale tmp reclaimed, young kept" `Quick
            test_fsck_reclaims_stale_tmp_only;
        ] );
      ( "validation",
        [
          Alcotest.test_case "env rejected loudly" `Quick test_env_validation_fails_loudly;
          Alcotest.test_case "point spec parsing" `Quick test_points_of_spec;
        ] );
      ( "remote",
        [ Alcotest.test_case "backoff cap holds" `Quick test_backoff_cap_holds ] );
      ( "multiprocess",
        [
          Alcotest.test_case "two writers, one winner per key" `Quick
            test_multiprocess_writers;
        ] );
    ]
