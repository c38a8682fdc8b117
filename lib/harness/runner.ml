(* Unified runner for benchmarks and exploits across every protection
   configuration (the six bars of Fig 6 plus ASan), with memoization so
   the bench targets that share runs (Fig 6 / Table IV / Fig 9) only
   simulate each (workload, configuration) pair once. *)

module Machine = Chex86_machine
module Os = Chex86_os

type config =
  | Chex of Chex86.Variant.t
  | Asan

let insecure = Chex (Chex86.Variant.make Chex86.Variant.Insecure)
let prediction = Chex Chex86.Variant.default

let config_name = function
  | Chex v -> Chex86.Variant.scheme_name v.Chex86.Variant.scheme
  | Asan -> "ASan"

(* Digest-qualified id of the installed µarch preset, folded into every
   memo/store key: results computed under different machines (or after a
   preset's definition changes) can never false-hit each other. *)
let preset_tag () = Machine.Preset.id (Machine.Preset.current ())

type outcome =
  | Completed
  | Blocked of Chex86.Violation.kind
  | Aborted of string  (* allocator integrity abort *)
  | Faulted of string
  | Budget_exhausted

type run = {
  outcome : outcome;
  macro_insns : int;
  uops : int;
  uops_injected : int;
  uops_killed : int;
  cycles : int;
  counters : Chex86_stats.Counter.group;
  shadow_bytes : int;  (* capability/alias tables or ASan shadow *)
  resident_bytes : int;
  mem_bytes : int;  (* DRAM traffic *)
  pwned : bool;
  profile : Os.Heap_profile.report option;
}

let read_pwned proc program =
  match Chex86_isa.Program.find_global program Exploit_defs.pwned_global with
  | None -> false
  | Some g ->
    Chex86_mem.Image.read64 proc.Os.Process.mem g.Chex86_isa.Program.addr
    = Chex86_exploits.Exploit.pwned_value

let of_sim_result program proc ~shadow_bytes ~profile
    (result : Machine.Simulator.result) outcome =
  {
    outcome;
    macro_insns = result.macro_insns;
    uops = result.uops;
    uops_injected = result.uops_injected;
    uops_killed = result.uops_killed;
    cycles = result.cycles;
    counters = result.counters;
    shadow_bytes;
    resident_bytes = result.resident_bytes;
    mem_bytes = result.mem_bytes;
    pwned = read_pwned proc program;
    profile;
  }

(* Execute [program] under [config].  [timing:false] runs the functional
   engine only (used for the security sweep, which needs no cycles).
   [heap] selects the allocator personality; the ASan baseline ignores
   it (ASan interposes its own redzone allocator). *)
let run_program ?(timing = true) ?(max_insns = 50_000_000) ?(profile = false)
    ?(configure = fun (_ : Chex86.Monitor.t) -> ())
    ?(heap = Os.Allocator.Glibc) config program =
  match config with
  | Chex variant ->
    let profile_interval = if profile then Some 100_000 else None in
    let run =
      Chex86.Sim.run ~variant ~max_insns ~timing ~configure ?profile_interval ~heap
        program
    in
    let outcome =
      match run.Chex86.Sim.outcome with
      | Chex86.Sim.Completed -> Completed
      | Chex86.Sim.Violation_detected kind -> Blocked kind
      | Chex86.Sim.Heap_abort msg -> Aborted msg
      | Chex86.Sim.Guest_fault msg -> Faulted msg
      | Chex86.Sim.Budget_exhausted -> Budget_exhausted
    in
    of_sim_result program run.Chex86.Sim.proc
      ~shadow_bytes:(Chex86.Monitor.shadow_storage_bytes run.Chex86.Sim.monitor)
      ~profile:(Option.map Os.Heap_profile.report run.Chex86.Sim.profile)
      run.Chex86.Sim.result outcome
  | Asan ->
    let monitor, result, proc = Chex86_asan.Asan_monitor.run ~timing ~max_insns program in
    let outcome =
      match result.Machine.Simulator.outcome with
      | Machine.Simulator.Finished -> Completed
      | Machine.Simulator.Budget_exhausted -> Budget_exhausted
      | Machine.Simulator.Faulted (Chex86.Violation.Security_violation kind) ->
        Blocked kind
      | Machine.Simulator.Faulted (Os.Allocator.Heap_abort msg) -> Aborted msg
      | Machine.Simulator.Faulted (Machine.Engine.Guest_fault msg) -> Faulted msg
      | Machine.Simulator.Faulted e -> Faulted (Printexc.to_string e)
    in
    {
      outcome;
      macro_insns = result.macro_insns;
      uops = result.uops;
      uops_injected = result.uops_injected;
      uops_killed = result.uops_killed;
      cycles = result.cycles;
      counters = result.counters;
      shadow_bytes = Chex86_asan.Asan_monitor.storage_bytes monitor;
      resident_bytes = result.resident_bytes;
      mem_bytes = result.mem_bytes;
      pwned = read_pwned proc program;
      profile = None;
    }

(* Execute [program] on the SMP driver, one hardware thread per entry
   label.  Used by the cross-core exploit campaigns; the per-core
   pipeline totals are folded into [cycles]/[macro_insns], and the uop /
   memory-traffic fields (single-engine notions) are reported as 0.  The
   ASan baseline has no SMP monitor, so Asan configs report [Faulted]
   rather than silently running unprotected. *)
let run_threads ?(timing = false) ?(max_insns = 50_000_000)
    ?(heap = Os.Allocator.Glibc) ~quantum ~threads config program =
  match config with
  | Chex variant ->
    let r = Chex86.Smp.run ~variant ~max_insns ~timing ~quantum ~heap ~threads program in
    let outcome =
      match r.Chex86.Smp.outcome with
      | Chex86.Smp.Completed -> Completed
      | Chex86.Smp.Violation_detected { kind; core = _ } -> Blocked kind
      | Chex86.Smp.Heap_abort { message; core = _ } -> Aborted message
      | Chex86.Smp.Guest_fault { message; core = _ } -> Faulted message
      | Chex86.Smp.Budget_exhausted -> Budget_exhausted
    in
    {
      outcome;
      macro_insns = r.Chex86.Smp.macro_insns;
      uops = 0;
      uops_injected = 0;
      uops_killed = 0;
      cycles = r.Chex86.Smp.cycles;
      counters = r.Chex86.Smp.counters;
      shadow_bytes = 0;
      resident_bytes = 0;
      mem_bytes = 0;
      pwned = read_pwned r.Chex86.Smp.proc program;
      profile = None;
    }
  | Asan ->
    {
      outcome = Faulted "ASan baseline does not support SMP runs";
      macro_insns = 0;
      uops = 0;
      uops_injected = 0;
      uops_killed = 0;
      cycles = 0;
      counters = Chex86_stats.Counter.create_group ();
      shadow_bytes = 0;
      resident_bytes = 0;
      mem_bytes = 0;
      pwned = false;
      profile = None;
    }

(* --- on-disk result store (checkpoint / resume / shared cache) ------------ *)

(* Spills memoized runs to disk so an interrupted sweep resumes where it
   stopped, repeated invocations skip re-simulation entirely, and many
   concurrent processes (sweeps and worker processes) can share one warm
   cache.  Entries are keyed by the memo key ([job_key]) plus a content
   digest of the built workload program, so editing a workload builder
   invalidates its cached runs.

   v2 layout, content-addressed and shared-writer safe:

     <dir>/objects/<hh>/<slug>-<id>.run   published entries, sharded by
                                          the first byte of <id> (the
                                          MD5 of key + program digest)
     <dir>/objects/<hh>/.tmp-<pid>-<n>-*  in-flight writes
     <dir>/quarantine/                    corrupt entries, kept for
                                          post-mortem instead of deleted

   A flat <dir>/<slug>-<id>.run is a pre-sharding chex86-store-v1 entry.
   It predates later timing fixes, so it is never served: load misses
   it and fsck quarantines it.

   Crash model (machine-checked by `chex86_sim store fsck` and the
   kill/resume chaos soak): a writer may be SIGKILLed at any point.
   Entries become visible only via link/rename of a fully written tmp
   file, so a reader can never observe a partial entry; a kill before
   publish leaves only a tmp file that reclamation or fsck collects.
   Two writers racing on one key are benign: the loser's link fails
   with EEXIST and is counted as [race_lost] — a cache hit in effect,
   never corruption.  Anything unreadable is quarantined with a warning
   and re-simulated — a corrupt cache can cost time, never correctness,
   and never a crash.  On ENOSPC/EROFS the store degrades to memo-only
   operation so a sweep on a full disk still completes. *)
module Store = struct
  let format_version = "chex86-store-v2"

  let dir_ref : string option Atomic.t = Atomic.make None
  let hits = Atomic.make 0
  let misses = Atomic.make 0
  let writes = Atomic.make 0
  let discarded = Atomic.make 0
  let tmp_reclaimed = Atomic.make 0
  let quarantined = Atomic.make 0
  let race_lost = Atomic.make 0
  let write_errors = Atomic.make 0
  let degraded = Atomic.make false

  type stats = {
    hits : int;
    misses : int;
    writes : int;
    discarded : int;
    tmp_reclaimed : int;
    quarantined : int;
    race_lost : int;
    write_errors : int;
    degraded : bool;
  }

  let stats () =
    {
      hits = Atomic.get hits;
      misses = Atomic.get misses;
      writes = Atomic.get writes;
      discarded = Atomic.get discarded;
      tmp_reclaimed = Atomic.get tmp_reclaimed;
      quarantined = Atomic.get quarantined;
      race_lost = Atomic.get race_lost;
      write_errors = Atomic.get write_errors;
      degraded = Atomic.get degraded;
    }

  let reset_stats () =
    Atomic.set hits 0;
    Atomic.set misses 0;
    Atomic.set writes 0;
    Atomic.set discarded 0;
    Atomic.set tmp_reclaimed 0;
    Atomic.set quarantined 0;
    Atomic.set race_lost 0;
    Atomic.set write_errors 0;
    Atomic.set degraded false

  let default_dir = "_chex86_cache"
  let objects_dirname = "objects"
  let quarantine_dirname = "quarantine"
  let objects_dir d = Filename.concat d objects_dirname
  let quarantine_dir d = Filename.concat d quarantine_dirname

  let warn fmt =
    Printf.ksprintf (fun msg -> Printf.eprintf "chex86-store: %s\n%!" msg) fmt

  (* A tmp file's writer is still alive iff signal 0 reaches its pid
     (EPERM means alive under another uid — leave it alone). *)
  let pid_alive pid =
    match Unix.kill pid 0 with
    | () -> true
    | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
    | exception _ -> true

  (* Age floor for reclaiming a dead writer's tmp files: between the
     liveness probe and the unlink the file could belong to a brand-new
     writer that inherited a recycled pid (or, on a shared filesystem,
     to a live writer in another pid namespace whose pid happens to
     look dead here).  A real writer publishes within one entry write,
     so anything older than [tmp_min_age] with a dead owner is garbage;
     younger files are left for the next sweep. *)
  let tmp_min_age = 60. (* seconds *)

  (* Hard age cap for pid reuse in the other direction: a recycled pid
     can also make a long-dead writer look alive, so sufficiently old
     tmp files go regardless of the liveness probe. *)
  let tmp_stale_age = 900. (* seconds *)

  let is_tmp_name name = String.length name > 5 && String.sub name 0 5 = ".tmp-"

  let tmp_writer_pid name =
    match String.index_from_opt name 5 '-' with
    | Some dash -> int_of_string_opt (String.sub name 5 (dash - 5))
    | None -> None

  let tmp_age ~now path =
    match Unix.stat path with
    | st -> now -. st.Unix.st_mtime
    | exception Unix.Unix_error _ -> 0.

  let tmp_is_stale ~self ~now path name =
    let age = tmp_age ~now path in
    match tmp_writer_pid name with
    | Some pid when pid = self -> false
    | Some pid -> ((not (pid_alive pid)) && age > tmp_min_age) || age > tmp_stale_age
    | None -> age > tmp_stale_age

  (* The directories that may hold entries or tmp files: the root plus
     every populated shard. *)
  let entry_dirs d =
    let shards =
      match Sys.readdir (objects_dir d) with
      | names ->
        Array.to_list names
        |> List.filter_map (fun n ->
               let p = Filename.concat (objects_dir d) n in
               if Sys.is_directory p then Some p else None)
      | exception Sys_error _ -> []
    in
    d :: List.sort compare shards

  (* Reclaim stale [.tmp-<pid>-*] files left behind by killed processes
     anywhere in the tree. *)
  let reclaim_tmp d =
    let self = Unix.getpid () in
    let now = Unix.time () in
    List.iter
      (fun dir ->
        match Sys.readdir dir with
        | exception Sys_error _ -> ()
        | names ->
          Array.iter
            (fun name ->
              if is_tmp_name name then begin
                let path = Filename.concat dir name in
                if tmp_is_stale ~self ~now path name then begin
                  match Sys.remove path with
                  | () ->
                    Atomic.incr tmp_reclaimed;
                    warn "reclaimed stale tmp file %s" path
                  | exception Sys_error _ -> ()
                end
              end)
            names)
      (entry_dirs d)

  (* One sweep per configuration: [ensure_dir] runs on every save, and
     re-listing the tree each time would turn writes quadratic. *)
  let swept = Atomic.make false

  (* Entries that failed to quarantine (read-only store): remembered so
     a corrupt entry is not re-read and re-warned every load. *)
  let bad : (string, unit) Hashtbl.t = Hashtbl.create 8
  let bad_lock = Mutex.create ()
  let mark_bad path = Mutex.protect bad_lock (fun () -> Hashtbl.replace bad path ())
  let is_bad path = Mutex.protect bad_lock (fun () -> Hashtbl.mem bad path)
  let clear_bad () = Mutex.protect bad_lock (fun () -> Hashtbl.reset bad)

  (* The directory itself is created on first write, so enabling the
     store in a binary that never saves leaves no empty directory. *)
  let configure ~dir =
    Atomic.set dir_ref (Some dir);
    Atomic.set swept false;
    Atomic.set degraded false;
    clear_bad ();
    if Sys.file_exists dir then begin
      Atomic.set swept true;
      reclaim_tmp dir
    end

  let mkdir_exist_ok dir =
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

  let ensure_dir dir =
    mkdir_exist_ok dir;
    if not (Atomic.exchange swept true) then reclaim_tmp dir

  let disable () = Atomic.set dir_ref None
  let enabled () = Option.is_some (Atomic.get dir_ref)
  let dir () = Atomic.get dir_ref

  (* The model the stored cycles came from: the MD5 of
     test/golden/timing.json.  Re-pinning that file changes this too
     (test_golden checks the pair), so no older model's entry is served. *)
  let model_fingerprint = "8a197f4663bc8e4d07a7ebc4e2b2d0a6"

  (* Key scheme: a human-greppable sanitized prefix of the memo key plus
     a digest over (key, program digest, model) that actually
     disambiguates; the digest's first byte is the shard. *)
  let entry_id ~key ~digest =
    Digest.to_hex (Digest.string (String.concat "\x00" [ key; digest; model_fingerprint ]))

  let entry_name ~key ~digest =
    let slug =
      String.map
        (fun c ->
          match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.' -> c | _ -> '_')
        (if String.length key > 64 then String.sub key 0 64 else key)
    in
    Printf.sprintf "%s-%s.run" slug (entry_id ~key ~digest)

  let entry_suffix = ".run"
  let is_entry_name name = (not (is_tmp_name name)) && Filename.check_suffix name entry_suffix

  (* The shard an entry name belongs to: first two hex chars of the
     trailing 32-char id. *)
  let shard_of_name name =
    if not (Filename.check_suffix name entry_suffix) then None
    else
      let base = Filename.chop_suffix name entry_suffix in
      if String.length base < 32 then None
      else
        let id = String.sub base (String.length base - 32) 32 in
        if String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) id
        then Some (String.sub id 0 2)
        else None

  (* [entry_path_in d ~key ~digest] is the entry's sharded path under [d]. *)
  let entry_path_in d ~key ~digest =
    let shard = String.sub (entry_id ~key ~digest) 0 2 in
    Filename.concat (Filename.concat (objects_dir d) shard) (entry_name ~key ~digest)

  let entry_path ~key ~digest = Option.map (fun d -> entry_path_in d ~key ~digest) (dir ())

  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))

  (* Entry layout: version line, payload-digest line, payload-length
     line, payload. *)
  let header_lines body n =
    let rec go start acc k =
      if k = 0 then Some (List.rev acc, start)
      else
        match String.index_from_opt body start '\n' with
        | None -> None
        | Some i -> go (i + 1) (String.sub body start (i - start) :: acc) (k - 1)
    in
    go 0 [] n

  let parse_entry body : (run, string) result =
    let check_payload payload payload_digest =
      if Digest.to_hex (Digest.string payload) <> payload_digest then
        Error "payload digest mismatch"
      else
        (* The digest can pass on a payload the unmarshaller still
           rejects (e.g. an entry truncated inside the marshal header
           whose digest line happened to match a crafted short payload)
           — any exception here is a corrupt entry, not a crash. *)
        match (Marshal.from_string payload 0 : run) with
        | run -> Ok run
        | exception e -> Error ("malformed marshal payload: " ^ Printexc.to_string e)
    in
    match String.index_opt body '\n' with
    | None -> Error "missing header"
    | Some i ->
      let version = String.sub body 0 i in
      if version = format_version then
        match header_lines body 3 with
        | Some ([ _; payload_digest; len_line ], off) -> (
          let payload = String.sub body off (String.length body - off) in
          match int_of_string_opt len_line with
          | None -> Error (Printf.sprintf "malformed length line %S" len_line)
          | Some len when len <> String.length payload ->
            Error
              (Printf.sprintf "payload is %d bytes, header says %d"
                 (String.length payload) len)
          | Some _ -> check_payload payload payload_digest)
        | _ -> Error "truncated header"
      else if version = "chex86-store-v1" then Error "legacy v1 entry"
      else Error (Printf.sprintf "unknown format version %S" version)

  let parse_file path : (run, [ `Missing | `Corrupt of string ]) result =
    if not (Sys.file_exists path) then Error `Missing
    else
      match parse_entry (read_file path) with
      | Ok parsed -> Ok parsed
      | Error reason -> Error (`Corrupt reason)
      | exception e -> Error (`Corrupt ("unreadable: " ^ Printexc.to_string e))

  (* Corrupt entries are moved aside for post-mortem, never trusted and
     never silently deleted; if the move itself fails (read-only store)
     the path is remembered as bad so it is not re-read every load. *)
  let quarantine_counter = Atomic.make 0

  let quarantine_entry d path reason =
    warn "quarantining corrupt entry %s (%s)" path reason;
    Atomic.incr discarded;
    ignore (Faultinject.at_point "store.quarantine.pre_rename");
    let dst =
      Filename.concat (quarantine_dir d)
        (Printf.sprintf "%d-%d-%s" (Unix.getpid ())
           (Atomic.fetch_and_add quarantine_counter 1)
           (Filename.basename path))
    in
    match
      mkdir_exist_ok (quarantine_dir d);
      Sys.rename path dst
    with
    | () ->
      Atomic.incr quarantined;
      if Trace.on () then
        Trace.instant ~stage:"store.quarantine"
          [ ("entry", Filename.basename path); ("reason", reason) ]
    | exception _ -> (
      match Sys.remove path with
      | () -> ()
      | exception _ -> mark_bad path)

  (* --- publish protocol ---------------------------------------------------

     O_EXCL tmp write + link: the entry becomes visible atomically and
     only complete; a concurrent writer of the same key loses the link
     race with EEXIST and treats it as a hit.  Filesystems without hard
     links fall back to rename (still atomic; a lost race overwrites
     the winner with an identical entry). *)
  let tmp_counter = Atomic.make 0

  let write_tmp_file tmp body =
    let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let b = Bytes.unsafe_of_string body in
        let pos = ref 0 in
        while !pos < Bytes.length b do
          pos := !pos + Unix.write fd b !pos (Bytes.length b - !pos)
        done)

  let raise_point_errno dst = function
    | Some (Faultinject.Errno e) -> raise (Unix.Unix_error (e, "write", dst))
    | _ -> ()

  (* Publish [payload] as the entry at [v2_path]. *)
  let publish d ~key ~v2_path payload =
    let name = Filename.basename v2_path in
    let shard_dir = Filename.dirname v2_path in
    mkdir_exist_ok (objects_dir d);
    mkdir_exist_ok shard_dir;
    raise_point_errno v2_path (Faultinject.at_point "store.publish.pre_write");
    let tmp =
      Filename.concat shard_dir
        (Printf.sprintf ".tmp-%d-%d-%s" (Unix.getpid ())
           (Atomic.fetch_and_add tmp_counter 1)
           name)
    in
    let body =
      String.concat ""
        [
          format_version; "\n";
          Digest.to_hex (Digest.string payload); "\n";
          string_of_int (String.length payload); "\n";
          payload;
        ]
    in
    write_tmp_file tmp body;
    (* Torn-write injection: truncate the tmp as if the writer died
       mid-write; the torn artifact must never become a published
       entry a reader would trust. *)
    (match Faultinject.at_point "store.publish.mid_write" with
    | Some (Faultinject.Torn_artifact keep) ->
      Unix.truncate tmp (min keep (String.length body))
    | hit -> raise_point_errno v2_path hit);
    raise_point_errno v2_path (Faultinject.at_point "store.publish.pre_rename");
    let won =
      if Sys.file_exists v2_path then false
      else
        match Unix.link tmp v2_path with
        | () -> true
        | exception Unix.Unix_error (Unix.EEXIST, _, _) -> false
        | exception
            Unix.Unix_error ((Unix.EPERM | Unix.EOPNOTSUPP | Unix.ENOSYS | Unix.EMLINK), _, _)
          ->
          Sys.rename tmp v2_path;
          true
    in
    (try Sys.remove tmp with Sys_error _ -> ());
    ignore (Faultinject.at_point "store.publish.post_rename");
    if won then begin
      Atomic.incr writes;
      if Trace.on () then
        Trace.instant ~stage:"store.publish"
          [ ("key", key); ("bytes", string_of_int (String.length body)) ]
    end
    else begin
      (* Lost race = someone else already published this exact
         (key, digest): their entry is as good as ours — a hit. *)
      Atomic.incr race_lost;
      if Trace.on () then Trace.instant ~stage:"store.race_lost" [ ("key", key) ]
    end

  (* --- load / save --------------------------------------------------------- *)

  let note_miss ~key =
    Atomic.incr misses;
    if Trace.on () then Trace.instant ~stage:"store.miss" [ ("key", key) ]

  let note_hit ~key =
    Atomic.incr hits;
    if Trace.on () then Trace.instant ~stage:"store.hit" [ ("key", key) ]

  (* Writes degrade to memo-only on a full / read-only filesystem: the
     sweep's correctness never depended on the store, so it completes
     and only loses warm-start for the next invocation. *)
  let degrade_writes e =
    Atomic.incr write_errors;
    if not (Atomic.exchange degraded true) then begin
      warn "filesystem error (%s): store degraded to memo-only operation"
        (Printexc.to_string e);
      if Trace.on () then
        Trace.instant ~stage:"store.degraded" [ ("error", Printexc.to_string e) ]
    end

  let save ~key ~digest run =
    match dir () with
    | Some d when not (Atomic.get degraded) -> (
      let payload = Marshal.to_string (run : run) [] in
      try
        ensure_dir d;
        publish d ~key ~v2_path:(entry_path_in d ~key ~digest) payload
      with
      | Unix.Unix_error ((Unix.ENOSPC | Unix.EROFS | Unix.EACCES), _, _) as e ->
        degrade_writes e
      | e ->
        Atomic.incr write_errors;
        warn "failed to write entry for %s (%s)" key (Printexc.to_string e))
    | _ -> ()

  let load ~key ~digest : run option =
    match dir () with
    | None -> None
    | Some d -> (
      let path = entry_path_in d ~key ~digest in
      ignore (Faultinject.at_point "store.load.pre_read");
      if is_bad path then begin
        note_miss ~key;
        None
      end
      else
        match parse_file path with
        | Ok run ->
          note_hit ~key;
          Some run
        | Error (`Corrupt reason) ->
          quarantine_entry d path reason;
          note_miss ~key;
          None
        | Error `Missing ->
          note_miss ~key;
          None)

  (* --- offline maintenance: stats / fsck ----------------------------------- *)

  (* Published entries across the whole tree as (path, bytes). *)
  let scan_entries d =
    let acc = ref [] in
    let add dir name =
      if is_entry_name name then begin
        let path = Filename.concat dir name in
        match Unix.stat path with
        | { Unix.st_kind = Unix.S_REG; st_size; _ } -> acc := (path, st_size) :: !acc
        | _ | (exception Unix.Unix_error _) -> ()
      end
    in
    List.iter
      (fun dir ->
        match Sys.readdir dir with
        | names -> Array.iter (add dir) names
        | exception Sys_error _ -> ())
      (entry_dirs d);
    !acc

  type disk_stats = {
    d_entries : int;
    d_bytes : int;
    d_tmp : int;
    d_quarantine : int;
  }

  let count_dir dir pred =
    match Sys.readdir dir with
    | names -> Array.fold_left (fun n name -> if pred name then n + 1 else n) 0 names
    | exception Sys_error _ -> 0

  let disk_stats ~dir:d =
    let entries = scan_entries d in
    let tmp =
      List.fold_left
        (fun n dir -> n + count_dir dir is_tmp_name)
        0 (entry_dirs d)
    in
    {
      d_entries = List.length entries;
      d_bytes = List.fold_left (fun a (_, s) -> a + s) 0 entries;
      d_tmp = tmp;
      d_quarantine = count_dir (quarantine_dir d) (fun _ -> true);
    }

  type fsck_issue = { f_path : string; f_problem : string }

  type fsck_report = {
    f_scanned : int;  (* published entries examined *)
    f_ok : int;  (* entries that parsed and verified *)
    f_bytes : int;  (* bytes across valid entries *)
    f_tmp_pending : int;  (* young tmp files left in place *)
    f_tmp_reclaimed : int;  (* stale tmp files removed by this pass *)
    f_quarantined : int;  (* corrupt entries moved aside by this pass *)
    f_quarantine_backlog : int;  (* files already in quarantine/ *)
    f_issues : fsck_issue list;  (* invariant violations, oldest first *)
  }

  let fsck_clean r = r.f_issues = []

  (* Full invariant check over a store tree.  Violations: an entry that
     fails to parse/verify (a legacy v1 entry among them), an entry
     outside (or in the wrong shard of) the objects/ tree, a non-hex
     shard directory.  Young tmp files are in-flight writes, not
     violations; stale ones are reclaimed and reported but also not
     violations — they are exactly what the crash model says a SIGKILL
     leaves behind.  Corrupt and misplaced entries are quarantined so a second
     fsck run comes back clean. *)
  let fsck ~dir:d =
    let scanned = ref 0 and ok = ref 0 and bytes = ref 0 in
    let tmp_pending = ref 0 and tmp_swept = ref 0 and quarantined_now = ref 0 in
    let issues = ref [] in
    let issue path problem = issues := { f_path = path; f_problem = problem } :: !issues in
    let issue_quarantine path problem =
      issue path problem;
      let before = Atomic.get quarantined in
      quarantine_entry d path problem;
      if Atomic.get quarantined > before then incr quarantined_now
    in
    let self = Unix.getpid () in
    let now = Unix.time () in
    let check_tmp dir name =
      let path = Filename.concat dir name in
      if tmp_is_stale ~self ~now path name then begin
        match Sys.remove path with
        | () ->
          incr tmp_swept;
          Atomic.incr tmp_reclaimed
        | exception Sys_error _ -> incr tmp_pending
      end
      else incr tmp_pending
    in
    let check_entry ~expect_shard dir name =
      let path = Filename.concat dir name in
      incr scanned;
      match (parse_file path, expect_shard) with
      | Error `Missing, _ -> issue path "vanished mid-scan"
      | Error (`Corrupt reason), _ -> issue_quarantine path reason
      | Ok _, None -> issue_quarantine path "v2 entry outside the objects/ tree"
      | Ok _, Some shard -> (
        match shard_of_name name with
        | Some s when s = shard ->
          incr ok;
          bytes := !bytes + (try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0)
        | Some s ->
          issue_quarantine path
            (Printf.sprintf "entry named for shard %s found in %s" s shard)
        | None -> issue_quarantine path "entry name carries no digest")
    in
    (* Root: tmp files and the two known dirs; an entry here is a
       legacy v1 entry or a misplaced v2 one. *)
    (match Sys.readdir d with
    | exception Sys_error _ -> ()
    | names ->
      Array.iter
        (fun name ->
          let path = Filename.concat d name in
          if Sys.is_directory path then begin
            if name <> objects_dirname && name <> quarantine_dirname then
              issue path "unexpected directory in store root"
          end
          else if is_tmp_name name then check_tmp d name
          else if is_entry_name name then check_entry ~expect_shard:None d name
          else issue path "unexpected file in store root")
        names);
    (* objects/<shard>/ *)
    (match Sys.readdir (objects_dir d) with
    | exception Sys_error _ -> ()
    | shards ->
      Array.iter
        (fun shard ->
          let sd = Filename.concat (objects_dir d) shard in
          if not (Sys.is_directory sd) then issue sd "unexpected file in objects/"
          else if
            not
              (String.length shard = 2
              && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) shard)
          then issue sd "non-hex shard directory"
          else
            match Sys.readdir sd with
            | exception Sys_error _ -> ()
            | names ->
              Array.iter
                (fun name ->
                  if is_tmp_name name then check_tmp sd name
                  else if is_entry_name name then check_entry ~expect_shard:(Some shard) sd name
                  else issue (Filename.concat sd name) "unexpected file in shard")
                names)
        (Array.of_list (List.sort compare (Array.to_list shards))));
    {
      f_scanned = !scanned;
      f_ok = !ok;
      f_bytes = !bytes;
      f_tmp_pending = !tmp_pending;
      f_tmp_reclaimed = !tmp_swept;
      f_quarantined = !quarantined_now;
      f_quarantine_backlog = count_dir (quarantine_dir d) (fun _ -> true);
      f_issues = List.rev !issues;
    }

  let fsck_json r =
    let module Json = Chex86_stats.Json in
    Json.Obj
      [
        ("clean", Json.Bool (fsck_clean r));
        ("scanned", Json.Int r.f_scanned);
        ("ok", Json.Int r.f_ok);
        ("bytes", Json.Int r.f_bytes);
        ("tmp_pending", Json.Int r.f_tmp_pending);
        ("tmp_reclaimed", Json.Int r.f_tmp_reclaimed);
        ("quarantined", Json.Int r.f_quarantined);
        ("quarantine_backlog", Json.Int r.f_quarantine_backlog);
        ( "issues",
          Json.List
            (List.map
               (fun i ->
                 Json.Obj
                   [ ("path", Json.String i.f_path); ("problem", Json.String i.f_problem) ])
               r.f_issues) );
      ]
end

(* Content digest of a built workload program: instructions, globals,
   label table (sorted — Hashtbl order is an implementation detail),
   entry point.  Editing a workload builder changes this and so
   invalidates its store entries. *)
let program_digest (p : Chex86_isa.Program.t) =
  let labels =
    Hashtbl.fold (fun name idx acc -> (name, idx) :: acc) p.labels []
    |> List.sort compare
  in
  Digest.to_hex
    (Digest.string (Marshal.to_string (p.insns, labels, p.globals, p.entry, p.data_end) []))

(* --- memoized workload runs ---------------------------------------------- *)

(* The memo table is the only module-level mutable state in the harness;
   it is shared by every domain of a parallel sweep, so all access goes
   through [memo_lock].  (Found by the jobs>=2 determinism sweep: an
   unsynchronized Hashtbl corrupts its bucket chains under concurrent
   Hashtbl.add; test_parallel.ml keeps a regression test hammering it.) *)
let memo : (string, run) Hashtbl.t = Hashtbl.create 64
let memo_lock = Mutex.create ()

let memo_find key = Mutex.protect memo_lock (fun () -> Hashtbl.find_opt memo key)

(* First publication wins, so concurrent computations of the same key
   still yield one canonical [run] value (physical equality of repeated
   [run_workload] calls is part of the API). *)
let memo_publish key run =
  Mutex.protect memo_lock (fun () ->
      match Hashtbl.find_opt memo key with
      | Some existing -> existing
      | None ->
        Hashtbl.add memo key run;
        run)

(* Faults recorded by supervised prefetches, keyed like the memo. A
   faulted job stays faulted for the rest of the process (later sweeps
   sharing the key render the same FAULTED cell instead of silently
   re-simulating), and the figure-assembly code asks here before
   falling back to a blocking [run_workload]. *)
let fault_table : (string, Pool.fault) Hashtbl.t = Hashtbl.create 16
let fault_lock = Mutex.create ()

let record_fault key fault =
  Mutex.protect fault_lock (fun () -> Hashtbl.replace fault_table key fault)

let fault_find key = Mutex.protect fault_lock (fun () -> Hashtbl.find_opt fault_table key)
let faulted_jobs () =
  Mutex.protect fault_lock (fun () ->
      Hashtbl.fold (fun key fault acc -> (key, fault) :: acc) fault_table [])
  |> List.sort compare

(* Store-aware cache fill: consult the on-disk store before simulating,
   and persist fresh results.  [?configure] installs monitor hooks whose
   effects the stored counters can't capture, so those runs bypass the
   store entirely. *)
let compute_run ~key ?(timing = true) ?(profile = false) ?configure config program =
  match configure with
  | Some _ -> run_program ~timing ~profile ?configure config program
  | None ->
    let digest = program_digest program in
    (match Store.load ~key ~digest with
    | Some run -> run
    | None ->
      let run = run_program ~timing ~profile config program in
      Store.save ~key ~digest run;
      run)

(* A (workload x config) simulation task; its [job_key] is the memo key
   of [run_workload], the store key, and the task key of a prefetch. *)
type job = {
  j_workload : Chex86_workloads.Bench_spec.t;
  j_config : config;
  j_tag : string;
  j_timing : bool;
  j_profile : bool;
  j_scale : int;
}

let job ?(tag = "") ?(timing = true) ?(profile = false) ~scale config workload =
  { j_workload = workload; j_config = config; j_tag = tag; j_timing = timing;
    j_profile = profile; j_scale = scale }

let job_key j =
  Printf.sprintf "%s/%s/%s/%d/%b/%b/%s" j.j_workload.name (preset_tag ())
    (config_name j.j_config) j.j_scale j.j_timing j.j_profile j.j_tag

let run_workload ?tag ?(timing = true) ?(profile = false) ?configure ~scale config
    (w : Chex86_workloads.Bench_spec.t) =
  let key = job_key (job ?tag ~timing ~profile ~scale config w) in
  match memo_find key with
  | Some run -> run
  | None ->
    let run = compute_run ~key ~timing ~profile ?configure config (w.build ~scale) in
    memo_publish key run

(* [run_workload] that reports instead of running when a supervised
   prefetch already classified this job as faulted. *)
let run_workload_result ?tag ?(timing = true) ?(profile = false) ?configure ~scale
    config (w : Chex86_workloads.Bench_spec.t) =
  let key = job_key (job ?tag ~timing ~profile ~scale config w) in
  match memo_find key with
  | Some run -> Ok run
  | None -> (
    match fault_find key with
    | Some fault -> Error fault
    | None ->
      Ok
        (memo_publish key
           (compute_run ~key ~timing ~profile ?configure config (w.build ~scale))))

(* --- parallel prefetch ---------------------------------------------------- *)

(* Simulate the not-yet-memoized jobs on the domain pool and publish the
   results into the memo in job order; subsequent [run_workload] calls
   (the serial figure-assembly code) hit the memo.  Each job builds its
   own program and monitor, so jobs share no state; publishing in job
   order keeps the memo's insertion order identical to a serial run. *)
let dedup_jobs job_list =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun j ->
      let key = job_key j in
      if
        Hashtbl.mem seen key
        || Option.is_some (memo_find key)
        || Option.is_some (fault_find key)
      then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    job_list
  |> Array.of_list

let run_job j =
  let key = job_key j in
  compute_run ~key ~timing:j.j_timing ~profile:j.j_profile j.j_config
    (j.j_workload.build ~scale:j.j_scale)

(* Remote task kind: a job crosses the process boundary as its
   workload's name plus the plain-data memo-key fields (Bench_spec.t
   holds a build closure, which can't be marshalled); the worker
   re-looks the workload up in its own registry and runs the exact
   [run_job] path — including its Store consultation, pointed at the
   supervisor's cache directory shipped with each chunk. *)
let remote_kind = "bench"

type remote_job_spec = {
  r_name : string;
  r_config : config;
  r_tag : string;
  r_timing : bool;
  r_profile : bool;
  r_scale : int;
  (* µarch preset name: the worker re-installs it before running so the
     simulation and its store key match the supervisor's machine. *)
  r_preset : string;
}

let remote_job_arg j =
  Marshal.to_string
    { r_name = j.j_workload.Chex86_workloads.Bench_spec.name; r_config = j.j_config;
      r_tag = j.j_tag; r_timing = j.j_timing; r_profile = j.j_profile;
      r_scale = j.j_scale; r_preset = (Machine.Preset.current ()).Machine.Preset.name }
    []

let register_remote () =
  Remote.register_kind remote_kind (fun ~key:_ ~arg _ctx ->
      let spec : remote_job_spec = Marshal.from_string arg 0 in
      (match Machine.Preset.find spec.r_preset with
      | Some p -> Machine.Preset.set p
      | None -> failwith ("unknown remote preset: " ^ spec.r_preset));
      let j =
        { j_workload = Chex86_workloads.Workloads.find spec.r_name;
          j_config = spec.r_config; j_tag = spec.r_tag; j_timing = spec.r_timing;
          j_profile = spec.r_profile; j_scale = spec.r_scale }
      in
      Marshal.to_string (run_job j : run) [])

(* Worker-side store wiring for Remote (which cannot depend on this
   module): the supervisor ships [Store.dir ()] with each chunk; the
   worker applies it here, so remote jobs hit the same on-disk cache. *)
let () =
  Remote.store_dir_provider := Store.dir;
  Remote.store_dir_applier :=
    (function Some dir -> Store.configure ~dir | None -> Store.disable ())

(* Store counters ride the [--metrics] export as a top-level "store"
   section (Trace cannot depend on this module, so it exposes a hook). *)
let () =
  let module Json = Chex86_stats.Json in
  let prev = !Trace.metrics_extra in
  Trace.metrics_extra :=
    fun () ->
      let s = Store.stats () in
      prev ()
      @ [
          ( "store",
            Json.Obj
              [
                ("hits", Json.Int s.Store.hits);
                ("misses", Json.Int s.Store.misses);
                ("writes", Json.Int s.Store.writes);
                ("discarded", Json.Int s.Store.discarded);
                ("tmp_reclaimed", Json.Int s.Store.tmp_reclaimed);
                ("quarantined", Json.Int s.Store.quarantined);
                ("race_lost", Json.Int s.Store.race_lost);
                ("write_errors", Json.Int s.Store.write_errors);
                ("degraded", Json.Bool s.Store.degraded);
              ] );
        ]

(* The prefetch is supervised: a crashing job is recorded in the fault
   table and the rest of the sweep completes (a mid-chunk fault only
   claims the offending job).  With workers configured the
   jobs run in worker processes instead ([?jobs] is ignored); a lost
   worker surfaces as a [Pool.Worker_lost] fault on the job that was in
   flight. *)
let prefetch_supervised ?jobs ?batch_size job_list =
  let todo = dedup_jobs job_list in
  Trace.with_span ~stage:"sweep"
    [ ("kind", "bench"); ("tasks", string_of_int (Array.length todo)) ]
  @@ fun () ->
  let results, _stats, report =
    if Remote.enabled () && Array.length todo > 0 then begin
      register_remote ();
      let payloads, stats, report =
        Remote.sweep ?batch_size ~kind:remote_kind ~key:job_key
          ~arg:remote_job_arg todo
      in
      let decode p = (Marshal.from_string p 0 : run) in
      (Array.map (Result.map decode) payloads, stats, report)
    end
    else
      Pool.sweep ?jobs ?batch_size ~key:job_key (fun j _ctx -> run_job j) todo
  in
  Array.iteri
    (fun i result ->
      let key = job_key todo.(i) in
      match result with
      | Ok run -> ignore (memo_publish key run)
      | Error fault -> record_fault key fault)
    results;
  report

(* Test hook: forget every memoized run and recorded fault so a test can
   exercise the cold path repeatedly in one process. Store stats reset
   too; the store directory itself is left alone. *)
let reset_for_tests () =
  Mutex.protect memo_lock (fun () -> Hashtbl.reset memo);
  Mutex.protect fault_lock (fun () -> Hashtbl.reset fault_table);
  Store.reset_stats ()
