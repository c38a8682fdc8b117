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
   stopped, repeated invocations skip re-simulation entirely, and
   concurrent processes (sweeps and worker processes) can share one warm
   cache.  Entries are keyed by the memo key ([job_key]) plus a content
   digest of the built workload program, so editing a workload builder
   invalidates its cached runs.

   Layout, one flat directory:

     <dir>/<slug>-<id>.run          published entries (<id> is the MD5
                                    of key + program digest + model)
     <dir>/.tmp-<pid>-<n>-<name>    in-flight writes
     <dir>/quarantine/              corrupt entries, kept for
                                    post-mortem instead of deleted

   Regenerating every stored target writes 203 entries, so one directory
   listing stays small.

   Crash model (machine-checked by `chex86_sim store fsck` and the
   kill/resume chaos soak): a writer may be SIGKILLed at any point.
   Entries become visible only by rename of a fully written tmp file, so
   a reader never observes a partial entry; a kill before the rename
   leaves only a tmp file, which reclamation or fsck collects once it is
   stale.  Two writers of one key are benign: the simulator is
   deterministic, so the second rename replaces an entry with an equal
   one.  Anything unreadable is quarantined with a warning and
   re-simulated — a corrupt cache can cost time, never correctness, and
   never a crash.  On ENOSPC/EROFS/EACCES the store degrades to
   memo-only operation so a sweep on a full disk still completes. *)
module Store = struct
  let format_version = "chex86-store-v2"

  let dir_ref : string option Atomic.t = Atomic.make None
  let hits = Atomic.make 0
  let misses = Atomic.make 0
  let writes = Atomic.make 0
  let discarded = Atomic.make 0
  let tmp_reclaimed = Atomic.make 0
  let quarantined = Atomic.make 0
  let write_errors = Atomic.make 0
  let degraded = Atomic.make false

  type stats = {
    hits : int;
    misses : int;
    writes : int;
    discarded : int;
    tmp_reclaimed : int;
    quarantined : int;
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
    Atomic.set write_errors 0;
    Atomic.set degraded false

  (* The counters one simulation moves, for a remote job's delta. *)
  let traffic_counters = [ hits; misses; writes; discarded; quarantined; write_errors ]
  let traffic () = List.map Atomic.get traffic_counters

  (* The counts moved since [before], taken out of this process's counters. *)
  let take_traffic before =
    List.map2
      (fun c b ->
        let d = Atomic.get c - b in
        ignore (Atomic.fetch_and_add c (-d));
        d)
      traffic_counters before

  let add_traffic delta =
    List.iter2 (fun c d -> ignore (Atomic.fetch_and_add c d)) traffic_counters delta

  let default_dir = "_chex86_cache"
  let quarantine_dirname = "quarantine"
  let quarantine_dir d = Filename.concat d quarantine_dirname

  let warn fmt =
    Printf.ksprintf (fun msg -> Printf.eprintf "chex86-store: %s\n%!" msg) fmt

  let list_dir d = match Sys.readdir d with names -> names | exception Sys_error _ -> [||]

  (* A tmp file lives for one entry write and one rename, so one older
     than this belongs to a dead writer.  A writer stalled for longer
     loses its tmp file: its rename fails, a write error is counted,
     and that one entry is not cached. *)
  let tmp_min_age = 60. (* seconds *)

  let is_tmp_name name = String.length name > 5 && String.sub name 0 5 = ".tmp-"

  (* Remove the tmp file at [path] if it is stale; [true] iff removed. *)
  let reclaim_tmp_file ~now path =
    match Unix.stat path with
    | st when now -. st.Unix.st_mtime > tmp_min_age -> (
      match Sys.remove path with
      | () ->
        Atomic.incr tmp_reclaimed;
        true
      | exception Sys_error _ -> false)
    | _ | (exception Unix.Unix_error _) -> false

  (* Reclaim stale tmp files left behind by killed writers.  Only
     [configure] calls this: a directory created later holds none. *)
  let reclaim_tmp d =
    let now = Unix.time () in
    Array.iter
      (fun name ->
        let path = Filename.concat d name in
        if is_tmp_name name && reclaim_tmp_file ~now path then
          warn "reclaimed stale tmp file %s" path)
      (list_dir d)

  (* The directory itself is created on first write, so enabling the
     store in a binary that never saves leaves no empty directory. *)
  let configure ~dir =
    Atomic.set dir_ref (Some dir);
    Atomic.set degraded false;
    reclaim_tmp dir

  let mkdir_exist_ok dir =
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

  let disable () = Atomic.set dir_ref None
  let enabled () = Option.is_some (Atomic.get dir_ref)
  let dir () = Atomic.get dir_ref

  (* The model the stored cycles came from: the MD5 of
     test/golden/timing.json.  Re-pinning that file changes this too
     (test_golden checks the pair), so no older model's entry is served. *)
  let model_fingerprint = "8a197f4663bc8e4d07a7ebc4e2b2d0a6"

  (* Key scheme: a human-greppable sanitized prefix of the memo key plus
     a digest over (key, program digest, model) that actually
     disambiguates. *)
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

  let is_entry_name name = (not (is_tmp_name name)) && Filename.check_suffix name ".run"
  let entry_path_in d ~key ~digest = Filename.concat d (entry_name ~key ~digest)
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
      else Error (Printf.sprintf "unknown format version %S" version)

  let parse_file path : (run, [ `Missing | `Corrupt of string ]) result =
    if not (Sys.file_exists path) then Error `Missing
    else
      match parse_entry (read_file path) with
      | Ok parsed -> Ok parsed
      | Error reason -> Error (`Corrupt reason)
      | exception e -> Error (`Corrupt ("unreadable: " ^ Printexc.to_string e))

  (* Corrupt entries are moved aside for post-mortem, never trusted and
     never silently deleted.  If neither the move nor a removal works
     (read-only store), the memo in front of the store still keeps this
     process from re-reading the key. *)
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
      | exception _ -> warn "cannot move or remove corrupt entry %s" path)

  (* --- publish protocol ---------------------------------------------------

     O_EXCL tmp write + rename: the entry becomes visible atomically and
     only complete.  A second writer of the same key is another process
     (the memo dedups within one), and its rename replaces the entry
     with an equal one. *)
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

  (* Publish [payload] as the entry at [path] in [d]. *)
  let publish d ~key ~path payload =
    raise_point_errno path (Faultinject.at_point "store.publish.pre_write");
    let tmp =
      Filename.concat d
        (Printf.sprintf ".tmp-%d-%d-%s" (Unix.getpid ())
           (Atomic.fetch_and_add tmp_counter 1)
           (Filename.basename path))
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
    | hit -> raise_point_errno path hit);
    raise_point_errno path (Faultinject.at_point "store.publish.pre_rename");
    Unix.rename tmp path;
    ignore (Faultinject.at_point "store.publish.post_rename");
    Atomic.incr writes;
    if Trace.on () then
      Trace.instant ~stage:"store.publish"
        [ ("key", key); ("bytes", string_of_int (String.length body)) ]

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
        mkdir_exist_ok d;
        publish d ~key ~path:(entry_path_in d ~key ~digest) payload
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

  type disk_stats = {
    d_entries : int;
    d_bytes : int;
    d_tmp : int;
    d_quarantine : int;
  }

  (* Size of the regular file at [path]; [None] for anything else. *)
  let file_size path =
    match Unix.stat path with
    | { Unix.st_kind = Unix.S_REG; st_size; _ } -> Some st_size
    | _ | (exception Unix.Unix_error _) -> None

  let disk_stats ~dir:d =
    let names = Array.to_list (list_dir d) in
    let sizes =
      List.filter_map
        (fun name -> if is_entry_name name then file_size (Filename.concat d name) else None)
        names
    in
    {
      d_entries = List.length sizes;
      d_bytes = List.fold_left ( + ) 0 sizes;
      d_tmp = List.length (List.filter is_tmp_name names);
      d_quarantine = Array.length (list_dir (quarantine_dir d));
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
    f_issues : fsck_issue list;  (* invariant violations, in name order *)
  }

  let fsck_clean r = r.f_issues = []

  (* Full invariant check, one pass over the store directory.  Tmp
     files are not violations — they are exactly what the crash model
     says a SIGKILL leaves behind: stale ones are reclaimed, young ones
     left pending.  Every entry must parse and verify; a corrupt one is
     quarantined, so a second fsck comes back clean.  Anything else but
     quarantine/ is foreign: reported and left alone. *)
  let fsck ~dir:d =
    let scanned = ref 0 and ok = ref 0 and bytes = ref 0 in
    let tmp_pending = ref 0 and tmp_swept = ref 0 and quarantined_now = ref 0 in
    let issues = ref [] in
    let issue path problem = issues := { f_path = path; f_problem = problem } :: !issues in
    let now = Unix.time () in
    let names = list_dir d in
    Array.sort compare names;
    Array.iter
      (fun name ->
        let path = Filename.concat d name in
        if is_tmp_name name then begin
          if reclaim_tmp_file ~now path then incr tmp_swept else incr tmp_pending
        end
        else if is_entry_name name then begin
          incr scanned;
          match parse_file path with
          | Ok _ ->
            incr ok;
            bytes := !bytes + Option.value ~default:0 (file_size path)
          | Error `Missing -> issue path "vanished mid-scan"
          | Error (`Corrupt reason) ->
            issue path reason;
            let before = Atomic.get quarantined in
            quarantine_entry d path reason;
            if Atomic.get quarantined > before then incr quarantined_now
        end
        else if name <> quarantine_dirname then
          issue path
            (match Sys.is_directory path with
            | true -> "unexpected directory in store root"
            | false | (exception Sys_error _) -> "unexpected file in store root"))
      names;
    {
      f_scanned = !scanned;
      f_ok = !ok;
      f_bytes = !bytes;
      f_tmp_pending = !tmp_pending;
      f_tmp_reclaimed = !tmp_swept;
      f_quarantined = !quarantined_now;
      f_quarantine_backlog = Array.length (list_dir (quarantine_dir d));
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
   Hashtbl.add; test_parallel.ml keeps a regression test hammering it.)
   A cell holds the job's run or the fault a sweep classified it as: a
   faulted job stays faulted for the rest of the process, so a later
   target sharing the key renders the same FAULTED cell. *)
let memo : (string, (run, Pool.fault) result) Hashtbl.t = Hashtbl.create 64
let memo_lock = Mutex.create ()

let memo_find key = Mutex.protect memo_lock (fun () -> Hashtbl.find_opt memo key)

(* First publication wins, so concurrent computations of the same key
   still yield one canonical [run] value (physical equality of repeated
   [run_workload] calls is part of the API). *)
let memo_publish key cell =
  Mutex.protect memo_lock (fun () ->
      match Hashtbl.find_opt memo key with
      | Some existing -> existing
      | None ->
        Hashtbl.add memo key cell;
        cell)

let faulted_jobs () =
  Mutex.protect memo_lock (fun () ->
      Hashtbl.fold
        (fun key cell acc -> match cell with Error fault -> (key, fault) :: acc | Ok _ -> acc)
        memo [])
  |> List.sort compare

(* A (workload x config) simulation task.  [j_key] is the memo key, the
   store key and the sweep's task key: it names the workload, the µarch
   preset, every field of the configuration, the scale, [timing] and
   [profile], so two jobs share a key exactly when they would simulate
   the same thing. *)
type job = {
  j_key : string;
  j_workload : Chex86_workloads.Bench_spec.t;
  j_config : config;
  j_timing : bool;
  j_profile : bool;
  j_scale : int;
}

(* The scheme name keeps keys (and store slugs) readable; the digest of
   the whole variant is what tells two configurations apart.  The
   variant is plain immutable data, so equal variants marshal equal. *)
let config_key = function
  | Asan -> "ASan"
  | Chex v ->
    config_name (Chex v) ^ "/"
    ^ Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let job ?(timing = true) ?(profile = false) ~scale config
    (workload : Chex86_workloads.Bench_spec.t) =
  {
    j_key =
      Printf.sprintf "%s/%s/%s/%d/%b/%b" workload.name (preset_tag ()) (config_key config)
        scale timing profile;
    j_workload = workload;
    j_config = config;
    j_timing = timing;
    j_profile = profile;
    j_scale = scale;
  }

let job_key j = j.j_key

(* Store-aware simulation: consult the on-disk store before simulating,
   and persist fresh results. *)
let run_job j =
  let program = j.j_workload.build ~scale:j.j_scale in
  let digest = program_digest program in
  match Store.load ~key:j.j_key ~digest with
  | Some run -> run
  | None ->
    let run = run_program ~timing:j.j_timing ~profile:j.j_profile j.j_config program in
    Store.save ~key:j.j_key ~digest run;
    run

let run_workload ?timing ?profile ~scale config w =
  let j = job ?timing ?profile ~scale config w in
  let cell =
    match memo_find j.j_key with
    | Some cell -> cell
    | None -> memo_publish j.j_key (Ok (run_job j))
  in
  match cell with
  | Ok run -> run
  | Error fault -> failwith (Printf.sprintf "%s: %s" j.j_key (Pool.fault_to_string fault))

(* Remote task kind: a job crosses the process boundary as its
   workload's name plus the plain-data fields [job] takes (Bench_spec.t
   holds a build closure, which can't be marshalled); the worker
   re-looks the workload up in its own registry, rebuilds the job with
   [job], so both sides compute the same key, and runs the exact
   [run_job] path — including its Store consultation, pointed at the
   supervisor's cache directory shipped with each chunk. *)
let remote_kind = "bench"

type remote_job_spec = {
  r_name : string;
  r_config : config;
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
      r_timing = j.j_timing; r_profile = j.j_profile; r_scale = j.j_scale;
      r_preset = (Machine.Preset.current ()).Machine.Preset.name }
    []

(* The store counts a job moved leave the counters of the process that
   ran it and ride back beside its run; the supervisor adds them to its
   own, so [--metrics] counts them exactly once, whether the job ran in
   a worker or in the supervisor's in-process fallback. *)
let register_remote () =
  Remote.register_kind remote_kind (fun ~key:_ ~arg ->
      let spec : remote_job_spec = Marshal.from_string arg 0 in
      (match Machine.Preset.find spec.r_preset with
      | Some p -> Machine.Preset.set p
      | None -> failwith ("unknown remote preset: " ^ spec.r_preset));
      let j =
        job ~timing:spec.r_timing ~profile:spec.r_profile ~scale:spec.r_scale spec.r_config
          (Chex86_workloads.Workloads.find spec.r_name)
      in
      let before = Store.traffic () in
      let run = run_job j in
      Marshal.to_string ((run, Store.take_traffic before) : run * int list) [])

let remote_sweep ?batch_size todo =
  register_remote ();
  let payloads, report =
    Remote.sweep ?batch_size ~kind:remote_kind ~key:job_key ~arg:remote_job_arg todo
  in
  let decode p =
    let run, traffic = (Marshal.from_string p 0 : run * int list) in
    Store.add_traffic traffic;
    run
  in
  (Array.map (Result.map decode) payloads, report)

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
                ("write_errors", Json.Int s.Store.write_errors);
                ("degraded", Json.Bool s.Store.degraded);
              ] );
        ]

(* --- the sweep ------------------------------------------------------------- *)

(* Run the jobs this process has not settled yet, each key once, on the
   domain pool — or in worker processes when workers are configured
   ([?jobs] is then ignored) — and return every job's cell in input
   order.  A crashing job faults only itself: its cell is the fault (a
   lost worker surfaces as [Pool.Worker_lost]) and the rest of the sweep,
   its chunk-mates included, completes.  Each job builds its own program
   and monitor, so jobs share no state, and cells are bit-identical to a
   serial run at any geometry. *)
let sweep ?jobs ?batch_size job_list =
  let seen = Hashtbl.create 16 in
  let todo =
    List.filter
      (fun j ->
        let fresh = (not (Hashtbl.mem seen j.j_key)) && Option.is_none (memo_find j.j_key) in
        if fresh then Hashtbl.add seen j.j_key ();
        fresh)
      job_list
    |> Array.of_list
  in
  let report =
    Trace.with_span ~stage:"sweep"
      [ ("kind", "bench"); ("tasks", string_of_int (Array.length todo)) ]
    @@ fun () ->
    let results, report =
      if Remote.enabled () && Array.length todo > 0 then remote_sweep ?batch_size todo
      else Pool.sweep ?jobs ?batch_size ~key:job_key run_job todo
    in
    Array.iteri (fun i cell -> ignore (memo_publish todo.(i).j_key cell)) results;
    report
  in
  (List.map (fun j -> Option.get (memo_find j.j_key)) job_list, report)

(* Test hook: forget every memoized cell so a test can exercise the cold
   path repeatedly in one process. Store stats reset too; the store
   directory itself is left alone. *)
let reset_for_tests () =
  Mutex.protect memo_lock (fun () -> Hashtbl.reset memo);
  Store.reset_stats ()
