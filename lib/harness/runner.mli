(** Unified runner over protection configurations, with memoized
    workload runs shared between bench targets. *)

type config = Chex of Chex86.Variant.t | Asan

val insecure : config
val prediction : config
val config_name : config -> string

type outcome =
  | Completed
  | Blocked of Chex86.Violation.kind
  | Aborted of string  (** allocator integrity abort *)
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
  shadow_bytes : int;
  resident_bytes : int;
  mem_bytes : int;
  pwned : bool;  (** the exploit pwned flag, read back from guest memory *)
  profile : Chex86_os.Heap_profile.report option;
}

(** [heap] selects the allocator personality (default [Glibc]); the
    ASan baseline ignores it. *)
val run_program :
  ?timing:bool ->
  ?max_insns:int ->
  ?profile:bool ->
  ?configure:(Chex86.Monitor.t -> unit) ->
  ?heap:Chex86_os.Allocator.personality ->
  config ->
  Chex86_isa.Program.t ->
  run

(** Execute on the SMP driver ({!Chex86.Smp.run}): one hardware thread
    per entry label in [threads], interleaved round-robin [quantum]
    macro-ops at a time.  Uop and memory-traffic fields are reported as
    0 (per-engine notions); an [Asan] config yields [Faulted] — the
    ASan baseline has no SMP monitor. *)
val run_threads :
  ?timing:bool ->
  ?max_insns:int ->
  ?heap:Chex86_os.Allocator.personality ->
  quantum:int ->
  threads:string list ->
  config ->
  Chex86_isa.Program.t ->
  run

(** {2 On-disk result store}

    Checkpoint/resume and shared warm cache for sweeps: memoized runs
    are spilled under a cache directory ([_chex86_cache/] by default,
    [--cache-dir] on the CLIs), keyed by the memo key plus a content
    digest of the built program, so an interrupted invocation resumes
    where it stopped, repeated invocations skip re-simulation, and
    concurrent processes share one cache. Disabled until [configure]d.

    One flat directory: entries are [<slug>-<id>.run] files, in-flight
    writes [.tmp-<pid>-<n>-<name>] files, and corrupt entries go to
    [quarantine/]. Publish is an O_EXCL tmp write followed by an atomic
    rename, so readers never observe partial entries; a second writer
    of one key (another process) replaces the entry with an equal one.
    Corrupt entries are quarantined with a warning and re-simulated —
    never a crash. The store has no size budget: entries are ~1.4 KB
    each, so a full figure-6 sweep stores about 115 KB. On
    ENOSPC/EROFS/EACCES writes degrade to memo-only so the sweep
    completes. *)
module Store : sig
  val default_dir : string
  (** ["_chex86_cache"] *)

  (** Enable the store; [dir] is created on first write. Resets the
      degradation latch and reclaims stale tmp files already in [dir]. *)
  val configure : dir:string -> unit

  val disable : unit -> unit
  val enabled : unit -> bool
  val dir : unit -> string option

  type stats = {
    hits : int;
    misses : int;
    writes : int;  (** entries this process published *)
    discarded : int;  (** corrupt entries rejected on load *)
    tmp_reclaimed : int;
        (** stale [.tmp-*] files removed: any older than a minute, whoever
            wrote them *)
    quarantined : int;  (** corrupt entries moved into [quarantine/] *)
    write_errors : int;  (** failed entry writes (any cause) *)
    degraded : bool;  (** store is memo-only after ENOSPC/EROFS/EACCES *)
  }

  val stats : unit -> stats
  val reset_stats : unit -> unit

  (** The MD5 of [test/golden/timing.json], folded into every entry id:
      re-pinning the golden changes it and retires the older model's
      entries. *)
  val model_fingerprint : string

  (** Direct entry IO, exposed for the executables and tests. [key] is
      the memo key, [digest] the program digest. *)
  val load : key:string -> digest:string -> run option

  val save : key:string -> digest:string -> run -> unit

  (** The path of an entry under the configured directory; [None] when
      the store is disabled. *)
  val entry_path : key:string -> digest:string -> string option

  (** {3 Offline maintenance}

      These operate on an explicit [dir] and do not require the store
      to be [configure]d; [chex86_sim store stats|fsck] wraps them. *)

  type disk_stats = {
    d_entries : int;
    d_bytes : int;
    d_tmp : int;
    d_quarantine : int;
  }

  val disk_stats : dir:string -> disk_stats

  type fsck_issue = { f_path : string; f_problem : string }

  type fsck_report = {
    f_scanned : int;  (** published entries examined *)
    f_ok : int;  (** entries that parsed and verified *)
    f_bytes : int;  (** bytes across valid entries *)
    f_tmp_pending : int;  (** young tmp files left in place *)
    f_tmp_reclaimed : int;  (** stale tmp files removed by this pass *)
    f_quarantined : int;  (** corrupt entries moved aside by this pass *)
    f_quarantine_backlog : int;  (** files already in [quarantine/] *)
    f_issues : fsck_issue list;  (** invariant violations *)
  }

  (** Verify every store invariant the crash model promises, in one
      pass over the directory: entries parse and digest-verify, and
      nothing but entries, tmp files and [quarantine/] is there. Tmp
      files are {e not} violations (they are what a SIGKILL leaves);
      stale ones are reclaimed and corrupt entries quarantined, so a
      second run comes back clean. Foreign files and directories are
      only reported. *)
  val fsck : dir:string -> fsck_report

  val fsck_clean : fsck_report -> bool
  val fsck_json : fsck_report -> Chex86_stats.Json.t
end

(** Content digest of a built program; part of the store key, so
    editing a workload builder invalidates its cached runs. *)
val program_digest : Chex86_isa.Program.t -> string

(** A (workload x config) simulation: one cell of a figure's grid. *)
type job

(** The job's key is computed here, once: it names the workload, the
    installed µarch preset, every field of the configuration, the scale,
    [timing] and [profile]. It is the memo key, the store key and the
    sweep's task key, so two jobs share a memo entry, a store entry and
    a sweep task exactly when their configurations are equal. *)
val job :
  ?timing:bool ->
  ?profile:bool ->
  scale:int ->
  config ->
  Chex86_workloads.Bench_spec.t ->
  job

val job_key : job -> string

(** [run_workload ~scale c w] is the run of [job ~scale c w], simulated
    in the calling domain on a memo miss, after the enabled {!Store} is
    consulted. The memo is domain-safe; repeated calls return the same
    [run] value. Raises [Failure] naming the fault if a {!sweep} in this
    process faulted the job. *)
val run_workload :
  ?timing:bool ->
  ?profile:bool ->
  scale:int ->
  config ->
  Chex86_workloads.Bench_spec.t ->
  run

(** Register the ["bench"] remote task kind (workload lookup by name,
    the other [job] arguments via a marshalled arg) so sweeps can run in
    worker processes; called by the worker binary at startup and by the
    supervisor before routing. Idempotent. *)
val register_remote : unit -> unit

(** Run the jobs not yet settled in this process through {!Pool.sweep}
    in batched chunks ([?jobs] defaults to [Pool.jobs ()], [?batch_size]
    to the process-wide knob / auto-sizing) and return every job's cell
    in input order, with the sweep's fault report. Repeated keys and
    keys already settled (by an earlier sweep or [run_workload]) are not
    run again. Cells are bit-identical to running the same jobs serially,
    at any batch size. A crashing job's cell is its fault, and stays so
    for later sweeps sharing the key (see {!faulted_jobs}); the rest of
    the sweep — including the faulted job's chunk-mates — completes.
    When workers are configured ({!Remote.enabled}) the jobs run in
    worker processes instead ([?jobs] is ignored); a lost worker
    surfaces as [Pool.Worker_lost] on the in-flight job, and the store
    counts the workers moved are added to this process's {!Store.stats}. *)
val sweep :
  ?jobs:int -> ?batch_size:int -> job list -> (run, Pool.fault) result list * Pool.fault_report

(** Every job a sweep classified as faulted this process, as
    [(job key, fault)], sorted by key. *)
val faulted_jobs : unit -> (string * Pool.fault) list

(** Test hook: forget every memoized cell, faults included (and reset
    store stats), so tests can exercise the cold path repeatedly. *)
val reset_for_tests : unit -> unit
