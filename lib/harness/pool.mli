(** Domains-based parallel experiment engine.

    Shards independent simulation tasks over a fixed pool of worker
    domains with deterministic per-task RNG seeding and order-insensitive
    stats merging, so a sweep at [~jobs:n] is bit-identical to the serial
    [~jobs:1] run (test/test_parallel.ml enforces this). *)

(** Monotonic clock in seconds from an arbitrary epoch
    (clock_gettime(CLOCK_MONOTONIC)). Use this — never
    [Unix.gettimeofday] — for elapsed-time measurement and schedules: a
    wall-clock step (NTP, suspend) would skew them. *)
val now : unit -> float

(** Process-wide job count used when [?jobs] is omitted; starts at
    [Domain.recommended_domain_count () - 1] (at least 1), set once from
    the CLI ([--jobs N]). Clamped to at least 1. *)
val set_jobs : int -> unit

val jobs : unit -> int

(** Process-wide batch size for {!sweep}, set once from the CLI
    ([--batch-size N]); [None] (the default) means auto-sizing via
    {!auto_batch_size}. Clamped to at least 1. *)
val set_batch_size : int option -> unit

val batch_size : unit -> int option

(** [auto_batch_size ~jobs n] is [ceil (n / (4 * jobs))] clamped to
    [\[1, 64\]]: about four chunks per worker — enough slack for dynamic
    load balancing without paying per-task dispatch on every task. *)
val auto_batch_size : jobs:int -> int -> int

(** --strict: faults flip the process exit code (and demote-to-error
    behaviours like unknown CHEX86_WORKLOADS names). Rendering is the
    same either way. *)
val set_strict : bool -> unit

val strict : unit -> bool

(** Total faults reported by every supervised sweep this process ran. *)
val faults_seen : unit -> int

(** Stable FNV-1a hash of a task key; the task's RNG seed. *)
val seed_of_key : string -> int

(** A fresh RNG stream seeded from the task key, independent of worker
    identity and scheduling order. *)
val rng_of_key : string -> Chex86_stats.Rng.t

(** Per-task context: a private counter group and named histograms no
    other task can see, plus an RNG seeded from the task key. *)
type ctx = {
  key : string;
  rng : Chex86_stats.Rng.t;
  counters : Chex86_stats.Counter.group;
  histogram : string -> Chex86_stats.Histogram.t;
      (** named scratch histogram, created on first use *)
}

type merged_stats = {
  counters : Chex86_stats.Counter.group;
  histograms : (string * Chex86_stats.Histogram.t) list;  (** sorted by name *)
}

(** One task's mergeable stats: a counter snapshot plus named histogram
    snapshots sorted by name. Plain marshalable data — this is the unit
    the remote dispatch layer ships across the process boundary. *)
type task_snapshots =
  Chex86_stats.Counter.snapshot
  * (string * Chex86_stats.Histogram.snapshot) list

(** Build a task-private [ctx] for a key; calling the returned thunk
    after the task body ran yields its mergeable snapshots. *)
val make_ctx : string -> ctx * (unit -> task_snapshots)

(** Deterministic reduction of per-task snapshots, folded in list order
    (callers pass task order). Order-insensitive merge operators make
    any chunking of the same snapshots equivalent. *)
val merge_snapshots : task_snapshots list -> merged_stats

(** {2 Supervised sweeps}

    A crashing task is contained and classified instead of killing the
    sweep. Each task runs once: the simulator is deterministic, so a
    second run of a faulted task would fault the same way. A runaway
    guest is bounded by the simulation's [max_insns] budget, whose
    exhaustion is a reported outcome, not a fault. *)

type fault =
  | Crashed of { exn : string; backtrace : string }
  | Worker_lost of { reason : string }
      (** the process running the task died (or was killed by the
          supervisor's heartbeat deadline) more often than the loss
          budget allows; only the remote dispatch layer produces this *)

type task_fault = { index : int; key : string; fault : fault }

type fault_report = {
  tasks : int;
  chunks : int;  (** dispatch rounds paid *)
  ok : int;
  crashed : int;
  worker_lost : int;  (** tasks faulted as [Worker_lost] *)
  worker_losses : int;
      (** worker loss {e events} (deaths/kills), 0 on in-process paths;
          a lost worker that re-dispatches cleanly bumps this without
          faulting any task *)
  task_faults : task_fault list;  (** final faults, in task order *)
}

val fault_to_string : fault -> string

(** Multi-line report: the counts line plus one line per faulted task,
    with the first [max_backtraces] crash backtraces inlined. *)
val render_fault_report : ?max_backtraces:int -> fault_report -> string

(** One supervised task run in this process: fenced by the armed
    {!Faultinject} plan and given a fresh {!make_ctx} seeded from its
    key. Never raises; returns the value with the task's snapshots, or
    the classification. The in-process sweep, the remote worker and the
    remote layer's in-process fallback all run tasks through this, which
    keeps their stats bit-identical. Emits one ["task"] trace span
    (parented under [?span_parent], default none) when
    {!Trace.on}[ ()]. *)
val run_task :
  ?span_parent:int -> key:string -> (ctx -> 'b) -> ('b * task_snapshots, fault) result

(** {2 The chunk loop} *)

(** [run_chunks ~key body tasks] is the scheduler both sweeps share.
    Tasks are grouped into contiguous chunks of [?batch_size] (default:
    the process-wide knob, else {!auto_batch_size}), and [?jobs] slots
    pull chunks dynamically; slot [0] is the calling domain and every
    other slot is one spawned domain for the whole run, so [body] may
    keep per-slot state without locking. [body ~slot ~chunk ~start
    ~len] runs tasks [\[start, start + len)] and returns one
    {!run_task}-shaped outcome per task, in order; it should not raise
    (an exception is re-raised in the caller).

    The loop merges each chunk's completed-task snapshots in task
    order, builds the {!fault_report} (adding its faults to
    {!faults_seen}), folds the [pool.*] fault counters and
    [pool.chunks] into the merged counters and publishes them to
    [--metrics]. [?transport] is read once after the last chunk and
    before the publish: the worker loss events for the report and
    extra counters to add (default [(0, [])]). *)
val run_chunks :
  ?jobs:int ->
  ?batch_size:int ->
  ?transport:(unit -> int * (string * int) list) ->
  key:('a -> string) ->
  (slot:int -> chunk:int -> start:int -> len:int ->
   ('b * task_snapshots, fault) result array) ->
  'a array ->
  ('b, fault) result array * merged_stats * fault_report

(** {2 The sweep} *)

(** [sweep ~key f tasks] runs [f task ctx] for every task under per-task
    supervision and returns [(results, merged_stats, fault_report)];
    result slots line up with input order.

    It is {!run_chunks} with the in-process body: each chunk runs its
    tasks through {!run_task} on one pool slot — one dispatch and one
    stats merge round per chunk instead of per task. [~jobs:1] (or a
    single chunk) runs every chunk in the calling domain, in index
    order.

    A faulted task's partial stats are discarded wholesale, so merged
    totals only count completed tasks. A crash mid-chunk faults exactly
    that task: its chunk-mates keep running and the report is keyed per
    task. Tasks faulted by the armed {!Faultinject} plan and real
    crashes are both reported here, never re-raised.

    RNG streams are seeded from the {e task} key (never the chunk) and
    chunks are contiguous, so results and merged stats are bit-identical
    to a serial [~jobs:1 ~batch_size:1] run at any geometry, with one
    documented exception. The merged counters carry the
    scheduling-independent [pool.tasks], [pool.ok], [pool.crashed] and
    [pool.worker_lost], plus [pool.chunks], the dispatch rounds paid,
    which varies with the batch geometry (and with [--jobs] under
    auto-sizing); determinism comparisons must exclude that one name.
    The merged stats are also published to [--metrics]. *)
val sweep :
  ?jobs:int ->
  ?batch_size:int ->
  key:('a -> string) ->
  ('a -> ctx -> 'b) ->
  'a array ->
  ('b, fault) result array * merged_stats * fault_report
