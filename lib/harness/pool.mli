(** Domains-based parallel experiment engine.

    Shards independent simulation tasks over a fixed pool of worker
    domains with deterministic per-task RNG seeding and order-insensitive
    stats merging, so a sweep at [~jobs:n] is bit-identical to the serial
    [~jobs:1] run (test/test_parallel.ml enforces this). *)

(** Monotonic clock in seconds from an arbitrary epoch
    (clock_gettime(CLOCK_MONOTONIC)). Use this — never
    [Unix.gettimeofday] — for deadlines and elapsed-time measurement: a
    wall-clock step (NTP, suspend) would fire spurious timeouts or let a
    wedged task run forever. *)
val now : unit -> float

(** [Domain.recommended_domain_count () - 1], at least 1. *)
val default_jobs : unit -> int

(** Process-wide job count used when [?jobs] is omitted; starts at
    [default_jobs ()], set once from the CLI ([--jobs N]). Clamped to
    at least 1. *)
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

(** Process-wide supervision defaults, set once from the CLI; the
    [?retries] / [?task_timeout] arguments of {!sweep}
    override them per sweep. Retries clamp to at least 0. *)
val set_retries : int -> unit

val retries : unit -> int
val set_task_timeout : float option -> unit
(** Raises [Invalid_argument] on [Some t] with [t <= 0] (or NaN): a
    non-positive deadline times every task out before it starts. *)

val task_timeout : unit -> float option

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

(** [map ~jobs f tasks] computes [f] over [tasks]; results are returned
    in task order. [~jobs:1] (or a single task) runs everything in the
    calling domain in index order — the exact serial path, no domain is
    spawned. A task exception is re-raised in the caller,
    deterministically picking the lowest-index failure. *)
val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array

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

    A crashing or wedged task is contained and classified instead of
    killing the sweep. Each task gets a bounded retry budget; attempt [i] of task
    [key] re-seeds from [retry_key key i], so retried runs are as
    reproducible as first runs. Wall budgets are cooperative
    ([check_deadline]); instruction budgets ride on the simulation's
    [max_insns] hook, whose exhaustion is a reported outcome already. *)

(** Raised by [check_deadline] once the current task's wall budget has
    passed; the supervisor classifies it as [Timed_out]. *)
exception Task_timed_out

(** Cooperative deadline check: call from long-running task bodies at
    safe points. No-op outside a supervised task or when no
    [task_timeout] is set. Also fires the {!set_tick_hook} hook. *)
val check_deadline : unit -> unit

(** Install (or clear, with [None]) a process-wide hook fired on every
    [check_deadline]. The remote worker uses it as a liveness beacon:
    tasks that reach their cooperative safe points feed the supervisor's
    heartbeat. The hook must be cheap and rate-limit itself; exceptions
    it raises are swallowed. *)
val set_tick_hook : (unit -> unit) option -> unit

(** [retry_key key 0 = key]; [retry_key key i = key ^ ":retry" ^ i]. *)
val retry_key : string -> int -> string

type fault =
  | Crashed of { exn : string; backtrace : string }
  | Timed_out of { budget : float }
  | Worker_lost of { reason : string }
      (** the process running the task died (or was killed by the
          supervisor's heartbeat deadline) more often than the loss
          budget allows; only the remote dispatch layer produces this *)

type task_fault = {
  index : int;
  key : string;
  attempts : int;  (** total attempts made, initial try included *)
  fault : fault;
}

type fault_report = {
  tasks : int;
  chunks : int;  (** dispatch rounds paid *)
  ok : int;
  retried_ok : int;  (** tasks that succeeded only after retrying *)
  crashed : int;
  timed_out : int;
  worker_lost : int;  (** tasks faulted as [Worker_lost] *)
  retries_used : int;  (** total extra attempts across all tasks *)
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

(** One supervised task run in this process: bounded retries, each
    attempt fenced by the armed {!Faultinject} plan and the cooperative
    deadline, and given a fresh {!make_ctx} seeded from its
    {!retry_key}. Never raises; returns the value with the attempt's
    snapshots, or the classification, plus the index of the last
    attempt (0-based, so [attempts_index + 1] tries were made). The
    in-process sweep, the remote worker and the remote layer's
    in-process fallback all run tasks through this, which keeps their
    stats bit-identical. Emits one ["task"] trace span per attempt
    (parented under [?span_parent], default none) and a ["retry"]
    instant before each retry — both only when {!Trace.on}[ ()]. *)
val run_task :
  ?span_parent:int ->
  retries:int ->
  timeout:float option ->
  key:string ->
  (ctx -> 'b) ->
  ('b * task_snapshots, fault) result * int

(** Resolve the effective (retries, timeout) pair: explicit arguments
    win, else the process-wide CLI knobs. *)
val supervise_params :
  ?retries:int -> ?task_timeout:float -> unit -> int * float option

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
   (('b * task_snapshots, fault) result * int) array) ->
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

    A faulted attempt's partial stats are discarded wholesale, so
    merged totals only count completed tasks. A crash or
    timeout mid-chunk faults exactly that task: its chunk-mates keep
    running and the report is keyed per task. Tasks faulted by the armed
    {!Faultinject} plan and real crashes/timeouts are both reported
    here, never re-raised.

    RNG streams are seeded from the {e task} key (never the chunk) and
    chunks are contiguous, so results and merged stats are bit-identical
    to a serial [~jobs:1 ~batch_size:1] run at any geometry, with one
    documented exception. The merged counters carry the [pool.*] fault
    counters ([pool.tasks] … [pool.retries_used], scheduling-independent) plus
    [pool.chunks], the dispatch rounds paid, which varies with the batch
    geometry (and with [--jobs] under auto-sizing); determinism
    comparisons must exclude that one name. The merged stats are also
    published to [--metrics]. *)
val sweep :
  ?jobs:int ->
  ?batch_size:int ->
  ?retries:int ->
  ?task_timeout:float ->
  key:('a -> string) ->
  ('a -> ctx -> 'b) ->
  'a array ->
  ('b, fault) result array * merged_stats * fault_report
