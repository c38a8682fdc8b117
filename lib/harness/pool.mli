(** Domains-based parallel experiment engine.

    Shards independent simulation tasks over a fixed pool of worker
    domains.  A task is a plain function of its input that reports only
    through its return value, and results come back in input order, so a
    sweep at [~jobs:n] is bit-identical to the serial [~jobs:1] run
    (test/test_parallel.ml enforces this). *)

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

(** --strict: faults flip the process exit code. Rendering is the same
    either way. *)
val set_strict : bool -> unit

val strict : unit -> bool

(** Total faults reported by every supervised sweep this process ran. *)
val faults_seen : unit -> int

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
  transport : (string * int) list;
      (** the transport's [remote.*] counters, [[]] in process *)
}

val fault_to_string : fault -> string

(** Multi-line report: the counts line plus one line per faulted task,
    with the first [max_backtraces] crash backtraces inlined. *)
val render_fault_report : ?max_backtraces:int -> fault_report -> string

(** One supervised task run in this process: fenced by the armed
    {!Faultinject} plan. Never raises; returns the body's value or the
    classification. The in-process sweep, the remote worker and the
    remote layer's in-process fallback all run tasks through this, which
    keeps their results bit-identical. Emits one ["task"] trace span
    (parented under [?span_parent], default none) when
    {!Trace.on}[ ()]. *)
val run_task : ?span_parent:int -> key:string -> (unit -> 'b) -> ('b, fault) result

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

    The loop builds the {!fault_report} (adding its faults to
    {!faults_seen}) and publishes its counts to [--metrics] as
    [pool.tasks], [pool.ok], [pool.crashed], [pool.worker_lost] and
    [pool.chunks], plus the transport's counters. [?transport] is read
    once after the last chunk: the worker loss events and the counters
    for {!fault_report.transport} (default [(0, [])]). *)
val run_chunks :
  ?jobs:int ->
  ?batch_size:int ->
  ?transport:(unit -> int * (string * int) list) ->
  key:('a -> string) ->
  (slot:int -> chunk:int -> start:int -> len:int -> ('b, fault) result array) ->
  'a array ->
  ('b, fault) result array * fault_report

(** {2 The sweep} *)

(** [sweep ~key f tasks] runs [f task] for every task under per-task
    supervision and returns [(results, fault_report)]; result slots line
    up with input order.

    It is {!run_chunks} with the in-process body: each chunk runs its
    tasks through {!run_task} on one pool slot — one dispatch per chunk
    instead of per task. [~jobs:1] (or a single chunk) runs every chunk
    in the calling domain, in index order.

    A crash mid-chunk faults exactly that task: its chunk-mates keep
    running and the report is keyed per task. Tasks faulted by the armed
    {!Faultinject} plan and real crashes are both reported here, never
    re-raised.

    Results and the report are bit-identical to a serial [~jobs:1
    ~batch_size:1] run at any geometry, except the report's [chunks],
    the dispatch rounds paid, which varies with the batch geometry (and
    with [--jobs] under auto-sizing). *)
val sweep :
  ?jobs:int ->
  ?batch_size:int ->
  key:('a -> string) ->
  ('a -> 'b) ->
  'a array ->
  ('b, fault) result array * fault_report
