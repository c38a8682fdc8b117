(** Process-isolated worker dispatch for supervised sweeps.

    The in-process pool contains exceptions only — a task that hangs or
    kills its process takes the sweep with it. This layer makes
    containment structural. {!sweep} runs on
    {!Pool.run_chunks} with a chunk body that ships the chunk's task
    keys, as length-prefixed, digest-checksummed frames, to the slot's
    own spawned [bin/chex86_worker.exe] and returns the streamed
    per-task results. Chunking, the stats merge and the fault report are
    the pool's, so results stay bit-identical to a serial run at any
    (workers, batch) geometry.

    Robustness: frames are read under a receive timeout of one
    heartbeat, with SIGKILL escalation. Each worker beats from a thread
    of its own while a chunk is in flight, so the heartbeat detects a
    worker that stopped responding (stopped, deadlocked or killed), not
    a long task. Exponential-backoff respawn
    with deterministic jitter under a bounded restart budget per slot;
    re-sending only the tasks a dead worker still owed (streamed results
    are kept); a task that keeps killing its worker is faulted as
    [Pool.Worker_lost]; and a slot with no live worker runs its chunks
    in-process with a warning.

    The [remote.*] counters added to merged stats
    ([remote.workers], [remote.dispatches],
    [remote.redispatched_tasks], [remote.worker_losses],
    [remote.respawns], [remote.frame_errors], [remote.degraded]) record
    transport behaviour and are scheduling-dependent by nature;
    determinism comparisons exclude them, like [pool.chunks]. *)

val protocol_version : int
(** Version byte leading every frame; both sides refuse a mismatch. *)

(** How sweeps reach workers: not at all, or [Spawn n] local worker
    processes over socketpairs. *)
type spec = Off | Spawn of int

val set_spec : spec -> unit
val spec : unit -> spec

val enabled : unit -> bool
(** [spec () <> Off]; Runner/Security consult this to route sweeps. *)

(** {2 Robustness knobs} (process-wide; [sweep] takes per-call
    overrides for tests) *)

val set_heartbeat : float -> unit
(** Hard liveness deadline in seconds (default 30): a busy worker that
    sends nothing for this long is SIGKILLed and its unfinished tasks
    re-sent. A worker's beater thread sends a beat every quarter of this
    interval while a chunk is in flight, however long the running task
    takes. Raises
    [Invalid_argument] on a non-positive (or NaN) value — such a
    deadline would declare every worker wedged on dispatch; small
    positive values are floored at 200 ms, four of the runtime's 50 ms
    thread ticks. [sweep]'s [?heartbeat]
    override validates identically. *)

val heartbeat : unit -> float

val max_backoff_delay : float
(** Hard cap (seconds, pre-jitter) on the exponential respawn delay:
    growth is clamped here so high restart ordinals cannot push the
    delay toward infinity and wedge the supervisor. The worst
    observable delay is [1.25 *. max_backoff_delay]. *)

val backoff_delay : sid:int -> restarts:int -> float
(** The respawn delay for worker slot [sid] at restart ordinal
    [restarts]: capped exponential growth from 50 ms, doubling per
    restart, plus jitter seeded from (slot, restart ordinal). Exposed
    for the cap regression test. *)

(** {2 Task kinds}

    The wire carries only (kind, key, arg) strings — never closures.
    Both sides must link the same registration code; workers call the
    [register_remote] entry points of Security and Runner at startup. *)

type kind_fn = key:string -> arg:string -> Pool.ctx -> string

val register_kind : string -> kind_fn -> unit
(** Idempotent (last registration wins). *)

val find_kind : string -> kind_fn option
(** Tests use this to run a kind's body through the in-process pool as
    the bit-identity baseline for remote runs. *)

val selftest_kind : string
(** Built-in kind for tests: draws [arg] rounds from the task-keyed RNG
    into [selftest.*] stats. A key prefixed ["wedge"] first stops its
    own process with SIGSTOP — the unresponsive worker the heartbeat
    exists for; a key prefixed ["long"] first spins for [arg] seconds
    without allocating — a healthy task longer than a heartbeat. *)

(** {2 Worker-side store wiring}

    Set by [Runner] at module init so the supervisor can ship its
    result-store directory to workers without this module depending on
    [Runner]. *)

val store_dir_provider : (unit -> string option) ref
val store_dir_applier : (string option -> unit) ref

(** {2 The sweep} *)

val sweep :
  ?batch_size:int ->
  ?spec:spec ->
  ?heartbeat:float ->
  ?task_loss_budget:int ->
  kind:string ->
  key:('a -> string) ->
  arg:('a -> string) ->
  'a array ->
  (string, Pool.fault) result array * Pool.merged_stats * Pool.fault_report
(** Run [tasks] through {!Pool.run_chunks} with one worker process per
    slot ([?spec], default the process-wide spec; [Off] runs every
    chunk in-process) and return the per-task outcomes; result slots
    line up with input order, stats are bit-identical to a serial run
    of the same kind function (modulo [pool.chunks] / [remote.*]). Each
    slot may respawn its worker 3 times; a task may cost
    [?task_loss_budget] (default 1) worker losses before it is faulted
    as [Pool.Worker_lost]. Raises [Invalid_argument] for an
    unregistered [kind]; never raises for worker failures — those end
    as [Pool.Worker_lost] faults or in-process runs. *)

(** The worker side, driven by [bin/chex86_worker.exe]. *)
module Worker : sig
  val serve : input:Unix.file_descr -> output:Unix.file_descr -> unit
  (** Serve one supervisor connection until Shutdown or EOF. *)
end
