(** Deterministic fault injection for the supervised sweep engine.

    A plan maps a task's stable key (the sweep's task key) to a fault
    directive, so injected faults hit exactly the same tasks at any job
    count and across processes. Used by the test suite and by [make
    fault-smoke] to prove every supervision path fires; production
    sweeps run with no plan armed. *)

(** Raised inside a task the armed plan marked [Crash]. *)
exception Injected_crash of string

type kind =
  | Crash  (** raise [Injected_crash] before the task body runs *)
  | Kill_worker
      (** the remote worker SIGKILLs itself before running this task,
          modelling an OOM kill / fatal native crash mid-chunk *)
  | Drop_frame
      (** the transport silently swallows the chunk's request frame, so
          the supervisor's heartbeat deadline must fire *)
  | Corrupt_frame
      (** flip a byte of the request payload after its digest was
          computed; the worker must reject the frame *)
  | Delay_frame of float  (** stall the chunk's request frame *)

type directive = { kind : kind; attempts : int }
(** [attempts] is how many of the chunk's {e dispatch} attempts the
    worker-kill and transport kinds fault; a [Crash] ignores it and
    fires on every run of its task. *)

val crash : unit -> directive
val kill_worker : ?attempts:int -> unit -> directive
val drop_frame : ?attempts:int -> unit -> directive
val corrupt_frame : ?attempts:int -> unit -> directive
val delay_frame : ?attempts:int -> float -> directive

type plan

val none : plan

(** Fault exactly the listed keys. *)
val of_list : (string * directive) list -> plan

(** Fire [?directive] (default: [crash ()]) on every task whose key
    hashes under [rate], deterministically in [key] and [seed]. *)
val seeded : ?directive:directive -> rate:float -> seed:int -> unit -> plan

(** Install / remove the process-wide plan. Arm before the sweep
    starts; workers only read it. *)
val arm : plan -> unit

val disarm : unit -> unit
val armed : unit -> bool
val describe : unit -> string

(** {2 Named injection points}

    Key plans fire per task; named points fire per {e code location} —
    a specific line of the result store's publish / quarantine
    protocol. The kill/resume chaos soak uses them to SIGKILL a sweep
    at a chosen store operation and arrival ordinal, machine-checking
    the crash-safety invariants at every point of the protocol.

    Point state is separate from the key plan: the remote worker's
    per-chunk [arm]/[disarm] does not touch armed points, so workers
    inherit point injections from their environment. *)

type point_action =
  | Point_kill  (** SIGKILL this process at the point *)
  | Point_torn of int
      (** the call site truncates its in-flight artifact (e.g. the
          store's tmp file) to this many bytes *)
  | Point_enospc  (** the call site fails its write with [ENOSPC] *)

type point_spec = { action : point_action; arm_at : int }
(** [arm_at] is the 1-based arrival ordinal the point fires at; 0 fires
    on every arrival. *)

(** What [at_point] asks its call site to do; [Point_kill] is performed
    internally and never returned. *)
type point_hit = Torn_artifact of int | Errno of Unix.error

val known_points : string list
(** The catalog compiled into the binary; arming any other name is a
    loud error. *)

val arm_points : (string * point_spec) list -> unit
val disarm_points : unit -> unit
val points_armed : unit -> bool

(** Consulted at each named point. A single atomic load when nothing is
    armed. Fires the armed action when the arrival ordinal matches: a
    kill happens here; [Torn_artifact]/[Errno] are returned for the
    call site to apply. *)
val at_point : string -> point_hit option

(** Parse a [CHEX86_FAULT_POINT] spec — comma-separated
    [NAME[=ACTION][@N]] entries, ACTION one of [kill] (default),
    [enospc], [torn:BYTES] — rejecting
    unknown point names and malformed actions/ordinals with the
    offending string. *)
val points_of_spec : string -> ((string * point_spec) list, string) result

(** Arm from [CHEX86_FAULT_RATE] (a rate in [0,1]), the optional
    [CHEX86_FAULT_SEED] (default 0), the optional [CHEX86_FAULT_KIND]
    ([crash], the default, or [kill] for [Kill_worker]), and the
    optional [CHEX86_FAULT_POINT] point spec. [Ok true] if a plan or
    point set was armed, [Ok false] if nothing is set, [Error msg] on
    any malformed value — including a malformed [CHEX86_FAULT_SEED] /
    [CHEX86_FAULT_KIND] that would have gone unused because
    [CHEX86_FAULT_RATE] is unset (a set-but-unused valid variable only
    warns on stderr). *)
val arm_from_env : unit -> (bool, string) result

(** The armed directive for a key, any kind; the remote supervisor uses
    this to ship a chunk's slice of the plan to the worker process. *)
val directive_for : string -> directive option

(** Consulted by [Pool] before each task runs: [true] if the armed plan
    crashes [key]. *)
val crash_for : string -> bool

(** Consulted by the remote worker before each task of a chunk: [true]
    if the armed plan says the worker should SIGKILL itself. [attempt]
    is the chunk's dispatch attempt, so the default one-attempt budget
    kills the first dispatch and lets the re-dispatch complete. *)
val worker_kill_for : key:string -> attempt:int -> bool

(** Consulted by the remote supervisor before shipping a chunk: the
    first of [keys] carrying a transport directive (with dispatch
    budget left) decides the frame's fate. *)
val transport_fault_for : keys:string list -> attempt:int -> kind option
