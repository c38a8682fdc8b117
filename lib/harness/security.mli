(** Security evaluation sweep (§VII-A): every exploit run on the
    insecure baseline and under a protection configuration. *)

type result = {
  exploit : Chex86_exploits.Exploit.t;
  insecure : Runner.run;
  under_protection : Runner.run;
}

val evaluate : ?config:Runner.config -> Chex86_exploits.Exploit.t -> result

(** Register the ["security"] remote task kind (exploit lookup by name,
    config via a marshalled arg) so sweeps can run in worker processes;
    called by the worker binary at startup and by the supervisor before
    routing. Idempotent. *)
val register_remote : unit -> unit

(** The [sweep.*] outcome counters of completed evaluations and the
    distribution of their protected runs' macro-ops
    ([sweep.protected_macro_insns] in [--metrics]). *)
type tally = {
  counters : Chex86_stats.Counter.group;
  protected_macro_insns : Chex86_stats.Histogram.t;
}

(** Fold the completed evaluations, in list order, into a {!tally}. *)
val tally : result list -> tally

(** Evaluate every exploit, sharded over the domain pool by
    {!Pool.sweep} ([?jobs] defaults to [Pool.jobs ()], [?batch_size] to
    the process-wide knob / auto-sizing). Result slots are in input
    order, each paired with its exploit, and bit-identical at any job
    count and batch size. A crashing evaluation yields an [Error fault]
    slot instead of killing the sweep (its chunk-mates still complete).
    The middle part is the {!tally} of the completed evaluations,
    folded on the calling domain in exploit order and published to
    [--metrics]. When workers are configured ({!Remote.enabled}), the
    sweep is dispatched to worker processes instead of domains ([?jobs]
    is ignored there); a worker lost to a crash or heartbeat kill
    surfaces as a [Pool.Worker_lost] fault. *)
val sweep_stats_supervised :
  ?config:Runner.config ->
  ?jobs:int ->
  ?batch_size:int ->
  Chex86_exploits.Exploit.t list ->
  (Chex86_exploits.Exploit.t * (result, Pool.fault) Stdlib.result) list
  * tally
  * Pool.fault_report

val blocked : result -> bool
val blocked_as_expected : result -> bool

(** The attack did not set the pwned flag under protection. *)
val corruption_prevented : result -> bool

type suite_summary = {
  suite : Chex86_exploits.Exploit.suite;
  total : int;
  blocked : int;
  expected_class : int;
  prevented : int;
  insecure_corrupts : int;
  insecure_aborts : int;
}

val summarize : Chex86_exploits.Exploit.suite -> result list -> suite_summary

(** Violation-class histogram of the blocked exploits. *)
val class_breakdown : result list -> (string * int) list

(** {2 Campaign detection matrices}

    Per-(family x allocator x configuration) outcome matrix over a
    generated campaign corpus (see {!Chex86_exploits.Campaign}).  Each
    configuration is one supervised sweep, so evaluations shard over the
    domain pool or remote workers; rows are folded serially in a fixed
    (family, allocator, config) order, so the matrix — and its JSON —
    is bit-identical at any jobs / batch-size / workers geometry. *)

type matrix_cell = {
  total : int;
  detected : int;  (** a security violation was raised *)
  expected_class : int;  (** ... of the campaign's expected class *)
  aborted : int;  (** the allocator's own integrity check fired *)
  missed : int;  (** completed with the pwned flag set *)
  benign : int;  (** completed without corrupting *)
  undetermined : int;  (** faulted, budget-exhausted, or sweep fault *)
}

val campaign_matrix :
  ?jobs:int ->
  ?batch_size:int ->
  configs:Runner.config list ->
  Chex86_exploits.Campaign.t list ->
  ((string * string * string) * matrix_cell) list

(** ASCII table over {!Render.table}. *)
val render_matrix : ((string * string * string) * matrix_cell) list -> string

(** Deterministic compact JSON ({!Chex86_stats.Json.to_string} order);
    golden matrix files diff byte-for-byte against this. *)
val matrix_to_json : ((string * string * string) * matrix_cell) list -> Chex86_stats.Json.t
