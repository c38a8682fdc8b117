(** Structured, low-overhead tracing and metrics for the sweep stack.

    Span and instant events are appended as JSONL to the file named by
    {!set_output}; a merged counter/histogram snapshot is written to the
    {!set_metrics} file as one JSON object at process exit.  Both are
    off by default, and an instrumented site must cost exactly one
    branch when off: guard every emission with [if Trace.on () then
    ...] and build attrs only inside the guard.

    Emission never touches sweep state (RNG streams, counters,
    histograms), so traced and untraced runs produce bit-identical
    merged stats; test/test_trace.ml enforces this.

    This module sits below Pool/Remote/Runner/Security in the layering
    and references none of them. *)

(** Whether a trace sink is active.  One atomic load — the hot-path
    guard. *)
val on : unit -> bool

(** Monotonic seconds; the same clock (and epoch) as [Pool.now]. *)
val now : unit -> float

(** [set_output (Some path)] opens [path] (truncating) as the trace
    sink and turns tracing on; [set_output None] flushes, closes and
    turns it off.  An unopenable path prints a warning and leaves
    tracing off. *)
val set_output : string option -> unit

(** Tag for the ["src"] field of every event: ["main"] by default,
    ["w<pid>"] in worker processes.  Span ids are unique per source
    only. *)
val set_src : string -> unit

(** [span_begin ~parent ~stage attrs] emits a begin event and returns
    the span id, or [0] (the null id) when tracing is off.  [parent] is
    a span id from the same source; [0] means no parent. *)
val span_begin : ?parent:int -> stage:string -> (string * string) list -> int

(** [span_end id] emits the matching end event; a null [id] is a
    no-op, so call sites need no extra guard. *)
val span_end : int -> unit

(** A point event with no duration. *)
val instant : ?parent:int -> stage:string -> (string * string) list -> unit

(** [with_span ~stage attrs f] runs [f] inside a span, ending it even
    if [f] raises.  For cold call sites only: the closure and attrs
    are still evaluated when tracing is off costs nothing beyond the
    call, but hot paths should use the [span_begin]/[span_end] pair
    under an [on ()] guard instead. *)
val with_span :
  ?parent:int -> stage:string -> (string * string) list -> (unit -> 'a) -> 'a

(** Flush the trace sink (also registered [at_exit]). *)
val flush : unit -> unit

(** {1 Worker-span shipping}

    Worker processes do not write a file of their own: when the
    supervisor's request carries the trace flag, the worker collects
    its lines in memory, and ships them back piggybacked on the
    Chunk_done frame; the supervisor appends them verbatim.  Streams
    stitch offline via the chunk id attr both sides stamp. *)

(** [set_collect true] switches emission into an in-memory buffer (and
    turns tracing on); [set_collect false] drops the buffer and turns
    tracing off.  A file sink configured explicitly with [set_output]
    takes precedence and is left untouched. *)
val set_collect : bool -> unit

(** Take (and clear) the collected JSONL lines; [""] when not
    collecting. *)
val drain_collected : unit -> string

(** Append a worker's shipped JSONL payload verbatim to the active
    sink; a no-op when tracing is off or the payload is empty. *)
val absorb_payload : string -> unit

(** {1 Metrics} *)

(** [set_metrics (Some path)] arranges for the accumulated metrics to
    be written to [path] as JSON at process exit (or on an explicit
    {!write_metrics}). *)
val set_metrics : string option -> unit

(** Whether a metrics destination is set — guard for
    {!metrics_absorb} call sites. *)
val metrics_on : unit -> bool

(** Fold one sweep's merged counter snapshot and named histogram
    snapshots into the process-wide accumulator. *)
val metrics_absorb :
  Chex86_stats.Counter.snapshot
  * (string * Chex86_stats.Histogram.snapshot) list ->
  unit

(** Write the accumulated metrics now (also registered [at_exit]). *)
val write_metrics : unit -> unit

(** Extra top-level sections appended to the metrics JSON object,
    contributed by layers Trace must not depend on ([Runner] registers
    a ["store"] section here). Called once per export. *)
val metrics_extra : (unit -> (string * Chex86_stats.Json.t) list) ref

(** {1 Offline analysis} *)

(** [summarize_file path] parses a span JSONL file and renders
    per-stage latency histograms (p50/p99/max in microseconds) and a
    per-source utilization table.  [Error _] on unparseable lines or
    structural violations (an end without a begin, a parent closing
    before its child); unclosed spans at EOF are reported in the
    summary but are not errors — a killed worker legitimately loses
    its tail.  For the same reason an unparseable {e final} line (a
    write torn by a crash) is skipped and noted in the summary header
    rather than treated as an error, so post-crash traces stay
    analyzable; garbage followed by further events is
    still an error. *)
val summarize_file : string -> (string, string) result

(** Forget accumulated metrics (sinks untouched) — test isolation
    hook. *)
val reset_metrics_for_tests : unit -> unit
