(** The one parser of the sweep flags, shared by the two sweep
    executables (bench/main.exe and security_eval).

    [parse_common args] strips the common sweep flags — [--jobs]/[-j],
    [--batch-size] (an integer or ['auto']), [--strict], [--keep-going],
    [--cache-dir], [--no-cache], [--cpu PRESET], [--workers N] (spawned
    worker processes), [--heartbeat S] (seconds of worker silence
    before a kill), [--trace FILE] (structured span events as JSONL),
    [--metrics FILE] (each sweep's fault-report counts and the security
    tally as JSON at exit) (each also as [--flag=value]) — applies them
    to the process-wide knobs ({!Pool}, {!Runner.Store}, {!Remote},
    {!Trace}), arms the fault-injection plan and named points from
    CHEX86_FAULT_RATE / CHEX86_FAULT_SEED / CHEX86_FAULT_KIND /
    CHEX86_FAULT_POINT, and returns the remaining arguments. Malformed
    values, and a [--trace] or [--metrics] file that cannot be opened,
    print a one-line error naming the value and exit 1. The
    on-disk store defaults to [Runner.Store.default_dir] unless
    [--no-cache] is given; [--workers 0] forces in-process domains. *)
val parse_common : string list -> string list

(** One-line-per-flag usage text for the common flags. *)
val common_flags_doc : string

(** Exit 1 when [--strict] was given and any supervised task faulted;
    otherwise return. Call after all sweeps have rendered. *)
val exit_for_faults : unit -> unit
