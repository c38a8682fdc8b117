(** Shared flag parsing for the hand-rolled sweep executables.

    [parse_common args] strips the common sweep flags — [--jobs]/[-j],
    [--batch-size] (an integer or ['auto']), [--strict], [--keep-going],
    [--retries], [--task-timeout], [--cache-dir], [--no-cache],
    [--store-max-bytes B] (store eviction budget, K/M/G suffixes
    accepted), [--workers N] (spawned worker processes), [--heartbeat],
    [--trace FILE] (structured span events as JSONL), [--metrics FILE]
    (merged sweep stats as JSON at exit) (each also as [--flag=value]) —
    applies them to the process-wide knobs ({!Pool}, {!Runner.Store},
    {!Remote}, {!Trace}), arms the fault-injection plan and named
    points from CHEX86_FAULT_RATE / CHEX86_FAULT_SEED /
    CHEX86_FAULT_KIND / CHEX86_FAULT_POINT, and returns the remaining
    arguments. Malformed values print a one-line error and exit 1. The
    on-disk store
    defaults to [Runner.Store.default_dir] unless [--no-cache] is
    given; [--workers 0] forces in-process domains. *)
val parse_common : string list -> string list

(** One-line-per-flag usage text for the common flags. *)
val common_flags_doc : string

(** Parse a byte count with an optional K/M/G (binary) suffix;
    [Error] carries a human-readable message naming the input. Shared
    with chex86_sim's cmdliner converter. *)
val parse_bytes : string -> (int, string) result

(** Exit 1 when [--strict] was given and any supervised task faulted;
    otherwise return. Call after all sweeps have rendered. *)
val exit_for_faults : unit -> unit
