(** Regeneration of every table and figure of the paper's evaluation.
    Each function runs the required simulations (memoized) and returns
    the rendered ASCII table/figure plus the summary statistics the
    paper quotes in prose. Scale via the CHEX86_SCALE environment
    variable (default 1). *)

val scale : int

(** Pure CHEX86_SCALE parsing: an integer >= 1, else an [Error] naming
    the value. [scale] exits 2 with that message when the variable is
    set but malformed. *)
val parse_scale : string -> (int, string) result

(** Pure CHEX86_WORKLOADS resolution: the subset of [all] named by the
    comma-separated [spec] (all of them for an empty spec). Unknown
    names warn-and-ignore by default but are an [Error] under
    [~strict]; if no known name remains, warns and sweeps [all]. *)
val resolve_workloads :
  ?strict:bool ->
  all:Chex86_workloads.Bench_spec.t list ->
  string ->
  (Chex86_workloads.Bench_spec.t list, string) result

(** The workloads every figure sweeps: all 14, or the subset named by
    the CHEX86_WORKLOADS environment variable (comma-separated).
    Resolved on first call — after the CLI has parsed [--strict] —
    then cached; a strict run with unknown names exits 2. *)
val workloads : unit -> Chex86_workloads.Bench_spec.t list

val figure1 : unit -> string

(** Benchmark allocation behaviour (total / max-live / in-use). *)
val figure3 : unit -> string

(** Normalized performance of the six configurations + uop expansion. *)
val figure6 : unit -> string

(** Capability and alias cache miss rates at two sizes each. *)
val figure7 : unit -> string

(** Alias misprediction rates (1024/2048 entries) and squash time. *)
val figure8 : unit -> string

(** Storage overhead and DRAM bandwidth. *)
val figure9 : unit -> string

(** The rule database + hardware-checker validation. *)
val table1 : unit -> string

(** Temporal patterns recovered from machine-level PID streams. *)
val table2 : unit -> string

val table3 : unit -> string

(** Prior-work comparison with the measured CHEx86 row. *)
val table4 : unit -> string

(** RIPE / ASan suite / How2Heap sweep summary. *)
val security : unit -> string

(** All targets by bench name. *)
val all : (string * (unit -> string)) list
