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
    comma-separated [spec] (all of them for an empty spec), or an
    [Error] naming every unknown name. *)
val resolve_workloads :
  all:Chex86_workloads.Bench_spec.t list ->
  string ->
  (Chex86_workloads.Bench_spec.t list, string) result

(** The workloads every figure sweeps: all 14, or the subset named by
    the CHEX86_WORKLOADS environment variable (comma-separated).
    Resolved on first call, then cached; an unknown name exits 2 with a
    message naming it. *)
val workloads : unit -> Chex86_workloads.Bench_spec.t list

(** {2 The (workload x configuration) grid} *)

(** [grid columns workloads] runs every (workload x column) cell in one
    {!Runner.sweep}. A column is a name and the job it runs on a
    workload; each row pairs a workload with its cells, by column name
    in column order. Figures 3 and 6–9, Table IV and every ablation
    declare their cells this way. *)
val grid :
  (string * (Chex86_workloads.Bench_spec.t -> Runner.job)) list ->
  Chex86_workloads.Bench_spec.t list ->
  (Chex86_workloads.Bench_spec.t * (string * (Runner.run, Pool.fault) result) list) list
  * Pool.fault_report

(** [cell render c] renders a completed cell with [render] and a faulted
    one as FAULTED (a crash) or LOST (a lost worker). *)
val cell : (Runner.run -> string) -> (Runner.run, Pool.fault) result -> string

(** The lines a target appends when its sweep had faults: a blank line
    and the rendered fault report; nothing otherwise. *)
val fault_footer : Pool.fault_report -> string list

(** Capability-cache miss rate: misses over hits plus misses. *)
val cap_miss_rate : Chex86_stats.Counter.group -> float

(** Alias-cache miss rate over hits, victim hits and misses; [None]
    under 200 accesses, where the rate is noise. *)
val alias_miss_rate : Chex86_stats.Counter.group -> float option

(** Alias mispredictions per prediction event; 0 without events. *)
val mispredict_rate : Chex86_stats.Counter.group -> float

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
