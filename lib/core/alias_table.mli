(** 5-level hierarchical shadow alias table (§V-C): virtual-address
    granule (8 bytes) -> PID of the spilled pointer hosted there.
    Storage is accounted per allocated radix node, so shadow overhead
    scales with the number of references, not with memory size (Fig 9). *)

type t

val create : Chex86_stats.Counter.group -> t

(** Install/overwrite the PID for [addr]'s granule; 0 clears. *)
val set : t -> int -> int -> unit

(** [(pid, levels_walked)] — the walker latency is proportional to the
    second component. *)
val get : t -> int -> int * int

(** PID only, with no allocation; counts a walk like [get]. *)
val find : t -> int -> int

(** Levels the last [find] (or [get]) walked. *)
val last_walk_levels : t -> int

(** Allocated radix nodes x 4 KB. *)
val storage_bytes : t -> int

(** Live (non-zero) alias entries. *)
val entries : t -> int
