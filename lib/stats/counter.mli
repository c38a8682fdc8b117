(** Named event counters, grouped per simulation run. *)

type group

val create_group : unit -> group

(** A pre-resolved counter slot: components obtain one per counter at
    create time with {!handle} and bump it with {!incr_handle} on their
    per-access/per-µop hot paths — one array update, no string hashing,
    no allocation.  Handles are only meaningful against the group that
    issued them. *)
type handle

(** [handle g name] resolves (creating at zero if new) the slot of
    [name].  Call once at component-create time, not per event. *)
val handle : group -> string -> handle

(** [incr_handle ?by g h] bumps the counter behind [h]. *)
val incr_handle : ?by:int -> group -> handle -> unit

(** [get_handle g h] is the current value behind [h]. *)
val get_handle : group -> handle -> int

(** [incr ?by g name] bumps counter [name], creating it at zero if new.

    There is deliberately no [set]: overwriting is merge-unsafe under
    the additive snapshot merging below. To republish a running total,
    add the delta since the last publication with [incr ~by]. *)
val incr : ?by:int -> group -> string -> unit

(** [get g name] is the current value, or 0 if the counter was never touched. *)
val get : group -> string -> int

(** Reset every counter in the group to zero (the set of names is kept). *)
val reset : group -> unit

(** [ratio g ~num ~den] is num/(num+den), for hit/miss style pairs; 0. when
    both are zero. *)
val ratio : group -> num:string -> den:string -> float

(** [fraction g ~num ~total] is num/total; 0. when total is zero. *)
val fraction : group -> num:string -> total:string -> float

(** All counters, sorted by name. *)
val to_list : group -> (string * int) list

(** An immutable, name-sorted view of a group, safe to pass between
    domains. [merge] is pointwise addition: associative, commutative,
    with [empty_snapshot] as identity, so snapshots combine
    independent of the order they arrive in. *)
type snapshot

val empty_snapshot : snapshot
val group_snapshot : group -> snapshot
val merge : snapshot -> snapshot -> snapshot

val snapshot_to_list : snapshot -> (string * int) list

(** One JSON object, counter names as keys in sorted order — the
    metrics-dump wire form. *)
val json_of_snapshot : snapshot -> Json.t

val pp : Format.formatter -> group -> unit
