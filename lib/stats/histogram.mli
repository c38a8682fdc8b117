(** Exact integer histogram with streaming insertion. *)

type t

val create : unit -> t

(** [add ?weight h v] records [weight] (default 1) occurrences of value
    [v]. Raises [Invalid_argument] if [weight <= 0]: a zero or negative
    weight would corrupt the count/sum/min/max bookkeeping. *)
val add : ?weight:int -> t -> int -> unit

(** Number of samples recorded (sum of weights). *)
val count : t -> int

(** Sum of all recorded values (weighted). *)
val total : t -> int

val min_value : t -> int
val max_value : t -> int
val mean : t -> float

(** [percentile h q] with [q] in [0,1] (out-of-range and NaN [q] are
    clamped into it): smallest value covering a [q] fraction of the
    mass. 0 on an empty histogram. *)
val percentile : t -> float -> int

(** Most frequent value; 0 on an empty histogram. *)
val mode : t -> int

(** [fold f init h] folds [f acc value count] over buckets in increasing
    value order. *)
val fold : ('a -> int -> int -> 'a) -> 'a -> t -> 'a

(** Sorted (value, count) pairs. *)
val sorted : t -> (int * int) list

(** An immutable value-sorted view, safe to pass between domains.
    [merge] adds bucket weights pointwise: associative, commutative,
    with [empty_snapshot] as identity. *)
type snapshot

val empty_snapshot : snapshot
val snapshot : t -> snapshot
val merge : snapshot -> snapshot -> snapshot

val snapshot_to_list : snapshot -> (int * int) list

(** [{"n": total weight, "buckets": [[value, weight], ...]}], buckets in
    ascending value order — the metrics-dump wire form. *)
val json_of_snapshot : snapshot -> Json.t

(** Summary line; an empty histogram prints ["n=0 (empty)"] so it is
    never mistaken for a real all-zero distribution. *)
val pp : Format.formatter -> t -> unit
