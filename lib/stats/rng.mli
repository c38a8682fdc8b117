(** Deterministic splitmix64 PRNG; each consumer carries its own stream. *)

type t

val create : int -> t

(** Stable, non-negative FNV-1a hash of a key: a seed that depends on
    the key alone, never on worker identity or scheduling order (the
    seeded fault plan, the remote layer's respawn jitter and its
    self-test kind draw from it). *)
val seed_of_key : string -> int
val next_int64 : t -> int64

(** Uniform int in [0, bound); raises [Invalid_argument] if bound <= 0. *)
val int : t -> int -> int

val bool : t -> bool

(** Uniform float in [0, 1). *)
val float : t -> float

(** Uniform pick from a non-empty array. *)
val choose : t -> 'a array -> 'a

(** In-place Fisher-Yates shuffle. *)
val shuffle : t -> 'a array -> unit
