(** Generic set-associative cache with selectable replacement and an
    optional victim cache; [sets = 1] gives a fully associative cache. *)

type t

(** Replacement policy: true LRU (stamps), Tree-PLRU (per-set bit tree;
    requires a power-of-two way count), or MRU (evict the most recently
    touched valid way). *)
type policy = Lru | Tree_plru | Mru

val policy_name : policy -> string

(** Inverse of [policy_name]; also accepts ["plru"]. *)
val policy_of_string : string -> policy option

(** [create ?victim ?policy ~name ~sets ~ways ~line_bytes counters] —
    hit/miss events are counted as ["<name>.hit"], ["<name>.miss"] and
    ["<name>.victim_hit"] in [counters]. [sets] and [line_bytes] must be
    powers of two, [line_bytes >= 2] and [ways >= 1] ([Invalid_argument]
    otherwise); [Tree_plru] additionally needs a power-of-two [ways]. *)
val create :
  ?victim:t ->
  ?hash_index:bool ->
  ?policy:policy ->
  name:string ->
  sets:int ->
  ways:int ->
  line_bytes:int ->
  Chex86_stats.Counter.group ->
  t

(** [access c ~write addr] returns whether the access hit (main array or
    victim); misses allocate. *)
val access : t -> write:bool -> int -> bool

(** Full block number displaced out of the cache (past the victim cache,
    when one is attached) by the last [access]; -1 if none, or if the
    casualty left through a victim cache with a different line size. *)
val evicted_block : t -> int

(** Side-effect-free presence check (main array or victim): no counters,
    no replacement-state update. *)
val peek : t -> int -> bool

val policy : t -> policy
val invalidate : t -> int -> unit
val invalidate_all : t -> unit
val hits : t -> int
val misses : t -> int

(** Misses / (hits + victim hits + misses); 0. before any access. *)
val miss_rate : t -> float
