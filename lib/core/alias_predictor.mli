(** Stride-based pointer-reload (alias) predictor (§V-C, Fig 4):
    PC-indexed entries of (last PID, PID stride, 2-bit confidence) plus a
    blacklist of non-reload PCs. *)

type t

(** Default 512 entries; Fig 8 evaluates 1024 and 2048. [use_stride] and
    [use_blacklist] are ablation switches (both on by default). *)
val create :
  ?entries:int ->
  ?blacklist_entries:int ->
  ?use_stride:bool ->
  ?use_blacklist:bool ->
  Chex86_stats.Counter.group ->
  t

val size : t -> int

(** Predicted PID for the load at [pc]; 0 = "not a pointer reload".
    A tag hit always ventures a PID — wrong PIDs recover via PMAN
    forwarding; the P0AN flush is reserved for unanticipated reloads. *)
val predict : t -> int -> int

(** Train with the actual PID from the shadow alias table.
    [alias_page] is the TLB's alias-hosting bit: only loads from pages
    with no spilled pointers train the blacklist (true data loads); a
    pointer outcome resets it (asymmetric training). *)
val update : t -> int -> alias_page:bool -> actual:int -> unit

val blacklisted : t -> int -> bool
