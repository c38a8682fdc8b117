(** Speculative pointer tracker register tags (§V-D): per-location
    finalized (committed) PID plus a vector of transient PIDs with
    sequence numbers, so misspeculation recovery can discard exactly the
    younger-than-the-squash state. *)

type t

val create : unit -> t

(** Fresh sequence number for the next tracked instruction. *)
val next_seq : t -> int

(** Youngest transient PID, else the committed PID. XMM locations are
    never tracked and always read 0. *)
val current_pid : t -> Chex86_isa.Uop.loc -> int

(** [reg_pid t r] is [current_pid t (Greg r)] without building the
    location. *)
val reg_pid : t -> Chex86_isa.Reg.t -> int

(** Record a transient capability transfer. *)
val set_pid : t -> Chex86_isa.Uop.loc -> seq:int -> pid:int -> unit

(** [set_pid] immediately followed by [commit_upto] at the same sequence
    number — the in-order engine's lock-step path, allocation-free when
    no transient entries are outstanding. *)
val assign : t -> Chex86_isa.Uop.loc -> seq:int -> pid:int -> unit

(** Any transient (uncommitted) entries outstanding? *)
val has_transients : t -> bool

(** Drain transient entries with sequence <= [seq] into the finalized
    field. *)
val commit_upto : t -> seq:int -> unit

(** Squash: discard transient PIDs younger than [seq]. *)
val squash_after : t -> seq:int -> unit

(** Overwrite a location's PID immediately (alias-misprediction
    recovery forwarding, Fig 5(e)). *)
val force_pid : t -> Chex86_isa.Uop.loc -> int -> unit

val reset : t -> unit
val pp : Format.formatter -> t -> unit
