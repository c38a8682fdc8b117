(** LTAGE-style branch predictor with BTB and return-address stack.

    Counts outcomes in the counter group as ["bpred.cond_correct"],
    ["bpred.cond_mispredict"], ["bpred.ras_*"], ["bpred.btb_*"]. *)

type t

(** A fully built predictor: every table is allocated here. *)
val create : Chex86_stats.Counter.group -> t

(** Resolve the ["bpred.*"] counters in the group (at zero) without
    building any table, so a machine that defers [create] to its first
    timed step still lists them. *)
val register_counters : Chex86_stats.Counter.group -> unit

(** Direction prediction for a conditional at [pc] (no state change). *)
val predict_direction : t -> int -> bool

(** [resolve t ~pc ~kind ~taken ~target] updates all predictor state and
    returns whether the front-end prediction was correct. *)
val resolve :
  t -> pc:int -> kind:Chex86_isa.Uop.branch_kind -> taken:bool -> target:int -> bool

(** Push a return address (used for indirect calls, which resolve their
    target through the BTB). *)
val ras_push : t -> int -> unit

val ras_pop : t -> int
val btb_lookup : t -> int -> int option
val btb_update : t -> int -> int -> unit
