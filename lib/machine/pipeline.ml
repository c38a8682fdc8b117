(* Dependence-driven out-of-order timing model.

   Consumes the engine's step records in program order and computes, for
   every micro-op, the cycle at which it fetches, dispatches, issues,
   completes and commits, subject to:

   - fetch bandwidth (fused macro-ops/cycle) and I-cache misses;
   - finite ROB / IQ / LQ / SQ occupancy (an entry is reused only after
     the micro-op that held it released it);
   - data dependences through registers, flags and memory (store-to-load
     forwarding on 8-byte granules);
   - functional-unit pools (Table III);
   - branch mispredictions and alias-misprediction flushes, which stall
     the front-end from the resolving micro-op's completion plus the
     redirect penalty (the squashed-slot accounting behind Fig 8).

   Wrong-path work is modelled purely as these stalls: the functional
   engine is an in-order oracle, which is the standard trace-driven
   simplification documented in DESIGN.md. *)

open Chex86_isa

(* Int-specialized max/min: the polymorphic [Stdlib.max] compiles to a
   generic-compare C call without flambda, and this file calls it a
   dozen times per micro-op.  These inline to a compare+cmov. *)
let imax (a : int) (b : int) = if a >= b then a else b
let imin (a : int) (b : int) = if a <= b then a else b

let loc_slots = Reg.count + Insn.xmm_count + 2 + 1
let flags_slot = loc_slots - 1

let slot_of_loc = function
  | Uop.Greg r -> Reg.index r
  | Uop.Xreg i -> Reg.count + i
  | Uop.Tmp i -> Reg.count + Insn.xmm_count + i

(* Tables only the timing model reads.  The first [on_step] builds them
   (DESIGN.md §6), so a timing-off run, which never calls it, does not
   pay for them.  Store-to-load forwarding is a direct-mapped table over
   8-byte granules: [fwd_granule.(slot)] holds the full granule number
   (-1 when empty) and [fwd_ready.(slot)] the cycle its store data
   forwards.  A conflicting store evicts only its own slot — the old
   hashtable dropped *all* in-flight forwarding state wholesale once it
   crossed 8192 entries. *)
type tables = { bpred : Bpred.t; fwd_granule : int array; fwd_ready : int array }

type t = {
  cfg : Config.t;
  hier : Chex86_mem.Hierarchy.t;
  counters : Chex86_stats.Counter.group;
  mutable tables : tables option;
  reg_ready : int array;
  rob : int array;
  mutable rob_pos : int;
  iq : int array;
  mutable iq_pos : int;
  lq : int array;
  mutable lq_pos : int;
  sq : int array;
  mutable sq_pos : int;
  fu_free : int array array;  (* per fu class, per unit *)
  mutable fetch_cycle : int;
  mutable fetch_slots : int;
  mutable last_commit : int;
  mutable commit_cycle : int;
  mutable commit_slots : int;
  mutable last_fetch_line : int;
  mutable published_cycles : int;
  (* Pre-resolved counters for the per-µop/per-step paths. *)
  h_uops : Chex86_stats.Counter.handle;
  h_uops_injected : Chex86_stats.Counter.handle;
  h_uops_killed : Chex86_stats.Counter.handle;
  h_macro_insns : Chex86_stats.Counter.handle;
  h_squash_cycles : Chex86_stats.Counter.handle;
  h_branch_flushes : Chex86_stats.Counter.handle;
  h_alias_flushes : Chex86_stats.Counter.handle;
  h_cycles : Chex86_stats.Counter.handle;
}

let fwd_size = 8192  (* slots; power of 2, indexed by the granule's low bits *)

let fu_index = function
  | Uop.FU_int -> 0
  | Uop.FU_mult -> 1
  | Uop.FU_fp -> 2
  | Uop.FU_load -> 3
  | Uop.FU_store -> 4
  | Uop.FU_branch -> 5
  | Uop.FU_none -> 6

let create ?(config = Config.default) hier counters =
  (* The tables wait for the first [on_step]; their counters are listed
     now, so every run reports the same counter set. *)
  Bpred.register_counters counters;
  {
    cfg = config;
    hier;
    counters;
    tables = None;
    reg_ready = Array.make loc_slots 0;
    rob = Array.make config.rob_size 0;
    rob_pos = 0;
    iq = Array.make config.iq_size 0;
    iq_pos = 0;
    lq = Array.make config.lq_size 0;
    lq_pos = 0;
    sq = Array.make config.sq_size 0;
    sq_pos = 0;
    fu_free =
      [|
        Array.make config.int_alu_units 0;
        Array.make config.int_mult_units 0;
        Array.make config.fp_alu_units 0;
        Array.make config.load_ports 0;
        Array.make config.store_ports 0;
        Array.make 1 0 (* branch unit *);
        Array.make 1 0 (* none *);
      |];
    fetch_cycle = 0;
    fetch_slots = 0;
    last_commit = 0;
    commit_cycle = 0;
    commit_slots = 0;
    last_fetch_line = -1;
    published_cycles = 0;
    h_uops = Chex86_stats.Counter.handle counters "pipeline.uops";
    h_uops_injected = Chex86_stats.Counter.handle counters "pipeline.uops_injected";
    h_uops_killed = Chex86_stats.Counter.handle counters "pipeline.uops_killed";
    h_macro_insns = Chex86_stats.Counter.handle counters "pipeline.macro_insns";
    h_squash_cycles = Chex86_stats.Counter.handle counters "pipeline.squash_cycles";
    h_branch_flushes = Chex86_stats.Counter.handle counters "pipeline.branch_flushes";
    h_alias_flushes = Chex86_stats.Counter.handle counters "pipeline.alias_flushes";
    h_cycles = Chex86_stats.Counter.handle counters "pipeline.cycles";
  }

(* Earliest free unit of a class at or after [want]; books the unit until
   [until]. *)
let acquire_fu t cls want until_delta =
  let units = t.fu_free.(fu_index cls) in
  let best = ref 0 in
  for i = 1 to Array.length units - 1 do
    if units.(i) < units.(!best) then best := i
  done;
  let start = imax want units.(!best) in
  units.(!best) <- start + until_delta;
  start

(* Zero-idiom kills inflate [fetch_slots] past [fetch_width] in one shot;
   carry the full overflow into whole fetch cycles rather than charging a
   single cycle for an arbitrarily large backlog (a kill burst of
   [3 * fetch_width] µops must cost three fetch cycles, not one). *)
let consume_fetch_slot t =
  if t.fetch_slots >= t.cfg.fetch_width then begin
    t.fetch_cycle <- t.fetch_cycle + (t.fetch_slots / t.cfg.fetch_width);
    t.fetch_slots <- t.fetch_slots mod t.cfg.fetch_width
  end;
  t.fetch_slots <- t.fetch_slots + 1

(* [reason] is a pre-resolved flush counter (branch vs alias). *)
let redirect t ~resolve_time ~(reason : Chex86_stats.Counter.handle) =
  let new_fetch = resolve_time + t.cfg.mispredict_penalty in
  if new_fetch > t.fetch_cycle then begin
    (* Squash accounting (Fig 8 bottom): the redirect penalty itself is
       the squashed-slot time; the remaining gap is resolve/drain latency
       that an out-of-order machine overlaps with older work. *)
    Chex86_stats.Counter.incr_handle
      ~by:(imin (new_fetch - t.fetch_cycle) t.cfg.mispredict_penalty)
      t.counters t.h_squash_cycles;
    t.fetch_cycle <- new_fetch;
    t.fetch_slots <- 0
  end;
  Chex86_stats.Counter.incr_handle t.counters reason

let commit_in_order t complete =
  let c = imax complete (imax t.last_commit t.commit_cycle) in
  if c > t.commit_cycle then begin
    t.commit_cycle <- c;
    t.commit_slots <- 1
  end
  else if t.commit_slots < t.cfg.commit_width then t.commit_slots <- t.commit_slots + 1
  else begin
    t.commit_cycle <- t.commit_cycle + 1;
    t.commit_slots <- 1
  end;
  t.last_commit <- t.commit_cycle;
  t.commit_cycle

let granule addr = addr lsr 3

(* Advance a queue cursor known to be in [0, size): a compare beats the
   idiv that [mod] costs on this per-µop path. *)
let bump pos size = let p = pos + 1 in if p = size then 0 else p

(* Maximum readiness over a micro-op's source locations — the same set
   [Uop.reads] describes, folded in place so the per-µop path builds no
   lists. *)
let max_loc t acc l = imax acc t.reg_ready.(slot_of_loc l)

let max_src t acc = function Uop.Loc l -> max_loc t acc l | Uop.Imm _ -> acc

let max_mem t acc (m : Insn.mem) =
  let acc = match m.base with Some r -> imax acc t.reg_ready.(Reg.index r) | None -> acc in
  match m.index with Some r -> imax acc t.reg_ready.(Reg.index r) | None -> acc

let reads_ready t acc (uop : Uop.t) =
  match uop with
  | Mov { src; _ } -> max_loc t acc src
  | Limm _ -> acc
  | Alu { src1; src2; _ } | Cmp { src1; src2; _ } -> max_src t (max_loc t acc src1) src2
  | Lea { mem; _ } | Load { mem; _ } -> max_mem t acc mem
  | Store { src; mem; _ } -> max_mem t (max_src t acc src) mem
  | Fp { dst; src; _ } -> max_loc t (max_loc t acc dst) src
  | Cvt { src; _ } -> max_loc t acc src
  | Branch _ -> acc
  | Cap (Cap_check { mem; _ }) | Guard { mem; _ } -> max_mem t acc mem
  | Cap _ | Nop -> acc

(* Process one executed micro-op; [dispatch_base] is when the front end
   delivered it. [native_latency] inflates the base latency (stub
   bodies). Returns its completion time. *)
let process_uop t tb ~pc ~dispatch_base ~native_latency (eu : Engine.exec_uop) branch =
  let uop = eu.uop in
  Chex86_stats.Counter.incr_handle t.counters t.h_uops;
  if Uop.is_injected uop then Chex86_stats.Counter.incr_handle t.counters t.h_uops_injected;
  (* Structural occupancy: reusing a ROB/IQ/LQ/SQ slot waits for its
     previous holder. *)
  let dispatch = imax dispatch_base t.rob.(t.rob_pos) in
  let dispatch = imax dispatch t.iq.(t.iq_pos) in
  let dispatch =
    match uop with
    | Load _ | Guard { kind = Shadow_load; _ } -> imax dispatch t.lq.(t.lq_pos)
    | Store _ -> imax dispatch t.sq.(t.sq_pos)
    | _ -> dispatch
  in
  (* Source readiness. *)
  let ready = reads_ready t dispatch uop in
  let ready =
    match uop with
    | Branch { kind = Cond _; _ } -> imax ready t.reg_ready.(flags_slot)
    | _ -> ready
  in
  let cls = Uop.fu_class uop in
  let complete =
    match uop with
    | Nop when native_latency > 0 ->
      let issue = acquire_fu t FU_int ready 1 in
      issue + native_latency
    | Nop -> ready + 1
    | Load _ ->
      let ea = eu.ea in
      let issue = acquire_fu t cls ready 1 in
      let mem_lat = Chex86_mem.Hierarchy.access t.hier ~kind:Data ~write:false ea in
      let g = granule ea in
      let slot = g land (fwd_size - 1) in
      if tb.fwd_granule.(slot) = g then imax (issue + 1) tb.fwd_ready.(slot)
      else issue + mem_lat
    | Store _ ->
      let ea = eu.ea in
      let issue = acquire_fu t cls ready 1 in
      ignore (Chex86_mem.Hierarchy.access t.hier ~kind:Data ~write:true ea);
      let g = granule ea in
      let slot = g land (fwd_size - 1) in
      (* Direct-mapped: a conflicting granule displaces only this slot. *)
      tb.fwd_granule.(slot) <- g;
      tb.fwd_ready.(slot) <- issue + 1;
      issue + 1
    | Guard { kind = Shadow_load; _ } ->
      (* ASan shadow byte load: real D-cache traffic in shadow space. *)
      let ea = eu.ea in
      let shadow_addr = 0x7FFF_8000_0000 + (ea lsr 3) in
      let issue = acquire_fu t cls ready 1 in
      issue + Chex86_mem.Hierarchy.access t.hier ~kind:Data ~write:false shadow_addr
    | _ ->
      let issue = acquire_fu t cls ready 1 in
      issue + Uop.latency uop
  in
  let complete = complete + eu.reaction.Hooks.extra_latency in
  (* Off-critical-path validation work (capability cache misses, alias
     walks) holds the entry longer but does not delay dependents. *)
  let resolved = complete + eu.reaction.Hooks.commit_latency in
  (* Publish results — same destinations as [Uop.writes], matched
     directly so no [Some] is built per µop. *)
  (match uop with
  | Mov { dst; _ }
  | Limm { dst; _ }
  | Alu { dst; _ }
  | Lea { dst; _ }
  | Load { dst; _ }
  | Fp { dst; _ }
  | Cvt { dst; _ } ->
    t.reg_ready.(slot_of_loc dst) <- complete
  | Store _ | Cmp _ | Branch _ | Cap _ | Guard _ | Nop -> ());
  (match uop with
  | Alu _ | Cmp _ -> t.reg_ready.(flags_slot) <- complete
  | _ -> ());
  (* Record occupancy release times. *)
  t.iq.(t.iq_pos) <- complete;
  t.iq_pos <- bump t.iq_pos t.cfg.iq_size;
  (match uop with
  | Load _ | Guard { kind = Shadow_load; _ } ->
    t.lq.(t.lq_pos) <- resolved;
    t.lq_pos <- bump t.lq_pos t.cfg.lq_size
  | Store _ ->
    t.sq.(t.sq_pos) <- resolved;
    t.sq_pos <- bump t.sq_pos t.cfg.sq_size
  | _ -> ());
  let commit = commit_in_order t resolved in
  t.rob.(t.rob_pos) <- commit;
  t.rob_pos <- bump t.rob_pos t.cfg.rob_size;
  (* Control resolution. *)
  (match (uop, branch) with
  | Branch { kind; _ }, Some (bi : Engine.branch_info) ->
    let correct =
      match kind with
      | Uop.Call when (match bi.kind with Uop.Indirect -> true | _ -> false) ->
        (* Indirect call: BTB-predicted target + RAS push of pc+4. *)
        Bpred.ras_push tb.bpred (pc + 4);
        Bpred.resolve tb.bpred ~pc ~kind:Uop.Indirect ~taken:true ~target:bi.target
      | _ -> Bpred.resolve tb.bpred ~pc ~kind:bi.kind ~taken:bi.taken ~target:bi.target
    in
    if not correct then redirect t ~resolve_time:complete ~reason:t.h_branch_flushes
  | _ -> ());
  if eu.reaction.Hooks.flush then
    redirect t ~resolve_time:resolved ~reason:t.h_alias_flushes;
  complete

let native_cost = function
  | "malloc" | "calloc" | "realloc" | "free" -> 40
  | "memset" | "memcpy" -> 60
  | _ -> 10

let build_tables t =
  let tb =
    {
      bpred = Bpred.create t.counters;
      fwd_granule = Array.make fwd_size (-1);
      fwd_ready = Array.make fwd_size 0;
    }
  in
  t.tables <- Some tb;
  tb

let on_step t (step : Engine.step) =
  let tb = match t.tables with Some tb -> tb | None -> build_tables t in
  Chex86_stats.Counter.incr_handle t.counters t.h_macro_insns;
  (* Front end: I-cache line fetch + fetch bandwidth + decode path. *)
  let line = step.pc lsr 6 in
  if line <> t.last_fetch_line then begin
    t.last_fetch_line <- line;
    let lat = Chex86_mem.Hierarchy.access t.hier ~kind:Inst ~write:false step.pc in
    (* Charge miss stalls beyond the pipelined L1I hit latency. *)
    if lat > 4 then t.fetch_cycle <- t.fetch_cycle + (lat - 4)
  end;
  consume_fetch_slot t;
  (match step.path with
  | Decoder.Msrom -> t.fetch_cycle <- t.fetch_cycle + t.cfg.msrom_extra_cycles
  | _ -> ());
  let dispatch_base = t.fetch_cycle + t.cfg.front_end_depth in
  let native_latency = match step.native with Some n -> native_cost n | None -> 0 in
  let uops = step.uops in
  let n = Array.length uops in
  for i = 0 to n - 1 do
    let eu = uops.(i) in
    (* Zero-idiom kills (PNA0): consume decode bandwidth only. *)
    let killed = eu.Engine.reaction.Hooks.killed_uops in
    if killed > 0 then begin
      Chex86_stats.Counter.incr_handle ~by:killed t.counters t.h_uops_killed;
      t.fetch_slots <- t.fetch_slots + killed
    end;
    let branch = if i = n - 1 then step.branch else None in
    ignore (process_uop t tb ~pc:step.pc ~dispatch_base ~native_latency eu branch)
  done

let cycles t = t.last_commit

(* Publish the cycle total as a delta since the last publication:
   overwriting the counter (the old Counter.set) is unsafe under the
   pool's additive snapshot merging — a re-finalized pipeline would
   double-count, and a merged group would clobber siblings. *)
let finalize t =
  let total = cycles t in
  Chex86_stats.Counter.incr_handle ~by:(total - t.published_cycles) t.counters t.h_cycles;
  t.published_cycles <- total
