(* The CHEx86 monitor: glues the microcode customization unit, the
   shadow capability table/cache, the speculative pointer tracker and the
   alias prediction machinery into the machine's hook interface.

   Decode time ([instrument]): intercept registered heap-function
   entry/exit points (capGen/capFree injection), propagate PIDs through
   the crack with the rule database, predict PIDs for pointer reloads,
   and inject capCheck/guard micro-ops per the active variant and scope.

   Execute time ([exec_uop]): perform capability checks (raising
   [Violation.Security_violation]), validate alias predictions against
   the shadow alias table (PNA0 / P0AN / PMAN recovery), spill PIDs of
   stored pointers, and charge shadow-structure latencies. *)

open Chex86_isa
module Os = Chex86_os
module Mem = Chex86_mem
module Machine = Chex86_machine

type pending_alloc = { pid : int; kind : Os.Msrs.kind; realloc_old : int }

(* Shadow state shared by the per-core monitors of an SMP system: the
   memory-resident capability and alias tables, the page-table
   alias-hosting bits, the invalidation bus, and the (once-registered)
   global capabilities. *)
type shared = {
  s_cap_table : Cap_table.t;
  s_alias_table : Alias_table.t;
  s_alias_pages : Mem.Intset.t;  (* hosting vpns *)
  s_bus : Bus.t;
  mutable s_globals : (int * int * int) array option;
}

let make_shared counters =
  {
    s_cap_table = Cap_table.create counters;
    s_alias_table = Alias_table.create counters;
    s_alias_pages = Mem.Intset.create ~capacity:16 ();
    s_bus = Bus.create counters;
    s_globals = None;
  }

type inject_memo = { m_pids : int array; mutable m_uops : Uop.t list }

type t = {
  variant : Variant.t;
  (* Scheme predicates hoisted out of the per-µop paths: a structural
     [=] on the scheme enum is a generic-compare call without flambda. *)
  is_bt : bool;
  is_hw_only : bool;
  is_prediction : bool;
  is_microcode : bool;  (* always_on or prediction: the memoized check-injection path *)
  rules : Rules.t;
  cap_table : Cap_table.t;
  cap_cache : Cap_cache.t;
  tracker : Tracker.t;
  alias_table : Alias_table.t;
  alias_cache : Mem.Cache.t;
  predictor : Alias_predictor.t;
  msrs : Os.Msrs.t;
  tlb : Mem.Tlb.t;
  hier : Mem.Hierarchy.t;
  counters : Chex86_stats.Counter.group;
  mutable globals : (int * int * int) array;  (* (addr, size, pid), sorted *)
  mutable pending_alloc : pending_alloc option;
  mutable pending_free : int option;
  (* (pc, predicted pid) FIFO per tracked load, as parallel int rings:
     a [Queue] of tuples boxes two blocks per push on the per-load
     decode path.  Power-of-two capacity; head/tail grow monotonically. *)
  mutable pq_pc : int array;
  mutable pq_pid : int array;
  mutable pq_head : int;
  mutable pq_tail : int;
  lsu_checks : (int * bool) Queue.t;  (* hardware-only: (pid, is_store) per mem uop *)
  bt_translated : Mem.Intset.t;  (* macro-op PCs already translated *)
  (* Per-PC memo of the check-spliced crack (microcode schemes only):
     [mem]/[width]/[is_store] are fixed per site, so the spliced list is
     fully determined by the PIDs captured at decode.  [memo_pids] is the
     scratch the capture walk fills each step. *)
  inject_memo : Mem.Intmap.t;  (* pc -> index into [memo_tbl] *)
  mutable memo_tbl : inject_memo array;
  mutable memo_n : int;
  memo_pids : int array;
  mutable pending_bt_cost : int;
  (* Reaction ring pool + the out-params of [validate_prediction] and
     [alias_lookup]: the per-checked-access timing feedback must not box
     a record or tuple. *)
  rpool : Machine.Hooks.pool;
  mutable vp_flush : bool;
  mutable vp_killed : int;
  mutable al_latency : int;
  mutable al_alias_page : bool;
  mutable checker : Checker.t option;
  (* Observation hook: fires for every executed capability check with the
     PID it validated (used to recover Table II's temporal PID streams). *)
  mutable on_check : pc:int -> pid:int -> is_store:bool -> unit;
  (* SMP: which hardware thread this monitor serves, and the shared
     shadow state + invalidation bus. *)
  core : int;
  shared : shared option;
  (* Pre-resolved counters for the per-check / per-tracked-load paths. *)
  h_cap_checks : Chex86_stats.Counter.handle;
  h_cap_generated : Chex86_stats.Counter.handle;
  h_cap_freed : Chex86_stats.Counter.handle;
  h_tlb_filtered : Chex86_stats.Counter.handle;
  h_pred_events : Chex86_stats.Counter.handle;
  h_pred_correct : Chex86_stats.Counter.handle;
  h_pred_reloads : Chex86_stats.Counter.handle;
  h_pred_pna0 : Chex86_stats.Counter.handle;
  h_pred_p0an : Chex86_stats.Counter.handle;
  h_pred_pman : Chex86_stats.Counter.handle;
  h_queue_empty : Chex86_stats.Counter.handle;
  h_queue_mismatch : Chex86_stats.Counter.handle;
  h_spills : Chex86_stats.Counter.handle;
  h_bt_translated : Chex86_stats.Counter.handle;
}

let create ?(variant = Variant.default) ?(core = 0) ?shared ~proc ~hier () =
  let counters = proc.Os.Process.counters in
  let victim =
    if variant.Variant.alias_victim_entries = 0 then None
    else
      Some
        (Mem.Cache.create ~name:"aliasvictim" ~sets:1
           ~ways:variant.Variant.alias_victim_entries ~line_bytes:8 counters)
  in
  let t =
    {
      variant;
      is_bt = (match variant.Variant.scheme with Variant.Binary_translation -> true | _ -> false);
      is_hw_only = (match variant.Variant.scheme with Variant.Hardware_only -> true | _ -> false);
      is_prediction =
        (match variant.Variant.scheme with Variant.Microcode_prediction -> true | _ -> false);
      is_microcode =
        (match variant.Variant.scheme with
        | Variant.Microcode_always_on | Variant.Microcode_prediction -> true
        | _ -> false);
      rules = Rules.create ();
      cap_table =
        (match shared with
        | Some s -> s.s_cap_table
        | None -> Cap_table.create counters);
      cap_cache = Cap_cache.create ~entries:variant.Variant.cap_cache_entries counters;
      tracker = Tracker.create ();
      alias_table =
        (match shared with
        | Some s -> s.s_alias_table
        | None -> Alias_table.create counters);
      alias_cache =
        Mem.Cache.create ?victim ~hash_index:true ~name:"aliascache"
          ~sets:variant.Variant.alias_cache_sets ~ways:2 ~line_bytes:8 counters;
      predictor =
        Alias_predictor.create ~entries:variant.Variant.predictor_entries
          ~use_stride:variant.Variant.predictor_stride
          ~use_blacklist:variant.Variant.predictor_blacklist counters;
      msrs = proc.Os.Process.msrs;
      tlb = Mem.Hierarchy.dtlb hier;
      hier;
      counters;
      globals = [||];
      pending_alloc = None;
      pending_free = None;
      pq_pc = Array.make 64 0;
      pq_pid = Array.make 64 0;
      pq_head = 0;
      pq_tail = 0;
      lsu_checks = Queue.create ();
      (* Both grow on demand; a short run (one exploit) touches few PCs. *)
      bt_translated = Mem.Intset.create ~capacity:16 ();
      inject_memo = Mem.Intmap.create ~capacity:16 ();
      memo_tbl = [||];
      memo_n = 0;
      memo_pids = Array.make 16 0;  (* cracks are <= 8 micro-ops *)
      pending_bt_cost = 0;
      rpool = Machine.Hooks.pool ();
      vp_flush = false;
      vp_killed = 0;
      al_latency = 0;
      al_alias_page = false;
      checker = None;
      on_check = (fun ~pc:_ ~pid:_ ~is_store:_ -> ());
      core;
      shared;
      h_cap_checks = Chex86_stats.Counter.handle counters "cap.checks";
      h_cap_generated = Chex86_stats.Counter.handle counters "cap.generated";
      h_cap_freed = Chex86_stats.Counter.handle counters "cap.freed";
      h_tlb_filtered = Chex86_stats.Counter.handle counters "alias.tlb_filtered";
      h_pred_events = Chex86_stats.Counter.handle counters "alias.pred_events";
      h_pred_correct = Chex86_stats.Counter.handle counters "alias.pred_correct";
      h_pred_reloads = Chex86_stats.Counter.handle counters "alias.pred_reloads";
      h_pred_pna0 = Chex86_stats.Counter.handle counters "alias.pred_pna0";
      h_pred_p0an = Chex86_stats.Counter.handle counters "alias.pred_p0an";
      h_pred_pman = Chex86_stats.Counter.handle counters "alias.pred_pman";
      h_queue_empty = Chex86_stats.Counter.handle counters "alias.queue_empty";
      h_queue_mismatch = Chex86_stats.Counter.handle counters "alias.queue_mismatch";
      h_spills = Chex86_stats.Counter.handle counters "alias.spills";
      h_bt_translated = Chex86_stats.Counter.handle counters "bt.translated_pcs";
    }
  in
  (* SMP: receive invalidations for this core's private caches. *)
  (match shared with
  | Some s ->
    Bus.subscribe s.s_bus ~core (function
      | Bus.Cap_invalidate pid -> Cap_cache.invalidate t.cap_cache pid
      | Bus.Alias_invalidate addr -> Mem.Cache.invalidate t.alias_cache addr)
  | None -> ());
  (* Symbol-table capabilities for globals (Section IV-C "Initial
     Configuration"); the insecure baseline builds no shadow state, and
     under SMP only the first core registers (the table is shared). *)
  if Variant.protects variant then begin
    match shared with
    | Some ({ s_globals = Some globals; _ } : shared) -> t.globals <- globals
    | Some ({ s_globals = None; _ } as s) ->
      let globals =
        List.map
          (fun (_, addr, size, writable) ->
            let cap = Cap_table.register t.cap_table ~writable ~base:addr ~size in
            (addr, size, cap.Capability.pid))
          (Os.Process.symbols proc)
      in
      let arr = Array.of_list (List.sort compare globals) in
      s.s_globals <- Some arr;
      t.globals <- arr
    | None ->
      let globals =
        List.map
          (fun (_, addr, size, writable) ->
            let cap = Cap_table.register t.cap_table ~writable ~base:addr ~size in
            (addr, size, cap.Capability.pid))
          (Os.Process.symbols proc)
      in
      t.globals <- Array.of_list (List.sort compare globals)
  end;
  t

let attach_checker t checker = t.checker <- Some checker
let checker t = t.checker
let set_on_check t f = t.on_check <- f
let variant t = t.variant
let cap_table t = t.cap_table
let tracker t = t.tracker
let alias_table t = t.alias_table
let rules t = t.rules
let predictor t = t.predictor

(* Shadow storage consumed by the capability and alias tables (Fig 9);
   the insecure baseline maintains none. *)
let shadow_storage_bytes t =
  if not (Variant.protects t.variant) then 0
  else Cap_table.storage_bytes t.cap_table + Alias_table.storage_bytes t.alias_table

(* PID of the global object containing [addr], or 0. *)
let global_pid_of t addr =
  let arr = t.globals in
  let n = Array.length arr in
  let rec bsearch lo hi =
    if lo >= hi then lo - 1
    else
      let mid = (lo + hi) / 2 in
      let a, _, _ = arr.(mid) in
      if a <= addr then bsearch (mid + 1) hi else bsearch lo mid
  in
  let i = bsearch 0 n in
  if i < 0 then 0
  else
    let a, size, pid = arr.(i) in
    if addr >= a && addr < a + size then pid else 0

let protects t = Variant.protects t.variant

(* PID guarding a memory operand: the base register's tag, or — for
   absolute addressing — the global object's capability (the
   constant-pool path of Section VII-B). *)
let mem_pid t (m : Insn.mem) =
  match m.base with
  | Some r -> Tracker.reg_pid t.tracker r
  | None -> global_pid_of t m.disp

(* --- prediction FIFO (int ring) ------------------------------------------ *)

let pq_grow t =
  let cap = Array.length t.pq_pc in
  let pc' = Array.make (2 * cap) 0 and pid' = Array.make (2 * cap) 0 in
  for i = 0 to t.pq_tail - t.pq_head - 1 do
    pc'.(i) <- t.pq_pc.((t.pq_head + i) land (cap - 1));
    pid'.(i) <- t.pq_pid.((t.pq_head + i) land (cap - 1))
  done;
  t.pq_tail <- t.pq_tail - t.pq_head;
  t.pq_head <- 0;
  t.pq_pc <- pc';
  t.pq_pid <- pid'

let pq_push t pc pid =
  let cap = Array.length t.pq_pc in
  if t.pq_tail - t.pq_head >= cap then pq_grow t;
  let m = Array.length t.pq_pc - 1 in
  t.pq_pc.(t.pq_tail land m) <- pc;
  t.pq_pid.(t.pq_tail land m) <- pid;
  t.pq_tail <- t.pq_tail + 1

let pq_is_empty t = t.pq_head = t.pq_tail

(* Callers check [pq_is_empty] first, as [Queue.pop] callers did. *)
let pq_pop_pc t = t.pq_pc.(t.pq_head land (Array.length t.pq_pc - 1))

let pq_pop_pid t =
  let pid = t.pq_pid.(t.pq_head land (Array.length t.pq_pid - 1)) in
  t.pq_head <- t.pq_head + 1;
  pid

(* --- decode-time: rule propagation -------------------------------------- *)

let tracked_load_dst width = function
  | (Uop.Greg _ | Uop.Tmp _) when width = Insn.W64 -> true
  | _ -> false

(* Per-micro-op, so deliberately allocation-free: [Tracker.assign] is the
   lock-step set+commit, destinations are matched directly (same cases as
   [Uop.writes]) and source PIDs read without an intermediate closure. *)
let apply_rule t pc (uop : Uop.t) =
  let tr = t.tracker in
  let seq = Tracker.next_seq tr in
  (match Rules.action_for t.rules uop with
  | Rules.Copy_src -> (
    match uop with
    | Mov { dst; src } -> Tracker.assign tr dst ~seq ~pid:(Tracker.current_pid tr src)
    | Lea { dst; mem } ->
      let pid =
        match mem.base with
        | Some b -> Tracker.reg_pid tr b
        | None -> global_pid_of t mem.disp
      in
      Tracker.assign tr dst ~seq ~pid
    | _ -> ())
  | Rules.Copy_first -> (
    match uop with
    | Alu { dst; src1; _ } ->
      Tracker.assign tr dst ~seq ~pid:(Tracker.current_pid tr src1)
    | _ -> ())
  | Rules.Nonzero_of_sources -> (
    match uop with
    | Alu { dst; src1; src2 = Uop.Loc s2; _ } ->
      Tracker.assign tr dst ~seq
        ~pid:
          (Rules.combine_nonzero (Tracker.current_pid tr src1)
             (Tracker.current_pid tr s2))
    | Alu { dst; src1; src2 = Uop.Imm _; _ } ->
      Tracker.assign tr dst ~seq ~pid:(Tracker.current_pid tr src1)
    | _ -> ())
  | Rules.From_memory -> (
    match uop with
    | Load { dst; width; _ } when tracked_load_dst width dst ->
      let predicted = Alias_predictor.predict t.predictor pc in
      Tracker.assign tr dst ~seq ~pid:predicted;
      pq_push t pc predicted
    | Load { dst; _ } -> Tracker.assign tr dst ~seq ~pid:0
    | _ -> ())
  | Rules.To_memory -> ()  (* alias spill handled at execute *)
  | Rules.Wild -> (
    match uop with
    | Limm { dst; _ } -> Tracker.assign tr dst ~seq ~pid:(-1)
    | _ -> ())
  | Rules.Clear -> (
    match uop with
    | Mov { dst; _ }
    | Limm { dst; _ }
    | Alu { dst; _ }
    | Lea { dst; _ }
    | Load { dst; _ }
    | Fp { dst; _ }
    | Cvt { dst; _ } ->
      Tracker.assign tr dst ~seq ~pid:0
    | Store _ | Cmp _ | Branch _ | Cap _ | Guard _ | Nop -> ()));
  if Tracker.has_transients tr then Tracker.commit_upto tr ~seq

(* --- decode-time: check injection ---------------------------------------- *)

let checks_for_mem t pc mem width ~is_store =
  let in_scope = Variant.in_scope t.variant pc in
  (
    match t.variant.Variant.scheme with
    | Variant.Insecure -> []
    | Variant.Hardware_only ->
      (* No injection; the LSU checks as part of the memory micro-op. *)
      Queue.push (mem_pid t mem, is_store) t.lsu_checks;
      []
    | Variant.Binary_translation ->
      if in_scope then begin
        (* Capture the PID at decode: the rule update for this very
           micro-op may retag the base register (pointer chase). *)
        Queue.push (mem_pid t mem, is_store) t.lsu_checks;
        [
          Uop.Guard { kind = Uop.Bt_bounds_low; mem; width; is_store };
          Uop.Guard { kind = Uop.Bt_bounds_high; mem; width; is_store };
        ]
      end
      else []
    | Variant.Microcode_always_on ->
      if in_scope then [ Uop.Cap (Uop.Cap_check { pid = mem_pid t mem; mem; width; is_store }) ]
      else []
    | Variant.Microcode_prediction ->
      let pid = mem_pid t mem in
      if in_scope && pid <> 0 then
        [ Uop.Cap (Uop.Cap_check { pid; mem; width; is_store }) ]
      else [])

(* Matched directly (not via [Uop.mem_operand]) so non-memory micro-ops
   pay nothing. *)
let checks_for t pc (uop : Uop.t) =
  match uop with
  | Uop.Load { mem; width; _ } -> checks_for_mem t pc mem width ~is_store:false
  | Uop.Store { mem; width; _ } -> checks_for_mem t pc mem width ~is_store:true
  | _ -> []

(* --- decode-time: heap-function interception ----------------------------- *)

let stub_injection t (ctx : Machine.Hooks.ctx) =
  match ctx.stub with
  | None -> []
  | Some (_, Machine.Hooks.Entry) -> (
    match Os.Msrs.lookup_entry t.msrs ctx.pc with
    | None -> []
    | Some reg -> (
      match reg.Os.Msrs.kind with
      | Os.Msrs.Malloc | Os.Msrs.Calloc | Os.Msrs.Realloc -> [ Uop.Cap Uop.Cap_gen_begin ]
      | Os.Msrs.Free ->
        let pid = Tracker.current_pid t.tracker (Uop.Greg Reg.RDI) in
        [ Uop.Cap (Uop.Cap_free_begin { pid }) ]))
  | Some (_, Machine.Hooks.Exit) -> (
    match Os.Msrs.lookup_exit t.msrs ctx.pc with
    | None -> []
    | Some reg -> (
      match reg.Os.Msrs.kind with
      | Os.Msrs.Malloc | Os.Msrs.Calloc | Os.Msrs.Realloc -> [ Uop.Cap Uop.Cap_gen_end ]
      | Os.Msrs.Free ->
        let pid = match t.pending_free with Some pid -> pid | None -> 0 in
        [ Uop.Cap (Uop.Cap_free_end { pid }) ]))

(* --- decode-time: memoized check injection (microcode schemes) ----------- *)

(* Interleaved capture+rules walk: each memory micro-op's decode-time PID
   is captured into [t.memo_pids] {e before} its own rule runs (the rule
   may retag the base register), exactly mirroring the generic path's
   [checks_for]-then-[apply_rule] order.  Returns the memory-micro-op
   count.  Top-level recursion: no closure per step. *)
let rec capture_walk t pc uops k =
  match uops with
  | [] -> k
  | uop :: rest ->
    let k =
      match uop with
      | Uop.Load { mem; _ } | Uop.Store { mem; _ } ->
        t.memo_pids.(k) <- mem_pid t mem;
        k + 1
      | _ -> k
    in
    apply_rule t pc uop;
    capture_walk t pc rest k

let rec pids_equal (pids : int array) (scratch : int array) n i =
  if i >= n then true else pids.(i) = scratch.(i) && pids_equal pids scratch n (i + 1)

(* Under prediction only nonzero PIDs inject; always-on checks every
   in-scope memory micro-op. *)
let rec needs_check t n i =
  if i >= n then false
  else if (not t.is_prediction) || t.memo_pids.(i) <> 0 then true
  else needs_check t n (i + 1)

(* Rebuild the spliced list from the captured PIDs; each check precedes
   its memory micro-op, as in the generic splice. *)
let rec rebuild_checks t scratch k uops =
  match uops with
  | [] -> []
  | uop :: rest -> (
    match uop with
    | Uop.Load { mem; width; _ } ->
      let pid = scratch.(k) in
      let rest' = rebuild_checks t scratch (k + 1) rest in
      if (not t.is_prediction) || pid <> 0 then
        Uop.Cap (Uop.Cap_check { pid; mem; width; is_store = false }) :: uop :: rest'
      else uop :: rest'
    | Uop.Store { mem; width; _ } ->
      let pid = scratch.(k) in
      let rest' = rebuild_checks t scratch (k + 1) rest in
      if (not t.is_prediction) || pid <> 0 then
        Uop.Cap (Uop.Cap_check { pid; mem; width; is_store = true }) :: uop :: rest'
      else uop :: rest'
    | _ -> uop :: rebuild_checks t scratch k rest)

let build_injected t pc uops n =
  if n = 0 || not (Variant.in_scope t.variant pc) || not (needs_check t n 0) then uops
  else rebuild_checks t t.memo_pids 0 uops

(* Same splice shape iff every site keeps its inject-or-not decision:
   always the case under always-on; under prediction a PID flipping
   between zero and nonzero changes the shape. *)
let rec same_shape t (old_pids : int array) (scratch : int array) n i =
  if i >= n then true
  else
    ((not t.is_prediction) || (old_pids.(i) <> 0) = (scratch.(i) <> 0))
    && same_shape t old_pids scratch n (i + 1)

(* Re-tag a memoized spliced list in place: each [Cap_check] precedes
   its memory micro-op and [Cap_check.pid] is mutable for exactly this.
   [k] counts memory micro-ops, matching the capture walk. *)
let rec patch_checks (scratch : int array) k uops =
  match uops with
  | [] -> ()
  | Uop.Cap (Uop.Cap_check r) :: rest -> (
    r.pid <- scratch.(k);
    match rest with _mem :: rest' -> patch_checks scratch (k + 1) rest' | [] -> ())
  | (Uop.Load _ | Uop.Store _) :: rest -> patch_checks scratch (k + 1) rest
  | _ :: rest -> patch_checks scratch k rest

(* Fast path for the microcode schemes (non-stub steps): the spliced
   crack is fully determined by (pc, captured PIDs), so it is memoized
   per site and reused while the PIDs repeat — the common case.  The
   rules walk still runs every step; the memo-hit path allocates
   nothing. *)
let instrument_microcode t (ctx : Machine.Hooks.ctx) uops =
  let pc = ctx.pc in
  let n = capture_walk t pc uops 0 in
  let i = Mem.Intmap.find t.inject_memo pc ~default:(-1) in
  if i >= 0 then begin
    let memo = t.memo_tbl.(i) in
    if not (pids_equal memo.m_pids t.memo_pids n 0) then begin
      if same_shape t memo.m_pids t.memo_pids n 0 then
        patch_checks t.memo_pids 0 memo.m_uops
      else memo.m_uops <- build_injected t pc uops n;
      Array.blit t.memo_pids 0 memo.m_pids 0 n
    end;
    memo.m_uops
  end
  else begin
    let memo = { m_pids = Array.sub t.memo_pids 0 n; m_uops = build_injected t pc uops n } in
    let i = t.memo_n in
    if i >= Array.length t.memo_tbl then begin
      let tbl = Array.make (if i = 0 then 256 else 2 * i) memo in
      Array.blit t.memo_tbl 0 tbl 0 i;
      t.memo_tbl <- tbl
    end;
    t.memo_tbl.(i) <- memo;
    t.memo_n <- i + 1;
    Mem.Intmap.set t.inject_memo pc i;
    memo.m_uops
  end

let instrument t (ctx : Machine.Hooks.ctx) uops =
  if not (protects t) then uops
  else
    match ctx.stub with
    | None when t.is_microcode -> instrument_microcode t ctx uops
    | _ ->
  begin
    (* Binary translation: charge a one-time translation cost per newly
       seen macro-op address. *)
    if t.is_bt && not (Mem.Intset.mem t.bt_translated ctx.pc) then begin
      Mem.Intset.add t.bt_translated ctx.pc;
      t.pending_bt_cost <- t.pending_bt_cost + t.variant.Variant.bt_translation_cycles;
      Chex86_stats.Counter.incr_handle t.counters t.h_bt_translated
    end;
    let pre = stub_injection t ctx in
    (* Single interleaved pass: rules always run in place; the crack is
       only rebuilt when check micro-ops actually get spliced in (rare
       under the prediction scheme, where most PIDs read 0), otherwise
       the memoized list is returned as-is. *)
    let injected = ref [] in
    List.iteri
      (fun i uop ->
        (match checks_for t ctx.pc uop with
        | [] -> ()
        | checks -> injected := (i, checks) :: !injected);
        apply_rule t ctx.pc uop)
      uops;
    match (pre, !injected) with
    | [], [] -> uops
    | _ ->
      let inj = List.rev !injected in
      (* Cracks are <= 8 micro-ops, so plain recursion is fine. *)
      let rec splice i inj rest =
        match rest with
        | [] -> []
        | u :: tail -> (
          match inj with
          | (j, checks) :: inj' when j = i -> checks @ (u :: splice (i + 1) inj' tail)
          | _ -> u :: splice (i + 1) inj tail)
      in
      pre @ splice 0 inj uops
  end

(* --- execute-time -------------------------------------------------------- *)

(* Shadow address spaces for the capability and alias tables: misses
   are serviced through the regular cache hierarchy, so hot shadow lines
   stay in L2 and the DRAM bandwidth impact matches the paper's
   observation that it is negligible. *)
let cap_shadow_base = 0x7FE0_0000_0000
let alias_shadow_base = 0x7FD0_0000_0000

let cap_lookup_latency t pid =
  if pid <= 0 then 1
  else if Cap_cache.access t.cap_cache pid then 1
  else
    (* Miss: fetch the 128-bit capability from the shadow table. *)
    t.variant.Variant.cap_table_latency
    + Mem.Hierarchy.access t.hier ~kind:Mem.Hierarchy.Data ~write:false
        (cap_shadow_base + (pid * 16))

let do_check t ~pid ~ea ~width ~is_store =
  let latency = cap_lookup_latency t pid in
  if pid = -1 then raise (Violation.Security_violation (Wild_dereference { ea; is_store }));
  (if pid > 0 then
     match Cap_table.find t.cap_table pid with
     | None -> ()
     | Some cap ->
       if not cap.Capability.busy then begin
         if not cap.Capability.valid then
           raise (Violation.Security_violation (Use_after_free { pid; ea; is_store }));
         if not (Capability.contains cap ~ea ~width:(Insn.bytes_of_width width)) then
           raise
             (Violation.Security_violation
                (Out_of_bounds
                   {
                     pid;
                     ea;
                     base = cap.Capability.base;
                     size = cap.Capability.size;
                     is_store;
                   }));
         if is_store && not cap.Capability.writable then
           raise (Violation.Security_violation (Permission_denied { pid; ea; is_store }));
         if (not is_store) && not cap.Capability.readable then
           raise (Violation.Security_violation (Permission_denied { pid; ea; is_store }));
         (* Opt-in uninitialized-read extension: byte-granular
            write-before-read tracking on heap capabilities. *)
         let width_bytes = Insn.bytes_of_width width in
         if is_store then Capability.mark_initialized cap ~ea ~width:width_bytes
         else if
           t.variant.Variant.detect_uninitialized
           && not (Capability.is_initialized cap ~ea ~width:width_bytes)
         then raise (Violation.Security_violation (Uninitialized_read { pid; ea }))
       end);
  latency

(* Page-table alias-hosting bit: under SMP the authoritative bits are
   shared across cores (page-table metadata); single-core uses the TLB's
   side table. *)
let page_hosts_aliases t vpn =
  match t.shared with
  | Some s -> Mem.Intset.mem s.s_alias_pages vpn
  | None -> Mem.Tlb.page_alias_bit t.tlb vpn

(* Shadow alias lookup with the paper's three-stage filter: TLB
   alias-hosting bit, then the alias cache (+victim), then the 5-level
   table walk.  Returns the actual PID; the lookup latency and whether
   the lookup got past the filter land in [t.al_latency] and
   [t.al_alias_page]. *)
let alias_lookup t ea =
  if
    t.variant.Variant.tlb_alias_filter
    && not (page_hosts_aliases t (ea lsr Mem.Image.page_bits))
  then begin
    Chex86_stats.Counter.incr_handle t.counters t.h_tlb_filtered;
    t.al_latency <- 0;
    t.al_alias_page <- false;
    0
  end
  else if Mem.Cache.access t.alias_cache ~write:false ea then begin
    t.al_latency <- 0;
    t.al_alias_page <- true;
    Alias_table.find t.alias_table ea
  end
  else begin
    let pid = Alias_table.find t.alias_table ea in
    let line_latency =
      Mem.Hierarchy.access t.hier ~kind:Mem.Hierarchy.Data ~write:false
        (alias_shadow_base + (ea lsr 3 * 8))
    in
    t.al_latency <-
      (Alias_table.last_walk_levels t.alias_table
       * t.variant.Variant.alias_walk_latency_per_level)
      + line_latency;
    t.al_alias_page <- true;
    pid
  end

let incr t (h : Chex86_stats.Counter.handle) = Chex86_stats.Counter.incr_handle t.counters h

(* Validate the front-end prediction for a pointer-reload candidate and
   drive the Fig 5 recovery paths. *)
(* Returns the validation latency; the flush / killed-check out-params
   land in [t.vp_flush]/[t.vp_killed] (no tuple per tracked load). *)
let validate_prediction t ~pc ~ea ~dst =
  t.vp_flush <- false;
  t.vp_killed <- 0;
  let predicted =
    if pq_is_empty t then begin
      incr t t.h_queue_empty;
      0
    end
    else begin
      let qpc = pq_pop_pc t in
      let p = pq_pop_pid t in
      if qpc = pc then p
      else begin
        incr t t.h_queue_mismatch;
        0
      end
    end
  in
  let actual = alias_lookup t ea in
  let latency = t.al_latency and alias_page = t.al_alias_page in
  Alias_predictor.update t.predictor pc ~alias_page ~actual;
  Tracker.force_pid t.tracker dst actual;
  let is_prediction_scheme = t.is_prediction in
  if alias_page then incr t t.h_pred_events;
  if predicted = actual then begin
    if alias_page then incr t t.h_pred_correct;
    if actual <> 0 then incr t t.h_pred_reloads;
    latency
  end
  else begin
    if predicted <> 0 && actual = 0 then begin
      (* PNA0: the injected check downstream becomes a zero-idiom. *)
      incr t t.h_pred_pna0;
      if is_prediction_scheme then t.vp_killed <- 1
    end
    else if predicted = 0 && actual <> 0 then begin
      (* P0AN: flush and refetch with the right checks injected. *)
      incr t t.h_pred_p0an;
      t.vp_flush <- is_prediction_scheme
    end
    else
      (* PMAN: forward the corrected PID, no flush. *)
      incr t t.h_pred_pman;
    latency
  end

(* Record a spilled pointer alias for a committed store (rule ST). *)
let record_spill t ~ea ~pid =
  if pid > 0 then begin
    Alias_table.set t.alias_table ea pid;
    (match t.shared with
    | Some s ->
      Mem.Intset.add s.s_alias_pages (ea lsr Mem.Image.page_bits);
      (* Alias-cache coherence: invalidate the granule in other cores. *)
      ignore (Bus.broadcast s.s_bus ~from_core:t.core (Bus.Alias_invalidate ea))
    | None -> ());
    Mem.Tlb.set_alias_hosting t.tlb ea;
    ignore (Mem.Cache.access t.alias_cache ~write:true ea);
    incr t t.h_spills
  end
  else if
    page_hosts_aliases t (ea lsr Mem.Image.page_bits)
    && Alias_table.find t.alias_table ea <> 0
  then begin
    (* Overwriting a spilled pointer with data kills the alias. *)
    Alias_table.set t.alias_table ea 0;
    match t.shared with
    | Some s -> ignore (Bus.broadcast s.s_bus ~from_core:t.core (Bus.Alias_invalidate ea))
    | None -> ()
  end

let run_checker t ~pc ~uop ~result ~dst =
  match t.checker with
  | None -> ()
  | Some checker ->
    if result <> Machine.Hooks.no_result then
      Checker.check checker ~pc ~uop ~result
        ~predicted:(Tracker.current_pid t.tracker dst)

let alloc_size_of_kind (ctx : Machine.Hooks.ctx) = function
  | Os.Msrs.Malloc -> ctx.read_reg Reg.RDI
  | Os.Msrs.Calloc -> ctx.read_reg Reg.RDI * ctx.read_reg Reg.RSI
  | Os.Msrs.Realloc -> ctx.read_reg Reg.RSI
  | Os.Msrs.Free -> 0

let exec_uop t (ctx : Machine.Hooks.ctx) (uop : Uop.t) ~ea ~result =
  if not (protects t) then Machine.Hooks.no_reaction
  else begin
    let bt_cost = t.pending_bt_cost in
    t.pending_bt_cost <- 0;
    let reaction =
      match uop with
      | Cap Cap_gen_begin -> (
        match ctx.stub with
        | Some _ -> (
          match Os.Msrs.lookup_entry t.msrs ctx.pc with
          | None -> Machine.Hooks.no_reaction
          | Some reg ->
            let size = alloc_size_of_kind ctx reg.Os.Msrs.kind in
            if size > t.variant.Variant.max_alloc_bytes then
              raise
                (Violation.Security_violation
                   (Resource_exhaustion
                      { requested = size; limit = t.variant.Variant.max_alloc_bytes }));
            let realloc_old =
              match reg.Os.Msrs.kind with
              | Os.Msrs.Realloc -> Tracker.current_pid t.tracker (Uop.Greg Reg.RDI)
              | _ -> 0
            in
            let cap = Cap_table.fresh t.cap_table ~size:(max size 0) in
            if t.variant.Variant.detect_uninitialized then
              (* calloc returns zeroed memory; realloc copies the old
                 payload — both conservatively start initialized. *)
              Capability.track_initialization
                ~initialized:
                  (match reg.Os.Msrs.kind with
                  | Os.Msrs.Calloc | Os.Msrs.Realloc -> true
                  | Os.Msrs.Malloc | Os.Msrs.Free -> false)
                cap;
            t.pending_alloc <-
              Some { pid = cap.Capability.pid; kind = reg.Os.Msrs.kind; realloc_old };
            Machine.Hooks.take t.rpool ~extra_latency:2 ~commit_latency:0 ~flush:false
              ~killed_uops:0)
        | None -> Machine.Hooks.no_reaction)
      | Cap Cap_gen_end -> (
        match t.pending_alloc with
        | None -> Machine.Hooks.no_reaction
        | Some { pid; kind; realloc_old } ->
          let base = ctx.read_reg Reg.RAX in
          Cap_table.finalize t.cap_table pid ~base;
          if base <> 0 then begin
            Tracker.force_pid t.tracker (Uop.Greg Reg.RAX) pid;
            if kind = Os.Msrs.Realloc && realloc_old > 0 then begin
              Cap_table.end_free t.cap_table realloc_old;
              Cap_cache.invalidate t.cap_cache realloc_old
            end
          end;
          incr t t.h_cap_generated;
          t.pending_alloc <- None;
          Machine.Hooks.take t.rpool ~extra_latency:2 ~commit_latency:0 ~flush:false
            ~killed_uops:0)
      | Cap (Cap_free_begin { pid }) ->
        let addr = ctx.read_reg Reg.RDI in
        if addr = 0 then begin
          (* free(NULL) is benign. *)
          t.pending_free <- None;
          Machine.Hooks.no_reaction
        end
        else begin
          let latency = cap_lookup_latency t pid in
          if pid <= 0 then
            raise (Violation.Security_violation (Invalid_free { pid; addr }));
          (match Cap_table.find t.cap_table pid with
          | None -> raise (Violation.Security_violation (Invalid_free { pid; addr }))
          | Some cap ->
            if not cap.Capability.valid then
              raise (Violation.Security_violation (Double_free { pid; addr }));
            if cap.Capability.base <> addr then
              raise (Violation.Security_violation (Invalid_free { pid; addr }));
            Cap_table.begin_free t.cap_table pid);
          t.pending_free <- Some pid;
          Machine.Hooks.take t.rpool ~extra_latency:0 ~commit_latency:latency ~flush:false
            ~killed_uops:0
        end
      | Cap (Cap_free_end _) ->
        let bus_cost = ref 0 in
        (match t.pending_free with
        | Some pid ->
          Cap_table.end_free t.cap_table pid;
          Cap_cache.invalidate t.cap_cache pid;
          (* SMP: reset the capability in every other core's cache; sent
             once per free thanks to unforgeability (Section IV-C). *)
          (match t.shared with
          | Some s ->
            bus_cost := 2 * Bus.broadcast s.s_bus ~from_core:t.core (Bus.Cap_invalidate pid)
          | None -> ());
          incr t t.h_cap_freed
        | None -> ());
        t.pending_free <- None;
        Machine.Hooks.take t.rpool ~extra_latency:0 ~commit_latency:!bus_cost ~flush:false
          ~killed_uops:0
      | Cap (Cap_check { pid; width; is_store; _ }) ->
        let latency = do_check t ~pid ~ea ~width ~is_store in
        incr t t.h_cap_checks;
        t.on_check ~pc:ctx.pc ~pid ~is_store;
        Machine.Hooks.take t.rpool ~extra_latency:0 ~commit_latency:latency ~flush:false
          ~killed_uops:0
      | Guard { kind = Uop.Bt_bounds_low; width; _ } ->
        let pid, is_store =
          match Queue.take_opt t.lsu_checks with Some x -> x | None -> (0, false)
        in
        let latency = do_check t ~pid ~ea ~width ~is_store in
        incr t t.h_cap_checks;
        Machine.Hooks.take t.rpool ~extra_latency:0 ~commit_latency:latency ~flush:false
          ~killed_uops:0
      | Guard _ -> Machine.Hooks.no_reaction
      | Load { dst; width; _ } ->
        let lsu_latency =
          if t.is_hw_only then begin
            match Queue.take_opt t.lsu_checks with
            | Some (pid, is_store) ->
              incr t t.h_cap_checks;
              do_check t ~pid ~ea ~width ~is_store
            | None -> 0
          end
          else 0
        in
        if tracked_load_dst width dst then begin
          let latency = validate_prediction t ~pc:ctx.pc ~ea ~dst in
          run_checker t ~pc:ctx.pc ~uop ~result ~dst;
          Machine.Hooks.take t.rpool
            ~extra_latency:(if lsu_latency > 0 then 1 else 0)
            ~commit_latency:(latency + lsu_latency) ~flush:t.vp_flush
            ~killed_uops:t.vp_killed
        end
        else begin
          run_checker t ~pc:ctx.pc ~uop ~result ~dst;
          Machine.Hooks.take t.rpool
            ~extra_latency:(if lsu_latency > 0 then 1 else 0)
            ~commit_latency:lsu_latency ~flush:false ~killed_uops:0
        end
      | Store { src; width; _ } ->
        let lsu_latency =
          if t.is_hw_only then begin
            match Queue.take_opt t.lsu_checks with
            | Some (pid, is_store) ->
              incr t t.h_cap_checks;
              do_check t ~pid ~ea ~width ~is_store
            | None -> 0
          end
          else 0
        in
        if width = Insn.W64 then begin
          let pid =
            match src with
            | Uop.Loc ((Uop.Greg _ | Uop.Tmp _) as l) -> Tracker.current_pid t.tracker l
            | Uop.Loc (Uop.Xreg _) | Uop.Imm _ -> 0
          in
          record_spill t ~ea ~pid
        end;
        Machine.Hooks.take t.rpool ~extra_latency:0 ~commit_latency:lsu_latency ~flush:false
          ~killed_uops:0
      | uop ->
        (* [Uop.writes] boxes its answer, so only consult it when a
           checker is actually attached (validation runs only). *)
        (match t.checker with
        | None -> ()
        | Some _ -> (
          match Uop.writes uop with
          | Some dst -> run_checker t ~pc:ctx.pc ~uop ~result ~dst
          | None -> ()));
        Machine.Hooks.no_reaction
    in
    if bt_cost = 0 then reaction
    else
      Machine.Hooks.take t.rpool
        ~extra_latency:(reaction.Machine.Hooks.extra_latency + bt_cost)
        ~commit_latency:reaction.Machine.Hooks.commit_latency
        ~flush:reaction.Machine.Hooks.flush
        ~killed_uops:reaction.Machine.Hooks.killed_uops
  end

(* Install this monitor's behaviour into a hook record shared with the
   engine. *)
let install t (hooks : Machine.Hooks.t) =
  hooks.instrument <- instrument t;
  hooks.exec_uop <- exec_uop t;
  (* The insecure scheme leaves the hooks inactive: both callbacks are
     no-ops for it, and the flag lets the engine skip the calls. *)
  if protects t then hooks.active <- true
