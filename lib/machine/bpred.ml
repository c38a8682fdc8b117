(* LTAGE-style branch predictor, BTB and return-address stack.

   A bimodal base table plus three tagged tables indexed with
   geometrically increasing global-history lengths; the longest-history
   hit provides the prediction (TAGE's "provider"), with a simple
   allocate-on-mispredict policy.  Direction prediction drives the
   squash accounting in the timing model; target prediction uses the BTB
   for computed branches and the RAS for returns. *)

(* Pre-resolved outcome counters: [resolve] runs once per branch and
   must not hash strings.  A record of their own so a machine can list
   them (at zero) before it builds any predictor table. *)
type handles = {
  h_cond_correct : Chex86_stats.Counter.handle;
  h_cond_mispredict : Chex86_stats.Counter.handle;
  h_ras_correct : Chex86_stats.Counter.handle;
  h_ras_mispredict : Chex86_stats.Counter.handle;
  h_btb_correct : Chex86_stats.Counter.handle;
  h_btb_mispredict : Chex86_stats.Counter.handle;
}

let handles counters =
  let h = Chex86_stats.Counter.handle counters in
  {
    h_cond_correct = h "bpred.cond_correct";
    h_cond_mispredict = h "bpred.cond_mispredict";
    h_ras_correct = h "bpred.ras_correct";
    h_ras_mispredict = h "bpred.ras_mispredict";
    h_btb_correct = h "bpred.btb_correct";
    h_btb_mispredict = h "bpred.btb_mispredict";
  }

let register_counters counters = ignore (handles counters)

type t = {
  bimodal : int array;  (* 2-bit counters *)
  (* The three tagged tables, packed (DESIGN.md §6): entry [j] of table
     [i] is slot [i * tagged_size + j] of [tags], [ctrs] (3-bit
     counters) and [useful] (2-bit). *)
  tags : int array;
  ctrs : int array;
  useful : int array;
  history_lengths : int array;
  mutable ghist : int;  (* global history, newest outcome in bit 0 *)
  btb : int array;  (* pc -> target *)
  btb_tags : int array;
  ras : int array;
  mutable ras_top : int;
  counters : Chex86_stats.Counter.group;
  h : handles;
}

let bimodal_bits = 13
let tagged_bits = 10
let tagged_size = 1 lsl tagged_bits
let tag_bits = 9

let create counters =
  {
    bimodal = Array.make (1 lsl bimodal_bits) 2;
    tags = Array.make (3 * tagged_size) (-1);
    ctrs = Array.make (3 * tagged_size) 4;
    useful = Array.make (3 * tagged_size) 0;
    history_lengths = [| 5; 15; 44 |];
    ghist = 0;
    btb = Array.make 4096 0;
    btb_tags = Array.make 4096 (-1);
    ras = Array.make 64 0;
    ras_top = 0;
    counters;
    h = handles counters;
  }

(* Top-level recursion (DESIGN.md hot-path rules): an inner [rec]
   capturing [bits] allocates a closure on each of the up-to-six
   history folds per branch without flambda. *)
let rec fold_bits h bits acc =
  if h = 0 then acc else fold_bits (h lsr bits) bits (acc lxor (h land ((1 lsl bits) - 1)))

let fold_history ghist len bits = fold_bits (ghist land ((1 lsl len) - 1)) bits 0

(* Slot of table [i]'s entry for [pc] in the packed arrays. *)
let tagged_index t i pc =
  let h = fold_history t.ghist t.history_lengths.(i) tagged_bits in
  (i * tagged_size) + (((pc lsr 2) lxor h lxor (i * 0x9E37)) land (tagged_size - 1))

let tagged_tag t i pc =
  let h = fold_history t.ghist t.history_lengths.(i) tag_bits in
  ((pc lsr 4) lxor h) land ((1 lsl tag_bits) - 1)

(* Longest-history hitting table, or -1.  Int sentinel instead of the
   former [Some (i, entry)] pair: the provider is probed on every
   conditional branch (and several times per resolve), and the slot is
   recoverable from the index for the price of a re-hash. *)
let rec provider_from t pc i =
  if i < 0 then -1
  else if t.tags.(tagged_index t i pc) = tagged_tag t i pc then i
  else provider_from t pc (i - 1)

let provider_index t pc = provider_from t pc 2

let predict_direction t pc =
  let p = provider_index t pc in
  if p >= 0 then t.ctrs.(tagged_index t p pc) >= 4
  else t.bimodal.((pc lsr 2) land ((1 lsl bimodal_bits) - 1)) >= 2

(* Int-specialized: [Stdlib.max]/[min] are generic-compare calls without
   flambda, and this runs several times per resolved branch. *)
let clamp (v : int) (lo : int) (hi : int) = if v < lo then lo else if v > hi then hi else v

(* Allocate a longer-history entry on misprediction (TAGE's
   decrement-useful-and-retry walk). *)
let rec alloc_entry t pc taken i =
  if i <= 2 then begin
    let e = tagged_index t i pc in
    if t.useful.(e) = 0 then begin
      t.tags.(e) <- tagged_tag t i pc;
      t.ctrs.(e) <- (if taken then 4 else 3)
    end
    else begin
      t.useful.(e) <- t.useful.(e) - 1;
      alloc_entry t pc taken (i + 1)
    end
  end

(* The provider is computed once up front: none of the updates below
   change any tag before it is re-used ([alloc_entry] rewrites tags but
   runs last on its branch), and [ghist] — which the provider hash
   depends on — is only shifted at the very end. *)
let update_direction t pc ~taken =
  let p = provider_index t pc in
  let predicted =
    if p >= 0 then t.ctrs.(tagged_index t p pc) >= 4
    else t.bimodal.((pc lsr 2) land ((1 lsl bimodal_bits) - 1)) >= 2
  in
  (if p >= 0 then begin
     let e = tagged_index t p pc in
     t.ctrs.(e) <- clamp (t.ctrs.(e) + if taken then 1 else -1) 0 7
   end
   else begin
     let idx = (pc lsr 2) land ((1 lsl bimodal_bits) - 1) in
     t.bimodal.(idx) <- clamp (t.bimodal.(idx) + if taken then 1 else -1) 0 3
   end);
  if predicted <> taken then alloc_entry t pc taken (p + 1)
  else if p >= 0 then begin
    let e = tagged_index t p pc in
    t.useful.(e) <- clamp (t.useful.(e) + 1) 0 3
  end;
  t.ghist <- ((t.ghist lsl 1) lor if taken then 1 else 0) land ((1 lsl 60) - 1);
  predicted = taken

let btb_lookup t pc =
  let idx = (pc lsr 2) land 4095 in
  if t.btb_tags.(idx) = pc then Some t.btb.(idx) else None

let btb_update t pc target =
  let idx = (pc lsr 2) land 4095 in
  t.btb_tags.(idx) <- pc;
  t.btb.(idx) <- target

let ras_push t addr =
  t.ras.(t.ras_top land 63) <- addr;
  t.ras_top <- t.ras_top + 1

let ras_pop t =
  if t.ras_top = 0 then 0
  else begin
    t.ras_top <- t.ras_top - 1;
    t.ras.(t.ras_top land 63)
  end

(* [resolve t ~pc ~kind ~taken ~target] returns whether the front-end
   prediction (direction and target) was correct, updating all state. *)
let resolve t ~pc ~kind ~taken ~target =
  let open Chex86_isa.Uop in
  match kind with
  | Cond _ ->
    let ok = update_direction t pc ~taken in
    Chex86_stats.Counter.incr_handle t.counters
      (if ok then t.h.h_cond_correct else t.h.h_cond_mispredict);
    ok
  | Jump -> true  (* direct unconditional: decoded target, always correct *)
  | Call ->
    ras_push t (pc + 4);
    true
  | Ret ->
    let predicted = ras_pop t in
    let ok = predicted = target in
    Chex86_stats.Counter.incr_handle t.counters
      (if ok then t.h.h_ras_correct else t.h.h_ras_mispredict);
    ok
  | Indirect ->
    (* Inline BTB probe: no [option] on the per-branch path. *)
    let idx = (pc lsr 2) land 4095 in
    let ok = t.btb_tags.(idx) = pc && t.btb.(idx) = target in
    btb_update t pc target;
    Chex86_stats.Counter.incr_handle t.counters
      (if ok then t.h.h_btb_correct else t.h.h_btb_mispredict);
    ok
