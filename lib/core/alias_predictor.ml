(* Stride-based pointer-alias (pointer reload) predictor (Section V-C,
   Fig 4).

   Indexed by instruction address, not effective address: the insight of
   Section V-B is that the *temporal pattern of PIDs* accessed by a given
   load instruction is highly predictable even when its addresses are
   not.  Each entry holds the last observed PID, a PID stride, and a
   2-bit confidence ("bias") counter; a separate blacklist of 2-bit
   counters filters the vast majority of loads that reload data values
   rather than spilled pointers, preventing destructive aliasing. *)

(* Entry [i] is slot [i] of four parallel int arrays (DESIGN.md §6). *)
type t = {
  tags : int array;
  last_pids : int array;
  strides : int array;
  confs : int array;  (* 2-bit saturating *)
  blacklist : int array;  (* 2-bit saturating; saturated means "not a reload" *)
  use_stride : bool;  (* ablation: fall back to last-PID prediction *)
  use_blacklist : bool;  (* ablation: never filter *)
  counters : Chex86_stats.Counter.group;
}

let create ?(entries = 512) ?(blacklist_entries = 4096) ?(use_stride = true)
    ?(use_blacklist = true) counters =
  {
    tags = Array.make entries (-1);
    last_pids = Array.make entries 0;
    strides = Array.make entries 0;
    confs = Array.make entries 0;
    blacklist = Array.make blacklist_entries 1;
    use_stride;
    use_blacklist;
    counters;
  }

let size t = Array.length t.tags

let index t pc = (pc lsr 2) mod Array.length t.tags
let tag_of pc = pc lsr 2
let bl_index t pc = (pc lsr 2) mod Array.length t.blacklist

let blacklisted t pc = t.use_blacklist && t.blacklist.(bl_index t pc) >= 3

(* Predicted PID for the load at [pc]; 0 = "not a pointer reload".

   A tag hit means the predictor knows this PC reloads pointers, so it
   always ventures a PID (wrong PIDs recover through the cheap PMAN
   forwarding path of Fig 5(e)); the expensive P0AN flush is reserved for
   reloads it did not anticipate at all.  Low confidence falls back to
   the last observed PID without the stride. *)
let predict t pc =
  if blacklisted t pc then 0
  else begin
    let e = index t pc in
    if t.tags.(e) <> tag_of pc then 0
    else if t.use_stride && t.confs.(e) >= 2 then t.last_pids.(e) + t.strides.(e)
    else t.last_pids.(e)
  end

(* Int-specialized: [Stdlib.max]/[min] are generic-compare calls
   without flambda. *)
let clamp (v : int) = if v < 0 then 0 else if v > 3 then 3 else v

(* [alias_page] is the TLB's alias-hosting bit for the accessed page: only
   loads from pages with no spilled pointers at all train the blacklist
   (they are data-value loads); a zero PID from an alias-hosting page may
   simply be a NULL pointer or an overwritten slot and must not blacklist
   a genuine reload PC. *)
let update t pc ~alias_page ~actual =
  let bl = bl_index t pc in
  let e = index t pc in
  if actual = 0 then begin
    if not alias_page then t.blacklist.(bl) <- clamp (t.blacklist.(bl) + 1);
    if t.tags.(e) = tag_of pc then t.confs.(e) <- clamp (t.confs.(e) - 1)
  end
  else begin
    (* A pointer outcome proves the PC is a reload: reset the blacklist
       counter so occasional NULL loads cannot blacklist it (asymmetric
       training). *)
    t.blacklist.(bl) <- 0;
    if t.tags.(e) <> tag_of pc then begin
      t.tags.(e) <- tag_of pc;
      t.last_pids.(e) <- actual;
      t.strides.(e) <- 0;
      t.confs.(e) <- 1
    end
    else begin
      let predicted = t.last_pids.(e) + t.strides.(e) in
      if predicted = actual then t.confs.(e) <- clamp (t.confs.(e) + 1)
      else begin
        t.strides.(e) <- actual - t.last_pids.(e);
        t.confs.(e) <- clamp (t.confs.(e) - 1)
      end;
      t.last_pids.(e) <- actual
    end
  end
