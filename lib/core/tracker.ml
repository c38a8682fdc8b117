(* Speculative pointer tracker register tags (Section V-D).

   Every tracked location (16 integer registers + 2 decoder temporaries)
   carries (1) the finalized PID propagated by the last committed
   instruction and (2) a vector of transient PIDs from in-flight older
   instructions with their sequence numbers.  Capability transfers use
   the transient PID with the highest sequence number; on a squash, all
   transient PIDs younger than the offending instruction are discarded;
   on commit, transient entries drain into the finalized field.

   The in-order engine drives this in lock-step (set, then commit), but
   the transient machinery is exercised directly by the misspeculation
   tests and by the monitor's alias-misprediction recovery. *)

open Chex86_isa

let slots = Reg.count + 2

type tag = { mutable committed : int; mutable transient : (int * int) list }
(* transient: (seq, pid), newest first *)

(* [pending] counts transient entries across all tags so the lock-step
   engine path (set then immediately commit) can skip the per-tag sweep
   entirely when nothing is in flight. *)
type t = { tags : tag array; mutable seq : int; mutable pending : int }

let create () =
  { tags = Array.init slots (fun _ -> { committed = 0; transient = [] }); seq = 0; pending = 0 }

(* Slot index of a tracked location; -1 for XMM registers, which never
   hold pointers. *)
let slot_of_loc = function
  | Uop.Greg r -> Reg.index r
  | Uop.Tmp i -> Reg.count + i
  | Uop.Xreg _ -> -1

(* Fresh sequence number for the next tracked instruction. *)
let next_seq t =
  t.seq <- t.seq + 1;
  t.seq

(* Capability transfers use the youngest transient PID (the fetch stage
   runs ahead of the rest of the pipeline). *)
let slot_pid t slot =
  let tag = t.tags.(slot) in
  match tag.transient with (_, pid) :: _ -> pid | [] -> tag.committed

let current_pid t loc =
  let slot = slot_of_loc loc in
  if slot < 0 then 0 else slot_pid t slot

(* By register index: the per-memory-µop base-register read builds no
   [Uop.Greg] box. *)
let reg_pid t r = slot_pid t (Reg.index r)

let set_pid t loc ~seq ~pid =
  let slot = slot_of_loc loc in
  if slot >= 0 then begin
    let tag = t.tags.(slot) in
    tag.transient <- (seq, pid) :: tag.transient;
    t.pending <- t.pending + 1
  end

let has_transients t = t.pending > 0

(* Commit every transient entry with sequence number <= [seq]: the newest
   such entry becomes the finalized PID. *)
let commit_upto t ~seq =
  if t.pending > 0 then begin
    let remaining = ref 0 in
    Array.iter
      (fun tag ->
        let rec split kept = function
          | (s, pid) :: rest when s > seq -> split ((s, pid) :: kept) rest
          | older ->
            (match older with
            | (_, pid) :: _ -> tag.committed <- pid
            | [] -> ());
            remaining := !remaining + List.length kept;
            tag.transient <- List.rev kept
        in
        split [] tag.transient)
      t.tags;
    t.pending <- !remaining
  end

(* Squash: discard transient PIDs younger than the offending instruction
   (Fig 2's "squash transient state within the pointer tracker"). *)
let squash_after t ~seq =
  if t.pending > 0 then begin
    let remaining = ref 0 in
    Array.iter
      (fun tag ->
        tag.transient <- List.filter (fun (s, _) -> s <= seq) tag.transient;
        remaining := !remaining + List.length tag.transient)
      t.tags;
    t.pending <- !remaining
  end

(* Overwrite a location's finalized PID immediately (used by alias
   misprediction recovery to forward the corrected PID, Fig 5(e)). *)
let force_pid t loc pid =
  let slot = slot_of_loc loc in
  if slot >= 0 then begin
    let tag = t.tags.(slot) in
    tag.committed <- pid;
    t.pending <- t.pending - List.length tag.transient;
    tag.transient <- []
  end

(* The engine drives the tracker in lock-step (set, then commit the same
   sequence number); with no in-flight transients that collapses to a
   single committed-field write with no list cell allocated. *)
let assign t loc ~seq ~pid =
  let slot = slot_of_loc loc in
  if slot >= 0 then begin
    if t.pending = 0 then t.tags.(slot).committed <- pid
    else begin
      let tag = t.tags.(slot) in
      tag.transient <- (seq, pid) :: tag.transient;
      t.pending <- t.pending + 1;
      commit_upto t ~seq
    end
  end

let reset t =
  Array.iter
    (fun tag ->
      tag.committed <- 0;
      tag.transient <- [])
    t.tags;
  t.seq <- 0;
  t.pending <- 0

let pp ppf t =
  Array.iteri
    (fun i tag ->
      let pid =
        match tag.transient with (_, pid) :: _ -> pid | [] -> tag.committed
      in
      if pid <> 0 then
        let name =
          if i < Reg.count then Reg.name (Reg.of_index i)
          else Printf.sprintf "t%d" (i - Reg.count)
        in
        Format.fprintf ppf "%s=PID(%d) " name pid)
    t.tags
