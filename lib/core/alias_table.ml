(* 5-level hierarchical shadow alias table (Section V-C).

   Maps the virtual address of every 8-byte granule hosting a spilled
   pointer to the PID of that pointer.  Like the in-memory page table it
   is a radix structure traversed by a hardware walker; unlike page-table
   entries, the lowest level holds PIDs, not physical page numbers.

   45 granule-address bits are consumed 9 at a time: four levels of
   pointer nodes and one leaf level of PID arrays.  Storage is accounted
   per allocated 512-entry node (4 KB each), which is what makes the
   paper's claim that shadow overhead scales with the number of
   *references* rather than the number of words in memory measurable in
   Fig 9. *)

type node = Interior of node option array | Leaf of int array

let fanout = 512
let levels = 5

type t = {
  mutable root : node option array;
  mutable nodes : int;  (* allocated nodes, for storage accounting *)
  mutable walked : int;  (* levels the last [find] walked *)
  counters : Chex86_stats.Counter.group;
  h_updates : Chex86_stats.Counter.handle;
  h_walks : Chex86_stats.Counter.handle;
}

let create counters =
  {
    root = Array.make fanout None;
    nodes = 1;
    walked = 0;
    counters;
    h_updates = Chex86_stats.Counter.handle counters "aliastable.updates";
    h_walks = Chex86_stats.Counter.handle counters "aliastable.walks";
  }

let index_at addr level =
  (* level 0 is the root; granule address = addr lsr 3, 45 bits. *)
  let granule = addr lsr 3 in
  (granule lsr ((levels - 1 - level) * 9)) land (fanout - 1)

(* [set t addr pid] installs/overwrites the PID for the granule of
   [addr]; pid 0 clears. Missing intermediate nodes are allocated only on
   non-zero installs. *)
let rec set_level t arr addr level pid =
  let idx = index_at addr level in
  if level = levels - 2 then begin
    match arr.(idx) with
    | Some (Leaf leaf) -> leaf.(index_at addr (levels - 1)) <- pid
    | Some (Interior _) -> assert false
    | None ->
      if pid <> 0 then begin
        let leaf = Array.make fanout 0 in
        t.nodes <- t.nodes + 1;
        leaf.(index_at addr (levels - 1)) <- pid;
        arr.(idx) <- Some (Leaf leaf)
      end
  end
  else begin
    match arr.(idx) with
    | Some (Interior child) -> set_level t child addr (level + 1) pid
    | Some (Leaf _) -> assert false
    | None ->
      if pid <> 0 then begin
        let child = Array.make fanout None in
        t.nodes <- t.nodes + 1;
        arr.(idx) <- Some (Interior child);
        set_level t child addr (level + 1) pid
      end
  end

let set t addr pid =
  Chex86_stats.Counter.incr_handle t.counters t.h_updates;
  set_level t t.root addr 0 pid

(* The walk behind [find]: the PID, with the depth reached left in
   [t.walked].  Top-level recursion, so a walk allocates nothing. *)
let rec walk t arr addr level =
  match arr.(index_at addr level) with
  | None ->
    t.walked <- level + 1;
    0
  | Some (Leaf leaf) ->
    t.walked <- level + 2;
    leaf.(index_at addr (levels - 1))
  | Some (Interior child) -> walk t child addr (level + 1)

let find t addr =
  Chex86_stats.Counter.incr_handle t.counters t.h_walks;
  walk t t.root addr 0

let last_walk_levels t = t.walked

let get t addr =
  let pid = find t addr in
  (pid, t.walked)

(* Shadow storage: each radix node is one 4 KB page (512 x 8 bytes). *)
let storage_bytes t = t.nodes * 4096

let entries t =
  let rec count arr =
    Array.fold_left
      (fun acc slot ->
        match slot with
        | None -> acc
        | Some (Leaf leaf) ->
          acc + Array.fold_left (fun a pid -> if pid <> 0 then a + 1 else a) 0 leaf
        | Some (Interior child) -> acc + count child)
      0 arr
  in
  count t.root
