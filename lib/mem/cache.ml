(* Generic set-associative cache model with selectable replacement.

   Used for the L1/L2 data and instruction caches, and reused (with
   [sets = 1]) for the fully associative in-processor capability cache
   and the alias victim cache of the paper.  Only tags are modelled; the
   data payload lives in the functional memory image.

   An optional victim cache catches blocks evicted from the main array,
   as in the paper's "256-entry 2-way alias cache augmented by a
   32-entry victim cache".

   Replacement is runtime-selectable per cache: true LRU (stamps),
   Tree-PLRU (a per-set bit tree packed into one int — ways must be a
   power of two), or MRU (evict the most recently touched valid way,
   the pathological point for scans that sensitivity sweeps want).

   This sits on the per-memory-access hot path of the whole simulator, so
   it follows the hot-path rules of DESIGN.md: lines store the full block
   number (no tag/index reassembly — which was also outright wrong for
   hash-indexed caches, where the set index is an XOR fold and not the
   block's low bits), way lookup and insertion speak int sentinels
   instead of [option], and hit/miss counters are bumped through
   pre-resolved handles instead of per-access string concatenation. *)

type policy = Lru | Tree_plru | Mru

let policy_name = function Lru -> "lru" | Tree_plru -> "tree-plru" | Mru -> "mru"

let policy_of_string = function
  | "lru" -> Some Lru
  | "tree-plru" | "plru" -> Some Tree_plru
  | "mru" -> Some Mru
  | _ -> None

(* Line [w] of set [s] is slot [s * ways + w] of two flat int arrays
   (DESIGN.md §6: modelled tables are flat int arrays, not arrays of
   records).  [blocks] holds the line's full block number (addr lsr
   line_bits), or -1 when the line is invalid: block numbers are never
   negative, so one compare per way tests validity and tag together.
   Storing the whole number costs nothing in a model and makes eviction
   reconstruct the block exactly, whatever the indexing function.
   [stamps] holds the clock of the line's last touch; invalidation clears
   only the block, so a stamp always records its line's last touch. *)
type t = {
  name : string;
  blocks : int array;
  stamps : int array;
  ways : int;
  set_bits : int;
  line_bits : int;
  hash_index : bool;  (* XOR-fold the block number into the set index *)
  policy : policy;
  (* Tree-PLRU state: one bit-tree per set packed into an int.  Node i's
     bit is [(plru.(set) lsr i) land 1]; 0 sends the victim walk left.
     Empty array for the other policies. *)
  plru : int array;
  victim : t option;
  counters : Chex86_stats.Counter.group;
  h_hit : Chex86_stats.Counter.handle;
  h_miss : Chex86_stats.Counter.handle;
  h_victim_hit : Chex86_stats.Counter.handle;
  mutable clock : int;
  (* Block displaced out of the cache entirely by the last [access]
     (past the victim cache when one is attached), -1 if none.  The
     hierarchy reads this to charge dirty writebacks at eviction time. *)
  mutable last_evicted : int;
}

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

let is_pow2 n = n > 0 && n land (n - 1) = 0

let create ?victim ?(hash_index = false) ?(policy = Lru) ~name ~sets ~ways
    ~line_bytes counters =
  if not (is_pow2 sets) then invalid_arg "Cache.create: sets not a power of 2";
  if ways < 1 then invalid_arg "Cache.create: ways must be >= 1";
  if not (is_pow2 line_bytes) then
    invalid_arg "Cache.create: line_bytes not a power of 2";
  (* One-byte lines would make the block number the raw address, which
     can be negative and collide with the invalid-line sentinel. *)
  if line_bytes < 2 then invalid_arg "Cache.create: line_bytes must be >= 2";
  if policy = Tree_plru && not (is_pow2 ways) then
    invalid_arg "Cache.create: Tree-PLRU needs a power-of-2 way count";
  {
    name;
    blocks = Array.make (sets * ways) (-1);
    stamps = Array.make (sets * ways) 0;
    ways;
    set_bits = log2 sets;
    line_bits = log2 line_bytes;
    hash_index;
    policy;
    plru = (if policy = Tree_plru then Array.make sets 0 else [||]);
    victim;
    counters;
    h_hit = Chex86_stats.Counter.handle counters (name ^ ".hit");
    h_miss = Chex86_stats.Counter.handle counters (name ^ ".miss");
    h_victim_hit = Chex86_stats.Counter.handle counters (name ^ ".victim_hit");
    clock = 0;
    last_evicted = -1;
  }

let policy c = c.policy

let index_of c block =
  let mask = (1 lsl c.set_bits) - 1 in
  if c.hash_index then
    (block lxor (block lsr c.set_bits) lxor (block lsr (2 * c.set_bits))) land mask
  else block land mask

(* Slot in [i, stop) holding [block], or -1; with [block = -1] it finds
   the first invalid slot.  Top-level recursion (not an inner closure):
   without flambda an inner [rec] capturing [blocks]/[block] allocates a
   closure on every access. *)
let rec find_from (blocks : int array) (block : int) i stop =
  if i >= stop then -1
  else if blocks.(i) = block then i
  else find_from blocks block (i + 1) stop

(* Slot of [block] in the set whose first slot is [base], or -1. *)
let find_slot c base block = find_from c.blocks block base (base + c.ways)

(* Tree-PLRU: leaves are ways; internal node i has children 2i+1/2i+2;
   leaf for way w is w + ways - 1.  Touching a way flips every ancestor
   bit to point away from it; the victim walk follows the bits down. *)
let plru_touch c set_idx way ways =
  let p = ref c.plru.(set_idx) in
  let l = ref (way + ways - 1) in
  while !l > 0 do
    let parent = (!l - 1) / 2 in
    let from_right = !l = (2 * parent) + 2 in
    (* Point the victim at the sibling subtree. *)
    if from_right then p := !p land lnot (1 lsl parent)
    else p := !p lor (1 lsl parent);
    l := parent
  done;
  c.plru.(set_idx) <- !p

let plru_victim c set_idx ways =
  let p = c.plru.(set_idx) in
  let i = ref 0 in
  while !i < ways - 1 do
    i := (2 * !i) + 1 + ((p lsr !i) land 1)
  done;
  !i - (ways - 1)

(* Victim slot under the stamp policies: an invalid line first, else the
   oldest (LRU) or newest (MRU) stamp; ties keep the lowest way. *)
let lru_slot c base =
  let blocks = c.blocks and stamps = c.stamps in
  let best = ref base in
  for i = base + 1 to base + c.ways - 1 do
    let valid = blocks.(i) >= 0 and best_valid = blocks.(!best) >= 0 in
    if (not valid) && best_valid then best := i
    else if valid = best_valid && stamps.(i) < stamps.(!best) then best := i
  done;
  !best

let mru_slot c base =
  let blocks = c.blocks and stamps = c.stamps in
  let best = ref base in
  for i = base + 1 to base + c.ways - 1 do
    let valid = blocks.(i) >= 0 and best_valid = blocks.(!best) >= 0 in
    if (not valid) && best_valid then best := i
    else if valid = best_valid && stamps.(i) > stamps.(!best) then best := i
  done;
  !best

let victim_slot c set_idx base =
  match c.policy with
  | Lru -> lru_slot c base
  | Mru -> mru_slot c base
  | Tree_plru ->
    let s = find_slot c base (-1) in
    if s >= 0 then s else base + plru_victim c set_idx c.ways

(* Refresh replacement state for a touched slot. *)
let touch c set_idx base slot =
  c.stamps.(slot) <- c.clock;
  if c.policy = Tree_plru then plru_touch c set_idx (slot - base) c.ways

(* Insert [block] into set [set_idx], returning the evicted block number
   if a valid line was displaced, -1 otherwise.  If the block is already
   present (e.g. a swap-back racing an earlier spill) the existing copy
   is refreshed instead of duplicated. *)
let insert c set_idx block =
  let base = set_idx * c.ways in
  let existing = find_slot c base block in
  if existing >= 0 then begin
    touch c set_idx base existing;
    -1
  end
  else begin
    let slot = victim_slot c set_idx base in
    let evicted = c.blocks.(slot) in
    c.blocks.(slot) <- block;
    touch c set_idx base slot;
    evicted
  end

(* Probe-and-invalidate: a victim-cache hit moves the block back to the
   main array, so the victim's copy must die — leaving it behind is the
   duplication bug this guards against (the block then lived in both
   arrays, and a later spill of the same block stacked a second copy in
   the victim set). *)
let probe_take c addr =
  let block = addr lsr c.line_bits in
  let slot = find_slot c (index_of c block * c.ways) block in
  if slot >= 0 then begin
    c.blocks.(slot) <- -1;
    true
  end
  else false

(* Hand a block evicted from the main array of [c] to its victim cache
   [v].  The block number is exact, so re-deriving the victim's index and
   comparing full block numbers is correct for any indexing function of
   either cache (the victim may use a different line size).  Returns the
   block displaced out of [v], renumbered back into [c]'s line size when
   the two agree, -1 otherwise (a casualty in a differently-grained
   victim has no exact main-array equivalent). *)
let spill_to_victim c v evicted =
  let vblock = (evicted lsl c.line_bits) lsr v.line_bits in
  let casualty = insert v (index_of v vblock) vblock in
  if casualty >= 0 && v.line_bits = c.line_bits then casualty else -1

let access c ~write:_ addr =
  c.clock <- c.clock + 1;
  c.last_evicted <- -1;
  let block = addr lsr c.line_bits in
  let set_idx = index_of c block in
  let base = set_idx * c.ways in
  let slot = find_slot c base block in
  if slot >= 0 then begin
    touch c set_idx base slot;
    Chex86_stats.Counter.incr_handle c.counters c.h_hit;
    true
  end
  else begin
    let hit_in_victim =
      match c.victim with
      | None -> false
      | Some v ->
        v.clock <- v.clock + 1;
        if probe_take v addr then begin
          (* Swap back into the main array; the victim's copy is gone. *)
          let evicted = insert c set_idx block in
          if evicted >= 0 then c.last_evicted <- spill_to_victim c v evicted;
          true
        end
        else false
    in
    if hit_in_victim then begin
      Chex86_stats.Counter.incr_handle c.counters c.h_victim_hit;
      true
    end
    else begin
      Chex86_stats.Counter.incr_handle c.counters c.h_miss;
      let evicted = insert c set_idx block in
      (match c.victim with
      | Some v -> if evicted >= 0 then c.last_evicted <- spill_to_victim c v evicted
      | None -> c.last_evicted <- evicted);
      false
    end
  end

let evicted_block c = c.last_evicted

(* Slot of [addr]'s line in [c]'s own array, or -1. *)
let lookup c addr =
  let block = addr lsr c.line_bits in
  find_slot c (index_of c block * c.ways) block

(* Presence check with no side effects: no counters, no replacement
   update, no clock tick.  Checks the victim array too, so "is this line
   still cached here" means the whole structure. *)
let peek c addr =
  lookup c addr >= 0
  || match c.victim with None -> false | Some v -> lookup v addr >= 0

let invalidate_line c addr =
  let slot = lookup c addr in
  if slot >= 0 then c.blocks.(slot) <- -1

let invalidate c addr =
  invalidate_line c addr;
  match c.victim with None -> () | Some v -> invalidate_line v addr

let invalidate_all c =
  Array.fill c.blocks 0 (Array.length c.blocks) (-1);
  match c.victim with
  | None -> ()
  | Some v -> Array.fill v.blocks 0 (Array.length v.blocks) (-1)

let hits c = Chex86_stats.Counter.get_handle c.counters c.h_hit

let misses c = Chex86_stats.Counter.get_handle c.counters c.h_miss

let miss_rate c =
  let vh = Chex86_stats.Counter.get_handle c.counters c.h_victim_hit in
  let h = hits c + vh and m = misses c in
  if h + m = 0 then 0. else float_of_int m /. float_of_int (h + m)
