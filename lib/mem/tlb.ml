(* TLB with the paper's alias-hosting extension.

   Section V-C: "we extend the metadata bits in the TLB and the page
   tables to include an alias-hosting bit that indicates if a page
   contains a spilled pointer, to further minimize the number of
   lookups".  The authoritative alias-hosting bit lives in page-table
   metadata (a side table here); the TLB caches it per entry, and entries
   are refreshed when a page first gains a spilled pointer. *)

(* Way [w] of set [s] is slot [s * ways + w] of three flat int arrays
   (DESIGN.md §6): [vpns] holds the cached page number (-1 while the way
   is empty; page numbers are never negative), [stamps] the clock of its
   last touch and [alias_bits] the cached alias-hosting bit (0 or 1). *)
type t = {
  name : string;
  vpns : int array;
  stamps : int array;
  alias_bits : int array;
  ways : int;
  set_mask : int;
  (* Page-table alias-hosting bits: the set of hosting vpns.  An [Intset]
     because [page_alias_bit] runs on every tracked load (DESIGN.md §6
     keeps [Hashtbl] off the per-access path). *)
  page_table_bits : Intset.t;
  counters : Chex86_stats.Counter.group;
  h_hit : Chex86_stats.Counter.handle;
  h_miss : Chex86_stats.Counter.handle;
  mutable clock : int;
}

let create ~name ~sets ~ways counters =
  (* Set indexing is [vpn land (sets - 1)], which silently aliases most
     of the index space when [sets] is not a power of two. *)
  if sets <= 0 || sets land (sets - 1) <> 0 then
    invalid_arg "Tlb.create: sets not a power of 2";
  {
    name;
    vpns = Array.make (sets * ways) (-1);
    stamps = Array.make (sets * ways) 0;
    alias_bits = Array.make (sets * ways) 0;
    ways;
    set_mask = sets - 1;
    page_table_bits = Intset.create ~capacity:16 ();
    counters;
    h_hit = Chex86_stats.Counter.handle counters (name ^ ".hit");
    h_miss = Chex86_stats.Counter.handle counters (name ^ ".miss");
    clock = 0;
  }

let page_alias_bit t vpn = Intset.mem t.page_table_bits vpn

(* Slot in [i, stop) caching [vpn], or -1.  Top-level recursion: an
   inner [rec] capturing [vpns]/[vpn] allocates a closure per access
   without flambda. *)
let rec find_from (vpns : int array) (vpn : int) i stop =
  if i >= stop then -1 else if vpns.(i) = vpn then i else find_from vpns vpn (i + 1) stop

let set_base t vpn = (vpn land t.set_mask) * t.ways

(* Mark the page containing [addr] as hosting a spilled pointer alias;
   refresh the cached TLB entry, if any (a page occupies at most one way
   of its set). *)
let set_alias_hosting t addr =
  let vpn = addr lsr Image.page_bits in
  Intset.add t.page_table_bits vpn;
  let base = set_base t vpn in
  let slot = find_from t.vpns vpn base (base + t.ways) in
  if slot >= 0 then t.alias_bits.(slot) <- 1

(* [lookup_hit t addr] is the per-access timing probe: true on hit.  A
   miss triggers a (modelled) page walk and fills the entry with the
   page-table bit.  The hierarchy only consumes the hit bit, so this
   path returns an unboxed bool rather than the [lookup] tuple. *)
let lookup_hit t addr =
  t.clock <- t.clock + 1;
  let vpn = addr lsr Image.page_bits in
  let base = set_base t vpn in
  let slot = find_from t.vpns vpn base (base + t.ways) in
  if slot >= 0 then begin
    t.stamps.(slot) <- t.clock;
    Chex86_stats.Counter.incr_handle t.counters t.h_hit;
    true
  end
  else begin
    Chex86_stats.Counter.incr_handle t.counters t.h_miss;
    (* LRU fill: an empty way first, else the oldest stamp. *)
    let vpns = t.vpns and stamps = t.stamps in
    let way = ref base in
    for i = base + 1 to base + t.ways - 1 do
      let valid = vpns.(i) >= 0 and best_valid = vpns.(!way) >= 0 in
      if (not valid) && best_valid then way := i
      else if valid = best_valid && stamps.(i) < stamps.(!way) then way := i
    done;
    vpns.(!way) <- vpn;
    stamps.(!way) <- t.clock;
    t.alias_bits.(!way) <- (if page_alias_bit t vpn then 1 else 0);
    false
  end

(* [lookup t addr] returns [(hit, alias_hosting)].  Wrapper over
   [lookup_hit]: after the probe the entry is guaranteed resident, so the
   alias bit is re-read from the (just touched or just filled) way. *)
let lookup t addr =
  let hit = lookup_hit t addr in
  let vpn = addr lsr Image.page_bits in
  let base = set_base t vpn in
  (hit, t.alias_bits.(find_from t.vpns vpn base (base + t.ways)) = 1)

let alias_hosting_pages t = Intset.cardinal t.page_table_bits
