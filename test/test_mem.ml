(* Tests for the memory substrate: sparse image, caches (incl. the
   victim cache and hashed indexing), TLB alias-hosting bits, and the
   hierarchy's latency/bandwidth accounting. *)

module Image = Chex86_mem.Image
module Cache = Chex86_mem.Cache
module Tlb = Chex86_mem.Tlb
module Hierarchy = Chex86_mem.Hierarchy
module Counter = Chex86_stats.Counter

let test_image_roundtrip () =
  let m = Image.create () in
  Image.write64 m 0x1000 0x1122334455667788;
  Alcotest.(check int) "64-bit" 0x1122334455667788 (Image.read64 m 0x1000);
  Alcotest.(check int) "little-endian low byte" 0x88 (Image.read_byte m 0x1000);
  Alcotest.(check int) "little-endian byte 2" 0x66 (Image.read_byte m 0x1002);
  Alcotest.(check int) "32-bit sub-read" 0x55667788 (Image.read m 0x1000 4)

let test_image_page_crossing () =
  let m = Image.create () in
  let addr = 0x1FFC (* 4 bytes before a page boundary *) in
  Image.write m addr 8 0x0102030405060708;
  Alcotest.(check int) "page-crossing roundtrip" 0x0102030405060708 (Image.read m addr 8)

let test_image_untouched_zero () =
  let m = Image.create () in
  Alcotest.(check int) "untouched memory reads zero" 0 (Image.read64 m 0xDEAD00);
  Alcotest.(check int) "reads do not allocate" 0 (Image.resident_pages m)

let test_image_resident () =
  let m = Image.create () in
  Image.write_byte m 0 1;
  Image.write_byte m 5000 1;
  Image.write_byte m 5001 1;
  Alcotest.(check int) "two pages touched" 2 (Image.resident_pages m);
  Alcotest.(check int) "bytes" (2 * 4096) (Image.resident_bytes m)

let qcheck_image_masked_roundtrip =
  QCheck.Test.make ~name:"n-byte write/read roundtrip"
    QCheck.(triple (int_range 0 100000) (int_range 1 8) (int_bound max_int))
    (fun (addr, n, v) ->
      let m = Image.create () in
      Image.write m addr n v;
      let mask = if n = 8 then -1 else (1 lsl (8 * n)) - 1 in
      Image.read m addr n = v land mask)

let qcheck_image_float_roundtrip =
  QCheck.Test.make ~name:"float write/read is bit-exact" QCheck.float (fun f ->
      let m = Image.create () in
      Image.write_float m 0x2000 f;
      let back = Image.read_float m 0x2000 in
      Int64.bits_of_float back = Int64.bits_of_float f)

let test_zero_range () =
  let m = Image.create () in
  Image.write64 m 0x100 (-1);
  Image.zero_range m 0x100 8;
  Alcotest.(check int) "zeroed" 0 (Image.read64 m 0x100)

let new_cache ?victim ?hash_index ~sets ~ways () =
  let g = Counter.create_group () in
  (Cache.create ?victim ?hash_index ~name:"c" ~sets ~ways ~line_bytes:64 g, g)

let test_cache_hit_after_miss () =
  let c, _ = new_cache ~sets:16 ~ways:2 () in
  Alcotest.(check bool) "first access misses" false (Cache.access c ~write:false 0x1000);
  Alcotest.(check bool) "second access hits" true (Cache.access c ~write:false 0x1000);
  Alcotest.(check bool) "same line hits" true (Cache.access c ~write:false 0x103F)

let test_cache_lru_eviction () =
  let c, _ = new_cache ~sets:1 ~ways:2 () in
  ignore (Cache.access c ~write:false 0x0000);
  ignore (Cache.access c ~write:false 0x1000);
  ignore (Cache.access c ~write:false 0x0000);  (* touch A: B becomes LRU *)
  ignore (Cache.access c ~write:false 0x2000);  (* evicts B *)
  Alcotest.(check bool) "A survives" true (Cache.access c ~write:false 0x0000);
  Alcotest.(check bool) "B evicted" false (Cache.access c ~write:false 0x1000)

let test_cache_victim_recovery () =
  let g = Counter.create_group () in
  let victim = Cache.create ~name:"v" ~sets:1 ~ways:4 ~line_bytes:64 g in
  let c = Cache.create ~victim ~name:"c" ~sets:1 ~ways:1 ~line_bytes:64 g in
  ignore (Cache.access c ~write:false 0x0000);
  ignore (Cache.access c ~write:false 0x1000);  (* evicts A into the victim *)
  Alcotest.(check bool) "A recovered from victim" true (Cache.access c ~write:false 0x0000);
  Alcotest.(check int) "victim hit counted" 1 (Counter.get g "c.victim_hit")

(* Regression for the evicted-address reconstruction bug: under hashed
   indexing the set index is an XOR fold of the block number, so
   re-assembling an evicted line's address as tag|set (the old scheme)
   handed the victim cache the wrong block.  Lines now carry full block
   numbers, so a block evicted from a hash-indexed cache must be
   recoverable by the exact address that installed it. *)
let test_cache_victim_recovery_hashed_index () =
  let g = Counter.create_group () in
  let victim = Cache.create ~name:"v" ~sets:1 ~ways:4 ~line_bytes:64 g in
  let c = Cache.create ~victim ~hash_index:true ~name:"c" ~sets:16 ~ways:1 ~line_bytes:64 g in
  (* Blocks 0x00 and 0x11 both hash to set 0 (0x11 xor 0x11>>4 = 0x10),
     but their low index bits differ — tag|set reassembly would turn the
     evicted block 0x00 into 0x10. *)
  let a = 0x00 lsl 6 and b = 0x11 lsl 6 in
  ignore (Cache.access c ~write:false a);
  ignore (Cache.access c ~write:false b);  (* evicts [a]'s block into the victim *)
  Alcotest.(check bool) "hashed-evicted block recovered" true (Cache.access c ~write:false a);
  Alcotest.(check int) "victim hit counted" 1 (Counter.get g "c.victim_hit")

(* Regression for the victim-duplication bug: a victim hit swapped the
   block back into the main array but left the victim's copy valid, so
   the block lived in both arrays and later spills stacked duplicates in
   the victim set, silently shrinking its capacity.  After A round-trips
   main -> victim -> main twice, the 2-way victim must still hold both
   distinct casualties. *)
let test_cache_victim_no_duplicates () =
  let g = Counter.create_group () in
  let victim = Cache.create ~name:"v" ~sets:1 ~ways:2 ~line_bytes:64 g in
  let c = Cache.create ~victim ~name:"c" ~sets:1 ~ways:1 ~line_bytes:64 g in
  let a = 0x0000 and b = 0x1000 and d = 0x2000 in
  ignore (Cache.access c ~write:false a);  (* main=[A] *)
  ignore (Cache.access c ~write:false b);  (* main=[B] victim=[A] *)
  ignore (Cache.access c ~write:false a);  (* swap back; victim=[B] *)
  ignore (Cache.access c ~write:false b);  (* swap back; victim=[A] *)
  ignore (Cache.access c ~write:false d);  (* main=[D] victim=[A;B] *)
  Alcotest.(check bool) "A still in victim" true (Cache.access c ~write:false a);
  Alcotest.(check int) "victim hits" 3 (Counter.get g "c.victim_hit")

let test_cache_rejects_bad_geometry () =
  let g = Counter.create_group () in
  let reject msg err f = Alcotest.check_raises msg (Invalid_argument err) (fun () -> ignore (f ())) in
  List.iter
    (fun sets ->
      reject
        (Printf.sprintf "sets=%d rejected" sets)
        "Cache.create: sets not a power of 2"
        (fun () -> Cache.create ~name:"c" ~sets ~ways:2 ~line_bytes:64 g))
    [ 0; 3; 6; 100 ];
  List.iter
    (fun line_bytes ->
      reject
        (Printf.sprintf "line_bytes=%d rejected" line_bytes)
        "Cache.create: line_bytes not a power of 2"
        (fun () -> Cache.create ~name:"c" ~sets:16 ~ways:2 ~line_bytes g))
    [ 0; 48; 100 ];
  (* One-byte lines would make a negative address a negative block
     number, which the packed arrays use as the invalid-line mark. *)
  reject "line_bytes=1 rejected" "Cache.create: line_bytes must be >= 2" (fun () ->
      Cache.create ~name:"c" ~sets:16 ~ways:2 ~line_bytes:1 g);
  reject "ways=0 rejected" "Cache.create: ways must be >= 1" (fun () ->
      Cache.create ~name:"c" ~sets:16 ~ways:0 ~line_bytes:64 g);
  reject "Tree-PLRU non-pow2 ways rejected"
    "Cache.create: Tree-PLRU needs a power-of-2 way count" (fun () ->
      Cache.create ~policy:Cache.Tree_plru ~name:"c" ~sets:16 ~ways:3 ~line_bytes:64 g)

let test_cache_tree_plru_protects_touched () =
  let g = Counter.create_group () in
  let c = Cache.create ~policy:Cache.Tree_plru ~name:"p" ~sets:1 ~ways:4 ~line_bytes:64 g in
  let blk i = i * 0x1000 in
  for i = 0 to 3 do
    ignore (Cache.access c ~write:false (blk i))
  done;
  ignore (Cache.access c ~write:false (blk 0));  (* tree points away from way 0 *)
  ignore (Cache.access c ~write:false (blk 4));  (* PLRU victim is way 2 *)
  Alcotest.(check bool) "touched way survives" true (Cache.access c ~write:false (blk 0));
  Alcotest.(check bool) "PLRU victim was evicted" false (Cache.access c ~write:false (blk 2))

let test_cache_mru_evicts_most_recent () =
  let g = Counter.create_group () in
  let c = Cache.create ~policy:Cache.Mru ~name:"m" ~sets:1 ~ways:2 ~line_bytes:64 g in
  ignore (Cache.access c ~write:false 0x0000);
  ignore (Cache.access c ~write:false 0x1000);
  ignore (Cache.access c ~write:false 0x0000);  (* A is now MRU *)
  ignore (Cache.access c ~write:false 0x2000);  (* MRU evicts A, not B *)
  Alcotest.(check bool) "LRU block survives under MRU" true (Cache.access c ~write:false 0x1000);
  Alcotest.(check bool) "MRU block evicted" false (Cache.access c ~write:false 0x0000)

let test_cache_invalidate () =
  let c, _ = new_cache ~sets:16 ~ways:2 () in
  ignore (Cache.access c ~write:false 0x4000);
  Cache.invalidate c 0x4000;
  Alcotest.(check bool) "invalidated line misses" false (Cache.access c ~write:false 0x4000)

let test_cache_hashed_index_spreads () =
  (* 32-byte-strided granule stream that would alias into few sets under
     modulo indexing: hashed indexing must retain most of it. *)
  let g = Counter.create_group () in
  let c = Cache.create ~hash_index:true ~name:"h" ~sets:128 ~ways:2 ~line_bytes:8 g in
  for _ = 1 to 5 do
    for i = 0 to 99 do
      ignore (Cache.access c ~write:false (0x10000000 + (i * 32)))
    done
  done;
  let hits = Counter.get g "h.hit" in
  Alcotest.(check bool) (Printf.sprintf "mostly hits (%d)" hits) true (hits > 350)

(* --- lockstep reference model for the packed cache ------------------- *)

(* A list-based set-associative cache written from the documented
   behaviour, not from the packed implementation: each set is the list
   of its valid lines, LRU/MRU pick by last-touch time, and Tree-PLRU
   walks an explicit binary tree.  A victim buffer is another reference
   cache: a main-array miss takes the block out of the victim if it is
   there, installs it in the main array, hands the main casualty to the
   victim, and whatever the victim displaces leaves the structure. *)
module Ref_cache = struct
  type line = { way : int; block : int; stamp : int }

  (* [go_right] is where the victim walk turns at this node. *)
  type plru = Leaf | Node of { mutable go_right : bool; left : plru; right : plru }

  type t = {
    sets : int;
    ways : int;
    line_bits : int;
    hashed : bool;
    policy : Cache.policy;
    lines : line list array;
    trees : plru array;
    victim : t option;
    mutable clock : int;
    mutable hits : int;
    mutable misses : int;
    mutable victim_hits : int;
    mutable evicted : int;
  }

  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

  let rec tree n =
    if n <= 1 then Leaf
    else Node { go_right = false; left = tree (n / 2); right = tree (n / 2) }

  let create ?victim ?(hashed = false) ?(policy = Cache.Lru) ~sets ~ways ~line_bytes () =
    {
      sets;
      ways;
      line_bits = log2 line_bytes;
      hashed;
      policy;
      lines = Array.make sets [];
      trees = Array.init sets (fun _ -> tree ways);
      victim;
      clock = 0;
      hits = 0;
      misses = 0;
      victim_hits = 0;
      evicted = -1;
    }

  let set_of r block =
    let bits = log2 r.sets in
    let folded =
      if r.hashed then block lxor (block lsr bits) lxor (block lsr (2 * bits)) else block
    in
    folded land (r.sets - 1)

  (* Point every node on way [w]'s path away from it. *)
  let rec plru_touch node n w =
    match node with
    | Leaf -> ()
    | Node nd ->
      let half = n / 2 in
      if w < half then begin
        nd.go_right <- true;
        plru_touch nd.left half w
      end
      else begin
        nd.go_right <- false;
        plru_touch nd.right half (w - half)
      end

  let rec plru_victim node n =
    match node with
    | Leaf -> 0
    | Node nd ->
      let half = n / 2 in
      if nd.go_right then half + plru_victim nd.right half else plru_victim nd.left half

  let find r set block = List.find_opt (fun l -> l.block = block) r.lines.(set)

  let put r set (l : line) =
    r.lines.(set) <- l :: List.filter (fun (o : line) -> o.way <> l.way) r.lines.(set);
    if r.policy = Cache.Tree_plru then plru_touch r.trees.(set) r.ways l.way

  let oldest = List.fold_left (fun (a : line) (b : line) -> if b.stamp < a.stamp then b else a)
  let newest = List.fold_left (fun (a : line) (b : line) -> if b.stamp > a.stamp then b else a)

  (* Install [block] in [set] at the current time; the displaced block,
     or -1.  Free ways fill first, lowest way first. *)
  let install r set block =
    match find r set block with
    | Some l ->
      put r set { l with stamp = r.clock };
      -1
    | None -> (
      let used w = List.exists (fun (l : line) -> l.way = w) r.lines.(set) in
      match List.filter (fun w -> not (used w)) (List.init r.ways Fun.id) with
      | w :: _ ->
        put r set { way = w; block; stamp = r.clock };
        -1
      | [] ->
        let out =
          match (r.policy, r.lines.(set)) with
          | _, [] -> assert false
          | Cache.Lru, l :: ls -> oldest l ls
          | Cache.Mru, l :: ls -> newest l ls
          | Cache.Tree_plru, ls ->
            let w = plru_victim r.trees.(set) r.ways in
            List.find (fun (l : line) -> l.way = w) ls
        in
        put r set { way = out.way; block; stamp = r.clock };
        out.block)

  let remove r set block =
    let before = List.length r.lines.(set) in
    r.lines.(set) <- List.filter (fun (l : line) -> l.block <> block) r.lines.(set);
    List.length r.lines.(set) < before

  let present r addr =
    let block = addr lsr r.line_bits in
    find r (set_of r block) block <> None

  let access r addr =
    r.clock <- r.clock + 1;
    r.evicted <- -1;
    let block = addr lsr r.line_bits in
    let set = set_of r block in
    match find r set block with
    | Some l ->
      put r set { l with stamp = r.clock };
      r.hits <- r.hits + 1;
      true
    | None ->
      let from_victim =
        match r.victim with
        | None -> false
        | Some v ->
          v.clock <- v.clock + 1;
          remove v (set_of v block) block
      in
      if from_victim then r.victim_hits <- r.victim_hits + 1 else r.misses <- r.misses + 1;
      let casualty = install r set block in
      (r.evicted <-
         match r.victim with
         | None -> casualty
         | Some v -> if casualty < 0 then -1 else install v (set_of v casualty) casualty);
      from_victim

  let peek r addr = present r addr || match r.victim with None -> false | Some v -> present v addr

  let invalidate r addr =
    let drop r =
      let block = addr lsr r.line_bits in
      ignore (remove r (set_of r block) block)
    in
    drop r;
    Option.iter drop r.victim
end

type geometry = {
  g_sets : int;
  g_ways : int;
  g_line : int;
  g_hashed : bool;
  g_policy : Cache.policy;
  g_victim : int;  (* fully associative LRU victim entries; 0 = none *)
}

let geometry_name g =
  Printf.sprintf "%dx%d %s%s line %d victim %d" g.g_sets g.g_ways
    (Cache.policy_name g.g_policy)
    (if g.g_hashed then " hashed" else "")
    g.g_line g.g_victim

(* The alias cache of the default CHEx86 variant: 128 sets x 2 ways,
   hashed, 8-byte granules, 32-entry victim. *)
let alias_geometry =
  { g_sets = 128; g_ways = 2; g_line = 8; g_hashed = true; g_policy = Cache.Lru; g_victim = 32 }

let small_geometries =
  List.concat_map
    (fun g_policy ->
      List.concat_map
        (fun (g_sets, g_ways) ->
          List.concat_map
            (fun g_hashed ->
              List.map
                (fun g_victim -> { g_sets; g_ways; g_line = 64; g_hashed; g_policy; g_victim })
                [ 0; 1; 3 ])
            [ false; true ])
        [ (1, 1); (1, 4); (2, 2); (4, 2); (4, 8); (16, 1) ])
    [ Cache.Lru; Cache.Tree_plru; Cache.Mru ]

type op = Access of int | Invalidate of int | Peek of int

let op_name = function
  | Access a -> Printf.sprintf "access 0x%x" a
  | Invalidate a -> Printf.sprintf "invalidate 0x%x" a
  | Peek a -> Printf.sprintf "peek 0x%x" a

(* Blocks are drawn from about three times what the structure holds,
   half of them from the first third of that range, so streams mix hits,
   conflict misses, victim round trips and capacity evictions. *)
let gen_case geometries =
  let open QCheck.Gen in
  let* g = oneofl geometries in
  let capacity = (g.g_sets * g.g_ways) + g.g_victim in
  let block = frequency [ (1, int_bound (capacity + 1)); (1, int_bound ((3 * capacity) + 2)) ] in
  let addr = map2 (fun b off -> (b * g.g_line) + off) block (int_bound (g.g_line - 1)) in
  let op =
    frequency
      [
        (8, map (fun a -> Access a) addr);
        (1, map (fun a -> Invalidate a) addr);
        (1, map (fun a -> Peek a) addr);
      ]
  in
  let* ops = list_size (int_range 1 (40 * capacity)) op in
  return (g, ops)

let lockstep_prop (g, ops) =
  let counters = Counter.create_group () in
  let victim, ref_victim =
    if g.g_victim = 0 then (None, None)
    else
      ( Some (Cache.create ~name:"v" ~sets:1 ~ways:g.g_victim ~line_bytes:g.g_line counters),
        Some (Ref_cache.create ~sets:1 ~ways:g.g_victim ~line_bytes:g.g_line ()) )
  in
  let c =
    Cache.create ?victim ~hash_index:g.g_hashed ~policy:g.g_policy ~name:"c" ~sets:g.g_sets
      ~ways:g.g_ways ~line_bytes:g.g_line counters
  in
  let r =
    Ref_cache.create ?victim:ref_victim ~hashed:g.g_hashed ~policy:g.g_policy ~sets:g.g_sets
      ~ways:g.g_ways ~line_bytes:g.g_line ()
  in
  List.iteri
    (fun step op ->
      let got, want =
        match op with
        | Access a ->
          let got = Cache.access c ~write:false a and want = Ref_cache.access r a in
          ( (got, Cache.evicted_block c, Counter.get counters "c.hit",
             Counter.get counters "c.miss", Counter.get counters "c.victim_hit"),
            (want, r.evicted, r.hits, r.misses, r.victim_hits) )
        | Invalidate a ->
          Cache.invalidate c a;
          Ref_cache.invalidate r a;
          ((false, 0, 0, 0, 0), (false, 0, 0, 0, 0))
        | Peek a ->
          let got = Cache.peek c a and want = Ref_cache.peek r a in
          ((got, 0, 0, 0, 0), (want, 0, 0, 0, 0))
      in
      if got <> want then
        let show (b, e, h, m, v) = Printf.sprintf "%b evicted=%d hit=%d miss=%d victim_hit=%d" b e h m v in
        QCheck.Test.fail_reportf "%s, step %d (%s): cache %s, reference %s" (geometry_name g) step
          (op_name op) (show got) (show want))
    ops;
  true

let print_case (g, ops) =
  Printf.sprintf "%s: %s" (geometry_name g) (String.concat "; " (List.map op_name ops))

let qcheck_cache_lockstep =
  QCheck.Test.make ~name:"packed cache = reference model (small geometries)" ~count:500
    (QCheck.make ~print:print_case (gen_case small_geometries))
    lockstep_prop

let qcheck_alias_cache_lockstep =
  QCheck.Test.make ~name:"packed cache = reference model (alias cache + victim)" ~count:40
    (QCheck.make ~print:print_case (gen_case [ alias_geometry ]))
    lockstep_prop

let test_tlb_alias_bits () =
  let g = Counter.create_group () in
  let tlb = Tlb.create ~name:"tlb" ~sets:4 ~ways:2 g in
  let addr = 0x123456 in
  Alcotest.(check bool) "fresh page not hosting" false (snd (Tlb.lookup tlb addr));
  Tlb.set_alias_hosting tlb addr;
  Alcotest.(check bool) "page-table bit set" true (Tlb.page_alias_bit tlb (addr lsr 12));
  Alcotest.(check bool) "cached entry refreshed" true (snd (Tlb.lookup tlb addr));
  Alcotest.(check int) "one hosting page" 1 (Tlb.alias_hosting_pages tlb)

let test_tlb_hit_miss () =
  let g = Counter.create_group () in
  let tlb = Tlb.create ~name:"tlb" ~sets:4 ~ways:2 g in
  Alcotest.(check bool) "first lookup misses" false (fst (Tlb.lookup tlb 0x5000));
  Alcotest.(check bool) "second lookup hits" true (fst (Tlb.lookup tlb 0x5abc))

let test_tlb_rejects_non_pow2_sets () =
  (* Set indexing masks with [sets - 1]; a non-power-of-two count would
     silently alias most of the index space (same guard as Cache.create). *)
  let g = Counter.create_group () in
  List.iter
    (fun sets ->
      Alcotest.check_raises
        (Printf.sprintf "sets=%d rejected" sets)
        (Invalid_argument "Tlb.create: sets not a power of 2")
        (fun () -> ignore (Tlb.create ~name:"tlb" ~sets ~ways:2 g)))
    [ 0; 3; 6; 100 ]

let test_hierarchy_latencies () =
  let g = Counter.create_group () in
  let h = Hierarchy.create g in
  let cfg = Hierarchy.default_config in
  let first = Hierarchy.access h ~kind:Data ~write:false 0x8000 in
  Alcotest.(check bool) "cold access pays DRAM + walk" true (first >= cfg.mem_latency);
  let second = Hierarchy.access h ~kind:Data ~write:false 0x8008 in
  Alcotest.(check int) "warm same-line access is an L1 hit" cfg.l1_latency second

let test_hierarchy_bandwidth () =
  let g = Counter.create_group () in
  let h = Hierarchy.create g in
  ignore (Hierarchy.access h ~kind:Data ~write:false 0x8000);
  Alcotest.(check int) "one line fetched" 64 (Hierarchy.mem_bytes h);
  ignore (Hierarchy.access h ~kind:Data ~write:false 0x8000);
  Alcotest.(check int) "hits add no traffic" 64 (Hierarchy.mem_bytes h);
  Hierarchy.mem_traffic h 16;
  Alcotest.(check int) "explicit traffic accounted" 80 (Hierarchy.mem_bytes h)

let test_hierarchy_writeback () =
  let g = Counter.create_group () in
  let h = Hierarchy.create g in
  ignore (Hierarchy.access h ~kind:Data ~write:true 0x8000);
  Alcotest.(check int) "line dirty after the store" 1 (Hierarchy.dirty_line_count h);
  (* Push the dirty line out of both levels with conflicting clean
     fills: the writeback is charged at eviction time, not deferred to
     a refetch that may never come. *)
  for i = 1 to 8192 do
    ignore (Hierarchy.access h ~kind:Data ~write:false (0x8000 + (i * 64 * 512)))
  done;
  Alcotest.(check int) "writeback charged on eviction" 64 (Hierarchy.writeback_bytes h);
  Alcotest.(check int) "dirty entry retired" 0 (Hierarchy.dirty_line_count h);
  let before = Hierarchy.mem_bytes h in
  ignore (Hierarchy.access h ~kind:Data ~write:false 0x8000);
  Alcotest.(check int) "refetch pays only the fill" (before + 64) (Hierarchy.mem_bytes h)

(* Regression for the dirty-line leak: a streaming-store workload whose
   lines are written once and never refetched must still pay writebacks,
   and [dirty_lines] must stay bounded by what the caches can hold
   instead of growing one entry per line touched. *)
let test_hierarchy_streaming_store () =
  let g = Counter.create_group () in
  let h = Hierarchy.create g in
  let cfg = Hierarchy.default_config in
  let lines = 20000 in
  for i = 0 to lines - 1 do
    ignore (Hierarchy.access h ~kind:Data ~write:true (i * cfg.line_bytes))
  done;
  let capacity = (cfg.l1_sets * cfg.l1_ways) + (cfg.l2_sets * cfg.l2_ways) in
  let dirty = Hierarchy.dirty_line_count h in
  Alcotest.(check bool)
    (Printf.sprintf "dirty lines bounded by capacity (%d <= %d)" dirty capacity)
    true (dirty <= capacity);
  let wb = Hierarchy.writeback_bytes h in
  Alcotest.(check bool)
    (Printf.sprintf "evicted stores wrote back (%d bytes)" wb)
    true
    (wb >= (lines - capacity) * cfg.line_bytes)

let () =
  Alcotest.run "mem"
    [
      ( "image",
        [
          Alcotest.test_case "roundtrip" `Quick test_image_roundtrip;
          Alcotest.test_case "page crossing" `Quick test_image_page_crossing;
          Alcotest.test_case "untouched reads zero" `Quick test_image_untouched_zero;
          Alcotest.test_case "resident accounting" `Quick test_image_resident;
          Alcotest.test_case "zero_range" `Quick test_zero_range;
          QCheck_alcotest.to_alcotest qcheck_image_masked_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_image_float_roundtrip;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit after miss" `Quick test_cache_hit_after_miss;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "victim recovery" `Quick test_cache_victim_recovery;
          Alcotest.test_case "victim recovery (hashed index)" `Quick
            test_cache_victim_recovery_hashed_index;
          Alcotest.test_case "victim holds no duplicates" `Quick
            test_cache_victim_no_duplicates;
          Alcotest.test_case "rejects bad geometry" `Quick test_cache_rejects_bad_geometry;
          Alcotest.test_case "Tree-PLRU protects touched way" `Quick
            test_cache_tree_plru_protects_touched;
          Alcotest.test_case "MRU evicts most recent" `Quick
            test_cache_mru_evicts_most_recent;
          Alcotest.test_case "invalidate" `Quick test_cache_invalidate;
          Alcotest.test_case "hashed index spreads strides" `Quick
            test_cache_hashed_index_spreads;
          QCheck_alcotest.to_alcotest qcheck_cache_lockstep;
          QCheck_alcotest.to_alcotest qcheck_alias_cache_lockstep;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "alias-hosting bits" `Quick test_tlb_alias_bits;
          Alcotest.test_case "hit/miss" `Quick test_tlb_hit_miss;
          Alcotest.test_case "rejects non-pow2 sets" `Quick test_tlb_rejects_non_pow2_sets;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "latencies" `Quick test_hierarchy_latencies;
          Alcotest.test_case "bandwidth" `Quick test_hierarchy_bandwidth;
          Alcotest.test_case "writeback" `Quick test_hierarchy_writeback;
          Alcotest.test_case "streaming store" `Quick test_hierarchy_streaming_store;
        ] );
    ]
