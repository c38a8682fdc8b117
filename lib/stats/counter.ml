(* Named event counters, grouped per simulation run.

   A [group] is a flat namespace of monotonically increasing integer
   counters.  Components allocate counters lazily by name; benches read
   them back by name after a run.  Ratios between two counters are a
   common derived quantity (miss rates, prediction accuracy), so they get
   a dedicated accessor.

   Storage is a flat int array indexed by allocation order, with a
   name -> slot hashtable on the side.  Hot components resolve a [handle]
   (the slot index) once at create time and bump through it with
   [incr_handle] — a single array update, no string hashing and no
   allocation — which is what the per-access/per-µop paths of the cache,
   TLB, branch predictor and pipeline use.  The string-keyed [incr]/[get]
   remain for cold paths and reporting. *)

type group = {
  index : (string, int) Hashtbl.t;  (* name -> slot *)
  mutable names : string array;
  mutable values : int array;
  mutable used : int;
}

type handle = int

let create_group () =
  { index = Hashtbl.create 64; names = Array.make 64 ""; values = Array.make 64 0; used = 0 }

(* Resolve (allocating if new) the slot of [name].  O(1) amortized; hot
   callers do this once and keep the handle. *)
let handle group name =
  match Hashtbl.find_opt group.index name with
  | Some slot -> slot
  | None ->
    let slot = group.used in
    if slot = Array.length group.values then begin
      let values = Array.make (2 * slot) 0 and names = Array.make (2 * slot) "" in
      Array.blit group.values 0 values 0 slot;
      Array.blit group.names 0 names 0 slot;
      group.values <- values;
      group.names <- names
    end;
    group.names.(slot) <- name;
    group.values.(slot) <- 0;
    Hashtbl.add group.index name slot;
    group.used <- slot + 1;
    slot

let incr_handle ?(by = 1) group (h : handle) = group.values.(h) <- group.values.(h) + by

let get_handle group (h : handle) = group.values.(h)

let incr ?(by = 1) group name = incr_handle ~by group (handle group name)

(* No [set]: absolute assignment is merge-unsafe — snapshots combine by
   pointwise addition, so an overwritten counter absorbed into a
   non-empty group would silently mix set-then-add semantics. Publish
   totals as deltas with [incr ~by] (see Pipeline.finalize). *)

let get group name =
  match Hashtbl.find_opt group.index name with
  | Some slot -> group.values.(slot)
  | None -> 0

let reset group = Array.fill group.values 0 group.used 0

(* [ratio g num den] is num / (num + den) if [den] names the complementary
   event (e.g. hits vs misses), expressed by the caller passing the two
   event names; returns 0. when both are zero. *)
let ratio group ~num ~den =
  let n = float_of_int (get group num) and d = float_of_int (get group den) in
  if n +. d = 0. then 0. else n /. (n +. d)

let fraction group ~num ~total =
  let n = float_of_int (get group num) and t = float_of_int (get group total) in
  if t = 0. then 0. else n /. t

let to_list group =
  List.init group.used (fun slot -> (group.names.(slot), group.values.(slot)))
  |> List.sort compare

(* --- snapshots ------------------------------------------------------------ *)

(* An immutable, name-sorted view of a group.  The --metrics accumulator
   merges one snapshot per sweep.  Because [merge] is pointwise addition
   over a sorted namespace it is associative and commutative with
   [empty_snapshot] as identity, so the merged totals never depend on the
   order the sweeps published in. *)
type snapshot = (string * int) list

let empty_snapshot : snapshot = []
let group_snapshot group : snapshot = to_list group
let snapshot_to_list (s : snapshot) = s

let merge (a : snapshot) (b : snapshot) : snapshot =
  let rec go a b =
    match (a, b) with
    | [], rest | rest, [] -> rest
    | (na, va) :: ta, (nb, vb) :: tb ->
      if na < nb then (na, va) :: go ta b
      else if nb < na then (nb, vb) :: go a tb
      else (na, va + vb) :: go ta tb
  in
  go a b

let json_of_snapshot (s : snapshot) : Json.t =
  Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) s)

let pp ppf group =
  List.iter (fun (name, v) -> Format.fprintf ppf "%-40s %d@." name v) (to_list group)
