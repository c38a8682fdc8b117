(* Integer-valued histogram with streaming insertion.

   Used for allocation-size distributions (Fig 3), temporal PID stride
   histograms (Table II) and squash-length distributions (Fig 8).  Values
   are kept exactly in a hash table keyed by sample value; summary
   statistics are derived on demand. *)

type t = {
  buckets : (int, int ref) Hashtbl.t;
  mutable count : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

let create () =
  { buckets = Hashtbl.create 64; count = 0; sum = 0; min_v = max_int; max_v = min_int }

let add ?(weight = 1) hist value =
  (* A zero weight would still insert a bucket and widen min/max; a
     negative one would decrement count/sum while min/max kept
     widening — both corrupt the summary stats, so reject them
     loudly. *)
  if weight <= 0 then
    invalid_arg (Printf.sprintf "Histogram.add: weight %d <= 0" weight);
  (match Hashtbl.find_opt hist.buckets value with
  | Some cell -> cell := !cell + weight
  | None -> Hashtbl.add hist.buckets value (ref weight));
  hist.count <- hist.count + weight;
  hist.sum <- hist.sum + (value * weight);
  if value < hist.min_v then hist.min_v <- value;
  if value > hist.max_v then hist.max_v <- value

let count hist = hist.count
let total hist = hist.sum
let min_value hist = if hist.count = 0 then 0 else hist.min_v
let max_value hist = if hist.count = 0 then 0 else hist.max_v

let mean hist =
  if hist.count = 0 then 0. else float_of_int hist.sum /. float_of_int hist.count

let sorted hist =
  Hashtbl.fold (fun v cell acc -> (v, !cell) :: acc) hist.buckets []
  |> List.sort compare

(* Smallest value v such that at least [q] of the mass is <= v.  [q] is
   clamped to [0, 1]: callers computing quantile positions from noisy
   float arithmetic must not be able to walk past max_v (q > 1) or
   below the distribution (q < 0, NaN). *)
let percentile hist q =
  if hist.count = 0 then 0
  else begin
    let q = if Float.is_nan q then 0. else Float.max 0. (Float.min 1. q) in
    let threshold = q *. float_of_int hist.count in
    let rec walk acc = function
      | [] -> hist.max_v
      | (v, n) :: rest ->
        let acc = acc + n in
        if float_of_int acc >= threshold then v else walk acc rest
    in
    walk 0 (sorted hist)
  end

let mode hist =
  List.fold_left
    (fun (best_v, best_n) (v, n) -> if n > best_n then (v, n) else (best_v, best_n))
    (0, 0) (sorted hist)
  |> fst

let fold f init hist = List.fold_left (fun acc (v, n) -> f acc v n) init (sorted hist)

(* --- snapshots ------------------------------------------------------------ *)

(* Immutable value-sorted view, safe to hand between domains.  [merge]
   adds bucket weights pointwise, so it is associative and commutative
   with [empty_snapshot] as identity, and the result is identical to
   sequential accumulation; the --metrics accumulator merges one
   snapshot per sweep. *)
type snapshot = (int * int) list

let empty_snapshot : snapshot = []
let snapshot hist : snapshot = sorted hist
let snapshot_to_list (s : snapshot) = s

let merge (a : snapshot) (b : snapshot) : snapshot =
  let rec go a b =
    match (a, b) with
    | [], rest | rest, [] -> rest
    | (va, na) :: ta, (vb, nb) :: tb ->
      if va < vb then (va, na) :: go ta b
      else if vb < va then (vb, nb) :: go a tb
      else (va, na + nb) :: go ta tb
  in
  go a b

let json_of_snapshot (s : snapshot) : Json.t =
  Json.Obj
    [
      ("n", Json.Int (List.fold_left (fun acc (_, w) -> acc + w) 0 s));
      ("buckets", Json.List (List.map (fun (v, w) -> Json.List [ Json.Int v; Json.Int w ]) s));
    ]

let pp ppf hist =
  (* An empty histogram must not be printable as a real all-zero
     distribution: min/max/p50/p99 have no value to report. *)
  if hist.count = 0 then Format.fprintf ppf "n=0 (empty)"
  else
    Format.fprintf ppf "n=%d mean=%.2f min=%d max=%d p50=%d p99=%d" hist.count (mean hist)
      (min_value hist) (max_value hist) (percentile hist 0.50) (percentile hist 0.99)
