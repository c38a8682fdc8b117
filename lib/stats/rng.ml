(* Deterministic splitmix64 PRNG.

   Workload generation and the RIPE exploit sweep must be reproducible
   across runs and independent of global [Random] state, so every consumer
   carries its own seeded stream. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

(* Stable 64-bit FNV-1a over a key.  [Hashtbl.hash] would also be
   deterministic, but spelling the hash out pins every seed derived
   from a key against stdlib changes. *)
let seed_of_key key =
  let h = ref (-3750763034362895579L) (* 0xcbf29ce484222325 *) in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    key;
  (* Int64.to_int keeps the low 63 bits; mask the sign bit so the seed
     is always non-negative. *)
  Int64.to_int !h land max_int

let next_int64 rng =
  let open Int64 in
  rng.state <- add rng.state 0x9E3779B97F4A7C15L;
  let z = rng.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Non-negative int in [0, bound).  The raw draw keeps 62 bits so that
   [Int64.to_int] cannot wrap into OCaml's sign bit. *)
let int rng bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let raw = Int64.to_int (Int64.shift_right_logical (next_int64 rng) 2) in
  raw mod bound

let bool rng = Int64.logand (next_int64 rng) 1L = 1L

let float rng =
  let raw = Int64.to_int (Int64.shift_right_logical (next_int64 rng) 11) in
  float_of_int raw /. float_of_int (1 lsl 53)

(* Pick uniformly from a non-empty array. *)
let choose rng options =
  if Array.length options = 0 then invalid_arg "Rng.choose: empty";
  options.(int rng (Array.length options))

let shuffle rng arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
