(* Deterministic fault injection for the supervised sweep engine.

   A [plan] decides, from a task's stable key alone, whether that task
   crashes, or whether its remote worker or request frame fails.  Keys
   are the same stable identifiers the pool seeds RNG streams from
   ([Runner.job_key], exploit names), so a plan fires on exactly the
   same tasks at any job count and across processes — the injection is
   as reproducible as the sweep itself.

   The armed plan is consulted from two places:
   - [Pool] supervision queries [crash_for] before each task runs
     (a crash raises [Injected_crash]);
   - [Remote] queries [worker_kill_for] (worker side) and
     [transport_fault_for] (supervisor side) per chunk.

   Arming happens once, before a sweep starts (CLI startup or a test's
   [Fun.protect]); workers only read the plan, so no locking is
   needed. *)

exception Injected_crash of string

type kind =
  | Crash
  | Kill_worker  (* the remote worker SIGKILLs itself mid-chunk *)
  | Drop_frame  (* the transport silently swallows the chunk's frame *)
  | Corrupt_frame  (* flip a payload byte after the digest is computed *)
  | Delay_frame of float  (* stall the frame this many seconds *)

type directive = { kind : kind; attempts : int }

(* A crash fires on every run of its task, so [attempts] is unused. *)
let crash () = { kind = Crash; attempts = 1 }
let kill_worker ?(attempts = 1) () = { kind = Kill_worker; attempts }
let drop_frame ?(attempts = 1) () = { kind = Drop_frame; attempts }
let corrupt_frame ?(attempts = 1) () = { kind = Corrupt_frame; attempts }
let delay_frame ?(attempts = 1) seconds = { kind = Delay_frame seconds; attempts }

type plan = { lookup : string -> directive option; describe : string }

let none = { lookup = (fun _ -> None); describe = "none" }

let of_list pairs =
  {
    lookup = (fun key -> List.assoc_opt key pairs);
    describe = Printf.sprintf "explicit plan over %d key(s)" (List.length pairs);
  }

(* Private FNV-1a copy: the plan must not depend on Pool (Pool depends
   on us), and pinning the hash keeps plans stable across stdlib
   changes, like Pool.seed_of_key. *)
let fnv1a s =
  let h = ref (-3750763034362895579L) (* 0xcbf29ce484222325 *) in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Int64.to_int !h land max_int

let seeded ?directive ~rate ~seed () =
  let directive = match directive with Some d -> d | None -> crash () in
  let rate = Float.max 0. (Float.min 1. rate) in
  let threshold = int_of_float (rate *. 1_000_000.) in
  {
    lookup =
      (fun key ->
        if fnv1a (string_of_int seed ^ "\x00" ^ key) mod 1_000_000 < threshold then
          Some directive
        else None);
    describe = Printf.sprintf "seeded plan (rate %.3f, seed %d)" rate seed;
  }

let current : plan ref = ref none
let arm plan = current := plan
let disarm () = current := none
let armed () = !current != none
let describe () = (!current).describe

(* --- named injection points ------------------------------------------------

   Key-driven plans fire per *task*; named points fire per *code
   location* — a specific line of the store's publish/quarantine
   machinery. The chaos soak uses them to SIGKILL a sweep at a chosen
   store operation and ordinal ([CHEX86_FAULT_POINT=
   store.publish.pre_rename=kill@3] kills the process the third time
   that line is reached), proving the crash-safety invariants hold at
   every point of the protocol, not just between tasks.

   Points are armed process-wide and survive the per-chunk [arm]/
   [disarm] the remote worker does for key plans, so a worker inherits
   point injections from its environment. *)

type point_action =
  | Point_kill  (* SIGKILL this process at the point *)
  | Point_crash  (* raise Injected_crash at the point *)
  | Point_torn of int  (* caller truncates its in-flight artifact *)
  | Point_delay of float  (* stall at the point *)
  | Point_enospc  (* caller fails its write with ENOSPC *)

type point_spec = { action : point_action; arm_at : int }
(** [arm_at]: fire on the Nth arrival at the point (1-based); 0 fires
    on every arrival. *)

type point_hit = Torn_artifact of int | Errno of Unix.error

(* The catalog of points compiled into the binary; arming an unknown
   name is a loud configuration error, never a silent no-op. *)
let known_points =
  [
    "store.load.pre_read";
    "store.publish.pre_write";
    "store.publish.mid_write";
    "store.publish.pre_rename";
    "store.publish.post_rename";
    "store.quarantine.pre_rename";
  ]

let points : (string, point_spec) Hashtbl.t = Hashtbl.create 4
let point_counts : (string, int ref) Hashtbl.t = Hashtbl.create 4
let points_lock = Mutex.create ()

(* Single atomic load on the (overwhelmingly common) disarmed path, so
   production store operations pay nothing for the instrumentation. *)
let points_live = Atomic.make false

let arm_points specs =
  Mutex.protect points_lock (fun () ->
      Hashtbl.reset points;
      Hashtbl.reset point_counts;
      List.iter (fun (name, spec) -> Hashtbl.replace points name spec) specs;
      Atomic.set points_live (Hashtbl.length points > 0))

let disarm_points () = arm_points []
let points_armed () = Atomic.get points_live

(* Count the arrival and decide under the lock; side effects happen
   outside it so a Point_delay never holds up other domains' points. *)
let point_decision name =
  Mutex.protect points_lock (fun () ->
      match Hashtbl.find_opt points name with
      | None -> None
      | Some { action; arm_at } ->
        let count =
          match Hashtbl.find_opt point_counts name with
          | Some r -> r
          | None ->
            let r = ref 0 in
            Hashtbl.add point_counts name r;
            r
        in
        incr count;
        if arm_at = 0 || !count = arm_at then Some action else None)

let at_point name =
  if not (Atomic.get points_live) then None
  else
    match point_decision name with
    | None -> None
    | Some Point_kill ->
      Unix.kill (Unix.getpid ()) Sys.sigkill;
      None
    | Some Point_crash -> raise (Injected_crash (Printf.sprintf "injection point %s" name))
    | Some (Point_delay seconds) ->
      Unix.sleepf seconds;
      None
    | Some (Point_torn keep) -> Some (Torn_artifact keep)
    | Some Point_enospc -> Some (Errno Unix.ENOSPC)

(* CHEX86_FAULT_POINT syntax: comma-separated NAME[=ACTION][@N] entries;
   ACTION is kill (default) | crash | enospc | torn:BYTES |
   delay:SECONDS.  Every malformed element is rejected with the
   offending string — a chaos run whose injection silently failed to arm
   would vacuously "pass". *)
let point_action_of_string s =
  match String.index_opt s ':' with
  | None -> (
    match s with
    | "" | "kill" -> Ok Point_kill
    | "crash" -> Ok Point_crash
    | "enospc" -> Ok Point_enospc
    | _ ->
      Error
        (Printf.sprintf "unknown action %S (kill|crash|enospc|torn:BYTES|delay:SECONDS)" s))
  | Some i -> (
    let head = String.sub s 0 i in
    let arg = String.sub s (i + 1) (String.length s - i - 1) in
    match head with
    | "torn" -> (
      match int_of_string_opt arg with
      | Some n when n >= 0 -> Ok (Point_torn n)
      | _ -> Error (Printf.sprintf "torn: not a byte count: %S" arg))
    | "delay" -> (
      match float_of_string_opt arg with
      | Some f when f >= 0. -> Ok (Point_delay f)
      | _ -> Error (Printf.sprintf "delay: not a duration in seconds: %S" arg))
    | _ ->
      Error
        (Printf.sprintf "unknown action %S (kill|crash|enospc|torn:BYTES|delay:SECONDS)" s))

let point_of_spec_entry entry =
  let entry = String.trim entry in
  let body, arm_at =
    match String.rindex_opt entry '@' with
    | None -> (Ok entry, Ok 1)
    | Some i ->
      let ordinal = String.sub entry (i + 1) (String.length entry - i - 1) in
      ( Ok (String.sub entry 0 i),
        match int_of_string_opt ordinal with
        | Some n when n >= 0 -> Ok n
        | _ -> Error (Printf.sprintf "%S: not an arrival ordinal: %S" entry ordinal) )
  in
  match (body, arm_at) with
  | Error e, _ | _, Error e -> Error e
  | Ok body, Ok arm_at -> (
    let name, action_spec =
      match String.index_opt body '=' with
      | None -> (body, "")
      | Some i -> (String.sub body 0 i, String.sub body (i + 1) (String.length body - i - 1))
    in
    if not (List.mem name known_points) then
      Error
        (Printf.sprintf "unknown injection point %S (known: %s)" name
           (String.concat ", " known_points))
    else
      match point_action_of_string action_spec with
      | Error e -> Error (Printf.sprintf "%S: %s" entry e)
      | Ok action -> Ok (name, { action; arm_at }))

let points_of_spec spec =
  let entries =
    String.split_on_char ',' spec |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if entries = [] then Error (Printf.sprintf "CHEX86_FAULT_POINT: empty spec %S" spec)
  else
    List.fold_left
      (fun acc entry ->
        match (acc, point_of_spec_entry entry) with
        | Error e, _ -> Error e
        | _, Error e -> Error ("CHEX86_FAULT_POINT: " ^ e)
        | Ok specs, Ok spec -> Ok (spec :: specs))
      (Ok []) entries
    |> Result.map List.rev

(* CHEX86_FAULT_RATE=0.5 [CHEX86_FAULT_SEED=11] [CHEX86_FAULT_KIND=kill]:
   every task whose key hashes under the rate fires the selected
   directive: a crash on every run (the default), a worker kill on the
   first dispatch. *)
let directive_of_kind_spec = function
  | None | Some "" | Some "crash" -> Ok (crash ())
  | Some "kill" -> Ok (kill_worker ())
  | Some s -> Error (Printf.sprintf "CHEX86_FAULT_KIND: unknown kind %S (crash|kill)" s)

let plan_of_env_spec ~rate_spec ~seed_spec ~kind_spec =
  match directive_of_kind_spec kind_spec with
  | Error _ as e -> e
  | Ok directive -> (
    match float_of_string_opt rate_spec with
    | Some rate when rate >= 0. && rate <= 1. -> (
      match seed_spec with
      | None | Some "" -> Ok (seeded ~directive ~rate ~seed:0 ())
      | Some s -> (
        match int_of_string_opt s with
        | Some seed -> Ok (seeded ~directive ~rate ~seed ())
        | None -> Error (Printf.sprintf "CHEX86_FAULT_SEED: not an integer: %S" s)))
    | _ ->
      Error (Printf.sprintf "CHEX86_FAULT_RATE: not a rate in [0,1]: %S" rate_spec))

(* Every CHEX86_FAULT_* variable is validated whether or not it ends up
   used: a malformed seed with no rate set is a configuration typo the
   user needs to hear about, not a silent fall-through to defaults. *)
let arm_from_env () =
  let rate_spec = Sys.getenv_opt "CHEX86_FAULT_RATE" in
  let seed_spec = Sys.getenv_opt "CHEX86_FAULT_SEED" in
  let kind_spec = Sys.getenv_opt "CHEX86_FAULT_KIND" in
  let point_spec = Sys.getenv_opt "CHEX86_FAULT_POINT" in
  let seed_valid =
    match seed_spec with
    | None | Some "" -> Ok ()
    | Some s -> (
      match int_of_string_opt s with
      | Some _ -> Ok ()
      | None -> Error (Printf.sprintf "CHEX86_FAULT_SEED: not an integer: %S" s))
  in
  let kind_valid = Result.map ignore (directive_of_kind_spec kind_spec) in
  let plan_armed =
    match rate_spec with
    | None | Some "" ->
      List.iter
        (fun (var, value) ->
          match value with
          | Some v when v <> "" ->
            Printf.eprintf
              "chex86-faultinject: %s=%S is set but CHEX86_FAULT_RATE is not; no key \
               plan armed\n\
               %!"
              var v
          | _ -> ())
        [ ("CHEX86_FAULT_SEED", seed_spec); ("CHEX86_FAULT_KIND", kind_spec) ];
      Ok false
    | Some rate_spec -> (
      match plan_of_env_spec ~rate_spec ~seed_spec ~kind_spec with
      | Ok plan ->
        arm plan;
        Ok true
      | Error _ as e -> e)
  in
  let points_armed_now =
    match point_spec with
    | None | Some "" -> Ok false
    | Some spec -> (
      match points_of_spec spec with
      | Ok specs ->
        arm_points specs;
        Ok true
      | Error _ as e -> e)
  in
  match (seed_valid, kind_valid, plan_armed, points_armed_now) with
  | Error e, _, _, _ | _, Error e, _, _ | _, _, Error e, _ | _, _, _, Error e -> Error e
  | Ok (), Ok (), Ok plan, Ok points -> Ok (plan || points)

let directive_for key = (!current).lookup key

let crash_for key =
  match directive_for key with Some { kind = Crash; _ } -> true | _ -> false

(* Consulted by the remote *worker* before each task of a chunk: a
   matching directive makes the worker SIGKILL itself, modelling an OOM
   kill / fatal crash the supervisor must contain.  [attempt] is the
   chunk's dispatch attempt, so the default one-attempt budget kills the
   first dispatch and lets the re-dispatch through. *)
let worker_kill_for ~key ~attempt =
  match directive_for key with
  | Some { kind = Kill_worker; attempts } -> attempt < attempts
  | _ -> false

(* Consulted by the remote *supervisor* before shipping a chunk's frame:
   the first task key carrying a transport directive decides the frame's
   fate. *)
let transport_fault_for ~keys ~attempt =
  List.find_map
    (fun key ->
      match directive_for key with
      | Some { kind = (Drop_frame | Corrupt_frame | Delay_frame _) as kind; attempts }
        when attempt < attempts ->
        Some kind
      | _ -> None)
    keys
