(* Domains-based parallel experiment engine.

   Shards independent simulation tasks over a fixed-size pool of worker
   domains.  Three properties make parallel sweeps safe to trust:

   - every task is self-contained: it builds its own guest program,
     monitor and counter group, so workers share no mutable state;
   - per-task RNG streams are seeded from a stable hash of the task key
     (FNV-1a over the key string), never from worker identity or
     scheduling order;
   - per-task stats are accumulated into private groups and merged by
     the coordinator in task order, and the merge operators
     ([Counter.merge] / [Histogram.merge]) are order-insensitive.

   Together these guarantee that a sweep at [~jobs:n] is bit-identical
   to the serial [~jobs:1] run (enforced by test/test_parallel.ml).

   [~jobs:1] does not spawn any domain: tasks run in the calling domain,
   in index order, through the exact same code path as before the pool
   existed. *)

module Rng = Chex86_stats.Rng
module Counter = Chex86_stats.Counter
module Histogram = Chex86_stats.Histogram

(* Without this, worker-side [Printexc.get_raw_backtrace] returns an
   empty trace and the failure's origin is lost across the domain
   boundary; turning recording on is what makes the re-raise in the
   coordinator (and the [Crashed] fault records) carry the worker's
   stack. *)
let () = Printexc.record_backtrace true

(* Monotonic clock, in seconds from an arbitrary epoch.  Deadlines and
   elapsed-time measurements must not use [Unix.gettimeofday]: a
   wall-clock step (NTP slew, suspend/resume) would fire spurious
   [Task_timed_out] or let a wedged task run forever.  The bechamel stub
   is a C binding to clock_gettime(CLOCK_MONOTONIC) (OCaml 5.1's Unix
   has no clock_gettime of its own). *)
let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

(* Process-wide job count, set once from the CLI (--jobs). *)
let current_jobs = Atomic.make (default_jobs ())
let set_jobs n = Atomic.set current_jobs (max 1 n)
let jobs () = Atomic.get current_jobs

(* Process-wide batch size for [sweep], set once from the CLI
   (--batch-size).  [None] means auto: size chunks so each worker gets
   ~4 of them (enough slack for dynamic load balancing without paying
   per-task dispatch 864 times on a RIPE-sized sweep), clamped to
   [1, 64]. *)
let current_batch_size : int option Atomic.t = Atomic.make None
let set_batch_size b = Atomic.set current_batch_size (Option.map (max 1) b)
let batch_size () = Atomic.get current_batch_size

let auto_batch_size ~jobs n =
  if n <= 0 then 1 else min 64 (max 1 ((n + (4 * jobs) - 1) / (4 * jobs)))

let resolve_batch ?batch_size:b ~jobs n =
  match (match b with Some _ as b -> b | None -> batch_size ()) with
  | Some b -> max 1 b
  | None -> auto_batch_size ~jobs n

(* Process-wide supervision defaults, set once from the CLI
   (--retries / --task-timeout / --strict); [sweep]'s arguments override
   them per call. *)
let current_retries = Atomic.make 0
let set_retries n = Atomic.set current_retries (max 0 n)
let retries () = Atomic.get current_retries
let current_task_timeout : float option Atomic.t = Atomic.make None

(* [Some t] with t <= 0 (or NaN) means every task's deadline has already
   expired when it starts — the whole sweep times out vacuously.  That
   is never what a caller wants; refuse it loudly. *)
let set_task_timeout t =
  (match t with
  | Some s when not (s > 0.) ->
    invalid_arg (Printf.sprintf "Pool.set_task_timeout: timeout must be > 0 (got %g)" s)
  | _ -> ());
  Atomic.set current_task_timeout t
let task_timeout () = Atomic.get current_task_timeout
let current_strict = Atomic.make false
let set_strict b = Atomic.set current_strict b
let strict () = Atomic.get current_strict

(* Faults reported by any supervised sweep this process ran; --strict
   turns a non-zero count into a non-zero exit. *)
let fault_count = Atomic.make 0
let faults_seen () = Atomic.get fault_count

(* Stable 64-bit FNV-1a over the task key.  [Hashtbl.hash] would also be
   deterministic, but spelling the hash out pins the seed derivation
   against stdlib changes. *)
let seed_of_key key =
  let h = ref (-3750763034362895579L) (* 0xcbf29ce484222325 *) in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    key;
  (* Int64.to_int keeps the low 63 bits; mask the sign bit so the seed
     is always non-negative. *)
  Int64.to_int !h land max_int

let rng_of_key key = Rng.create (seed_of_key key)

(* Run [compute ~slot i] for [i < n] across [jobs] workers.  [slot] is
   the worker's stable index in [0, jobs): the coordinator is slot 0 and
   each spawned domain keeps its own slot for the whole run, so a caller
   can keep per-slot state (the remote layer's worker process) without
   locking.  Results land in an array indexed by task, so output order
   is input order no matter which worker ran what.  Exceptions are
   re-raised in the coordinator, deterministically picking the
   lowest-index failure. *)
let run_indexed ~jobs n compute =
  let slots = Array.make n None in
  if jobs <= 1 || n <= 1 then
    for i = 0 to n - 1 do
      slots.(i) <- Some (Ok (compute ~slot:0 i))
    done
  else begin
    let next = Atomic.make 0 in
    let worker slot () =
      (* Backtrace recording is per-domain in OCaml 5; the module-level
         call only covers the coordinator. *)
      Printexc.record_backtrace true;
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (slots.(i) <-
            (try Some (Ok (compute ~slot i))
             with e -> Some (Error (e, Printexc.get_raw_backtrace ()))));
          loop ()
        end
      in
      loop ()
    in
    let spawned = List.init (min jobs n - 1) (fun s -> Domain.spawn (worker (s + 1))) in
    worker 0 () (* the coordinator is one of the pool's workers *);
    List.iter Domain.join spawned
  end;
  Array.iteri
    (fun i slot ->
      match slot with
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | Some (Ok _) -> ()
      | None -> failwith (Printf.sprintf "Pool: task %d lost" i))
    slots;
  Array.map (function Some (Ok v) -> v | _ -> assert false) slots

let map ?jobs:j f tasks =
  let jobs = match j with Some j -> max 1 j | None -> jobs () in
  run_indexed ~jobs (Array.length tasks) (fun ~slot:_ i -> f tasks.(i))

(* --- keyed tasks with private stats -------------------------------------- *)

type ctx = {
  key : string;
  rng : Rng.t;
  counters : Counter.group;
  histogram : string -> Histogram.t;
}

type merged_stats = {
  counters : Counter.group;
  histograms : (string * Histogram.t) list;
}

(* Plain marshalable data: the unit the remote dispatch layer ships
   across the process boundary. *)
type task_snapshots = Counter.snapshot * (string * Histogram.snapshot) list

(* Deterministic reduction: fold in task order (= the caller's key
   order), not completion order.  [merge_raw] stays in snapshot form, so
   the chunk loop can pre-merge each chunk on its own domain. *)
let merge_raw per_task : task_snapshots =
  let counter_total =
    List.fold_left (fun acc (snap, _) -> Counter.merge acc snap)
      Counter.empty_snapshot per_task
  in
  let hist_total : (string, Histogram.snapshot) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (_, hs) ->
      List.iter
        (fun (name, snap) ->
          let prev =
            Option.value ~default:Histogram.empty_snapshot
              (Hashtbl.find_opt hist_total name)
          in
          Hashtbl.replace hist_total name (Histogram.merge prev snap))
        hs)
    per_task;
  ( counter_total,
    Hashtbl.fold (fun name snap acc -> (name, snap) :: acc) hist_total []
    |> List.sort (fun (a, _) (b, _) -> compare a b) )

let merge_snapshots per_task =
  let counters, hists = merge_raw per_task in
  {
    counters = Counter.of_snapshot counters;
    histograms = List.map (fun (name, snap) -> (name, Histogram.of_snapshot snap)) hists;
  }

(* Telemetry boundary: fold a sweep's merged stats into the --metrics
   accumulator.  Runs after the merge is complete, so it observes —
   never perturbs — the deterministic totals. *)
let publish_metrics (stats : merged_stats) =
  if Trace.metrics_on () then
    Trace.metrics_absorb
      ( Counter.group_snapshot stats.counters,
        List.map (fun (n, h) -> (n, Histogram.snapshot h)) stats.histograms )

(* Build a task-private context for [k]; reading the snapshots after the
   task body ran yields the mergeable per-task stats. *)
let make_ctx k =
  let counters = Counter.create_group () in
  let hists : (string, Histogram.t) Hashtbl.t = Hashtbl.create 4 in
  let histogram name =
    match Hashtbl.find_opt hists name with
    | Some h -> h
    | None ->
      let h = Histogram.create () in
      Hashtbl.add hists name h;
      h
  in
  let ctx = { key = k; rng = rng_of_key k; counters; histogram } in
  let snapshots () =
    let hist_snaps =
      Hashtbl.fold (fun name h acc -> (name, Histogram.snapshot h) :: acc) hists []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    (Counter.group_snapshot counters, hist_snaps)
  in
  (ctx, snapshots)

(* --- batched scheduling ---------------------------------------------------- *)

(* Chunks are contiguous [start, start+len) slices of the task index
   space, each dispatched to one pool slot as a unit: one dispatch, one
   stats snapshot and one coordinator merge round per *chunk* instead of
   per task.  Contiguity keeps the merge deterministic for free —
   iterating chunks in index order visits tasks in index order — and the
   RNG stays seeded from the *task* key, never the chunk, so results are
   bit-identical to --batch-size 1 and to a serial run. *)
let chunk_ranges ~batch n =
  Array.init
    ((n + batch - 1) / batch)
    (fun ci ->
      let start = ci * batch in
      (start, min batch (n - start)))

(* --- supervised tasks: contain the fault, report it, keep going ----------- *)

(* The robustness analogue of CHEx86's fail-safe enforcement: a crashing
   or wedged task must not destroy a multi-hour sweep.  Each task runs
   under a supervisor that classifies the attempt as Ok / Crashed /
   Timed_out, retries within a bounded budget (re-seeding
   deterministically per attempt, so retried runs stay reproducible),
   and folds a sweep-level fault report into the merged stats instead of
   re-raising.

   Wall budgets are cooperative: domains cannot be killed, so the
   supervisor publishes a per-domain deadline and [check_deadline]
   raises once it passes.  The supervisor itself checks on attempt entry
   and exit; long-running task bodies (the Runner, the security sweep)
   call [check_deadline] at their own safe points.  Instruction budgets
   ride on the existing [max_insns] simulation hook, whose exhaustion is
   already a reported outcome, not an exception. *)

exception Task_timed_out

let deadline_key : float option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let set_deadline d = Domain.DLS.get deadline_key := d

(* Process-wide tick hook, fired on every [check_deadline].  The remote
   worker uses it as a liveness beacon: any task body that reaches its
   cooperative safe points also feeds the supervisor's heartbeat, so
   only tasks that never reach [check_deadline] at all look wedged from
   outside.  The hook must be cheap and rate-limit itself; exceptions
   are swallowed so a broken hook cannot fault the task. *)
let tick_hook : (unit -> unit) Atomic.t = Atomic.make (fun () -> ())
let set_tick_hook = function
  | Some f -> Atomic.set tick_hook f
  | None -> Atomic.set tick_hook (fun () -> ())

let check_deadline () =
  (try (Atomic.get tick_hook) () with _ -> ());
  match !(Domain.DLS.get deadline_key) with
  | Some t when now () > t -> raise Task_timed_out
  | _ -> ()

(* Attempt [a] of task [key] computes under the seed of [retry_key key a]:
   attempt 0 is the plain key (bit-identical to an unsupervised run), and
   each retry gets its own stable stream. *)
let retry_key key attempt =
  if attempt = 0 then key else Printf.sprintf "%s:retry%d" key attempt

type fault =
  | Crashed of { exn : string; backtrace : string }
  | Timed_out of { budget : float }
  | Worker_lost of { reason : string }

type task_fault = { index : int; key : string; attempts : int; fault : fault }

type fault_report = {
  tasks : int;
  chunks : int;
  ok : int;
  retried_ok : int;
  crashed : int;
  timed_out : int;
  worker_lost : int;
  retries_used : int;
  worker_losses : int;
  task_faults : task_fault list;
}

let fault_to_string = function
  | Crashed { exn; _ } -> "crashed: " ^ exn
  | Timed_out { budget } -> Printf.sprintf "timed out (wall budget %.3fs)" budget
  | Worker_lost { reason } -> "worker lost: " ^ reason

let render_fault_report ?(max_backtraces = 3) r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "sweep fault report: %d task(s), %d ok (%d recovered by retry), %d crashed, %d timed out, %d worker-lost, %d retry attempt(s)"
       r.tasks r.ok r.retried_ok r.crashed r.timed_out r.worker_lost
       r.retries_used);
  if r.worker_losses > 0 then
    Buffer.add_string b
      (Printf.sprintf "; %d worker loss event(s)" r.worker_losses);
  List.iteri
    (fun i tf ->
      Buffer.add_string b
        (Printf.sprintf "\n  task %d (%s): %s after %d attempt(s)" tf.index tf.key
           (fault_to_string tf.fault) tf.attempts);
      match tf.fault with
      | Crashed { backtrace; _ } when i < max_backtraces && backtrace <> "" ->
        String.split_on_char '\n' (String.trim backtrace)
        |> List.iter (fun line ->
               if line <> "" then Buffer.add_string b ("\n      " ^ line))
      | _ -> ())
    r.task_faults;
  Buffer.contents b

(* One supervised task: bounded retries, each attempt fenced by the
   injection hook and the cooperative deadline.  Never raises; the
   caller gets the classification plus the index of the last attempt. *)
let attempt_task ?(span_parent = 0) ~retries ~timeout ~key compute =
  let rec go attempt =
    let tid =
      if Trace.on () then
        Trace.span_begin ~parent:span_parent ~stage:"task"
          [ ("key", key); ("attempt", string_of_int attempt) ]
      else 0
    in
    let outcome =
      try
        set_deadline (Option.map (fun b -> now () +. b) timeout);
        (match Faultinject.fault_for ~key ~attempt with
        | Some Faultinject.Crash -> raise (Faultinject.Injected_crash key)
        | Some (Faultinject.Slow s) ->
          (* Sleep in slices with the deadline checked between them: a
             one-shot [Unix.sleepf s] would ignore the cooperative
             budget and stall the task for the full injected delay even
             when --task-timeout is much shorter. *)
          let until = now () +. s in
          let rec nap () =
            check_deadline ();
            let left = until -. now () in
            if left > 0. then begin
              Unix.sleepf (Float.min 0.01 left);
              nap ()
            end
          in
          nap ()
        | Some _ | None -> ());
        check_deadline ();
        let v = compute ~attempt ~attempt_key:(retry_key key attempt) in
        check_deadline ();
        set_deadline None;
        Ok v
      with
      | Task_timed_out ->
        set_deadline None;
        Error (Timed_out { budget = Option.value ~default:0. timeout })
      | e ->
        let backtrace = Printexc.get_backtrace () in
        set_deadline None;
        Error (Crashed { exn = Printexc.to_string e; backtrace })
    in
    Trace.span_end tid;
    match outcome with
    | Ok _ -> (outcome, attempt)
    | Error _ when attempt < retries ->
      if Trace.on () then
        Trace.instant ~parent:span_parent ~stage:"retry"
          [ ("key", key); ("attempt", string_of_int (attempt + 1)) ];
      go (attempt + 1)
    | Error _ -> (outcome, attempt)
  in
  go 0

(* One task run in this process: [attempt_task]'s fence around a fresh
   private context per attempt, so a faulted attempt's partial stats are
   discarded wholesale.  The in-process chunk body, the remote worker
   and the remote layer's in-process fallback all run tasks through
   this, which is what keeps their stats bit-identical. *)
let run_task ?span_parent ~retries ~timeout ~key f =
  attempt_task ?span_parent ~retries ~timeout ~key (fun ~attempt:_ ~attempt_key ->
      let ctx, snapshots = make_ctx attempt_key in
      let v = f ctx in
      (v, snapshots ()))

let build_report ~worker_losses ~chunks ~key tasks raw =
  let tasks_n = Array.length tasks in
  let ok = ref 0
  and retried_ok = ref 0
  and crashed = ref 0
  and timed_out = ref 0
  and worker_lost = ref 0
  and retries_used = ref 0
  and faults = ref [] in
  Array.iteri
    (fun i (outcome, attempts) ->
      retries_used := !retries_used + attempts;
      match outcome with
      | Ok _ ->
        incr ok;
        if attempts > 0 then incr retried_ok
      | Error fault ->
        (match fault with
        | Crashed _ -> incr crashed
        | Timed_out _ -> incr timed_out
        | Worker_lost _ -> incr worker_lost);
        faults :=
          { index = i; key = key tasks.(i); attempts = attempts + 1; fault }
          :: !faults)
    raw;
  Atomic.fetch_and_add fault_count (!crashed + !timed_out + !worker_lost)
  |> ignore;
  {
    tasks = tasks_n;
    chunks;
    ok = !ok;
    retried_ok = !retried_ok;
    crashed = !crashed;
    timed_out = !timed_out;
    worker_lost = !worker_lost;
    retries_used = !retries_used;
    worker_losses;
    task_faults = List.rev !faults;
  }

let supervise_params ?retries:r ?task_timeout:t () =
  let retries = match r with Some n -> max 0 n | None -> retries () in
  let timeout = match t with Some _ -> t | None -> task_timeout () in
  (retries, timeout)

(* Fault counters fold into the merged stats so a partial sweep carries
   its own health record; they are derived from the per-task
   classification (scheduling-independent), preserving the jobs=n ==
   jobs=1 determinism contract. *)
let fault_counters report group =
  Counter.incr ~by:report.tasks group "pool.tasks";
  Counter.incr ~by:report.ok group "pool.ok";
  Counter.incr ~by:report.retried_ok group "pool.retried_ok";
  Counter.incr ~by:report.crashed group "pool.crashed";
  Counter.incr ~by:report.timed_out group "pool.timed_out";
  Counter.incr ~by:report.worker_lost group "pool.worker_lost";
  Counter.incr ~by:report.retries_used group "pool.retries_used"

(* --- the chunk loop ------------------------------------------------------- *)

(* One chunk = one pool dispatch, but supervision stays per *task*: the
   body returns one (outcome, attempt index) per task of its chunk, and
   a crash, timeout or worker loss mid-chunk faults exactly that task.
   Each chunk's completed tasks are pre-merged on the slot that ran it,
   so the coordinator merges per chunk, in chunk (= task) order.

   [pool.chunks] records how many dispatch rounds the sweep actually
   paid.  It is the *only* scheduling-dependent counter the pool ever
   merges: with auto batch sizing it varies with --jobs, so determinism
   tests compare merged counters modulo this one name.  [transport] is
   read once after the last chunk: the worker loss events and the
   transport's own counters, both zero/empty in process. *)
let run_chunks ?jobs:j ?batch_size ?(transport = fun () -> (0, [])) ~key body tasks =
  let jobs = match j with Some j -> max 1 j | None -> jobs () in
  let n = Array.length tasks in
  let batch = resolve_batch ?batch_size ~jobs n in
  let chunks = chunk_ranges ~batch n in
  let per_chunk =
    run_indexed ~jobs (Array.length chunks) (fun ~slot ci ->
        let start, len = chunks.(ci) in
        let outcomes = body ~slot ~chunk:ci ~start ~len in
        let done_snaps =
          Array.to_list outcomes
          |> List.filter_map (function Ok (_, snaps), _ -> Some snaps | Error _, _ -> None)
        in
        (Array.map (fun (o, a) -> (Result.map fst o, a)) outcomes, merge_raw done_snaps))
  in
  let raw = Array.init n (fun i -> (fst per_chunk.(i / batch)).(i mod batch)) in
  let worker_losses, transport_counters = transport () in
  let report =
    build_report ~worker_losses ~chunks:(Array.length chunks) ~key tasks raw
  in
  let stats = merge_snapshots (Array.to_list (Array.map snd per_chunk)) in
  fault_counters report stats.counters;
  Counter.incr ~by:report.chunks stats.counters "pool.chunks";
  List.iter (fun (name, by) -> Counter.incr ~by stats.counters name) transport_counters;
  publish_metrics stats;
  (Array.map fst raw, stats, report)

(* --- the sweep ------------------------------------------------------------ *)

let sweep ?jobs ?batch_size ?retries ?task_timeout ~key f tasks =
  let retries, timeout = supervise_params ?retries ?task_timeout () in
  run_chunks ?jobs ?batch_size ~key
    (fun ~slot:_ ~chunk ~start ~len ->
      let cid =
        if Trace.on () then
          Trace.span_begin ~stage:"chunk"
            [ ("chunk", string_of_int chunk); ("tasks", string_of_int len) ]
        else 0
      in
      let outcomes =
        Array.init len (fun k ->
            let task = tasks.(start + k) in
            run_task ~span_parent:cid ~retries ~timeout ~key:(key task) (fun ctx -> f task ctx))
      in
      Trace.span_end cid;
      outcomes)
    tasks
