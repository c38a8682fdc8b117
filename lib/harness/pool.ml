(* Domains-based parallel experiment engine.

   Shards independent simulation tasks over a fixed-size pool of worker
   domains.  Two properties make parallel sweeps safe to trust:

   - every task is self-contained: it builds its own guest program,
     monitor and counter group, so workers share no mutable state;
   - a task reports only through its return value, and results land in
     an array indexed by task, so output order is input order no matter
     which worker ran what.

   Together these guarantee that a sweep at [~jobs:n] is bit-identical
   to the serial [~jobs:1] run (enforced by test/test_parallel.ml).

   [~jobs:1] does not spawn any domain: tasks run in the calling domain,
   in index order, through the exact same code path as before the pool
   existed. *)

module Counter = Chex86_stats.Counter

(* Without this, worker-side [Printexc.get_raw_backtrace] returns an
   empty trace and the failure's origin is lost across the domain
   boundary; turning recording on is what makes the re-raise in the
   coordinator (and the [Crashed] fault records) carry the worker's
   stack. *)
let () = Printexc.record_backtrace true

(* Monotonic clock, in seconds from an arbitrary epoch.  Elapsed-time
   measurements and the remote layer's respawn schedule must not use
   [Unix.gettimeofday]: a wall-clock step (NTP slew, suspend/resume)
   would skew them.  The bechamel stub is a C binding to
   clock_gettime(CLOCK_MONOTONIC) (OCaml 5.1's Unix has no
   clock_gettime of its own). *)
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

(* Process-wide fault policy, set once from the CLI (--strict /
   --keep-going). *)
let current_strict = Atomic.make false
let set_strict b = Atomic.set current_strict b
let strict () = Atomic.get current_strict

(* Faults reported by any supervised sweep this process ran; --strict
   turns a non-zero count into a non-zero exit. *)
let fault_count = Atomic.make 0
let faults_seen () = Atomic.get fault_count

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

(* --- batched scheduling ---------------------------------------------------- *)

(* Chunks are contiguous [start, start+len) slices of the task index
   space, each dispatched to one pool slot as a unit: one dispatch per
   *chunk* instead of per task.  A task's result depends on the task
   alone, never on its chunk, and contiguity puts chunk [ci]'s results
   at [ci * batch ..], so results are bit-identical to --batch-size 1
   and to a serial run. *)
let chunk_ranges ~batch n =
  Array.init
    ((n + batch - 1) / batch)
    (fun ci ->
      let start = ci * batch in
      (start, min batch (n - start)))

(* --- supervised tasks: contain the fault, report it, keep going ----------- *)

(* The robustness analogue of CHEx86's fail-safe enforcement: a crashing
   task must not destroy a multi-hour sweep.  Each task runs under a
   supervisor that classifies it as Ok / Crashed and returns a
   sweep-level fault report beside the results instead of re-raising.

   A task runs once.  The simulator is deterministic and a task's result
   depends on the task alone, so running a faulted task again would
   recompute the same fault.  Runaway guests are bounded by the
   simulation's [max_insns] budget, whose exhaustion is a reported
   outcome, not an exception; a task that hangs its process for good is
   contained only by the remote layer's heartbeat. *)

type fault =
  | Crashed of { exn : string; backtrace : string }
  | Worker_lost of { reason : string }

type task_fault = { index : int; key : string; fault : fault }

type fault_report = {
  tasks : int;
  chunks : int;
  ok : int;
  crashed : int;
  worker_lost : int;
  worker_losses : int;
  task_faults : task_fault list;
  transport : (string * int) list;
}

let fault_to_string = function
  | Crashed { exn; _ } -> "crashed: " ^ exn
  | Worker_lost { reason } -> "worker lost: " ^ reason

let render_fault_report ?(max_backtraces = 3) r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "sweep fault report: %d task(s), %d ok, %d crashed, %d worker-lost"
       r.tasks r.ok r.crashed r.worker_lost);
  if r.worker_losses > 0 then
    Buffer.add_string b
      (Printf.sprintf "; %d worker loss event(s)" r.worker_losses);
  List.iteri
    (fun i tf ->
      Buffer.add_string b
        (Printf.sprintf "\n  task %d (%s): %s" tf.index tf.key (fault_to_string tf.fault));
      match tf.fault with
      | Crashed { backtrace; _ } when i < max_backtraces && backtrace <> "" ->
        String.split_on_char '\n' (String.trim backtrace)
        |> List.iter (fun line ->
               if line <> "" then Buffer.add_string b ("\n      " ^ line))
      | _ -> ())
    r.task_faults;
  Buffer.contents b

(* One task run in this process: the injection hook, then the body.
   Never raises.  The in-process chunk body, the remote worker and the
   remote layer's in-process fallback all run tasks through this, which
   is what keeps their results bit-identical. *)
let run_task ?(span_parent = 0) ~key f =
  let tid =
    if Trace.on () then Trace.span_begin ~parent:span_parent ~stage:"task" [ ("key", key) ]
    else 0
  in
  let outcome =
    try
      if Faultinject.crash_for key then raise (Faultinject.Injected_crash key);
      Ok (f ())
    with e ->
      let backtrace = Printexc.get_backtrace () in
      Error (Crashed { exn = Printexc.to_string e; backtrace })
  in
  Trace.span_end tid;
  outcome

let build_report ~worker_losses ~transport ~chunks ~key tasks raw =
  let crashed = ref 0 and worker_lost = ref 0 and faults = ref [] in
  Array.iteri
    (fun i outcome ->
      match outcome with
      | Ok _ -> ()
      | Error fault ->
        (match fault with Crashed _ -> incr crashed | Worker_lost _ -> incr worker_lost);
        faults := { index = i; key = key tasks.(i); fault } :: !faults)
    raw;
  Atomic.fetch_and_add fault_count (!crashed + !worker_lost) |> ignore;
  let tasks = Array.length tasks in
  {
    tasks;
    chunks;
    ok = tasks - !crashed - !worker_lost;
    crashed = !crashed;
    worker_lost = !worker_lost;
    worker_losses;
    task_faults = List.rev !faults;
    transport;
  }

(* Telemetry boundary: the report's counts go to the --metrics
   accumulator under their [pool.*] names, with the transport's
   [remote.*] counters.  Runs once the report is complete, so it
   observes, never perturbs, the sweep. *)
let publish_report r =
  if Trace.metrics_on () then begin
    let g = Counter.create_group () in
    List.iter
      (fun (name, by) -> Counter.incr ~by g name)
      (("pool.tasks", r.tasks) :: ("pool.ok", r.ok) :: ("pool.crashed", r.crashed)
      :: ("pool.worker_lost", r.worker_lost) :: ("pool.chunks", r.chunks) :: r.transport);
    Trace.metrics_absorb (Counter.group_snapshot g, [])
  end

(* --- the chunk loop ------------------------------------------------------- *)

(* One chunk = one pool dispatch, but supervision stays per *task*: the
   body returns one outcome per task of its chunk, and a crash or worker
   loss mid-chunk faults exactly that task.

   [chunks] records how many dispatch rounds the sweep actually paid:
   with auto batch sizing it varies with --jobs, so determinism tests
   compare reports without it.  [transport] is read once after the last
   chunk: the worker loss events and the transport's own counters, both
   zero/empty in process. *)
let run_chunks ?jobs:j ?batch_size ?(transport = fun () -> (0, [])) ~key body tasks =
  let jobs = match j with Some j -> max 1 j | None -> jobs () in
  let n = Array.length tasks in
  let batch = resolve_batch ?batch_size ~jobs n in
  let chunks = chunk_ranges ~batch n in
  let per_chunk =
    run_indexed ~jobs (Array.length chunks) (fun ~slot ci ->
        let start, len = chunks.(ci) in
        body ~slot ~chunk:ci ~start ~len)
  in
  let raw = Array.init n (fun i -> per_chunk.(i / batch).(i mod batch)) in
  let worker_losses, transport = transport () in
  let report =
    build_report ~worker_losses ~transport ~chunks:(Array.length chunks) ~key tasks raw
  in
  publish_report report;
  (raw, report)

(* --- the sweep ------------------------------------------------------------ *)

let sweep ?jobs ?batch_size ~key f tasks =
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
            run_task ~span_parent:cid ~key:(key task) (fun () -> f task))
      in
      Trace.span_end cid;
      outcomes)
    tasks
