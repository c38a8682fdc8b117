(* Process-isolated worker dispatch.

   The in-process pool contains exceptions only: a task that hangs or
   kills its process — a deadlock, runaway allocation, a simulator bug
   spinning in native code — still takes the whole sweep down, because
   domains cannot be killed.  This layer makes containment
   structural.  It is a chunk body for [Pool.run_chunks]: each pool slot
   forks/execs its own copy of [bin/chex86_worker.exe] over a socketpair,
   ships each chunk's task keys as length-prefixed, digest-checksummed
   frames and returns the streamed per-task outcomes.  Chunking,
   chunk-to-slot assignment and the fault report are Pool's, so results
   stay bit-identical to a serial run at any (workers, batch) geometry.

   Robustness model:
   - Liveness is observed, never assumed: a worker's frames (Hello,
     Beat, Result) are its heartbeat, read under a receive timeout of
     one heartbeat.  Beats come from a thread of the worker's own that
     sends one every quarter heartbeat while a chunk is in flight, so a
     task may run as long as it needs; a worker that is stopped,
     deadlocked or dead goes silent and is SIGKILLed when the timeout
     fires.
   - A dead worker loses only its in-flight task's progress: streamed
     per-task results are kept, and the tasks still owed are re-sent to
     a respawned worker.  A task that keeps killing its worker is
     faulted as [Worker_lost] once the loss budget is spent —
     distinguished in the fault report from [Crashed].
   - Respawns back off exponentially with deterministic jitter under a
     bounded restart budget per slot.
   - A slot with no live worker (no executable, or its restart budget
     spent) runs its chunks in-process with a warning instead of
     failing.

   Layering: this module sits below Runner/Security (they route sweeps
   through it), so it must not reference them.  The worker-side result
   store wiring goes through [store_dir_provider]/[store_dir_applier],
   set by Runner at module init. *)

module Rng = Chex86_stats.Rng

(* v2: [request] gained the [trace] flag and Chunk_done's payload grew a
   third field carrying the worker's collected trace spans.  v3: no
   retry or timeout budgets in [request], no attempt count in a result.
   v4: a result carries the task's value alone, no stats snapshots. *)
let protocol_version = 4

(* --- process-wide knobs (CLI-set, argument-overridable) ------------------- *)

type spec = Off | Spawn of int

let current_spec : spec Atomic.t = Atomic.make Off
let set_spec s = Atomic.set current_spec s
let spec () = Atomic.get current_spec
let enabled () = spec () <> Off

let current_heartbeat = Atomic.make 30.0

(* A non-positive (or NaN) heartbeat would declare every busy worker
   dead the instant it is dispatched to, so it is refused loudly.  Small
   values are floored at 200 ms: a worker's beater may wait one 50 ms
   runtime tick for the master lock, and a 50 ms heartbeat killed
   healthy workers in the middle of a long task. *)
let check_heartbeat ~who s =
  if not (s > 0.) then
    invalid_arg (Printf.sprintf "%s: heartbeat must be > 0 (got %g)" who s);
  Float.max 0.2 s

let set_heartbeat s = Atomic.set current_heartbeat (check_heartbeat ~who:"Remote.set_heartbeat" s)
let heartbeat () = Atomic.get current_heartbeat

(* Respawns one worker slot may pay before it runs its chunks
   in-process, and the first respawn delay in seconds (it doubles per
   restart). *)
let restart_budget = 3
let backoff_base = 0.05

(* --- store wiring hooks (set by Runner; see layering note above) ---------- *)

let store_dir_provider : (unit -> string option) ref = ref (fun () -> None)
let store_dir_applier : (string option -> unit) ref = ref (fun _ -> ())

(* --- task kinds ----------------------------------------------------------- *)

(* A kind names the computation both sides agree on; the wire carries
   only (kind, key, arg) strings, never closures.  The worker looks the
   kind up in its own registry, so supervisor and worker must link the
   same registration code (Security/Runner register theirs; [selftest]
   is built in). *)
type kind_fn = key:string -> arg:string -> string

let kinds : (string, kind_fn) Hashtbl.t = Hashtbl.create 8
let kinds_lock = Mutex.create ()

let register_kind name fn =
  Mutex.protect kinds_lock (fun () -> Hashtbl.replace kinds name fn)

let find_kind name = Mutex.protect kinds_lock (fun () -> Hashtbl.find_opt kinds name)

(* Built-in self-test kind: returns the sum of [arg] draws from an RNG
   seeded by the task key, so tests can assert remote == serial
   bit-identity without simulating anything.  A key prefixed "wedge"
   stops its own process first (SIGSTOP): the unresponsive worker the
   heartbeat exists for.  A key prefixed "long" first spins for [arg]
   seconds without allocating: a healthy task that outlives many
   heartbeats. *)
let selftest_kind = "selftest"

let () =
  register_kind selftest_kind (fun ~key ~arg ->
      if String.starts_with ~prefix:"wedge" key then Unix.kill (Unix.getpid ()) Sys.sigstop;
      if String.starts_with ~prefix:"long" key then begin
        let until = Pool.now () +. float_of_string arg in
        while Pool.now () < until do
          ()
        done
      end;
      let rounds = Option.value ~default:8 (int_of_string_opt arg) in
      let rng = Rng.create (Rng.seed_of_key key) in
      let sum = ref 0 in
      for _ = 1 to rounds do
        sum := !sum + Rng.int rng 1000
      done;
      string_of_int !sum)

(* --- frames ---------------------------------------------------------------

   Header (22 bytes): 1-byte protocol version, 1-byte frame type, 4-byte
   big-endian payload length, 16-byte MD5 digest of the payload; then
   the payload.  The digest catches transport corruption before
   [Marshal.from_string] ever sees the bytes: a corrupt frame is a
   protocol error to report, never a segfault. *)

type frame_type = Hello | Run | Result | Chunk_done | Beat | Err | Shutdown

let tag_of_frame_type = function
  | Hello -> 0
  | Run -> 1
  | Result -> 2
  | Chunk_done -> 3
  | Beat -> 4
  | Err -> 5
  | Shutdown -> 6

let frame_type_name = function
  | Hello -> "Hello"
  | Run -> "Run"
  | Result -> "Result"
  | Chunk_done -> "Chunk_done"
  | Beat -> "Beat"
  | Err -> "Err"
  | Shutdown -> "Shutdown"

let frame_type_of_tag = function
  | 0 -> Some Hello
  | 1 -> Some Run
  | 2 -> Some Result
  | 3 -> Some Chunk_done
  | 4 -> Some Beat
  | 5 -> Some Err
  | 6 -> Some Shutdown
  | _ -> None

let header_len = 22
let max_frame_payload = 1 lsl 30

exception Frame_error of string

let encode_frame ftype payload =
  let len = String.length payload in
  let b = Bytes.create (header_len + len) in
  Bytes.set b 0 (Char.chr protocol_version);
  Bytes.set b 1 (Char.chr (tag_of_frame_type ftype));
  Bytes.set_int32_be b 2 (Int32.of_int len);
  Bytes.blit_string (Digest.string payload) 0 b 6 16;
  Bytes.blit_string payload 0 b header_len len;
  b

let write_all fd b =
  let len = Bytes.length b in
  let pos = ref 0 in
  while !pos < len do
    let n = Unix.write fd b !pos (len - !pos) in
    if n <= 0 then raise (Frame_error "short write");
    pos := !pos + n
  done

let send_frame fd ftype payload = write_all fd (encode_frame ftype payload)

(* Blocking reader, both sides: the supervisor's socket carries a
   receive timeout of one heartbeat, so a silent worker surfaces here as
   EAGAIN. *)
let really_read fd len =
  let b = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let n = Unix.read fd b !pos (len - !pos) in
    if n = 0 then raise End_of_file;
    pos := !pos + n
  done;
  Bytes.unsafe_to_string b

let read_frame fd =
  let header = really_read fd header_len in
  let version = Char.code header.[0] in
  if version <> protocol_version then
    raise (Frame_error (Printf.sprintf "protocol version %d, expected %d" version protocol_version));
  let ftype =
    match frame_type_of_tag (Char.code header.[1]) with
    | Some t -> t
    | None -> raise (Frame_error (Printf.sprintf "unknown frame type %d" (Char.code header.[1])))
  in
  let len = Int32.to_int (String.get_int32_be header 2) in
  if len < 0 || len > max_frame_payload then
    raise (Frame_error (Printf.sprintf "frame length %d out of range" len));
  let digest = String.sub header 6 16 in
  let payload = really_read fd len in
  if Digest.string payload <> digest then raise (Frame_error "frame digest mismatch");
  (ftype, payload)

(* --- wire records ---------------------------------------------------------

   Marshalled as plain data (no closures): task keys and opaque arg
   strings go out; per-task outcomes come back.  [indices] are global
   task indices — after a loss excludes a faulted task, a re-dispatched
   chunk is no longer contiguous. *)

type request = {
  chunk_id : int;
  req_kind : string;
  dispatch_attempt : int;
  indices : int array;
  keys : string array;
  args : string array;
  store_dir : string option;
  beat_every : float;
  plan : (string * Faultinject.directive) list;
  trace : bool;
      (* supervisor is tracing: collect span lines and ship them back
         piggybacked on Chunk_done — no extra round-trip *)
}

type task_result = {
  t_index : int;
  t_outcome : (string, Pool.fault) result;
}

(* --- worker side ----------------------------------------------------------- *)

module Worker = struct
  (* The store configuration shipped with each request is applied only
     when it changes; reconfiguring re-sweeps the tmp directory. *)
  let applied_store : string option option ref = ref None

  let apply_store_dir dir =
    if !applied_store <> Some dir then begin
      !store_dir_applier dir;
      applied_store := Some dir
    end

  (* Every frame this process writes goes out under [lock], so a Beat
     never lands inside a Result.  [every] is the beat interval while a
     chunk is in flight and 0 between chunks; it changes under [lock]
     too, so no Beat follows a Chunk_done. *)
  type link = {
    output : Unix.file_descr;
    lock : Mutex.t;
    wake : Condition.t;
    mutable every : float;
  }

  let send link ftype payload =
    Mutex.protect link.lock (fun () -> send_frame link.output ftype payload)

  (* The beater: a systhread, not a domain, because a sleeping second
     domain makes every minor collection a two-domain stop-the-world.
     The runtime hands it the master lock within a 50 ms tick of any
     running task, so only a stopped, deadlocked or dead process goes
     silent.  It holds [lock] except while it sleeps, and ends when a
     write fails: the supervisor is gone, as the main thread's next
     write finds out too. *)
  let beater link =
    Mutex.lock link.lock;
    let rec loop () =
      if link.every <= 0. then (Condition.wait link.wake link.lock; loop ())
      else begin
        let every = link.every in
        Mutex.unlock link.lock;
        Thread.delay every;
        Mutex.lock link.lock;
        match if link.every > 0. then send_frame link.output Beat "" with
        | () -> loop ()
        | exception (Unix.Unix_error _ | Frame_error _) -> Mutex.unlock link.lock
      end
    in
    loop ()

  let run_chunk link (req : request) =
    if req.plan = [] then Faultinject.disarm ()
    else Faultinject.arm (Faultinject.of_list req.plan);
    (* Trace collection mirrors the supervisor's tracing state per
       request; lines are tagged with this process's own src so the
       streams stitch offline without id coordination. *)
    if req.trace then Trace.set_src (Printf.sprintf "w%d" (Unix.getpid ()));
    Trace.set_collect req.trace;
    apply_store_dir req.store_dir;
    match find_kind req.req_kind with
    | None -> send link Err (Printf.sprintf "unknown task kind %S" req.req_kind)
    | Some fn ->
      Mutex.protect link.lock (fun () ->
          link.every <- req.beat_every;
          Condition.signal link.wake);
      let cid =
        if Trace.on () then
          Trace.span_begin ~stage:"chunk"
            [
              ("chunk", string_of_int req.chunk_id);
              ("attempt", string_of_int req.dispatch_attempt);
              ("tasks", string_of_int (Array.length req.keys));
            ]
        else 0
      in
      Array.iteri
        (fun k key ->
          (* Injected mid-chunk worker death: SIGKILL leaves the
             supervisor nothing but silence and a closed socket, exactly
             like an OOM kill. *)
          if Faultinject.worker_kill_for ~key ~attempt:req.dispatch_attempt then
            Unix.kill (Unix.getpid ()) Sys.sigkill;
          let outcome =
            Pool.run_task ~span_parent:cid ~key (fun () -> fn ~key ~arg:req.args.(k))
          in
          send link Result
            (Marshal.to_string { t_index = req.indices.(k); t_outcome = outcome } []))
        req.keys;
      Trace.span_end cid;
      (* Spans drain after the chunk span closed, so the shipped stream
         is self-contained; the Chunk_done frame itself is the one event
         a traced worker cannot record. *)
      let payload =
        Marshal.to_string (req.chunk_id, req.dispatch_attempt, Trace.drain_collected ()) []
      in
      Mutex.protect link.lock (fun () ->
          link.every <- 0.;
          send_frame link.output Chunk_done payload)

  let serve ~input ~output =
    let link = { output; lock = Mutex.create (); wake = Condition.create (); every = 0. } in
    (* Not joined: the process exits when [serve] returns. *)
    ignore (Thread.create beater link);
    send link Hello (string_of_int protocol_version);
    let rec loop () =
      match read_frame input with
      | Run, payload ->
        run_chunk link (Marshal.from_string payload 0 : request);
        loop ()
      | Shutdown, _ -> ()
      | (Hello | Beat | Result | Chunk_done | Err), _ -> loop ()
      | exception End_of_file -> ()
      | exception Frame_error msg ->
        (* The length field was still trusted, so the stream is back in
           sync after skipping the payload; report and keep serving. *)
        send link Err msg;
        loop ()
    in
    loop ()
end

(* --- supervisor ------------------------------------------------------------ *)

let warn fmt =
  Printf.ksprintf (fun msg -> Printf.eprintf "chex86-remote: %s\n%!" msg) fmt

(* Worker executable discovery: explicit override, else next to the
   running binary, else the sibling bin/ directory (covers executables
   under _build/default/{bin,bench,test}). *)
let worker_exe () =
  let dir = Filename.dirname Sys.executable_name in
  List.find_opt Sys.file_exists
    (match Sys.getenv_opt "CHEX86_WORKER_EXE" with
    | Some p when p <> "" -> [ p ]
    | _ ->
      [
        Filename.concat dir "chex86_worker.exe";
        Filename.concat dir (Filename.concat ".." (Filename.concat "bin" "chex86_worker.exe"));
      ])

(* Deterministic backoff jitter: seeded from (slot, restart ordinal),
   never the clock, so restart schedules are as reproducible as the
   sweep itself. *)

(* Exponential growth is clamped here before jitter: past this the
   delay stops conveying information (the worker is just broken), and
   unclamped [2. ** n] reaches infinity around ordinal 1030, which
   would wedge the supervisor in [sleepf] forever. Jitter stays
   multiplicative, so the worst observable delay is 1.25x this. *)
let max_backoff_delay = 5.0

let backoff_delay ~sid ~restarts =
  let exp =
    Float.min max_backoff_delay (backoff_base *. (2. ** float_of_int (max 0 (restarts - 1))))
  in
  let rng = Rng.create (Rng.seed_of_key (Printf.sprintf "respawn/%d/%d" sid restarts)) in
  exp *. (1. +. (0.25 *. Rng.float rng))

(* Both ends close on exec: slots spawn concurrently, and a sibling
   worker that inherited this pair would hold the socket open after
   ours died, hiding the EOF until the heartbeat fires.  The child's
   stdio copies are made by dup2, which clears the flag. *)
let spawn exe ~hb =
  try
    let sup, wrk = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.create_process exe [| exe; "--stdio" |] wrk wrk Unix.stderr with
    | pid ->
      Unix.close wrk;
      Unix.setsockopt_float sup Unix.SO_RCVTIMEO hb;
      Ok (sup, pid)
    | exception e ->
      Unix.close sup;
      Unix.close wrk;
      raise e
  with e -> Error (Printexc.to_string e)

(* Ship a Run frame through the armed transport fault plan; [false]
   when the plan swallowed it. *)
let send_run fd ~keys ~attempt payload =
  match Faultinject.transport_fault_for ~keys ~attempt with
  | Some Faultinject.Drop_frame ->
    (* Swallowed in transit: the worker stays silent on this chunk and
       the heartbeat timeout recovers it. *)
    false
  | Some (Faultinject.Delay_frame s) ->
    Unix.sleepf s;
    send_frame fd Run payload;
    true
  | Some Faultinject.Corrupt_frame ->
    let b = encode_frame Run payload in
    let pos = header_len + (String.length payload / 2) in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xff));
    write_all fd b;
    true
  | Some _ | None ->
    send_frame fd Run payload;
    true

exception Lost of string

(* One pool slot's worker process.  Only the domain that owns the slot
   touches it. *)
type slot = {
  sid : int;
  mutable conn : (Unix.file_descr * int) option;  (* socket, pid *)
  mutable restarts : int;
  mutable due : float;  (* monotonic time the next spawn may start *)
}

let close_worker ~kill slot =
  Option.iter
    (fun (fd, pid) ->
      slot.conn <- None;
      if kill then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
      else (try send_frame fd Shutdown "" with Frame_error _ | Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    slot.conn

type reply = Done | Rejected of string

let sweep ?batch_size ?spec:spec_override ?heartbeat:hb_override ?(task_loss_budget = 1)
    ~kind ~key ~arg tasks =
  let hb =
    match hb_override with
    | Some h -> check_heartbeat ~who:"Remote.sweep ?heartbeat" h
    | None -> heartbeat ()
  in
  let kind_fn =
    match find_kind kind with
    | Some f -> f
    | None -> invalid_arg (Printf.sprintf "Remote.sweep: unregistered kind %S" kind)
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let keys = Array.map key tasks in
  let args = Array.map arg tasks in
  let workers =
    match Option.value ~default:(spec ()) spec_override with Off -> 0 | Spawn w -> max 1 w
  in
  let exe = if workers = 0 then None else worker_exe () in
  let slots = Array.init (max 1 workers) (fun sid -> { sid; conn = None; restarts = 0; due = 0. }) in
  (* Transport counters; the slots' domains update them concurrently. *)
  let dispatches = Atomic.make 0
  and redispatched = Atomic.make 0
  and loss_events = Atomic.make 0
  and respawns = Atomic.make 0
  and frame_errors = Atomic.make 0
  and degraded = Atomic.make false in
  let slot_attr slot = ("slot", string_of_int slot.sid) in

  (* A loss or failed spawn costs the slot one restart; past the budget
     the slot has no worker for the rest of the sweep. *)
  let restart slot reason =
    slot.restarts <- slot.restarts + 1;
    if slot.restarts > restart_budget then
      warn "worker %d: %s; restart budget exhausted" slot.sid reason
    else begin
      warn "worker %d: %s; respawning" slot.sid reason;
      Atomic.incr respawns;
      if Trace.on () then
        Trace.instant ~stage:"worker.respawn"
          [ slot_attr slot; ("restarts", string_of_int slot.restarts) ];
      slot.due <- Pool.now () +. backoff_delay ~sid:slot.sid ~restarts:slot.restarts
    end
  in
  (* The slot's live worker, spawned (after any backoff) when it has
     none; [None] once it can have none. *)
  let rec live slot =
    match (slot.conn, exe) with
    | Some _, _ -> slot.conn
    | None, Some exe when slot.restarts <= restart_budget -> (
      let wait = slot.due -. Pool.now () in
      if wait > 0. then Unix.sleepf wait;
      match spawn exe ~hb with
      | Ok (fd, pid) ->
        if Trace.on () then
          Trace.instant ~stage:"worker.spawn" [ slot_attr slot; ("pid", string_of_int pid) ];
        slot.conn <- Some (fd, pid);
        slot.conn
      | Error msg ->
        restart slot ("spawn failed: " ^ msg);
        live slot)
    | None, _ -> None
  in
  let lose slot reason =
    Atomic.incr loss_events;
    if Trace.on () then
      Trace.instant ~stage:"worker.kill" [ slot_attr slot; ("reason", reason) ];
    close_worker ~kill:true slot;
    restart slot reason
  in

  let body ~slot:s ~chunk ~start ~len =
    let slot = slots.(s) in
    let out = Array.make len None in
    let losses = Array.make len 0 in
    let owed () = List.filter (fun k -> out.(k) = None) (List.init len Fun.id) in
    let fault reason ks =
      List.iter (fun k -> out.(k) <- Some (Error (Pool.Worker_lost { reason }))) ks
    in
    (* The worker runs tasks in order, so the first task still owed is
       the one that was in flight; it is charged the loss. *)
    let charge reason =
      match owed () with
      | k :: _ ->
        losses.(k) <- losses.(k) + 1;
        if losses.(k) > task_loss_budget then fault reason [ k ]
      | [] -> ()
    in
    (* One dispatch attempt: send the owed tasks, then read frames until
       the worker reports the chunk done or rejects the request. *)
    let exchange fd ~attempt ks =
      Atomic.incr dispatches;
      let idxs = Array.of_list (List.map (fun k -> start + k) ks) in
      let req =
        {
          chunk_id = chunk;
          req_kind = kind;
          dispatch_attempt = attempt;
          indices = idxs;
          keys = Array.map (fun i -> keys.(i)) idxs;
          args = Array.map (fun i -> args.(i)) idxs;
          store_dir = !store_dir_provider ();
          beat_every = hb /. 4.;
          trace = Trace.on ();
          plan =
            Array.to_list idxs
            |> List.filter_map (fun i ->
                   Option.map (fun d -> (keys.(i), d)) (Faultinject.directive_for keys.(i)));
        }
      in
      let payload = Marshal.to_string req [] in
      let span =
        if Trace.on () then
          Trace.span_begin ~stage:"chunk"
            [
              ("chunk", string_of_int chunk);
              ("attempt", string_of_int attempt);
              ("tasks", string_of_int (Array.length idxs));
            ]
        else 0
      in
      let rec recv () =
        let ftype, payload = read_frame fd in
        if Trace.on () then
          Trace.instant ~stage:"frame.recv"
            [
              ("type", frame_type_name ftype);
              slot_attr slot;
              ("bytes", string_of_int (String.length payload));
            ];
        match ftype with
        | Hello ->
          if payload <> string_of_int protocol_version then
            raise (Lost (Printf.sprintf "protocol version mismatch (worker says %S)" payload));
          recv ()
        | Beat ->
          if Trace.on () then Trace.instant ~stage:"worker.heartbeat" [ slot_attr slot ];
          recv ()
        | Result ->
          (match (Marshal.from_string payload 0 : task_result) with
          | tr ->
            let k = tr.t_index - start in
            if k >= 0 && k < len && out.(k) = None then out.(k) <- Some tr.t_outcome
          | exception _ -> raise (Lost "unparseable Result frame"));
          recv ()
        | Chunk_done ->
          (* Stitch: the worker's collected span lines ride the payload's
             third field; append them verbatim to our sink. *)
          (match (Marshal.from_string payload 0 : int * int * string) with
          | _, _, spans -> Trace.absorb_payload spans
          | exception _ -> ());
          Done
        | Err -> Rejected payload
        | Run | Shutdown -> raise (Lost "unexpected frame from worker")
      in
      Fun.protect ~finally:(fun () -> Trace.span_end span) @@ fun () ->
      (match send_run fd ~keys:(Array.to_list req.keys) ~attempt payload with
      | true ->
        if Trace.on () then
          Trace.instant ~parent:span ~stage:"frame.send"
            [
              ("type", frame_type_name Run);
              ("chunk", string_of_int chunk);
              ("bytes", string_of_int (String.length payload));
            ]
      | false -> ()
      | exception (Unix.Unix_error _ | Frame_error _) -> raise (Lost "write to worker failed"));
      try recv () with
      | End_of_file -> raise (Lost "worker closed the connection")
      | Frame_error msg -> raise (Lost msg)
      | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        raise (Lost (Printf.sprintf "no heartbeat for %.2fs" hb))
      | Unix.Unix_error (e, _, _) -> raise (Lost (Unix.error_message e))
    in
    let rec go ~attempt ~errs =
      match owed () with
      | [] -> ()
      | ks -> (
        if attempt > 0 then ignore (Atomic.fetch_and_add redispatched (List.length ks));
        match live slot with
        | None ->
          if not (Atomic.exchange degraded true) then
            warn "%s; degrading to in-process domains"
              (match exe with
              | None when workers = 0 -> "no workers configured"
              | None -> "no worker executable found"
              | Some _ -> "worker restart budget exhausted");
          List.iter
            (fun k ->
              let i = start + k in
              let run () = kind_fn ~key:keys.(i) ~arg:args.(i) in
              out.(k) <- Some (Pool.run_task ~key:keys.(i) run))
            ks
        | Some (fd, _) -> (
          match exchange fd ~attempt ks with
          | Done ->
            (* Defensive: a worker that skipped tasks still owes them. *)
            if owed () <> [] then charge "chunk finished with tasks missing";
            go ~attempt:(attempt + 1) ~errs
          | Rejected msg ->
            Atomic.incr frame_errors;
            if errs >= 2 then fault ("repeated frame errors: " ^ msg) (owed ())
            else go ~attempt:(attempt + 1) ~errs:(errs + 1)
          | exception Lost reason ->
            lose slot reason;
            charge reason;
            go ~attempt:(attempt + 1) ~errs))
    in
    go ~attempt:0 ~errs:0;
    Array.map Option.get out
  in
  (* The report's [transport] counters are scheduling- and
     environment-dependent by nature (they record transport behaviour,
     not simulation results); determinism comparisons exclude them, like
     the report's [chunks]. *)
  let transport () =
    ( Atomic.get loss_events,
      [
        ("remote.workers", workers);
        ("remote.dispatches", Atomic.get dispatches);
        ("remote.redispatched_tasks", Atomic.get redispatched);
        ("remote.worker_losses", Atomic.get loss_events);
        ("remote.respawns", Atomic.get respawns);
        ("remote.frame_errors", Atomic.get frame_errors);
        ("remote.degraded", Bool.to_int (Atomic.get degraded));
      ] )
  in
  (* Orderly shutdown: workers exit on Shutdown (or the EOF from our
     close). *)
  Fun.protect
    ~finally:(fun () -> Array.iter (close_worker ~kill:false) slots)
    (fun () ->
      Pool.run_chunks ~jobs:(Array.length slots) ?batch_size ~transport ~key body tasks)
