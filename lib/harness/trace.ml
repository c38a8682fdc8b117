(* Structured, low-overhead tracing and metrics for the sweep stack.

   Span events (begin/end pairs with monotonic timestamps, parent ids
   and key=value attrs) and instant events are written as buffered JSONL
   to the [--trace] file; a merged counter/histogram snapshot goes to
   the [--metrics] file as one JSON object at process exit.  Both are
   off by default.

   Contract with the hot path: when tracing is off, an instrumented
   site costs exactly one branch ([on ()] reads one atomic bool) and
   performs no allocation — every call site guards with
   [if Trace.on () then ...] and only builds its attrs inside the
   guard.  When tracing is on, emission never touches task state (RNG
   streams, counter groups, histograms), so merged sweep stats are
   bit-identical to an untraced run; test/test_trace.ml enforces this
   across (jobs, batch) geometries.

   Worker processes do not get their own trace file: the supervisor's
   [Remote] request carries a trace flag, the worker buffers its span
   lines in memory ([set_collect]) tagged with its own [src] id, and
   ships them back piggybacked on the existing Chunk_done frame — the
   supervisor appends them verbatim ([absorb_payload]).  Span ids are
   only unique per [src], and worker spans reference their supervisor
   counterpart through the chunk id attr both sides stamp, so the
   streams stitch without any cross-process id coordination.

   Layering: this module sits below Pool/Remote/Runner/Security (they
   all hook into it), so it must reference none of them. *)

module Counter = Chex86_stats.Counter
module Histogram = Chex86_stats.Histogram
module Json = Chex86_stats.Json
module Render = Chex86_stats.Render

(* Same monotonic clock as [Pool.now] (which delegates to the same
   binding): span timestamps and deadline arithmetic share one epoch. *)
let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* --- sink ------------------------------------------------------------------ *)

type sink =
  | File of out_channel
  | Collect of Buffer.t  (* worker mode: lines held for shipping *)

let lock = Mutex.create ()
let sink : sink option ref = ref None

(* The hot-path guard.  Mirrors [sink <> None]; kept as a separate
   atomic so [on ()] is one unsynchronized load, never a mutex. *)
let active = Atomic.make false
let on () = Atomic.get active

(* Event source tag: "main" in the supervisor, "w<pid>" in workers.
   Ids are unique per source only. *)
let src = ref "main"
let set_src s = Mutex.protect lock (fun () -> src := s)

let next_id = Atomic.make 1
let fresh_id () = Atomic.fetch_and_add next_id 1

(* Telemetry must never fault the sweep: a write error (full disk,
   closed channel) silently drops the event. *)
let write_string s =
  Mutex.protect lock (fun () ->
      match !sink with
      | Some (File oc) -> ( try output_string oc s with Sys_error _ -> ())
      | Some (Collect buf) -> Buffer.add_string buf s
      | None -> ())

let write_line line = write_string (line ^ "\n")

let flush () =
  Mutex.protect lock (fun () ->
      match !sink with
      | Some (File oc) -> ( try Stdlib.flush oc with Sys_error _ -> ())
      | _ -> ())

(* --- metrics accumulator --------------------------------------------------- *)

let metrics_path : string option ref = ref None
let metrics_active = Atomic.make false
let metrics_on () = Atomic.get metrics_active
let metrics_counters = ref Counter.empty_snapshot
let metrics_hists : (string, Histogram.snapshot) Hashtbl.t = Hashtbl.create 8

let metrics_absorb (counters, hists) =
  Mutex.protect lock (fun () ->
      metrics_counters := Counter.merge !metrics_counters counters;
      List.iter
        (fun (name, snap) ->
          let prev =
            Option.value ~default:Histogram.empty_snapshot
              (Hashtbl.find_opt metrics_hists name)
          in
          Hashtbl.replace metrics_hists name (Histogram.merge prev snap))
        hists)

(* Extra top-level sections for the metrics export, contributed by
   layers Trace must not depend on (Runner adds its store counters
   here). Called once at export time. *)
let metrics_extra : (unit -> (string * Json.t) list) ref = ref (fun () -> [])

let metrics_json () =
  let extra = !metrics_extra () in
  Mutex.protect lock (fun () ->
      let hists =
        Hashtbl.fold (fun name snap acc -> (name, snap) :: acc) metrics_hists []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> List.map (fun (name, snap) -> (name, Histogram.json_of_snapshot snap))
      in
      Json.Obj
        ([
           ("counters", Counter.json_of_snapshot !metrics_counters);
           ("histograms", Json.Obj hists);
         ]
        @ extra))

let write_metrics () =
  match !metrics_path with
  | None -> ()
  | Some path -> (
    let body = Json.to_string (metrics_json ()) in
    try
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc body;
          output_char oc '\n')
    with Sys_error msg ->
      Printf.eprintf "chex86-trace: cannot write metrics to %s (%s)\n%!" path msg)

(* --- lifecycle ------------------------------------------------------------- *)

let exit_hook = ref false

let finalize () =
  flush ();
  write_metrics ()

let install_exit_hook () =
  if not !exit_hook then begin
    exit_hook := true;
    at_exit finalize
  end

let close_sink () =
  match !sink with
  | Some (File oc) ->
    (try Stdlib.flush oc with Sys_error _ -> ());
    close_out_noerr oc;
    sink := None
  | Some (Collect _) | None -> sink := None

let set_output = function
  | Some path ->
    install_exit_hook ();
    let oc =
      try open_out path
      with Sys_error msg ->
        Printf.eprintf "chex86-trace: cannot open %s (%s); tracing disabled\n%!" path msg;
        raise Exit
    in
    Mutex.protect lock (fun () ->
        close_sink ();
        sink := Some (File oc));
    Atomic.set active true
  | None ->
    Mutex.protect lock (fun () -> close_sink ());
    Atomic.set active false

let set_output p = try set_output p with Exit -> ()

(* Worker collection mode.  A file sink configured explicitly (a worker
   started with its own --trace) wins over collection: its spans go to
   its own file and are not shipped. *)
let set_collect enable =
  Mutex.protect lock (fun () ->
      match (!sink, enable) with
      | Some (File _), _ -> ()
      | Some (Collect _), true -> ()
      | (Some (Collect _) | None), false ->
        sink := None;
        Atomic.set active false
      | None, true ->
        sink := Some (Collect (Buffer.create 4096));
        Atomic.set active true)

let drain_collected () =
  Mutex.protect lock (fun () ->
      match !sink with
      | Some (Collect buf) ->
        let s = Buffer.contents buf in
        Buffer.clear buf;
        s
      | _ -> "")

(* Supervisor side of the stitch: worker payloads are complete JSONL
   lines already tagged with the worker's [src]; append them verbatim. *)
let absorb_payload payload = if on () && payload <> "" then write_string payload

let set_metrics = function
  | Some path ->
    install_exit_hook ();
    metrics_path := Some path;
    Atomic.set metrics_active true
  | None ->
    metrics_path := None;
    Atomic.set metrics_active false

(* --- events ---------------------------------------------------------------- *)

let event ~ev ~id ~parent ~stage attrs =
  let fields =
    ("ev", Json.String ev)
    :: ("id", Json.Int id)
    :: (if parent <> 0 then [ ("par", Json.Int parent) ] else [])
    @ [ ("t", Json.Float (now ())); ("src", Json.String !src) ]
    @ (if stage = "" then [] else [ ("stage", Json.String stage) ])
    @
    if attrs = [] then []
    else [ ("attrs", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) attrs)) ]
  in
  write_line (Json.to_string (Json.Obj fields))

let span_begin ?(parent = 0) ~stage attrs =
  if not (on ()) then 0
  else begin
    let id = fresh_id () in
    event ~ev:"b" ~id ~parent ~stage attrs;
    id
  end

let span_end id = if id <> 0 && on () then event ~ev:"e" ~id ~parent:0 ~stage:"" []

let instant ?(parent = 0) ~stage attrs =
  if on () then event ~ev:"i" ~id:(fresh_id ()) ~parent ~stage attrs

let with_span ?parent ~stage attrs f =
  if not (on ()) then f ()
  else begin
    let id = span_begin ?parent ~stage attrs in
    match f () with
    | v ->
      span_end id;
      v
    | exception e ->
      span_end id;
      raise e
  end

(* --- trace-summary --------------------------------------------------------- *)

(* Aggregate a span file: per-stage latency histograms (p50/p99 via the
   exact Histogram) and a per-source utilization table.  Structural
   validation is part of the contract: every end must name an open
   begin from the same source, and a parent must not close while a
   child is still open.  Unclosed spans at EOF are reported but are not
   errors — a SIGKILLed worker legitimately loses its tail. *)

type open_span = { o_stage : string; o_t : float; o_parent : int }

type src_stats = {
  mutable first_t : float;
  mutable last_t : float;
  mutable tasks : int;
  mutable busy : float;
}

let summarize_file path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let errors = ref [] in
        let err line fmt =
          Printf.ksprintf
            (fun msg -> errors := Printf.sprintf "line %d: %s" line msg :: !errors)
            fmt
        in
        let opens : (string * int, open_span) Hashtbl.t = Hashtbl.create 64 in
        let stages : (string, Histogram.t) Hashtbl.t = Hashtbl.create 16 in
        let srcs : (string, src_stats) Hashtbl.t = Hashtbl.create 8 in
        let events = ref 0
        and spans = ref 0
        and instants = ref 0 in
        let stage_hist stage =
          match Hashtbl.find_opt stages stage with
          | Some h -> h
          | None ->
            let h = Histogram.create () in
            Hashtbl.add stages stage h;
            h
        in
        let src_stat s t =
          match Hashtbl.find_opt srcs s with
          | Some st ->
            if t < st.first_t then st.first_t <- t;
            if t > st.last_t then st.last_t <- t;
            st
          | None ->
            let st = { first_t = t; last_t = t; tasks = 0; busy = 0. } in
            Hashtbl.add srcs s st;
            st
        in
        let line_no = ref 0 in
        (* A crash mid-write (a SIGKILLed worker) legitimately
           leaves a torn final line.  A failed parse is held as
           *pending*: if any further non-empty line follows, it was real
           mid-stream garbage and is promoted to an error; if it turns
           out to be the last non-empty line, it is noted in the summary
           header instead, so post-crash traces stay analyzable. *)
        let pending_torn : (int * string) option ref = ref None in
        let promote_pending () =
          match !pending_torn with
          | None -> ()
          | Some (ln, msg) ->
            pending_torn := None;
            err ln "unparseable JSON (%s)" msg
        in
        (try
           while true do
             let line = input_line ic in
             incr line_no;
             let ln = !line_no in
             if String.trim line <> "" then begin
               promote_pending ();
               match Json.of_string line with
               | Error msg -> pending_torn := Some (ln, msg)
               | Ok v -> (
                 incr events;
                 let str k = Option.bind (Json.member k v) Json.to_string_opt in
                 let num k = Option.bind (Json.member k v) Json.to_float_opt in
                 let int k = Option.bind (Json.member k v) Json.to_int_opt in
                 match (str "ev", num "t", str "src") with
                 | None, _, _ -> err ln "missing \"ev\" field"
                 | _, None, _ -> err ln "missing \"t\" timestamp"
                 | _, _, None -> err ln "missing \"src\" field"
                 | Some ev, Some t, Some s -> (
                   let st = src_stat s t in
                   match ev with
                   | "i" -> incr instants
                   | "b" -> (
                     incr spans;
                     match int "id" with
                     | None -> err ln "begin without \"id\""
                     | Some id -> (
                       let stage = Option.value ~default:"?" (str "stage") in
                       let parent = Option.value ~default:0 (int "par") in
                       match Hashtbl.find_opt opens (s, id) with
                       | Some _ -> err ln "duplicate begin for %s/%d" s id
                       | None ->
                         Hashtbl.add opens (s, id)
                           { o_stage = stage; o_t = t; o_parent = parent }))
                   | "e" -> (
                     match int "id" with
                     | None -> err ln "end without \"id\""
                     | Some id -> (
                       match Hashtbl.find_opt opens (s, id) with
                       | None -> err ln "end without matching begin (%s/%d)" s id
                       | Some o ->
                         Hashtbl.remove opens (s, id);
                         (* A child still open under this parent means
                            the parent closed first. *)
                         Hashtbl.iter
                           (fun (cs, cid) c ->
                             if cs = s && c.o_parent = id then
                               err ln "span %s/%d closed before child %d" s id cid)
                           opens;
                         let dt_us = int_of_float ((t -. o.o_t) *. 1e6) in
                         Histogram.add (stage_hist o.o_stage) (max 0 dt_us);
                         if o.o_stage = "task" then begin
                           st.tasks <- st.tasks + 1;
                           st.busy <- st.busy +. Float.max 0. (t -. o.o_t)
                         end))
                   | other -> err ln "unknown event type %S" other))
             end
           done
         with End_of_file -> ());
        if !errors <> [] then
          Error
            (Printf.sprintf "%d error(s):\n  %s"
               (List.length !errors)
               (String.concat "\n  " (List.rev !errors)))
        else begin
          let unclosed = Hashtbl.length opens in
          let stage_rows =
            Hashtbl.fold (fun stage h acc -> (stage, h) :: acc) stages []
            |> List.sort (fun (a, _) (b, _) -> compare a b)
            |> List.map (fun (stage, h) ->
                   [
                     stage;
                     string_of_int (Histogram.count h);
                     string_of_int (Histogram.percentile h 0.50);
                     string_of_int (Histogram.percentile h 0.99);
                     string_of_int (Histogram.max_value h);
                   ])
          in
          let src_rows =
            Hashtbl.fold (fun s st acc -> (s, st) :: acc) srcs []
            |> List.sort (fun (a, _) (b, _) -> compare a b)
            |> List.map (fun (s, st) ->
                   let wall = st.last_t -. st.first_t in
                   [
                     s;
                     string_of_int st.tasks;
                     Printf.sprintf "%.3f" st.busy;
                     Printf.sprintf "%.3f" wall;
                     (if wall > 0. then Render.percent (st.busy /. wall) else "-");
                   ])
          in
          let torn_note =
            match !pending_torn with
            | None -> ""
            | Some (ln, msg) ->
              Printf.sprintf "; truncated final line %d skipped (%s)" ln msg
          in
          Ok
            (String.concat "\n"
               [
                 Printf.sprintf
                   "%d event(s): %d span(s) (%d unclosed), %d instant(s), %d source(s)%s"
                   !events !spans unclosed !instants (Hashtbl.length srcs)
                   torn_note;
                 "";
                 "Per-stage latency (microseconds):";
                 Render.table
                   ~header:[ "stage"; "spans"; "p50"; "p99"; "max" ]
                   stage_rows;
                 "";
                 "Per-source utilization (busy = time inside task spans):";
                 Render.table
                   ~header:[ "source"; "tasks"; "busy(s)"; "wall(s)"; "util" ]
                   src_rows;
               ])
        end)
  with
  | result -> result
  | exception Sys_error msg -> Error msg

(* Test hook: forget accumulated metrics (the sinks are left alone). *)
let reset_metrics_for_tests () =
  Mutex.protect lock (fun () ->
      metrics_counters := Counter.empty_snapshot;
      Hashtbl.reset metrics_hists)
