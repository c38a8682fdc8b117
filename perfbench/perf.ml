(* Layered performance benchmark of the CHEx86 simulator.

   One run measures one workload for a fixed window of host time, checks
   the simulator's outputs, prints one [metric NAME VALUE UNIT] line per
   metric and [check NAME ok|FAIL DETAIL] lines, and ends with one JSON
   object {correct, attempted, failed, metrics} on its last line:

     perf.exe --workload fig6 --seed 1 --seconds 25 --trace 0 [--json FILE]
     perf.exe --list                         every metric, unit and workload
     perf.exe check-config BENCHMARK.json    BENCHMARK.json agrees with --list
     perf.exe compare PARENT_DIR CHANGE_DIR  paired-run verdicts per metric

   The simulator is driven only through its public library calls and
   timed from outside with [Pool.now].  With [--trace 0] the last line
   carries the end-to-end metrics.  With [--trace 1] the run also probes
   each layer and repeats the workload once with [Trace] on; the last
   line then carries the per-layer metrics, and end-to-end numbers still
   come from the untraced part.  Run it from the repository root (it
   reads test/golden/ and writes scratch files under _perfbench/).
   perfbench/README.md describes the workloads, the metrics and the
   paired-run protocol. *)

module Runner = Chex86_harness.Runner
module Store = Runner.Store
module Experiments = Chex86_harness.Experiments
module Security = Chex86_harness.Security
module Pool = Chex86_harness.Pool
module Remote = Chex86_harness.Remote
module Trace = Chex86_harness.Trace
module Json = Chex86_stats.Json
module Counter = Chex86_stats.Counter
module Bench_spec = Chex86_workloads.Bench_spec
module Workloads = Chex86_workloads.Workloads
module Campaign = Chex86_exploits.Campaign
module Exploit = Chex86_exploits.Exploit
module Exploits = Chex86_exploits.Exploits
module Hierarchy = Chex86_mem.Hierarchy
module Preset = Chex86_machine.Preset
module Pipeline = Chex86_machine.Pipeline
module Cachetrace = Chex86_frontend.Cachetrace
module Uoptrace = Chex86_frontend.Uoptrace
module Gen = Chex86_frontend.Gen

(* --- metric registry ------------------------------------------------------ *)

type better = Lower | Higher

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float option;  (** allowed relative worsening; end-to-end metrics only *)
  moves : string;  (** layer metrics: the end-to-end metric it should move *)
  on : string list;  (** workloads that measure it; the others report 0 *)
}

let workload_names = [ "fig6"; "pairs"; "security"; "trace" ]

let e2e name unit =
  { name; unit; better = Lower; bound = Some 0.25; moves = ""; on = workload_names }

(* Every bound is the largest allowed: on a shared 2-core host the
   host's own drift moves a run's timings by up to 15 % (two-domain
   phases) between runs minutes apart; paired alternating runs
   ([compare]) resolve much smaller differences.  Peak RSS is a layer
   metric, not an end-to-end one: at --jobs 2 the GC's pacing makes the
   security peak vary by 30 % between identical runs. *)
let end_to_end = [ e2e "setup_s" "s"; e2e "job_s" "s"; e2e "op_ms" "ms" ]

let always_on = Runner.Chex (Chex86.Variant.make Chex86.Variant.Microcode_always_on)

(* The four variants of the pairs workload, by their metric-name suffix. *)
let variants =
  [ ("insecure", Runner.insecure); ("chex86", Runner.prediction); ("always_on", always_on);
    ("asan", Runner.Asan) ]

let variant_names = List.map fst variants
let pair_programs = [ "mcf"; "canneal"; "freqmine" ]
let presets = [ Preset.skylake; Preset.tiny ]

(* Span stages whose self time is reported: the bench.<layer> spans this
   file opens around each layer call, and the dispatch spans the harness
   emits inside them. *)
let self_stages =
  [ "bench.workloads"; "bench.exploits"; "bench.frontend"; "bench.runner"; "bench.mem";
    "bench.machine"; "bench.experiments"; "bench.security"; "sweep"; "chunk"; "task" ]

let layers =
  let m ?(better = Lower) moves on name unit = { name; unit; better; bound = None; moves; on } in
  let hi = Higher in
  let simulated = [ "fig6"; "pairs"; "trace" ] and instrumented = [ "fig6"; "pairs" ] in
  List.concat
    [
      [
        m "setup_s" [ "fig6"; "pairs" ] "workloads.build_ms" "ms";
        m "setup_s" [ "security" ] "exploits.corpus_ms" "ms";
        m "setup_s" [ "trace" ] "frontend.gen_ms" "ms";
        m ~better:hi "setup_s" [ "trace" ] "frontend.parse_maccess_per_s" "M/s";
        m "job_s" [ "security" ] "os.load_us" "us";
        m ~better:hi "job_s" [ "pairs" ] "machine.engine.minsn_per_s" "Minsn/s";
      ];
      List.map
        (fun v -> m "job_s" [ "pairs" ] ("machine.timing.us_per_kinsn." ^ v) "us")
        variant_names;
      [ m ~better:hi "job_s" [ "trace" ] "machine.pipeline.muop_per_s" "Muop/s" ];
      List.map
        (fun (p : Preset.t) ->
          m ~better:hi "job_s" [ "trace" ] ("mem.hierarchy.maccess_per_s." ^ p.name) "M/s")
        presets;
      [
        m ~better:hi "job_s" simulated "mem.l1d_hit_ratio" "ratio";
        m ~better:hi "job_s" simulated "mem.l2_hit_ratio" "ratio";
        m "job_s" simulated "mem.writeback_mb" "MB";
        m "job_s" [ "pairs" ] "core.monitor.us_per_kinsn.chex86" "us";
        m "job_s" [ "pairs" ] "core.monitor.us_per_kinsn.always_on" "us";
        m "job_s" instrumented "core.uops_injected_per_insn.chex86" "uops/insn";
        m "job_s" instrumented "core.uops_injected_per_insn.always_on" "uops/insn";
        m ~better:hi "job_s" instrumented "core.capcache_hit_ratio" "ratio";
        m ~better:hi "job_s" instrumented "core.alias_pred_accuracy" "ratio";
        m "job_s" [ "pairs" ] "asan.us_per_kinsn" "us";
        m "job_s" instrumented "asan.uops_per_insn" "uops/insn";
      ];
      List.map
        (fun v -> m "job_s" [ "pairs" ] ("gc.minor_words_per_insn." ^ v) "words/insn")
        variant_names;
      [
        m "job_s" workload_names "gc.major_collections" "count";
        m "job_s" workload_names "gc.top_heap_mb" "MB";
        m "job_s" workload_names "gc.peak_rss_mb" "MB";
        m "op_ms" [ "fig6" ] "store.load_us_per_entry" "us";
        m "job_s" [ "fig6" ] "store.save_us_per_entry" "us";
        m "job_s" [ "fig6" ] "store.bytes_per_entry" "B";
        m ~better:hi "op_ms" [ "fig6" ] "store.hit_ratio_warm" "ratio";
        m "op_ms" [ "fig6" ] "experiments.fig6_assembly_ms" "ms";
        m "job_s" [ "security" ] "pool.dispatch_us_per_task.jobs1" "us";
        m "job_s" [ "fig6"; "security" ] "pool.dispatch_us_per_task.jobs2" "us";
        m "job_s" [ "fig6"; "security" ] "pool.idle_share" "ratio";
        m "job_s" [ "fig6"; "security" ] "pool.chunks" "count";
        m "job_s" [ "security" ] "remote.dispatch_us_per_task.workers2" "us";
        m "job_s" [ "security" ] "security.sweep_s.jobs1" "s";
        m "job_s" [ "security" ] "security.sweep_s.jobs2" "s";
        m "job_s" [ "security" ] "security.sweep_s.workers2" "s";
        m ~better:hi "job_s" [ "security" ] "security.blocked_ratio" "ratio";
        m ~better:hi "job_s" [ "security" ] "security.campaign_detect_ratio" "ratio";
        m ~better:hi "job_s" [ "security" ] "security.campaign_evals_per_s" "1/s";
      ];
      List.concat_map
        (fun p ->
          List.concat_map
            (fun v ->
              let base = Printf.sprintf "pairs.%s.%s." p v in
              [
                m ~better:hi "job_s" [ "pairs" ] (base ^ "minsn_per_s") "Minsn/s";
                m ~better:hi "job_s" [ "pairs" ] (base ^ "functional_minsn_per_s") "Minsn/s";
              ])
            variant_names)
        pair_programs;
      [
        m "job_s" [ "fig6" ] "sim.fig6.spec_slowdown_pct" "%";
        m "job_s" [ "fig6" ] "sim.fig6.parsec_slowdown_pct" "%";
        m ~better:hi "job_s" [ "fig6" ] "sim.fig6.asan_speedup_spec" "x";
        m "job_s" workload_names "trace.overhead_pct" "%";
      ];
      List.map
        (fun stage ->
          let on =
            match stage with
            | "bench.workloads" | "bench.runner" -> [ "fig6"; "pairs" ]
            | "bench.exploits" | "bench.security" -> [ "security" ]
            | "bench.frontend" | "bench.mem" | "bench.machine" -> [ "trace" ]
            | "bench.experiments" -> [ "fig6" ]
            | _ -> [ "fig6"; "security" ]
          in
          m "job_s" on ("self_ms." ^ stage) "ms")
        self_stages;
    ]

let better_name = function Lower -> "lower" | Higher -> "higher"

let list () =
  List.iter (fun w -> Printf.printf "workload %s\n" w) workload_names;
  List.iter
    (fun m ->
      Printf.printf "e2e %s %s better=%s bound=%g workloads=%s\n" m.name m.unit
        (better_name m.better) (Option.get m.bound) (String.concat "," m.on))
    end_to_end;
  List.iter
    (fun m ->
      Printf.printf "layer %s %s better=%s moves=%s workloads=%s\n" m.name m.unit
        (better_name m.better) m.moves (String.concat "," m.on))
    layers

(* --- statistics and recording ---------------------------------------------- *)

(* Linear interpolation between closest ranks. *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let sum = List.fold_left ( +. ) 0.
let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den
let fdiv num den = if den = 0. then 0. else num /. den

(* name -> (value, the samples its median came from; [] for single values) *)
let values : (string, float * float list) Hashtbl.t = Hashtbl.create 128

let record ?(samples = []) name v = Hashtbl.replace values name (v, samples)

let record_median name ~scale samples =
  let samples = List.map (fun s -> s *. scale) samples in
  record ~samples name (median samples)

let value name = match Hashtbl.find_opt values name with Some (v, _) -> v | None -> 0.

let checks : (string * bool * string) list ref = ref []
let check name ok detail = checks := (name, ok, detail) :: !checks
let attempted = ref 0
let failed = ref 0

(* [n] operations attempted, [ok] of them correct. *)
let count_ops ~ok n =
  attempted := !attempted + n;
  failed := !failed + (n - ok)

(* --- timing ----------------------------------------------------------------- *)

let timed f =
  let t0 = Pool.now () in
  let v = f () in
  (v, Pool.now () -. t0)

(* Every timed rep starts from a collected heap, so it pays for its own
   garbage and not for the previous rep's. *)
let clean_timed f =
  Gc.full_major ();
  timed f

(* Call [f ~keep] until [deadline] has passed and [min] kept reps were
   taken; [f] returns the seconds it measured.  Unless [~warmup:false],
   the first call ([~keep:false]) is a warm-up and is dropped. *)
let reps ?(min = 3) ?(warmup = true) ~deadline f =
  if warmup then ignore (f ~keep:false);
  let rec go acc n =
    if n >= min && Pool.now () >= deadline then List.rev acc
    else go (f ~keep:true :: acc) (n + 1)
  in
  go [] 0

(* Timing of the set-up, run by [time_setup] at the end of the run. *)
let setup_timer : (unit -> unit) option ref = ref None

(* Set up once for the run's inputs, and time the set-up at the end of
   the run: on a shared 2-vCPU host, a process started after an idle
   spell timed its set-up about twice as slow in 4 of 14 runs when it
   timed it first thing, and in 1 of 24 when it timed it last.
   [record_layers] derives the workload's set-up layer rows. *)
let measure_setup ?(record_layers = ignore) f =
  setup_timer :=
    Some
      (fun () ->
        record_median "setup_s" ~scale:1.
          (reps ~min:5 ~warmup:false ~deadline:(Pool.now () +. 0.25) (fun ~keep:_ ->
               snd (clean_timed f)));
        record_layers ());
  f ()

(* Set up at least five times and for at least a quarter second;
   setup_s is the median. *)
let time_setup () = Option.iter (fun timer -> timer ()) !setup_timer

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* GC and memory rows at the end of the untraced part: collections since
   [majors0], the heap's peak, and the process's peak resident set
   (VmHWM; Linux only, worker processes not included). *)
let record_memory ~majors0 =
  let s = Gc.quick_stat () in
  record "gc.major_collections" (float_of_int (s.Gc.major_collections - majors0));
  record "gc.top_heap_mb" (float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> ()
          | Some line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
            | Some kb -> record "gc.peak_rss_mb" (float_of_int kb *. 1024. /. 1e6)
            | None -> find ())
        in
        find ())
  with Sys_error _ -> ()

(* --- scratch files ---------------------------------------------------------- *)

let out_dir = "_perfbench"
let scratch name = Filename.concat out_dir name

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

let read_json path =
  match read_file path with
  | exception Sys_error e -> Error e
  | body -> Json.of_string body

(* --- simulated results ------------------------------------------------------- *)

let outcome_name = function
  | Runner.Completed -> "completed"
  | Runner.Blocked kind -> "blocked:" ^ Chex86.Violation.to_string kind
  | Runner.Aborted msg -> "aborted:" ^ msg
  | Runner.Faulted msg -> "faulted:" ^ msg
  | Runner.Budget_exhausted -> "budget_exhausted"

(* Every simulated number of a run, as one string. *)
let fingerprint (r : Runner.run) =
  String.concat ","
    (Printf.sprintf "%s,insns=%d,uops=%d,injected=%d,killed=%d,cycles=%d,pwned=%b"
       (outcome_name r.outcome) r.macro_insns r.uops r.uops_injected r.uops_killed r.cycles
       r.pwned
    :: List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (Counter.to_list r.counters))

(* sim_digest: MD5 over every simulated counter of the workload, so a
   speed-only change can show its simulation stayed bit-identical. *)
let sim_digest parts = check "sim_digest" true (Digest.to_hex (Digest.string (String.concat "\n" parts)))

let counter_sum runs name =
  List.fold_left (fun acc (r : Runner.run) -> acc + Counter.get r.counters name) 0 runs

let record_mem get =
  record "mem.l1d_hit_ratio" (ratio (get "l1d.hit") (get "l1d.hit" + get "l1d.miss"));
  record "mem.l2_hit_ratio" (ratio (get "l2.hit") (get "l2.hit" + get "l2.miss"));
  record "mem.writeback_mb" (float_of_int (get "mem.writeback_bytes") /. 1e6)

(* Exact monitor, ASan and memory counters over timed runs, by variant. *)
let record_instrumentation (runs_of : string -> Runner.run list) =
  let insns v = List.fold_left (fun a (r : Runner.run) -> a + r.macro_insns) 0 (runs_of v) in
  List.iter
    (fun v ->
      record
        ("core.uops_injected_per_insn." ^ v)
        (ratio
           (List.fold_left (fun a (r : Runner.run) -> a + r.uops_injected) 0 (runs_of v))
           (insns v)))
    [ "chex86"; "always_on" ];
  let chex = runs_of "chex86" in
  record "core.capcache_hit_ratio"
    (ratio (counter_sum chex "capcache.hit")
       (counter_sum chex "capcache.hit" + counter_sum chex "capcache.miss"));
  record "core.alias_pred_accuracy"
    (ratio (counter_sum chex "alias.pred_correct") (counter_sum chex "alias.pred_events"));
  record "asan.uops_per_insn"
    (ratio (List.fold_left (fun a (r : Runner.run) -> a + r.uops) 0 (runs_of "asan")) (insns "asan"));
  let all = List.concat_map runs_of variant_names in
  record_mem (counter_sum all)

(* Every (workload, variant) entry of test/golden/timing.json must match
   the run [lookup] returns on macro_insns, uops and cycles. *)
let check_timing_golden lookup =
  let path = "test/golden/timing.json" in
  match read_json path with
  | Error e -> check "timing_golden" false (path ^ ": " ^ e)
  | Ok doc ->
    let entries = match Json.member "entries" doc with Some (Json.List l) -> l | _ -> [] in
    let field e k = Option.bind (Json.member k e) Json.to_int_opt in
    let bad =
      List.filter_map
        (fun e ->
          let name k = Option.value ~default:"?" (Option.bind (Json.member k e) Json.to_string_opt) in
          let w = name "workload" and v = name "variant" in
          match lookup w v with
          | None -> Some (w ^ "/" ^ v ^ " not run")
          | Some (r : Runner.run) ->
            if
              field e "macro_insns" = Some r.macro_insns
              && field e "uops" = Some r.uops && field e "cycles" = Some r.cycles
            then None
            else Some (w ^ "/" ^ v ^ " differs"))
        entries
    in
    check "timing_golden" (entries <> [] && bad = [])
      (if bad = [] then Printf.sprintf "%d entries match" (List.length entries)
       else String.concat "; " bad)

(* --- traced runs: spans, self time, dispatch ------------------------------- *)

type span = {
  src : string;
  stage : string;
  attrs : (string * string) list;
  par : int;
  t0 : float;
  mutable t1 : float;
  mutable kids : span list;
}

let is_bench stage = String.starts_with ~prefix:"bench." stage

(* Run [f] with the trace channel writing to [path]; afterwards the
   file must be accepted by [Trace.summarize_file], the function behind
   [chex86_sim trace-summary]. *)
let with_trace path f =
  Trace.set_output (Some path);
  let v = Fun.protect ~finally:(fun () -> Trace.set_output None) f in
  (match Trace.summarize_file path with
  | Ok _ -> check "trace_summary" true path
  | Error e -> check "trace_summary" false e);
  v

(* Closed spans of a trace file, each linked to its children.  Harness
   spans carry parent ids only within one source and one dispatch
   layer, so a parentless sweep or domain chunk is attached to the
   innermost bench span or sweep enclosing it, and a worker's chunk to
   the supervisor chunk with the same chunk id and attempt. *)
let read_spans path =
  let by_id = Hashtbl.create 1024 and order = ref [] in
  In_channel.with_open_bin path (fun ic ->
      let rec loop () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
          (match Json.of_string line with
          | Error _ -> ()
          | Ok ev -> (
            let str k = Option.bind (Json.member k ev) Json.to_string_opt in
            let int k = Option.bind (Json.member k ev) Json.to_int_opt in
            match (str "ev", int "id", str "src", Option.bind (Json.member "t" ev) Json.to_float_opt) with
            | Some "b", Some id, Some src, Some t ->
              let attrs =
                match Json.member "attrs" ev with
                | Some (Json.Obj kv) ->
                  List.filter_map (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_string_opt v)) kv
                | _ -> []
              in
              let s =
                { src; stage = Option.value ~default:"" (str "stage"); attrs;
                  par = Option.value ~default:0 (int "par"); t0 = t; t1 = neg_infinity; kids = [] }
              in
              Hashtbl.replace by_id (src, id) s;
              order := s :: !order
            | Some "e", Some id, Some src, Some t ->
              Option.iter (fun s -> s.t1 <- t) (Hashtbl.find_opt by_id (src, id))
            | _ -> ()));
          loop ()
      in
      loop ());
  let spans = List.filter (fun s -> s.t1 >= s.t0) (List.rev !order) in
  let owner s =
    if s.par <> 0 then Hashtbl.find_opt by_id (s.src, s.par)
    else
      let attr k x = List.assoc_opt k x.attrs in
      let can_own c =
        c != s && c.src = "main" && c.t0 <= s.t0 && s.t1 <= c.t1
        &&
        if s.src <> "main" then
          c.stage = "chunk" && attr "chunk" c = attr "chunk" s && attr "attempt" c = attr "attempt" s
        else (not (is_bench s.stage)) && (c.stage = "sweep" || is_bench c.stage)
      in
      List.fold_left
        (fun best c ->
          if not (can_own c) then best
          else match best with Some b when b.t0 >= c.t0 -> best | _ -> Some c)
        None spans
  in
  List.iter (fun s -> Option.iter (fun p -> p.kids <- s :: p.kids) (owner s)) spans;
  spans

let duration s = s.t1 -. s.t0

(* A span's duration minus the part of it its children cover. *)
let self_time s =
  let ivs = List.sort compare (List.map (fun k -> (max s.t0 k.t0, min s.t1 k.t1)) s.kids) in
  let covered, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when a <= cb -> (acc, Some (ca, max cb b))
        | Some (ca, cb) -> (acc +. (cb -. ca), Some (a, b))
        | None -> (acc, Some (a, b)))
      (0., None) ivs
  in
  duration s -. (covered +. match last with Some (a, b) -> b -. a | None -> 0.)

let rec descendants s = s.kids @ List.concat_map descendants s.kids

let record_self_times spans =
  List.iter
    (fun stage ->
      record ("self_ms." ^ stage)
        (1e3 *. sum (List.filter_map (fun s -> if s.stage = stage then Some (self_time s) else None) spans)))
    self_stages

(* The sweep inside the bench span tagged [attr]. *)
let sweep_under spans attr =
  List.find_map
    (fun s ->
      if is_bench s.stage && List.mem attr s.attrs then
        List.find_opt (fun k -> k.stage = "sweep") s.kids
      else None)
    spans

(* Slot time a sweep's [jobs] slots spent outside its tasks, in us per
   task; the share of slot time outside any chunk (idle); chunk count. *)
let dispatch ~jobs sweep =
  let tasks = List.filter (fun s -> s.stage = "task") (descendants sweep) in
  let chunks = List.filter (fun s -> s.stage = "chunk") sweep.kids in
  let slot = float_of_int jobs *. duration sweep in
  ( 1e6 *. fdiv (slot -. sum (List.map duration tasks)) (float_of_int (List.length tasks)),
    1. -. fdiv (sum (List.map duration chunks)) slot,
    List.length chunks )

let record_overhead ~traced ~untraced =
  record "trace.overhead_pct" (100. *. (fdiv traced untraced -. 1.))

type opts = { seed : int; seconds : float; traced : bool }

let geomean = function
  | [] -> 0.
  | xs -> exp (sum (List.map log xs) /. float_of_int (List.length xs))

(* --- fig6: Figure 6 cold, then warm from the store ------------------------- *)

(* The six configurations Experiments.figure6 sweeps, in its order; used
   to address the cells it memoizes and stores. *)
let fig6_configs =
  [
    Runner.insecure;
    Runner.Chex (Chex86.Variant.make Chex86.Variant.Hardware_only);
    Runner.Chex (Chex86.Variant.make Chex86.Variant.Binary_translation);
    always_on;
    Runner.prediction;
    Runner.Asan;
  ]

let build_ms () = record "workloads.build_ms" (1e3 *. value "setup_s")

let run_fig6 o =
  (* The inputs: every program built, and its digest (a store-key part). *)
  let setup () =
    List.map
      (fun (w : Bench_spec.t) -> (w, Runner.program_digest (w.build ~scale:1)))
      (Experiments.workloads ())
  in
  let programs = measure_setup ~record_layers:build_ms setup in
  let cells =
    List.concat_map (fun (w, digest) -> List.map (fun c -> (w, digest, c)) fig6_configs) programs
  in
  let n_cells = List.length cells in
  let store_dir = scratch "store" in
  (* Cold: an empty store and memo, so every cell is simulated (at
     --jobs 2) and written.  Warm: the memo is emptied again, so every
     cell is read back from the store; with nothing to simulate a second
     domain only adds its spawn (measured slower and five times noisier),
     so warm runs at --jobs 1, the default on a 2-core host. *)
  let regenerate ~cold =
    if cold then begin
      rm_rf store_dir;
      Store.configure ~dir:store_dir
    end;
    Pool.set_jobs (if cold then 2 else 1);
    Runner.reset_for_tests ();
    let text, dt = timed Experiments.figure6 in
    (text, dt, Store.stats ())
  in
  let majors0 = major_collections () in
  let start = Pool.now () in
  Gc.full_major ();
  let cold_text, cold_s, st = regenerate ~cold:true in
  let faulted = List.length (Runner.faulted_jobs ()) in
  count_ops ~ok:(n_cells - faulted) n_cells;
  check "fig6_cells"
    (faulted = 0 && st.Store.writes = n_cells && st.Store.misses = n_cells)
    (Printf.sprintf "%d of %d cells simulated and stored, %d faulted" st.Store.writes n_cells
       faulted);
  record ~samples:[ cold_s ] "job_s" cold_s;
  let bad = ref 0 and hits = ref 0 and lookups = ref 0 in
  let warm =
    reps ~min:20 ~deadline:(start +. o.seconds) (fun ~keep ->
        Gc.full_major ();
        let text, dt, st = regenerate ~cold:false in
        let ok = text = cold_text && st.Store.misses = 0 in
        count_ops ~ok:(Bool.to_int ok) 1;
        if not ok then incr bad;
        if keep then begin
          hits := !hits + st.Store.hits;
          lookups := !lookups + st.Store.hits + st.Store.misses
        end;
        dt)
  in
  record_median "op_ms" ~scale:1e3 warm;
  record_memory ~majors0;
  check "fig6_warm" (!bad = 0)
    (Printf.sprintf "%d warm regenerations, %d differ from cold or missed the store"
       (List.length warm + 1) !bad);
  record "store.hit_ratio_warm" (ratio !hits !lookups);
  (* The memo now holds every cell again, so these lookups simulate nothing. *)
  let run_of w c = Runner.run_workload ~scale:1 c w in
  sim_digest
    (List.map
       (fun ((w : Bench_spec.t), _, c) ->
         w.name ^ "/" ^ Runner.config_name c ^ ":" ^ fingerprint (run_of w c))
       cells);
  check_timing_golden (fun w v ->
      Option.map (run_of (Workloads.find w)) (List.assoc_opt v variants));
  record_instrumentation (fun v -> List.map (fun (w, _) -> run_of w (List.assoc v variants)) programs);
  let spec = List.map (fun (w : Bench_spec.t) -> w.name) Workloads.spec in
  let cycles w c = float_of_int (max 1 (run_of w c).Runner.cycles) in
  let over pick f =
    geomean (List.filter_map (fun ((w : Bench_spec.t), _) -> if pick w.name then Some (f w) else None) programs)
  in
  let slowdown pick = 100. *. (over pick (fun w -> cycles w Runner.prediction /. cycles w Runner.insecure) -. 1.) in
  let spec_pct = slowdown (fun n -> List.mem n spec) and parsec_pct = slowdown (fun n -> not (List.mem n spec)) in
  record "sim.fig6.spec_slowdown_pct" spec_pct;
  record "sim.fig6.parsec_slowdown_pct" parsec_pct;
  record "sim.fig6.asan_speedup_spec"
    (over (fun n -> List.mem n spec) (fun w -> cycles w Runner.Asan /. cycles w Runner.prediction));
  Printf.printf
    "note model error: simulated CHEx86 slowdown %.1f%% on SPEC (paper 14%%, %+.1f points) and \
     %.1f%% on PARSEC (paper 9%%, %+.1f points); the model is not validated beyond these two \
     numbers\n"
    spec_pct (spec_pct -. 14.) parsec_pct (parsec_pct -. 9.);
  if o.traced then begin
    let assembly =
      reps ~min:5 ~deadline:(Pool.now () +. 1.) (fun ~keep:_ -> snd (clean_timed Experiments.figure6))
    in
    record_median "experiments.fig6_assembly_ms" ~scale:1e3 assembly;
    let entries =
      List.map
        (fun (w, digest, c) -> (Runner.job_key (Runner.job ~scale:1 c w), digest, run_of w c))
        cells
    in
    let per_entry = 1e6 /. float_of_int n_cells in
    let loads =
      reps ~deadline:(Pool.now () +. 1.) (fun ~keep:_ ->
          snd
            (clean_timed (fun () ->
                 List.iter (fun (key, digest, _) -> ignore (Store.load ~key ~digest)) entries)))
    in
    record_median "store.load_us_per_entry" ~scale:per_entry loads;
    let disk = Store.disk_stats ~dir:store_dir in
    record "store.bytes_per_entry" (ratio disk.Store.d_bytes disk.Store.d_entries);
    let save_dir = scratch "store-save" in
    let saves =
      reps ~deadline:(Pool.now () +. 1.) (fun ~keep:_ ->
          rm_rf save_dir;
          Store.configure ~dir:save_dir;
          snd
            (clean_timed (fun () ->
                 List.iter (fun (key, digest, run) -> Store.save ~key ~digest run) entries)))
    in
    record_median "store.save_us_per_entry" ~scale:per_entry saves;
    rm_rf save_dir;
    let path = scratch "fig6.trace.jsonl" in
    (* The overhead compares warm regenerations: the untraced cold pass
       is the process's first and pays its warm-up, so it cannot be
       compared with a second cold pass. *)
    let traced_warm =
      with_trace path (fun () ->
          ignore (Trace.with_span ~stage:"bench.workloads" [] setup);
          Gc.full_major ();
          ignore
            (Trace.with_span ~stage:"bench.experiments" [ ("phase", "cold") ] (fun () ->
                 regenerate ~cold:true));
          List.init 20 (fun _ ->
              Gc.full_major ();
              let _, dt, _ =
                Trace.with_span ~stage:"bench.experiments" [ ("phase", "warm") ] (fun () ->
                    regenerate ~cold:false)
              in
              dt))
    in
    let spans = read_spans path in
    record_self_times spans;
    (match sweep_under spans ("phase", "cold") with
    | Some sweep ->
      let us, idle, chunks = dispatch ~jobs:2 sweep in
      record "pool.dispatch_us_per_task.jobs2" us;
      record "pool.idle_share" idle;
      record "pool.chunks" (float_of_int chunks)
    | None -> check "fig6_trace" false "no cold sweep in the trace");
    record_overhead ~traced:(median traced_warm) ~untraced:(median warm)
  end;
  Store.disable ();
  rm_rf store_dir

(* --- pairs: three programs x four variants, timed and functional ----------- *)

type pair = {
  prog : string;
  variant : string;
  config : Runner.config;
  program : Chex86_isa.Program.t;
  mutable timed_s : float list;
  mutable functional_s : float list;
  mutable words : float;  (** minor words allocated over the kept timed reps *)
  mutable words_insns : int;  (** macro-insns simulated over the same reps *)
  mutable timed_run : Runner.run option;  (** the first timed run *)
  mutable functional_run : Runner.run option;  (** the first functional run *)
}

let nondeterministic = ref 0

let run_pair ~timing ~keep p =
  let w0 = Gc.minor_words () in
  let r, dt = timed (fun () -> Runner.run_program ~timing p.config p.program) in
  let words = Gc.minor_words () -. w0 in
  count_ops ~ok:(Bool.to_int (r.outcome = Runner.Completed)) 1;
  (match if timing then p.timed_run else p.functional_run with
  | Some first -> if fingerprint first <> fingerprint r then incr nondeterministic
  | None -> if timing then p.timed_run <- Some r else p.functional_run <- Some r);
  if keep then
    if timing then begin
      p.timed_s <- dt :: p.timed_s;
      p.words <- p.words +. words;
      p.words_insns <- p.words_insns + r.macro_insns
    end
    else p.functional_s <- dt :: p.functional_s;
  dt

let run_pairs o =
  let build () = List.map (fun name -> (name, (Workloads.find name).build ~scale:1)) pair_programs in
  let programs = measure_setup ~record_layers:build_ms build in
  let pairs =
    List.concat_map
      (fun (prog, program) ->
        List.map
          (fun (variant, config) ->
            { prog; variant; config; program; timed_s = []; functional_s = []; words = 0.;
              words_insns = 0; timed_run = None; functional_run = None })
          variants)
      programs
  in
  (* One round runs every pair once, interleaved, so host drift hits
     all pairs alike. *)
  let round ~timing ~keep =
    sum
      (List.map
         (fun p ->
           Gc.full_major ();
           run_pair ~timing ~keep p)
         pairs)
  in
  let majors0 = major_collections () in
  let start = Pool.now () in
  ignore (reps ~deadline:(start +. (0.6 *. o.seconds)) (round ~timing:true));
  (* The timed rounds already warmed the engine. *)
  ignore (reps ~min:2 ~warmup:false ~deadline:(start +. (0.9 *. o.seconds)) (round ~timing:false));
  (* A per-pair median drops the rep a host hiccup hit; job_s adds them
     up, op_ms is their geometric mean (a typical single run). *)
  let medians = List.map (fun p -> median p.timed_s) pairs in
  record "job_s" (sum medians);
  record "op_ms" (1e3 *. geomean medians);
  record_memory ~majors0;
  let timed_run p = Option.get p.timed_run and functional_run p = Option.get p.functional_run in
  let insns p = float_of_int (timed_run p).macro_insns in
  List.iter
    (fun p ->
      let base = Printf.sprintf "pairs.%s.%s." p.prog p.variant in
      record (base ^ "minsn_per_s") (fdiv (insns p) (median p.timed_s) /. 1e6);
      record (base ^ "functional_minsn_per_s") (fdiv (insns p) (median p.functional_s) /. 1e6))
    pairs;
  let of_variant v = List.filter (fun p -> p.variant = v) pairs in
  let total f v = sum (List.map f (of_variant v)) in
  let kinsn v = total insns v /. 1e3 in
  let on v = total (fun p -> median p.timed_s) v and off v = total (fun p -> median p.functional_s) v in
  record "machine.engine.minsn_per_s" (fdiv (kinsn "insecure") (off "insecure") /. 1e3);
  List.iter
    (fun v ->
      record ("machine.timing.us_per_kinsn." ^ v) (fdiv (1e6 *. (on v -. off v)) (kinsn v));
      record ("gc.minor_words_per_insn." ^ v)
        (fdiv (total (fun p -> p.words) v) (total (fun p -> float_of_int p.words_insns) v)))
    variant_names;
  List.iter
    (fun (name, v) -> record name (fdiv (1e6 *. (off v -. off "insecure")) (kinsn v)))
    [
      ("core.monitor.us_per_kinsn.chex86", "chex86");
      ("core.monitor.us_per_kinsn.always_on", "always_on");
      ("asan.us_per_kinsn", "asan");
    ];
  record_instrumentation (fun v -> List.map timed_run (of_variant v));
  let incomplete =
    List.filter
      (fun p ->
        (timed_run p).outcome <> Runner.Completed || (functional_run p).outcome <> Runner.Completed)
      pairs
  in
  check "pairs_completed" (incomplete = [])
    (Printf.sprintf "%d of %d pairs completed" (List.length pairs - List.length incomplete)
       (List.length pairs));
  check "pairs_deterministic" (!nondeterministic = 0)
    (Printf.sprintf "%d reps differ from their pair's first run" !nondeterministic);
  check_timing_golden (fun w v ->
      List.find_map (fun p -> if p.prog = w && p.variant = v then p.timed_run else None) pairs);
  sim_digest
    (List.concat_map
       (fun p ->
         [
           Printf.sprintf "%s/%s/timed:%s" p.prog p.variant (fingerprint (timed_run p));
           Printf.sprintf "%s/%s/functional:%s" p.prog p.variant (fingerprint (functional_run p));
         ])
       pairs);
  if o.traced then begin
    let path = scratch "pairs.trace.jsonl" in
    let run ~timing p =
      Gc.full_major ();
      Trace.with_span ~stage:"bench.runner"
        [ ("pair", p.prog ^ "/" ^ p.variant); ("timing", string_of_bool timing) ]
        (fun () -> run_pair ~timing ~keep:false p)
    in
    let traced_round =
      with_trace path (fun () ->
          ignore (Trace.with_span ~stage:"bench.workloads" [] build);
          let t = sum (List.map (run ~timing:true) pairs) in
          List.iter (fun p -> ignore (run ~timing:false p)) pairs;
          t)
    in
    record_self_times (read_spans path);
    record_overhead ~traced:traced_round ~untraced:(value "job_s")
  end

(* --- security: the exploit sweep and the campaign matrix ------------------- *)

(* The three columns of the campaign detection matrix (security_eval's). *)
let campaign_configs = [ Runner.insecure; always_on; Runner.prediction ]

(* A campaign matrix; an undetermined cell entry (a fault) is a failed
   operation. *)
let matrix ?jobs campaigns =
  let m = Security.campaign_matrix ?jobs ~configs:campaign_configs campaigns in
  let total = List.fold_left (fun a (_, (c : Security.matrix_cell)) -> a + c.total) 0 m in
  let undetermined = List.fold_left (fun a (_, (c : Security.matrix_cell)) -> a + c.undetermined) 0 m in
  count_ops ~ok:(total - undetermined) total;
  m

let matrix_json m = Json.to_string (Security.matrix_to_json m) ^ "\n"

let with_workers f =
  Remote.set_spec (Remote.Spawn 2);
  Fun.protect ~finally:(fun () -> Remote.set_spec Remote.Off) f

(* One supervised sweep; an evaluation succeeds when the exploit is
   blocked with its expected violation class.  Returns that count, the
   sweep's simulated results as lines (the results themselves take a few
   hundred MB), and the seconds the sweep took, inside a bench.security
   span tagged [geom] when tracing. *)
let sweep ?jobs ~geom exploits =
  Gc.full_major ();
  let (slots, _, _), dt =
    Trace.with_span ~stage:"bench.security" [ ("geom", geom) ] (fun () ->
        timed (fun () -> Security.sweep_stats_supervised ?jobs exploits))
  in
  let ok =
    List.length
      (List.filter (function _, Ok r -> Security.blocked_as_expected r | _, Error _ -> false) slots)
  in
  count_ops ~ok (List.length slots);
  ( ok,
    List.map
      (fun ((e : Exploit.t), res) ->
        e.name ^ ":"
        ^
        match res with
        | Ok (r : Security.result) -> fingerprint r.insecure ^ "|" ^ fingerprint r.under_protection
        | Error f -> Pool.fault_to_string f)
      slots,
    dt )

let run_security o =
  let exploits = Exploits.all in
  (* The generated inputs: the seed's campaign corpora, and the seed-1
     corpus of the golden matrix. *)
  let setup () =
    ( Campaign.corpus ~seed:o.seed ~per_family:24,
      Campaign.corpus ~seed:o.seed ~per_family:4,
      Campaign.corpus ~seed:1 ~per_family:4 )
  in
  let large, small, golden_corpus =
    measure_setup ~record_layers:(fun () -> record "exploits.corpus_ms" (1e3 *. value "setup_s")) setup
  in
  let majors0 = major_collections () in
  let start = Pool.now () in
  (* Every sweep, at any geometry, must match the first one. *)
  let first = ref None and differing = ref 0 in
  let timed_sweep ?jobs geom =
    let ok, lines, dt = sweep ?jobs ~geom exploits in
    (match !first with
    | None -> first := Some (ok, lines)
    | Some (_, lines0) -> if lines0 <> lines then incr differing);
    dt
  in
  let jobs2 =
    reps ~deadline:(start +. (0.6 *. o.seconds)) (fun ~keep:_ -> timed_sweep ~jobs:2 "jobs2")
  in
  record_median "job_s" ~scale:1. jobs2;
  record_median "security.sweep_s.jobs2" ~scale:1. jobs2;
  (* The operation: one exploit evaluated on its own, outside any pool;
     a pass over all 896 is one rep. *)
  let op = ref [] in
  ignore
    (reps ~min:1 ~warmup:false ~deadline:(start +. (0.85 *. o.seconds)) (fun ~keep:_ ->
         Gc.full_major ();
         List.iter
           (fun e ->
             let r, dt = timed (fun () -> Security.evaluate e) in
             count_ops ~ok:(Bool.to_int (Security.blocked_as_expected r)) 1;
             op := dt :: !op)
           exploits;
         0.));
  record_median "op_ms" ~scale:1e3 !op;
  record_memory ~majors0;
  let ok, lines = Option.get !first in
  let n = List.length exploits in
  check "security_blocked" (ok = n)
    (Printf.sprintf "%d/%d exploits blocked with the expected class" ok n);
  record "security.blocked_ratio" (ratio ok n);
  let geometries =
    [
      ("jobs1", fun () -> matrix ~jobs:1 small);
      ("jobs2", fun () -> matrix ~jobs:2 small);
      ("workers2", fun () -> with_workers (fun () -> matrix small));
    ]
  in
  let matrices = List.map (fun (g, f) -> (g, matrix_json (f ()))) geometries in
  let reference = snd (List.hd matrices) in
  check "campaign_geometries"
    (List.for_all (fun (_, m) -> m = reference) matrices)
    (Printf.sprintf "seed %d matrix at %s" o.seed (String.concat ", " (List.map fst geometries)));
  let golden_path = "test/golden/campaign_matrix.json" in
  let golden = matrix_json (matrix ~jobs:2 golden_corpus) in
  check "campaign_golden"
    (try read_file golden_path = golden with Sys_error _ -> false)
    golden_path;
  sim_digest (reference :: golden :: lines);
  if o.traced then begin
    record_median "security.sweep_s.jobs1" ~scale:1.
      (List.init 2 (fun _ -> timed_sweep ~jobs:1 "jobs1"));
    record_median "security.sweep_s.workers2" ~scale:1.
      (with_workers (fun () -> List.init 3 (fun _ -> timed_sweep "workers2")));
    let m, dt = clean_timed (fun () -> matrix ~jobs:2 large) in
    record "security.campaign_evals_per_s"
      (fdiv (float_of_int (List.length campaign_configs * List.length large)) dt);
    let protected =
      List.filter (fun ((_, _, c), _) -> c <> Runner.config_name Runner.insecure) m
    in
    let total f = List.fold_left (fun a (_, c) -> a + f c) 0 protected in
    record "security.campaign_detect_ratio"
      (ratio
         (total (fun (c : Security.matrix_cell) -> c.detected))
         (total (fun (c : Security.matrix_cell) -> c.total)));
    let programs = List.map (fun (e : Exploit.t) -> (e.heap, e.build ())) exploits in
    record_median "os.load_us" ~scale:1e6
      (List.map
         (fun (heap, p) -> snd (timed (fun () -> ignore (Chex86_os.Process.load ~heap p))))
         programs);
    let path = scratch "security.trace.jsonl" in
    let traced_jobs2 =
      with_trace path (fun () ->
          ignore (Trace.with_span ~stage:"bench.exploits" [] setup);
          let dt = timed_sweep ~jobs:2 "jobs2" in
          ignore (timed_sweep ~jobs:1 "jobs1");
          with_workers (fun () -> ignore (timed_sweep "workers2"));
          List.iter
            (fun e ->
              ignore
                (Trace.with_span ~stage:"bench.security" [ ("op", "evaluate") ] (fun () ->
                     Security.evaluate e)))
            exploits;
          dt)
    in
    let spans = read_spans path in
    record_self_times spans;
    List.iter
      (fun (geom, jobs, name) ->
        match sweep_under spans ("geom", geom) with
        | Some s ->
          let us, idle, chunks = dispatch ~jobs s in
          record name us;
          if geom = "jobs2" then begin
            record "pool.idle_share" idle;
            record "pool.chunks" (float_of_int chunks)
          end
        | None -> check ("security_trace_" ^ geom) false "no sweep in the trace")
      [
        ("jobs1", 1, "pool.dispatch_us_per_task.jobs1");
        ("jobs2", 2, "pool.dispatch_us_per_task.jobs2");
        ("workers2", 2, "remote.dispatch_us_per_task.workers2");
      ];
    record_overhead ~traced:traced_jobs2 ~untraced:(value "job_s")
  end;
  check "security_deterministic" (!differing = 0)
    (Printf.sprintf "%d sweeps differ from the first" !differing)

(* --- trace: the memory hierarchy and the OoO core on their own ------------- *)

let n_accesses = 1_000_000
let n_uops = 250_000

(* Accesses of the small per-operation trace, the size of the golden
   per-access CSVs. *)
let n_small = 2_000
let small_batch = 20

type traces = { packed : int array; uops : Uoptrace.record list; small : string }

(* Cachetrace text -> one int per access (address lsl 1, write bit in
   bit 0) and the number of lines that failed to parse.  Lines are cut
   one at a time so they die young instead of filling the major heap. *)
let pack text =
  let a = Array.make n_accesses 0 and n = ref 0 and errors = ref 0 and pos = ref 0 in
  let len = String.length text in
  while !pos < len do
    let stop = Option.value ~default:len (String.index_from_opt text !pos '\n') in
    (match Cachetrace.parse_line (String.sub text !pos (stop - !pos)) with
    | Ok (Some { Cachetrace.write; addr }) when !n < n_accesses ->
      a.(!n) <- (addr lsl 1) lor Bool.to_int write;
      incr n
    | Ok None -> ()
    | Ok (Some _) | Error _ -> incr errors);
    pos := stop + 1
  done;
  (Array.sub a 0 !n, !errors)

(* Fresh structures per replay: the modelled caches start empty.  Each
   returns its counters and a simulated total (latency or cycles). *)
let replay_accesses (preset : Preset.t) packed =
  let counters = Counter.create_group () in
  let hier = Hierarchy.create ~config:preset.hier counters in
  let latency = ref 0 in
  Array.iter
    (fun a ->
      latency :=
        !latency + Hierarchy.access hier ~kind:Hierarchy.Data ~write:(a land 1 = 1) (a lsr 1))
    packed;
  (counters, !latency)

let replay_uops records =
  let p = Preset.skylake in
  let counters = Counter.create_group () in
  let pipeline = Pipeline.create ~config:p.core (Hierarchy.create ~config:p.hier counters) counters in
  Uoptrace.replay ~pipeline records;
  (counters, Pipeline.cycles pipeline)

(* What [chex86_sim trace] does with a small file: parse and simulate
   every line on a fresh hierarchy, optionally writing the CSV. *)
let run_cachetrace ?csv (preset : Preset.t) text =
  let counters = Counter.create_group () in
  let hier = Hierarchy.create ~config:preset.hier counters in
  let lines = ref (String.split_on_char '\n' text) in
  let read_line () =
    match !lines with
    | [] -> None
    | l :: rest ->
      lines := rest;
      Some l
  in
  Cachetrace.run ?csv ~counters hier read_line

let run_trace o =
  let gen_s = ref [] and parse_s = ref [] and parse_errors = ref 0 in
  let setup () =
    let (text, uops, small), g =
      timed (fun () ->
          ( Gen.cachetrace ~seed:o.seed ~n:n_accesses (),
            Gen.uoptrace ~seed:o.seed ~n:n_uops (),
            Gen.cachetrace ~seed:o.seed ~n:n_small () ))
    in
    let (packed, errors), p = timed (fun () -> pack text) in
    gen_s := g :: !gen_s;
    parse_s := p :: !parse_s;
    parse_errors := errors;
    { packed; uops; small }
  in
  let t =
    measure_setup setup ~record_layers:(fun () ->
        record_median "frontend.gen_ms" ~scale:1e3 !gen_s;
        record "frontend.parse_maccess_per_s" (fdiv (float_of_int n_accesses) (median !parse_s) /. 1e6))
  in
  let parsed = !parse_errors = 0 && Array.length t.packed = n_accesses in
  count_ops ~ok:(Bool.to_int parsed) 1;
  check "trace_parse" parsed
    (Printf.sprintf "%d accesses parsed, %d parse errors" (Array.length t.packed) !parse_errors);
  let print (counters, total) =
    String.concat ","
      (string_of_int total
      :: List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (Counter.to_list counters))
  in
  (* The first result of each replay, and how many later ones differ. *)
  let first = Hashtbl.create 3 and nondeterministic = ref 0 in
  let phase samples ~keep name f =
    let r, dt = timed f in
    count_ops ~ok:1 1;
    (match Hashtbl.find_opt first name with
    | None -> Hashtbl.add first name r
    | Some r0 -> if print r0 <> print r then incr nondeterministic);
    if keep then samples := dt :: !samples;
    dt
  in
  let skylake = ref [] and tiny = ref [] and uops = ref [] in
  let round ~keep =
    Gc.full_major ();
    let a = phase skylake ~keep "skylake" (fun () -> replay_accesses Preset.skylake t.packed) in
    let b = phase tiny ~keep "tiny" (fun () -> replay_accesses Preset.tiny t.packed) in
    let c = phase uops ~keep "uops" (fun () -> replay_uops t.uops) in
    a +. b +. c
  in
  let majors0 = major_collections () in
  let start = Pool.now () in
  record_median "job_s" ~scale:1. (reps ~deadline:(start +. (0.8 *. o.seconds)) round);
  (* One rep is a batch of small runs from a collected heap: a single
     run is too short to carry a collection of its own, and whether a
     major slice lands inside it would make its time bimodal. *)
  let small_runs =
    reps ~deadline:(start +. (0.95 *. o.seconds)) (fun ~keep:_ ->
        let rs, dt =
          clean_timed (fun () -> List.init small_batch (fun _ -> run_cachetrace Preset.skylake t.small))
        in
        count_ops ~ok:(List.length (List.filter Result.is_ok rs)) small_batch;
        dt)
  in
  record_median "op_ms" ~scale:(1e3 /. float_of_int small_batch) small_runs;
  record_memory ~majors0;
  List.iter2
    (fun (p : Preset.t) samples ->
      record ("mem.hierarchy.maccess_per_s." ^ p.name)
        (fdiv (float_of_int n_accesses) (median !samples) /. 1e6))
    presets [ skylake; tiny ];
  let uop_counters, _ = Hashtbl.find first "uops" in
  record "machine.pipeline.muop_per_s"
    (fdiv (float_of_int (Counter.get uop_counters "pipeline.uops")) (median !uops) /. 1e6);
  record_mem (Counter.get (fst (Hashtbl.find first "skylake")));
  check "trace_deterministic" (!nondeterministic = 0)
    (Printf.sprintf "%d replays differ from the first" !nondeterministic);
  (* The seed-1 golden trace must reproduce the checked-in CSVs. *)
  let golden = Gen.cachetrace ~seed:1 ~n:n_small () and csv = scratch "trace.csv" in
  let mismatched =
    List.filter
      (fun (p : Preset.t) ->
        let r = Out_channel.with_open_bin csv (fun oc -> run_cachetrace ~csv:oc p golden) in
        let path = Printf.sprintf "test/golden/trace_%s.csv" p.name in
        not (Result.is_ok r && try read_file path = read_file csv with Sys_error _ -> false))
      presets
  in
  rm_rf csv;
  check "trace_golden_csv" (mismatched = [])
    (String.concat ", "
       (List.map
          (fun (p : Preset.t) -> p.name ^ if List.memq p mismatched then " differs" else " matches")
          presets));
  sim_digest (List.map (fun name -> name ^ ":" ^ print (Hashtbl.find first name)) [ "skylake"; "tiny"; "uops" ]);
  if o.traced then begin
    let path = scratch "trace.trace.jsonl" in
    let traced_round =
      with_trace path (fun () ->
          ignore (Trace.with_span ~stage:"bench.frontend" [] setup);
          Gc.full_major ();
          let span stage attrs f = snd (Trace.with_span ~stage attrs (fun () -> timed f)) in
          let a =
            span "bench.mem" [ ("preset", "skylake") ] (fun () -> replay_accesses Preset.skylake t.packed)
          in
          let b = span "bench.mem" [ ("preset", "tiny") ] (fun () -> replay_accesses Preset.tiny t.packed) in
          let c = span "bench.machine" [] (fun () -> replay_uops t.uops) in
          for _ = 1 to 20 do
            ignore (span "bench.frontend" [ ("op", "small") ] (fun () -> run_cachetrace Preset.skylake t.small))
          done;
          a +. b +. c)
    in
    record_self_times (read_spans path);
    record_overhead ~traced:traced_round ~untraced:(value "job_s")
  end

(* --- output ---------------------------------------------------------------- *)

let distribution samples =
  let n = List.length samples in
  ( n,
    quantile samples 0.25,
    quantile samples 0.75,
    if n >= 200 then Some (quantile samples 0.95) else None )

let print_metric m =
  let v, samples = Option.value ~default:(0., []) (Hashtbl.find_opt values m.name) in
  let extra =
    match samples with
    | [] -> ""
    | _ ->
      let n, p25, p75, p95 = distribution samples in
      Printf.sprintf " n=%d p25=%.6g p75=%.6g%s" n p25 p75
        (match p95 with Some p -> Printf.sprintf " p95=%.6g" p | None -> "")
  in
  Printf.printf "metric %s %.17g %s%s\n" m.name v m.unit extra

let metrics_json ms =
  Json.Obj
    (List.filter_map
       (fun m ->
         Option.map
           (fun (v, samples) ->
             let dist =
               match samples with
               | [] -> []
               | _ ->
                 let n, p25, p75, p95 = distribution samples in
                 [ ("n", Json.Int n); ("p25", Json.Float p25); ("p75", Json.Float p75) ]
                 @ Option.to_list (Option.map (fun p -> ("p95", Json.Float p)) p95)
             in
             (m.name, Json.Obj ([ ("value", Json.Float v); ("unit", Json.String m.unit) ] @ dist)))
           (Hashtbl.find_opt values m.name))
       ms)

(* The full record of a run, read back by [compare]. *)
let report ~workload o ~correct =
  Json.Obj
    [
      ("workload", Json.String workload);
      ("seed", Json.Int o.seed);
      ("seconds", Json.Float o.seconds);
      ("trace", Json.Bool o.traced);
      ("correct", Json.Bool correct);
      ("attempted", Json.Int !attempted);
      ("failed", Json.Int !failed);
      ("metrics", metrics_json end_to_end);
      ("layers", metrics_json layers);
      ( "checks",
        Json.Obj
          (List.rev_map
             (fun (name, ok, detail) ->
               (name, Json.Obj [ ("ok", Json.Bool ok); ("detail", Json.String detail) ]))
             !checks) );
    ]

let run ~workload ~json o =
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  Printf.printf
    "note workload %s, seed %d, %gs window, trace %b; modelled caches start empty in every \
     simulated run; the host heap is collected before each timed rep; GC at runtime defaults; at \
     most 2 domains or worker processes\n\
     %!"
    workload o.seed o.seconds o.traced;
  (try
     match workload with
     | "fig6" -> run_fig6 o
     | "pairs" -> run_pairs o
     | "security" -> run_security o
     | _ -> run_trace o
   with e -> check "completed" false (Printexc.to_string e));
  time_setup ();
  let correct = !attempted > 0 && !failed = 0 && List.for_all (fun (_, ok, _) -> ok) !checks in
  List.iter
    (fun (name, ok, detail) -> Printf.printf "check %s %s %s\n" name (if ok then "ok" else "FAIL") detail)
    (List.rev !checks);
  List.iter print_metric end_to_end;
  if o.traced then List.iter print_metric layers;
  Option.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (Json.to_string (report ~workload o ~correct));
          output_char oc '\n'))
    json;
  let shown = if o.traced then layers else end_to_end in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun m ->
                     (m.name, Json.Obj [ ("value", Json.Float (value m.name)); ("unit", Json.String m.unit) ]))
                   shown) );
          ]));
  exit (if correct then 0 else 1)

(* --- check-config: BENCHMARK.json against the registry --------------------- *)

let valid_name s =
  s <> "" && String.length s <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false) s

let valid_unit s =
  s <> "" && String.length s <= 16
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true | _ -> false)
       s

let check_config path =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let keys_exactly what keys = function
    | Json.Obj kv when List.sort compare (List.map fst kv) = List.sort compare keys -> ()
    | _ -> err "%s must have exactly the keys %s" what (String.concat ", " keys)
  in
  (match read_json path with
  | Error e -> err "%s: %s" path e
  | Ok doc ->
    keys_exactly "BENCHMARK.json"
      [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ]
      doc;
    let entries section =
      match Json.member section doc with Some (Json.List l) -> l | _ -> []
    in
    let str k o = Option.value ~default:"" (Option.bind (Json.member k o) Json.to_string_opt) in
    let ws = entries "workloads" in
    List.iter (keys_exactly "a workload" [ "name"; "why" ]) ws;
    if List.map (str "name") ws <> workload_names then
      err "workloads must be %s, as perf.exe --list says" (String.concat ", " workload_names);
    let section name ~keys ~hi registry =
      let es = entries name in
      if es = [] || List.length es > hi then err "%s: 1 to %d entries" name hi;
      List.iter (keys_exactly ("an entry of " ^ name) keys) es;
      let declared =
        List.map
          (fun e ->
            (str "name" e, str "unit" e, str "better" e, Option.bind (Json.member "bound" e) Json.to_float_opt))
          es
      in
      let listed = List.map (fun m -> (m.name, m.unit, better_name m.better, m.bound)) registry in
      List.iter
        (fun ((n, u, _, _) as d) ->
          if not (valid_name n) then err "%s: invalid name %S" name n;
          if not (valid_unit u) then err "%s: invalid unit %S of %s" name u n;
          if not (List.mem d listed) then err "%s: %s differs from perf.exe --list" name n)
        declared;
      List.iter
        (fun ((n, _, _, _) as l) -> if not (List.mem l declared) then err "%s: %s is missing" name n)
        listed
    in
    section "end_to_end" ~keys:[ "name"; "unit"; "better"; "bound" ] ~hi:16 end_to_end;
    section "per_layer" ~keys:[ "name"; "unit"; "better" ] ~hi:128 layers);
  let names = List.map (fun m -> m.name) (end_to_end @ layers) @ workload_names in
  if List.length (List.sort_uniq compare names) <> List.length names then err "a name is used twice";
  List.iter
    (fun m ->
      match m.bound with
      | Some b when b > 0. && b <= 0.25 -> ()
      | _ -> err "%s: bound must be in (0, 0.25]" m.name)
    end_to_end;
  if not (List.exists (fun m -> m.name = "setup_s" && m.unit = "s" && m.better = Lower) end_to_end)
  then err "setup_s (s, lower) is required";
  List.iter
    (fun m ->
      if not (List.exists (fun e -> e.name = m.moves) end_to_end) then
        err "%s moves unknown end-to-end metric %S" m.name m.moves;
      List.iter (fun w -> if not (List.mem w workload_names) then err "%s: unknown workload %s" m.name w) m.on)
    layers;
  List.iter prerr_endline (List.rev !errors);
  if !errors = [] then 0 else 1

(* --- compare: paired parent/change runs ------------------------------------ *)

(* The reports ([--json] files) in [dir], by file name; the i-th parent
   report pairs with the i-th change report of the same workload. *)
let load_reports dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.filter_map (fun f ->
         match read_json (Filename.concat dir f) with
         | Ok doc -> Some doc
         | Error e ->
           prerr_endline (f ^ ": " ^ e);
           None)

(* Verdict per (metric, workload): regressed when the median is worse
   than the bound allows (or, for layer metrics, when the change loses
   9/10 of pairs by more than the parent's IQR); improved when it wins
   9/10 of pairs and the medians differ by more than the parent's IQR;
   unresolved when the parent's own spread exceeds the bound and not
   every change run beats every parent run; unchanged otherwise. *)
let compare_dirs parent change =
  let ps = load_reports parent and cs = load_reports change in
  let regressed = ref false in
  let of_workload w = List.filter (fun d -> Option.bind (Json.member "workload" d) Json.to_string_opt = Some w) in
  let values_of section name docs =
    List.filter_map
      (fun d ->
        Option.bind (Json.member section d) (fun s ->
            Option.bind (Json.member name s) (fun m -> Option.bind (Json.member "value" m) Json.to_float_opt)))
      docs
  in
  List.iter
    (fun w ->
      let pw = of_workload w ps and cw = of_workload w cs in
      List.iter
        (fun (section, m) ->
          let p = values_of section m.name pw and c = values_of section m.name cw in
          let n = min (List.length p) (List.length c) in
          if List.mem w m.on && n > 0 then begin
            let better a b = match m.better with Lower -> a < b | Higher -> a > b in
            let pm = median p and cm = median c and p_iqr = quantile p 0.75 -. quantile p 0.25 in
            let paired = List.combine (List.filteri (fun i _ -> i < n) p) (List.filteri (fun i _ -> i < n) c) in
            let count f = List.length (List.filter f paired) in
            let wins = count (fun (a, b) -> better b a) and losses = count (fun (a, b) -> better a b) in
            let clear k = float_of_int k >= 0.9 *. float_of_int n && Float.abs (cm -. pm) > p_iqr in
            let worse_by = fdiv (match m.better with Lower -> cm -. pm | Higher -> pm -. cm) (Float.abs pm) in
            let verdict =
              match m.bound with
              | Some b when worse_by > b -> "regressed"
              | None when clear losses -> "regressed"
              | _ when clear wins -> "improved"
              | Some b
                when fdiv p_iqr (Float.abs pm) > b
                     && not (List.for_all (fun cv -> List.for_all (better cv) p) c) ->
                "unresolved"
              | _ -> "unchanged"
            in
            if verdict = "regressed" && m.bound <> None then regressed := true;
            Printf.printf "%-8s %-46s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g] %s  wins %d/%d  %s\n"
              w m.name pm (quantile p 0.25) (quantile p 0.75) cm (quantile c 0.25) (quantile c 0.75) m.unit
              wins n verdict
          end)
        (List.map (fun m -> ("metrics", m)) end_to_end @ List.map (fun m -> ("layers", m)) layers))
    workload_names;
  if !regressed then 1 else 0

(* --- command line ----------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: perf.exe --workload fig6|pairs|security|trace --seed N --seconds S --trace 0|1 [--json FILE]\n\
    \       perf.exe --list\n\
    \       perf.exe check-config BENCHMARK.json\n\
    \       perf.exe compare PARENT_DIR CHANGE_DIR";
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--list" ] -> list ()
  | [ "check-config"; path ] -> exit (check_config path)
  | [ "compare"; parent; change ] -> exit (compare_dirs parent change)
  | args ->
    let workload = ref None and seed = ref None and seconds = ref None and traced = ref None
    and json = ref None in
    let rec go = function
      | [] -> ()
      | "--workload" :: w :: rest when List.mem w workload_names ->
        workload := Some w;
        go rest
      | "--seed" :: s :: rest when Option.is_some (int_of_string_opt s) ->
        seed := int_of_string_opt s;
        go rest
      | "--seconds" :: s :: rest when Option.fold ~none:false ~some:(fun x -> x > 0.) (float_of_string_opt s) ->
        seconds := float_of_string_opt s;
        go rest
      | "--trace" :: (("0" | "1") as t) :: rest ->
        traced := Some (t = "1");
        go rest
      | "--json" :: path :: rest ->
        json := Some path;
        go rest
      | _ -> usage ()
    in
    go args;
    (match (!workload, !seed, !seconds, !traced) with
    | Some workload, Some seed, Some seconds, Some traced ->
      run ~workload ~json:!json { seed; seconds; traced }
    | _ -> usage ())
