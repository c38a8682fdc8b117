(* Security evaluation sweep (Section VII-A): run every exploit of the
   three suites on the insecure baseline and under a protection
   configuration, and tabulate who got caught, with what violation
   class. *)

module Exploit = Chex86_exploits.Exploit
module Counter = Chex86_stats.Counter
module Histogram = Chex86_stats.Histogram

type result = {
  exploit : Exploit.t;
  insecure : Runner.run;
  under_protection : Runner.run;
}

(* One run of an exploit under one configuration, honouring the
   exploit's allocator personality and execution mode (single-core Sim
   vs. the SMP driver for cross-core campaigns). *)
let run_exploit config (exploit : Exploit.t) =
  match exploit.Exploit.execution with
  | Exploit.Single_core ->
    Runner.run_program ~timing:false ~max_insns:2_000_000 ~heap:exploit.Exploit.heap
      config (exploit.build ())
  | Exploit.Multi_core { threads; quantum } ->
    Runner.run_threads ~timing:false ~max_insns:2_000_000 ~heap:exploit.Exploit.heap
      ~quantum ~threads config
      (exploit.build ())

let evaluate ?(config = Runner.prediction) (exploit : Exploit.t) =
  let insecure = run_exploit Runner.insecure exploit in
  let under_protection = run_exploit config exploit in
  { exploit; insecure; under_protection }

let blocked result =
  match result.under_protection.Runner.outcome with
  | Runner.Blocked _ -> true
  | _ -> false

let blocked_as_expected result =
  match result.under_protection.Runner.outcome with
  | Runner.Blocked kind -> Exploit.matches result.exploit.Exploit.expected kind
  | _ -> false

(* The attack must not land under protection: not even the allocator
   should see the corruption. *)
let corruption_prevented result = not result.under_protection.Runner.pwned

(* Outcome bucket of a protected run.  A heap abort is the *allocator*
   stopping the attack, not the protection scheme detecting it — the
   [sweep.outcome.*] counters keep the two separate (folding them into
   one bucket hid allocator saves as detections). *)
let outcome_bucket = function
  | Runner.Completed -> "completed"
  | Runner.Blocked _ -> "violation"
  | Runner.Aborted _ -> "heap_abort"
  | Runner.Faulted _ -> "faulted"
  | Runner.Budget_exhausted -> "budget_exhausted"

type tally = { counters : Counter.group; protected_macro_insns : Histogram.t }

let tally results =
  let c = Counter.create_group () and insns = Histogram.create () in
  List.iter
    (fun r ->
      Counter.incr c "sweep.total";
      if blocked r then Counter.incr c "sweep.blocked";
      if blocked_as_expected r then Counter.incr c "sweep.expected_class";
      if corruption_prevented r then Counter.incr c "sweep.prevented";
      Counter.incr c ("sweep.outcome." ^ outcome_bucket r.under_protection.Runner.outcome);
      (match r.under_protection.Runner.outcome with
      | Runner.Blocked kind -> Counter.incr c ("sweep.class." ^ Chex86.Violation.class_name kind)
      | _ -> ());
      Histogram.add insns r.under_protection.Runner.macro_insns)
    results;
  { counters = c; protected_macro_insns = insns }

(* Remote task kind: the wire carries the exploit's name and a
   marshalled config; the worker re-looks the exploit up in its own
   registry (Exploit.t holds a build closure, which can't cross the
   process boundary) and returns the two runs marshalled.  Registered
   on both sides: here for the supervisor's degraded/local path, and by
   bin/chex86_worker.ml at startup. *)
let remote_kind = "security"

let register_remote () =
  Remote.register_kind remote_kind (fun ~key ~arg ->
      let exploit = Chex86_exploits.Exploits.find key in
      let config : Runner.config = Marshal.from_string arg 0 in
      let r = evaluate ~config exploit in
      Marshal.to_string (r.insecure, r.under_protection) [])

(* The 800+ exploits shard trivially: each evaluation builds its own two
   guest programs and monitors, and results come back in exploit order,
   so the sweep is bit-identical at any job count and batch size.  A
   crashing evaluation is classified and reported instead of killing the
   sweep.  The [sweep.*] tally is folded here, on the coordinator, over
   the completed evaluations in exploit order.  With workers configured
   ([--workers]) the sweep runs in worker processes instead of domains —
   same results, but a worker that stops responding is also killed at
   the heartbeat deadline. *)
let sweep_stats_supervised ?config ?jobs ?batch_size exploits =
  Trace.with_span ~stage:"sweep"
    [ ("kind", "security"); ("tasks", string_of_int (List.length exploits)) ]
  @@ fun () ->
  let key (e : Exploit.t) = e.Exploit.name in
  let tasks = Array.of_list exploits in
  let results, report =
    if Remote.enabled () then begin
      register_remote ();
      ignore jobs;
      let config_arg = Marshal.to_string (Option.value ~default:Runner.prediction config) [] in
      let payloads, report =
        Remote.sweep ?batch_size ~kind:remote_kind ~key ~arg:(fun _ -> config_arg) tasks
      in
      let decode i payload =
        let insecure, under_protection =
          (Marshal.from_string payload 0 : Runner.run * Runner.run)
        in
        { exploit = tasks.(i); insecure; under_protection }
      in
      (Array.mapi (fun i -> Result.map (decode i)) payloads, report)
    end
    else Pool.sweep ?jobs ?batch_size ~key (evaluate ?config) tasks
  in
  let slots = List.combine exploits (Array.to_list results) in
  let t = tally (List.filter_map (fun (_, r) -> Result.to_option r) slots) in
  (* The histogram is published only once a completed evaluation added
     to it: an all-faulted sweep has no distribution to export. *)
  if Trace.metrics_on () then
    Trace.metrics_absorb
      ( Counter.group_snapshot t.counters,
        if Histogram.count t.protected_macro_insns = 0 then []
        else [ ("sweep.protected_macro_insns", Histogram.snapshot t.protected_macro_insns) ] );
  (slots, t, report)

type suite_summary = {
  suite : Exploit.suite;
  total : int;
  blocked : int;
  expected_class : int;
  prevented : int;
  insecure_corrupts : int;
  insecure_aborts : int;
}

let summarize suite results =
  let mine = List.filter (fun r -> r.exploit.Exploit.suite = suite) results in
  {
    suite;
    total = List.length mine;
    blocked = List.length (List.filter blocked mine);
    expected_class = List.length (List.filter blocked_as_expected mine);
    prevented = List.length (List.filter corruption_prevented mine);
    insecure_corrupts =
      List.length (List.filter (fun r -> r.insecure.Runner.pwned) mine);
    insecure_aborts =
      List.length
        (List.filter
           (fun r -> match r.insecure.Runner.outcome with Runner.Aborted _ -> true | _ -> false)
           mine);
  }

(* --- campaign detection matrices ------------------------------------------ *)

module Campaign = Chex86_exploits.Campaign

(* One (family x allocator x config) cell of a detection matrix. *)
type matrix_cell = {
  total : int;
  detected : int;  (* a security violation was raised *)
  expected_class : int;  (* ... of the campaign's expected class *)
  aborted : int;  (* the allocator's own integrity check fired *)
  missed : int;  (* completed with the pwned flag set *)
  benign : int;  (* completed without corrupting *)
  undetermined : int;  (* faulted, budget-exhausted, or sweep fault *)
}

let empty_cell =
  {
    total = 0;
    detected = 0;
    expected_class = 0;
    aborted = 0;
    missed = 0;
    benign = 0;
    undetermined = 0;
  }

let add_run cell (exploit : Exploit.t) (run : Runner.run) =
  let cell = { cell with total = cell.total + 1 } in
  match run.Runner.outcome with
  | Runner.Blocked kind ->
    {
      cell with
      detected = cell.detected + 1;
      expected_class =
        (cell.expected_class
        + if Exploit.matches exploit.Exploit.expected kind then 1 else 0);
    }
  | Runner.Aborted _ -> { cell with aborted = cell.aborted + 1 }
  | Runner.Completed ->
    if run.Runner.pwned then { cell with missed = cell.missed + 1 }
    else { cell with benign = cell.benign + 1 }
  | Runner.Faulted _ | Runner.Budget_exhausted ->
    { cell with undetermined = cell.undetermined + 1 }

let add_fault cell =
  { cell with total = cell.total + 1; undetermined = cell.undetermined + 1 }

(* Per-(family x allocator x config) detection matrix over a campaign
   corpus.  Each config is one supervised sweep over the synthesized
   exploits, so the evaluations shard over the domain pool — or over
   remote workers when configured — and rows are folded serially in
   deterministic (family, allocator, config) order: the matrix is
   bit-identical at any jobs / batch-size / workers geometry. *)
let campaign_matrix ?jobs ?batch_size ~configs campaigns =
  let exploits = List.map Campaign.to_exploit campaigns in
  let cells = Hashtbl.create 64 in
  let bump key f =
    Hashtbl.replace cells key (f (Option.value ~default:empty_cell (Hashtbl.find_opt cells key)))
  in
  List.iter
    (fun config ->
      let results, _stats, _report =
        sweep_stats_supervised ~config ?jobs ?batch_size exploits
      in
      List.iter2
        (fun campaign (exploit, outcome) ->
          let key =
            ( Campaign.family campaign,
              Chex86_os.Allocator.personality_name campaign.Campaign.alloc,
              Runner.config_name config )
          in
          match outcome with
          | Ok r -> bump key (fun cell -> add_run cell exploit r.under_protection)
          | Error (_ : Pool.fault) -> bump key add_fault)
        campaigns results)
    configs;
  (* deterministic row order: family, then allocator, then config order
     as given *)
  List.concat_map
    (fun family ->
      List.concat_map
        (fun alloc ->
          List.filter_map
            (fun config ->
              let key = (family, alloc, Runner.config_name config) in
              Option.map (fun cell -> (key, cell)) (Hashtbl.find_opt cells key))
            configs)
        [ "glibc"; "seg" ])
    Campaign.families

let render_matrix matrix =
  Chex86_stats.Render.table
    ~header:
      [ "family"; "heap"; "configuration"; "total"; "detected"; "expected-class";
        "aborted"; "missed"; "benign"; "undet" ]
    (List.map
       (fun ((family, alloc, config), c) ->
         [ family; alloc; config; string_of_int c.total; string_of_int c.detected;
           string_of_int c.expected_class; string_of_int c.aborted;
           string_of_int c.missed; string_of_int c.benign;
           string_of_int c.undetermined ])
       matrix)

(* Deterministic compact JSON; the golden matrix files in CI are a
   byte-for-byte diff against this. *)
let matrix_to_json matrix =
  let module J = Chex86_stats.Json in
  J.Obj
    [
      ("schema", J.String "chex86-campaign-matrix-v1");
      ( "rows",
        J.List
          (List.map
             (fun ((family, alloc, config), c) ->
               J.Obj
                 [
                   ("family", J.String family);
                   ("heap", J.String alloc);
                   ("config", J.String config);
                   ("total", J.Int c.total);
                   ("detected", J.Int c.detected);
                   ("expected_class", J.Int c.expected_class);
                   ("aborted", J.Int c.aborted);
                   ("missed", J.Int c.missed);
                   ("benign", J.Int c.benign);
                   ("undetermined", J.Int c.undetermined);
                 ])
             matrix) );
    ]

(* Violation-class breakdown of the blocked exploits (the per-class
   discussion of Section VII-A). *)
let class_breakdown results =
  let table = Hashtbl.create 8 in
  List.iter
    (fun r ->
      match r.under_protection.Runner.outcome with
      | Runner.Blocked kind ->
        let name = Chex86.Violation.class_name kind in
        Hashtbl.replace table name (1 + Option.value ~default:0 (Hashtbl.find_opt table name))
      | _ -> ())
    results;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [] |> List.sort compare
