(* security_eval: run the three exploit suites (RIPE, ASan tests,
   How2Heap) against a protection configuration and print the Section
   VII-A summary plus a per-exploit listing for the named suites.

   --jobs N shards the sweep over N worker domains (default: recommended
   domain count - 1; results are bit-identical at any job count).
   --batch-size N dispatches the exploits in chunks of N (default:
   auto-sized, about four chunks per worker); results are bit-identical
   at any batch size. The sweep is supervised: a crashing evaluation is
   reported and the rest — including the faulted task's chunk-mates —
   completes (--strict makes any fault flip the exit code). --workers N
   moves the sweep into N spawned worker processes: same results, but a
   worker that stops responding is killed at the --heartbeat deadline
   instead of holding the sweep forever. *)

module Runner = Chex86_harness.Runner
module Security = Chex86_harness.Security
module Pool = Chex86_harness.Pool
module Cli = Chex86_harness.Cli
module Exploit = Chex86_exploits.Exploit
module Campaign = Chex86_exploits.Campaign

type opts = {
  verbose : bool;
  campaign_matrix : bool;
  matrix_out : string option;
  matrix_seed : int;
  matrix_per_family : int;
}

(* A malformed number is a one-line error, not an uncaught [Failure]. *)
let int_flag ?(min = min_int) flag value =
  match int_of_string_opt value with
  | Some n when n >= min -> n
  | _ ->
    Printf.eprintf "invalid %s value %S (expected an integer%s)\n" flag value
      (if min = min_int then "" else Printf.sprintf " >= %d" min);
    exit 1

let parse_args () =
  let verbose = ref false in
  let campaign_matrix = ref false in
  let matrix_out = ref None in
  let matrix_seed = ref 1 in
  let matrix_per_family = ref 12 in
  let usage =
    "expected --verbose, --campaign-matrix [--matrix-out FILE] [--matrix-seed N] \
     [--matrix-per-family N] plus:"
  in
  let rec go = function
    | [] -> ()
    | ("-v" | "--verbose") :: rest ->
      verbose := true;
      go rest
    | "--campaign-matrix" :: rest ->
      campaign_matrix := true;
      go rest
    | "--matrix-out" :: file :: rest ->
      matrix_out := Some file;
      go rest
    | "--matrix-seed" :: n :: rest ->
      matrix_seed := int_flag "--matrix-seed" n;
      go rest
    | "--matrix-per-family" :: n :: rest ->
      matrix_per_family := int_flag ~min:1 "--matrix-per-family" n;
      go rest
    | arg :: _ ->
      Printf.eprintf "unknown argument %S (%s)\n%s\n" arg usage Cli.common_flags_doc;
      exit 1
  in
  go (Cli.parse_common (List.tl (Array.to_list Sys.argv)));
  {
    verbose = !verbose;
    campaign_matrix = !campaign_matrix;
    matrix_out = !matrix_out;
    matrix_seed = !matrix_seed;
    matrix_per_family = !matrix_per_family;
  }

(* The three matrix columns of the campaign evaluation: no protection,
   microcode always-on, and the prediction-driven scheme. *)
let matrix_configs =
  [
    Runner.insecure;
    Runner.Chex (Chex86.Variant.make Chex86.Variant.Microcode_always_on);
    Runner.prediction;
  ]

let run_campaign_matrix opts =
  let campaigns =
    Campaign.corpus ~seed:opts.matrix_seed ~per_family:opts.matrix_per_family
  in
  let matrix =
    Chex86_harness.Trace.with_span ~stage:"campaign-matrix"
      [ ("campaigns", string_of_int (List.length campaigns)) ]
      (fun () -> Security.campaign_matrix ~configs:matrix_configs campaigns)
  in
  print_string (Security.render_matrix matrix);
  let json = Chex86_stats.Json.to_string (Security.matrix_to_json matrix) ^ "\n" in
  (match opts.matrix_out with
  | Some file ->
    let oc = open_out file in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc json)
  | None -> ());
  Cli.exit_for_faults ()

let () =
  let opts = parse_args () in
  if opts.campaign_matrix then begin
    run_campaign_matrix opts;
    exit 0
  end;
  let verbose = opts.verbose in
  let slots, _tally, report =
    (* Root span: groups the suite sweep under one top-level node in
       trace-summary output. *)
    Chex86_harness.Trace.with_span ~stage:"security-eval"
      [ ("exploits", string_of_int (List.length Chex86_exploits.Exploits.all)) ]
      (fun () -> Security.sweep_stats_supervised Chex86_exploits.Exploits.all)
  in
  let results = List.filter_map (fun (_, r) -> Result.to_option r) slots in
  if verbose then
    List.iter
      (fun (r : Security.result) ->
        if r.exploit.Exploit.suite <> Exploit.Ripe then begin
          let status =
            match r.under_protection.Runner.outcome with
            | Runner.Blocked kind -> "blocked: " ^ Chex86.Violation.to_string kind
            | Runner.Completed -> "NOT DETECTED"
            | Runner.Aborted msg -> "allocator abort: " ^ msg
            | Runner.Faulted msg -> "fault: " ^ msg
            | Runner.Budget_exhausted -> "budget exhausted"
          in
          Printf.printf "%-34s %s\n" r.exploit.Exploit.name status
        end)
      results;
  List.iter
    (fun suite ->
      let s = Security.summarize suite results in
      Printf.printf "%-16s %4d exploits, %4d blocked, %4d with the expected class\n"
        (Exploit.suite_name suite) s.Security.total s.Security.blocked
        s.Security.expected_class)
    [ Exploit.Ripe; Exploit.Asan_suite; Exploit.How2heap ];
  let total = List.length results in
  let blocked = List.length (List.filter Security.blocked results) in
  Printf.printf "\n%d/%d exploits blocked under CHEx86 (micro-code prediction driven)\n"
    blocked total;
  if report.Pool.crashed + report.Pool.worker_lost > 0
     || report.Pool.worker_losses > 0
  then print_endline (Pool.render_fault_report report);
  Cli.exit_for_faults ();
  if blocked < total then exit 1
