(* The one parser of the sweep flags, shared by the two sweep
   executables (bench/main.exe, security_eval).  Every flag sets a
   process-wide knob (Pool.set_jobs/set_strict/..., Runner.Store,
   Remote, Trace). *)

let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "%s\n" msg;
      exit 1)
    fmt

let common_flags_doc =
  "  --jobs N, -j N      worker domains to shard sweeps over (>= 1)\n\
  \  --batch-size N      tasks per dispatched chunk (>= 1, or 'auto': ~4 chunks/worker)\n\
  \  --strict            exit 1 if any task faulted; unknown CHEX86_WORKLOADS error\n\
  \  --keep-going        report faults and continue (default)\n\
  \  --cache-dir DIR     on-disk result store location (default _chex86_cache)\n\
  \  --no-cache          disable the on-disk result store\n\
  \  --cpu PRESET        select the \xc2\xb5arch preset (skylake, nehalem, tiny)\n\
  \  --workers N         shard sweeps over N spawned worker processes (0 = off)\n\
  \  --heartbeat S       seconds of worker silence before it is killed (default 30)\n\
  \  --trace FILE        write structured span events (JSONL) to FILE\n\
  \  --metrics FILE      dump merged sweep counters/histograms to FILE as JSON at exit"

(* [--flag=value] becomes [--flag; value] so every flag below accepts
   both spellings. *)
let split_eq args =
  List.concat_map
    (fun arg ->
      if String.length arg > 2 && String.sub arg 0 2 = "--" && String.contains arg '='
      then begin
        let i = String.index arg '=' in
        [ String.sub arg 0 i; String.sub arg (i + 1) (String.length arg - i - 1) ]
      end
      else [ arg ])
    args

let set_jobs value =
  match int_of_string_opt value with
  | Some n when n >= 1 -> Pool.set_jobs n
  | _ -> die "invalid --jobs value %S (expected an integer >= 1)" value

let set_batch_size value =
  match value with
  | "auto" -> Pool.set_batch_size None
  | _ -> (
    match int_of_string_opt value with
    | Some n when n >= 1 -> Pool.set_batch_size (Some n)
    | _ -> die "invalid --batch-size value %S (expected an integer >= 1 or 'auto')" value)

let parse_workers value =
  match int_of_string_opt value with
  | Some n when n >= 0 -> n
  | _ -> die "invalid --workers value %S (expected an integer >= 0)" value

let set_cpu value =
  match Chex86_machine.Preset.find value with
  | Some p -> Chex86_machine.Preset.set p
  | None ->
    die "unknown --cpu preset %S (available: %s)" value
      (String.concat ", " (Chex86_machine.Preset.names ()))

let set_heartbeat value =
  match float_of_string_opt value with
  | Some s when s > 0. -> Remote.set_heartbeat s
  | _ -> die "invalid --heartbeat value %S (expected seconds > 0)" value

(* Strip the common sweep flags out of [args], applying each to the
   process-wide knobs; whatever remains is returned for the caller's own
   parsing.  Also arms the fault-injection plan from the environment
   (CHEX86_FAULT_RATE / CHEX86_FAULT_SEED), rejecting malformed values
   the same way as a bad flag. *)
let parse_common args =
  let cache_dir = ref (Some Runner.Store.default_dir) in
  let workers = ref None in
  let rec go = function
    | [] -> []
    | ("--jobs" | "-j") :: value :: rest ->
      set_jobs value;
      go rest
    | ("--jobs" | "-j") :: [] -> die "missing value for --jobs"
    | "--batch-size" :: value :: rest ->
      set_batch_size value;
      go rest
    | "--batch-size" :: [] -> die "missing value for --batch-size"
    | "--strict" :: rest ->
      Pool.set_strict true;
      go rest
    | "--keep-going" :: rest ->
      Pool.set_strict false;
      go rest
    | "--cache-dir" :: value :: rest ->
      if value = "" then die "invalid --cache-dir value: empty";
      cache_dir := Some value;
      go rest
    | "--cache-dir" :: [] -> die "missing value for --cache-dir"
    | "--no-cache" :: rest ->
      cache_dir := None;
      go rest
    | "--workers" :: value :: rest ->
      workers := Some (parse_workers value);
      go rest
    | "--workers" :: [] -> die "missing value for --workers"
    | "--heartbeat" :: value :: rest ->
      set_heartbeat value;
      go rest
    | "--heartbeat" :: [] -> die "missing value for --heartbeat"
    | "--cpu" :: value :: rest ->
      set_cpu value;
      go rest
    | "--cpu" :: [] -> die "missing value for --cpu"
    | "--trace" :: value :: rest ->
      if value = "" then die "invalid --trace value: empty";
      Trace.set_output (Some value);
      go rest
    | "--trace" :: [] -> die "missing value for --trace"
    | "--metrics" :: value :: rest ->
      if value = "" then die "invalid --metrics value: empty";
      Trace.set_metrics (Some value);
      go rest
    | "--metrics" :: [] -> die "missing value for --metrics"
    | arg :: rest -> arg :: go rest
  in
  let rest = go (split_eq args) in
  (match !cache_dir with
  | Some dir -> Runner.Store.configure ~dir
  | None -> Runner.Store.disable ());
  (match !workers with
  | None -> ()
  | Some 0 -> Remote.set_spec Remote.Off
  | Some n -> Remote.set_spec (Remote.Spawn n));
  (match Faultinject.arm_from_env () with
  | Ok _ -> ()
  | Error msg -> die "%s" msg);
  rest

(* Call after the sweeps: under --strict, any supervised fault flips
   the exit code (the results were still rendered). *)
let exit_for_faults () = if Pool.strict () && Pool.faults_seen () > 0 then exit 1
