(* Kill/resume chaos soak for the on-disk result store.

   Soak mode (the default) machine-checks the store's crash model: a
   sweep may be SIGKILLed at any named injection point of the publish
   protocol and a plain re-run must converge to byte-identical output
   with a clean fsck. For each geometry (serial / --jobs 2 /
   --workers 2) it records a fault-free reference run, then drives
   [--legs] randomized legs: fresh cache dir, a run with
   CHEX86_FAULT_POINT=<point>=kill@<ordinal> in the environment
   (expected to die by SIGKILL — in the workers geometry the point may
   instead fire inside worker processes, which the supervisor absorbs),
   a fault-free resume, and the assertions

     - the resume exits 0 with stdout byte-identical to the reference
       (modulo the wall-clock [name: N.Ns] timing trailers, which are
       inherently nondeterministic and normalized away);
     - [Runner.Store.fsck] reports zero invariant violations.

   The PRNG is seeded ([--seed]) so a failing leg reproduces exactly.
   A JSON report of every leg goes to [--report FILE].

   Hammer mode ([--hammer DIR SEED SHARED DISJOINT]) is the
   multi-process writer child used by test_store.ml: after waiting for
   the DIR/go start barrier it publishes SHARED contested keys (the
   same in every child) and DISJOINT private ones straight through
   [Runner.Store.save], then prints its publish counters on stdout for
   the parent to cross-check that every publish landed intact. *)

module Runner = Chex86_harness.Runner
module Json = Chex86_stats.Json

let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "chaos_soak: %s\n%!" msg;
      exit 2)
    fmt

(* --- hammer mode ----------------------------------------------------------- *)

let dummy_run i : Runner.run =
  {
    Runner.outcome = Runner.Completed;
    macro_insns = 1000 + i;
    uops = 2000 + i;
    uops_injected = i;
    uops_killed = 0;
    cycles = 3000 + i;
    counters = Chex86_stats.Counter.create_group ();
    shadow_bytes = 64;
    resident_bytes = 4096;
    mem_bytes = 512;
    pwned = false;
    profile = None;
  }

let hammer dir seed shared disjoint =
  Runner.Store.configure ~dir;
  (* Start barrier: racing children must actually overlap, not run one
     after the other because process spawn is slow. *)
  let go = Filename.concat dir "go" in
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (Sys.file_exists go)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  if not (Sys.file_exists go) then die "hammer: start barrier %s never appeared" go;
  (* Interleave contested and private keys so the children spend the
     whole run racing, not just the first publish. *)
  let rounds = max shared disjoint in
  for i = 0 to rounds - 1 do
    if i < shared then
      Runner.Store.save ~key:(Printf.sprintf "shared-%d" i) ~digest:"hammer"
        (dummy_run i);
    if i < disjoint then
      Runner.Store.save ~key:(Printf.sprintf "own-%d-%d" seed i) ~digest:"hammer"
        (dummy_run (100 + (seed * 1000) + i))
  done;
  let s = Runner.Store.stats () in
  Printf.printf "writes=%d hits=%d quarantined=%d write_errors=%d\n%!"
    s.Runner.Store.writes s.Runner.Store.hits s.Runner.Store.quarantined
    s.Runner.Store.write_errors;
  exit 0

(* --- soak mode -------------------------------------------------------------- *)

(* The swept executable: bench/main.exe figure6 over a small workload
   set — 12 tasks, 12 store publishes on a cold cache. *)
let bench_exe () =
  match Sys.getenv_opt "CHEX86_BENCH_EXE" with
  | Some p when p <> "" -> p
  | _ -> (
    let dir = Filename.dirname Sys.executable_name in
    let candidate =
      Filename.concat dir (Filename.concat ".." (Filename.concat "bench" "main.exe"))
    in
    match Sys.file_exists candidate with
    | true -> candidate
    | false -> die "cannot find bench/main.exe (set CHEX86_BENCH_EXE)")

let geometries =
  [
    ("serial", [ "--jobs"; "1" ]);
    ("jobs2", [ "--jobs"; "2" ]);
    ("workers2", [ "--jobs"; "1"; "--workers"; "2" ]);
  ]

(* Kill-able points of the publish protocol; load.pre_read covers the
   resume-side read path too. *)
let kill_points =
  [
    "store.publish.pre_write";
    "store.publish.mid_write";
    "store.publish.pre_rename";
    "store.publish.post_rename";
    "store.load.pre_read";
  ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Environment for a swept child: the current env minus any fault
   variables, plus the workload pinning and whatever [extra] adds. *)
let child_env extra =
  let keep e =
    let fault k = String.length e >= String.length k && String.sub e 0 (String.length k) = k in
    not
      (fault "CHEX86_FAULT_RATE=" || fault "CHEX86_FAULT_SEED="
      || fault "CHEX86_FAULT_KIND=" || fault "CHEX86_FAULT_POINT="
      || fault "CHEX86_WORKLOADS=" || fault "CHEX86_SCALE=")
  in
  Array.of_list
    (List.filter keep (Array.to_list (Unix.environment ()))
    @ [ "CHEX86_WORKLOADS=mcf,canneal"; "CHEX86_SCALE=1" ]
    @ extra)

(* The bench prints a per-target "[name: N.Ns]" wall-clock trailer;
   everything else in the output is deterministic. Blank the duration so
   reference and resume compare byte-identical on the content that
   matters. *)
let normalize_stdout s =
  String.split_on_char '\n' s
  |> List.map (fun line ->
       let n = String.length line in
       if n >= 6 && line.[0] = '[' && line.[n - 2] = 's' && line.[n - 1] = ']' then
         match String.index_opt line ':' with
         | Some i
           when i + 2 <= n - 2
                && float_of_string_opt
                     (String.trim (String.sub line (i + 1) (n - 2 - (i + 1))))
                   <> None ->
           String.sub line 0 (i + 1) ^ " _s]"
         | _ -> line
       else line)
  |> String.concat "\n"

type outcome = { status : Unix.process_status; stdout : string }

let run_sweep ~cache_dir ~flags ~extra_env =
  let out = Filename.temp_file "chaos" ".out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let argv =
    Array.of_list ([ bench_exe (); "figure6"; "--cache-dir"; cache_dir ] @ flags)
  in
  let pid =
    Unix.create_process_env (bench_exe ()) argv (child_env extra_env) Unix.stdin fd
      devnull
  in
  Unix.close fd;
  Unix.close devnull;
  let _, status = Unix.waitpid [] pid in
  let stdout = read_file out in
  Sys.remove out;
  { status; stdout }

let rec rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then rm_rf p else Sys.remove p)
      (Sys.readdir dir);
    Unix.rmdir dir
  end

let soak ~legs ~seed ~report_file ~wanted =
  let scratch =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "chex86-chaos-%d" (Unix.getpid ()))
  in
  rm_rf scratch;
  Unix.mkdir scratch 0o755;
  let rng = Random.State.make [| seed |] in
  let failures = ref 0 and kills = ref 0 in
  let leg_reports = ref [] in
  let geoms =
    List.filter (fun (name, _) -> wanted = [] || List.mem name wanted) geometries
  in
  if geoms = [] then die "no geometries selected";
  List.iter
    (fun (geom, flags) ->
      (* Fault-free reference for this geometry (stdout includes a
         [domain pool: N job(s)] line, so references are per-geometry). *)
      let ref_dir = Filename.concat scratch (geom ^ "-ref") in
      let reference = run_sweep ~cache_dir:ref_dir ~flags ~extra_env:[] in
      if reference.status <> Unix.WEXITED 0 then
        die "%s: reference run failed" geom;
      for leg = 1 to legs do
        let point = List.nth kill_points (Random.State.int rng (List.length kill_points)) in
        let ordinal = 1 + Random.State.int rng 8 in
        let dir = Filename.concat scratch (Printf.sprintf "%s-leg%d" geom leg) in
        let spec = Printf.sprintf "%s=kill@%d" point ordinal in
        let killed_run =
          run_sweep ~cache_dir:dir ~flags
            ~extra_env:[ "CHEX86_FAULT_POINT=" ^ spec ]
        in
        let killed = killed_run.status = Unix.WSIGNALED Sys.sigkill in
        if killed then incr kills;
        let resume = run_sweep ~cache_dir:dir ~flags ~extra_env:[] in
        let resume_ok = resume.status = Unix.WEXITED 0 in
        let stdout_match =
          normalize_stdout resume.stdout = normalize_stdout reference.stdout
        in
        let fsck = Runner.Store.fsck ~dir in
        let fsck_clean = Runner.Store.fsck_clean fsck in
        let pass = resume_ok && stdout_match && fsck_clean in
        if not pass then incr failures;
        Printf.printf "%-9s leg %2d  %-32s %s%s\n%!" geom leg spec
          (if pass then "ok" else "FAIL")
          (Printf.sprintf " (killed=%b resume=%b stdout=%b fsck=%b)" killed resume_ok
             stdout_match fsck_clean);
        leg_reports :=
          Json.Obj
            [
              ("geometry", Json.String geom);
              ("leg", Json.Int leg);
              ("point", Json.String point);
              ("ordinal", Json.Int ordinal);
              ("killed", Json.Bool killed);
              ("resume_ok", Json.Bool resume_ok);
              ("stdout_match", Json.Bool stdout_match);
              ("fsck_clean", Json.Bool fsck_clean);
              ("fsck_issues", Json.Int (List.length fsck.Runner.Store.f_issues));
            ]
          :: !leg_reports;
        if pass then rm_rf dir
      done;
      rm_rf ref_dir)
    geoms;
  (* A soak where nothing ever died proves nothing: the points must
     actually fire in at least the single-process geometries. *)
  let total = legs * List.length geoms in
  let sane = !kills > 0 in
  if not sane then Printf.eprintf "chaos_soak: no leg was ever killed — points dead?\n%!";
  (match report_file with
  | None -> ()
  | Some path ->
    let body =
      Json.to_string
        (Json.Obj
           [
             ("legs", Json.Int total);
             ("seed", Json.Int seed);
             ("killed", Json.Int !kills);
             ("failures", Json.Int !failures);
             ("sane", Json.Bool sane);
             ("results", Json.List (List.rev !leg_reports));
           ])
    in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc body;
        output_char oc '\n'));
  Printf.printf "chaos soak: %d legs, %d killed, %d failures\n%!" total !kills !failures;
  if !failures > 0 || not sane then exit 1;
  rm_rf scratch

(* --- entry ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  match args with
  | _ :: "--hammer" :: dir :: seed :: shared :: disjoint :: [] -> (
    match
      (int_of_string_opt seed, int_of_string_opt shared, int_of_string_opt disjoint)
    with
    | Some seed, Some shared, Some disjoint -> hammer dir seed shared disjoint
    | _ -> die "usage: chaos_soak --hammer DIR SEED SHARED DISJOINT")
  | _ :: rest ->
    let legs = ref 4 and seed = ref 42 and report = ref None and geoms = ref [] in
    let rec parse = function
      | [] -> ()
      | "--legs" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 1 ->
          legs := n;
          parse rest
        | _ -> die "invalid --legs value %S" v)
      | "--seed" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n ->
          seed := n;
          parse rest
        | _ -> die "invalid --seed value %S" v)
      | "--report" :: v :: rest ->
        report := Some v;
        parse rest
      | "--geometries" :: v :: rest ->
        geoms := String.split_on_char ',' v;
        parse rest
      | arg :: _ ->
        die "unknown argument %S (usage: chaos_soak [--legs N] [--seed S] [--report FILE] [--geometries a,b] | --hammer DIR SEED SHARED DISJOINT)"
          arg
    in
    parse rest;
    soak ~legs:!legs ~seed:!seed ~report_file:!report ~wanted:!geoms
  | [] -> die "empty argv"
