(* Tests for the generated exploit-campaign subsystem (ROADMAP item 5):
   name round-trips, corpus determinism, per-family attack behaviour on
   both allocator personalities, quantum-dependent cross-core races,
   qcheck shrinking to a minimal reproducer, and byte-stable detection
   matrices across sweep geometries. *)

module Campaign = Chex86_exploits.Campaign
module Exploit = Chex86_exploits.Exploit
module Exploits = Chex86_exploits.Exploits
module Security = Chex86_harness.Security
module Runner = Chex86_harness.Runner
module Allocator = Chex86_os.Allocator

let temporal ?(alloc = Allocator.Glibc) attack ~size ~reuse ~offset =
  { Campaign.alloc; shape = Campaign.Temporal { attack; size; reuse; offset } }

let race ?(alloc = Allocator.Glibc) ~cores ~quantum ~free_delay ~use_delay ~write () =
  { Campaign.alloc; shape = Campaign.Race { cores; quantum; free_delay; use_delay; write } }

let eval ?config c = Security.evaluate ?config (Campaign.to_exploit c)

let outcome_name = function
  | Runner.Completed -> "completed"
  | Runner.Blocked kind -> "blocked: " ^ Chex86.Violation.class_name kind
  | Runner.Aborted msg -> "aborted: " ^ msg
  | Runner.Faulted msg -> "faulted: " ^ msg
  | Runner.Budget_exhausted -> "budget exhausted"

let check_blocked_as_expected label (r : Security.result) =
  match r.under_protection.Runner.outcome with
  | Runner.Blocked kind ->
    if not (Exploit.matches r.exploit.Exploit.expected kind) then
      Alcotest.failf "%s: expected %s, detected %s" label
        (Exploit.expected_name r.exploit.Exploit.expected)
        (Chex86.Violation.class_name kind)
  | o -> Alcotest.failf "%s: not blocked (%s)" label (outcome_name o)

(* --- names ----------------------------------------------------------------- *)

let qcheck_name_roundtrip =
  QCheck.Test.make ~name:"campaign names round-trip through of_name" ~count:500
    Campaign.arbitrary (fun c ->
      match Campaign.of_name (Campaign.name c) with
      | Some c' -> c' = c
      | None -> false)

let test_of_name_rejects_garbage () =
  List.iter
    (fun s ->
      Alcotest.(check bool) s false (Option.is_some (Campaign.of_name s)))
    [
      "how2heap/first_fit"; "campaign"; "campaign/t/zzz.s24.r0.o0.glibc";
      "campaign/t/uafr.s24.r0.o0.tcmalloc"; "campaign/r/c1.q1.f0.u0.w.glibc";
      "campaign/t/uafr.s24.r0.glibc"; "campaign/r/c2.q0.f0.u0.l.seg";
    ]

let test_find_resolves_campaigns () =
  let c = temporal Campaign.Uaf_write ~size:56 ~reuse:2 ~offset:8 in
  let name = Campaign.name c in
  let e = Exploits.find name in
  Alcotest.(check string) "find round-trips the name" name e.Exploit.name;
  Alcotest.(check bool) "suite is Campaign" true (e.Exploit.suite = Exploit.Campaign);
  (* the reconstructed exploit actually builds and runs *)
  check_blocked_as_expected name (Security.evaluate e)

(* --- corpus ---------------------------------------------------------------- *)

let test_corpus_deterministic () =
  let names l = List.map Campaign.name l in
  let a = names (Campaign.corpus ~seed:7 ~per_family:5) in
  let b = names (Campaign.corpus ~seed:7 ~per_family:5) in
  Alcotest.(check (list string)) "same seed, same corpus" a b;
  let c = names (Campaign.corpus ~seed:8 ~per_family:5) in
  Alcotest.(check bool) "different seed, different corpus" false (a = c);
  Alcotest.(check int) "distinct names" (List.length a)
    (List.length (List.sort_uniq compare a));
  (* per_family campaigns for each (family, personality) *)
  Alcotest.(check int) "corpus size"
    (5 * 2 * List.length Campaign.families)
    (List.length a)

(* --- temporal families ----------------------------------------------------- *)

let test_uaf_detected_both_personalities () =
  List.iter
    (fun alloc ->
      List.iter
        (fun (attack, reuse) ->
          let c = temporal ~alloc attack ~size:24 ~reuse ~offset:0 in
          let r = eval c in
          check_blocked_as_expected (Campaign.name c) r;
          Alcotest.(check bool)
            (Campaign.name c ^ ": insecure baseline pwned")
            true r.insecure.Runner.pwned)
        [ (Campaign.Uaf_read, 0); (Campaign.Uaf_write, 1); (Campaign.Uaf_write, 3) ])
    [ Allocator.Glibc; Allocator.Segregated ]

let test_double_free_fasttop_bypass () =
  (* One interleaved victim free bypasses glibc's fasttop check: the
     insecure run corrupts (same chunk handed out twice)... *)
  let bypass = temporal Campaign.Double_free ~size:24 ~reuse:1 ~offset:0 in
  let r = eval bypass in
  Alcotest.(check bool) "fasttop bypassed: insecure pwned" true r.insecure.Runner.pwned;
  check_blocked_as_expected "double-free (bypass)" r;
  (* ... while the naive double free is stopped by the allocator itself. *)
  let naive = temporal Campaign.Double_free ~size:24 ~reuse:0 ~offset:0 in
  let r = eval naive in
  (match r.insecure.Runner.outcome with
  | Runner.Aborted msg ->
    Alcotest.(check bool) ("fasttop abort: " ^ msg) true
      (String.length msg > 0)
  | o -> Alcotest.failf "naive double free should abort insecurely, got %s" (outcome_name o));
  check_blocked_as_expected "double-free (naive)" r

let test_double_free_segregated_always_aborts () =
  (* Out-of-line slot state is authoritative: the fasttop grooming that
     fools glibc changes nothing, every double free aborts. *)
  List.iter
    (fun (size, reuse) ->
      let c =
        temporal ~alloc:Allocator.Segregated Campaign.Double_free ~size ~reuse ~offset:0
      in
      let r = eval c in
      (match r.insecure.Runner.outcome with
      | Runner.Aborted _ -> ()
      | o ->
        Alcotest.failf "%s: segregated double free must abort insecurely, got %s"
          (Campaign.name c) (outcome_name o));
      check_blocked_as_expected (Campaign.name c) r)
    [ (24, 0); (24, 1); (504, 2) ]

let test_fd_poison_context_sensitivity () =
  (* The same grooming chain corrupts glibc's in-memory metadata but is
     inert against out-of-line metadata — yet the enabling UAF write is
     detected under protection on both. *)
  List.iter
    (fun size ->
      let glibc = temporal Campaign.Fd_poison ~size ~reuse:0 ~offset:0 in
      let rg = eval glibc in
      Alcotest.(check bool)
        (Campaign.name glibc ^ ": malloc redirected insecurely")
        true rg.insecure.Runner.pwned;
      check_blocked_as_expected (Campaign.name glibc) rg;
      let seg = temporal ~alloc:Allocator.Segregated Campaign.Fd_poison ~size ~reuse:0 ~offset:0 in
      let rs = eval seg in
      Alcotest.(check bool)
        (Campaign.name seg ^ ": inert against out-of-line metadata")
        false rs.insecure.Runner.pwned;
      (match rs.insecure.Runner.outcome with
      | Runner.Completed -> ()
      | o -> Alcotest.failf "%s: insecure run should complete, got %s" (Campaign.name seg) (outcome_name o));
      check_blocked_as_expected (Campaign.name seg) rs)
    [ 24; 504 ]

let test_chunk_overlap_offset_knob () =
  (* offset 8 hits the next chunk's size field and the overlap lands;
     other offsets corrupt nothing — but the OOB write is detected under
     protection regardless. *)
  let landed = temporal Campaign.Chunk_overlap ~size:24 ~reuse:0 ~offset:8 in
  let r = eval landed in
  Alcotest.(check bool) "forged size: overlap landed" true r.insecure.Runner.pwned;
  check_blocked_as_expected "chunk-overlap o8" r;
  let benign = temporal Campaign.Chunk_overlap ~size:24 ~reuse:0 ~offset:0 in
  let r = eval benign in
  Alcotest.(check bool) "prev_size hit: no overlap" false r.insecure.Runner.pwned;
  check_blocked_as_expected "chunk-overlap o0" r;
  (* unsorted path too *)
  let large = temporal Campaign.Chunk_overlap ~size:504 ~reuse:0 ~offset:8 in
  let r = eval large in
  Alcotest.(check bool) "unsorted overlap landed" true r.insecure.Runner.pwned;
  check_blocked_as_expected "chunk-overlap unsorted" r

(* --- cross-core races ------------------------------------------------------ *)

let race_detected quantum ~free_delay ~use_delay =
  let c = race ~cores:2 ~quantum ~free_delay ~use_delay ~write:true () in
  let r = eval c in
  match r.under_protection.Runner.outcome with
  | Runner.Blocked _ -> true
  | Runner.Completed -> false
  | o -> Alcotest.failf "%s: unexpected outcome %s" (Campaign.name c) (outcome_name o)

let test_race_detection_flips_with_quantum () =
  (* Acceptance criterion: at least one knob point where detection
     flips as only the interleave quantum changes. *)
  let flip =
    List.exists
      (fun (free_delay, use_delay) ->
        let outcomes =
          List.map
            (fun q -> race_detected q ~free_delay ~use_delay)
            (Array.to_list Campaign.quanta)
        in
        List.mem true outcomes && List.mem false outcomes)
      [ (0, 0); (0, 8); (8, 0); (0, 24); (24, 0); (64, 0); (0, 64) ]
  in
  Alcotest.(check bool) "some delay pair flips detection across quanta" true flip

let test_race_stale_use_detected () =
  (* With the use delayed far behind the free, the bus must win: the
     dangling access is caught cross-core, and the insecure baseline
     records the stale access as pwned. *)
  let c = race ~cores:2 ~quantum:1 ~free_delay:0 ~use_delay:64 ~write:true () in
  let r = eval c in
  check_blocked_as_expected (Campaign.name c) r;
  Alcotest.(check bool) "insecure stale access pwned" true r.insecure.Runner.pwned

let test_race_fresh_use_completes () =
  (* With the free delayed far behind the use, the access is legal on
     every interleaving: no violation, no pwn. *)
  let c = race ~cores:2 ~quantum:1 ~free_delay:64 ~use_delay:0 ~write:true () in
  let r = eval c in
  (match r.under_protection.Runner.outcome with
  | Runner.Completed -> ()
  | o -> Alcotest.failf "legal access blocked? (%s)" (outcome_name o));
  Alcotest.(check bool) "no corruption" false r.under_protection.Runner.pwned

(* --- heap-abort accounting (regression) ------------------------------------ *)

let counter_of (stats : Chex86_harness.Pool.merged_stats) name =
  Chex86_stats.Counter.get stats.Chex86_harness.Pool.counters name

let test_sweep_counts_heap_abort_separately () =
  (* A campaign stopped by the allocator must land in
     sweep.outcome.heap_abort, not in the violation bucket (they used to
     fold together). *)
  let aborts = temporal Campaign.Double_free ~size:24 ~reuse:0 ~offset:0 in
  let detected = temporal Campaign.Uaf_read ~size:24 ~reuse:0 ~offset:0 in
  let exploits = List.map Campaign.to_exploit [ aborts; detected ] in
  let _results, stats, _ =
    Security.sweep_stats_supervised ~config:Runner.insecure ~jobs:1 exploits
  in
  let get = counter_of stats in
  Alcotest.(check int) "two evaluations" 2 (get "sweep.total");
  Alcotest.(check int) "heap abort counted separately" 1 (get "sweep.outcome.heap_abort");
  Alcotest.(check int) "no violations under the insecure config" 0
    (get "sweep.outcome.violation");
  Alcotest.(check int) "nothing blocked" 0 (get "sweep.blocked");
  Alcotest.(check int) "the UAF completes insecurely" 1 (get "sweep.outcome.completed");
  (* and under protection the same pair is all violations, no aborts *)
  let _results, stats, _ = Security.sweep_stats_supervised ~jobs:1 exploits in
  Alcotest.(check int) "both detected" 2 (counter_of stats "sweep.outcome.violation");
  Alcotest.(check int) "allocator never reached" 0
    (counter_of stats "sweep.outcome.heap_abort")

(* --- qcheck shrinking ------------------------------------------------------ *)

let test_shrinking_finds_minimal_reproducer () =
  (* Seeded detection regression: a scope-crippled variant (empty
     instruction-range scope) detects nothing, so "campaign is blocked"
     fails everywhere — and the shrinker must walk any counterexample
     down to the canonical minimal campaign. *)
  let crippled =
    Runner.Chex
      (Chex86.Variant.make ~scope:(Chex86.Variant.Ranges []) Chex86.Variant.Microcode_prediction)
  in
  let prop c =
    let e = Campaign.to_exploit c in
    match (Security.evaluate ~config:crippled e).under_protection.Runner.outcome with
    | Runner.Blocked _ -> true
    | _ -> false
  in
  let cell = QCheck.Test.make_cell ~count:4 ~name:"crippled variant detects" Campaign.arbitrary prop in
  let result = QCheck.Test.check_cell ~rand:(Random.State.make [| 42 |]) cell in
  match QCheck.TestResult.get_state result with
  | QCheck.TestResult.Failed { instances = cex :: _ } ->
    Alcotest.(check string) "shrunk to the minimal campaign"
      (Campaign.name Campaign.minimal)
      (Campaign.name cex.QCheck.TestResult.instance)
  | QCheck.TestResult.Failed { instances = [] } | QCheck.TestResult.Success ->
    Alcotest.fail "property unexpectedly passed under the crippled variant"
  | QCheck.TestResult.Failed_other { msg } -> Alcotest.failf "qcheck: %s" msg
  | QCheck.TestResult.Error { exn; _ } -> raise exn

(* --- detection matrices ---------------------------------------------------- *)

let matrix_configs = [ Runner.insecure; Runner.prediction ]

let small_corpus = Campaign.corpus ~seed:3 ~per_family:2

let matrix_json ?jobs ?batch_size () =
  Chex86_stats.Json.to_string
    (Security.matrix_to_json
       (Security.campaign_matrix ?jobs ?batch_size ~configs:matrix_configs small_corpus))

let test_matrix_geometry_stable () =
  let reference = matrix_json ~jobs:1 () in
  Alcotest.(check string) "jobs=2 byte-identical" reference (matrix_json ~jobs:2 ());
  Alcotest.(check string) "batch_size=1 byte-identical" reference
    (matrix_json ~jobs:3 ~batch_size:1 ());
  Alcotest.(check string) "batch_size=7 byte-identical" reference
    (matrix_json ~jobs:2 ~batch_size:7 ())

let test_matrix_personalities_differ () =
  (* Context sensitivity: at least one family's row differs between the
     two allocator personalities under the same configuration. *)
  let matrix = Security.campaign_matrix ~jobs:2 ~configs:matrix_configs small_corpus in
  let differs =
    List.exists
      (fun family ->
        List.exists
          (fun config ->
            let cname = Runner.config_name config in
            let find alloc =
              List.assoc_opt (family, alloc, cname) matrix
            in
            match (find "glibc", find "seg") with
            | Some g, Some s -> g <> s
            | _ -> false)
          matrix_configs)
      Campaign.families
  in
  Alcotest.(check bool) "some family distinguishes the personalities" true differs

let test_matrix_matches_golden () =
  (* The checked-in golden matrix (test/golden/campaign_matrix.json,
     regenerated with `security_eval --campaign-matrix --matrix-seed 1
     --matrix-per-family 4 --matrix-out ...`) must match a fresh
     computation byte for byte. *)
  (* `dune runtest` runs us in test/, `dune exec` from the repo root. *)
  let path =
    List.find Sys.file_exists
      [ "golden/campaign_matrix.json"; "test/golden/campaign_matrix.json" ]
  in
  let golden = In_channel.with_open_bin path In_channel.input_all in
  let corpus = Campaign.corpus ~seed:1 ~per_family:4 in
  let configs =
    [
      Runner.insecure;
      Runner.Chex (Chex86.Variant.make Chex86.Variant.Microcode_always_on);
      Runner.prediction;
    ]
  in
  let fresh =
    Chex86_stats.Json.to_string
      (Security.matrix_to_json (Security.campaign_matrix ~configs corpus))
    ^ "\n"
  in
  Alcotest.(check string) "matrix matches the golden file" golden fresh

let test_matrix_rows_cover_corpus () =
  let matrix = Security.campaign_matrix ~jobs:2 ~configs:matrix_configs small_corpus in
  let per_config =
    List.length small_corpus
  in
  List.iter
    (fun config ->
      let cname = Runner.config_name config in
      let total =
        List.fold_left
          (fun acc ((_, _, c), (cell : Security.matrix_cell)) ->
            if c = cname then acc + cell.Security.total else acc)
          0 matrix
      in
      Alcotest.(check int) ("every campaign counted under " ^ cname) per_config total)
    matrix_configs

let () =
  Alcotest.run "campaign"
    [
      ( "names",
        [
          QCheck_alcotest.to_alcotest qcheck_name_roundtrip;
          Alcotest.test_case "of_name rejects garbage" `Quick test_of_name_rejects_garbage;
          Alcotest.test_case "Exploits.find resolves campaigns" `Quick
            test_find_resolves_campaigns;
        ] );
      ( "corpus",
        [ Alcotest.test_case "deterministic" `Quick test_corpus_deterministic ] );
      ( "temporal",
        [
          Alcotest.test_case "uaf detected on both personalities" `Quick
            test_uaf_detected_both_personalities;
          Alcotest.test_case "double free: fasttop bypass" `Quick
            test_double_free_fasttop_bypass;
          Alcotest.test_case "double free: segregated always aborts" `Quick
            test_double_free_segregated_always_aborts;
          Alcotest.test_case "fd poison: context sensitivity" `Quick
            test_fd_poison_context_sensitivity;
          Alcotest.test_case "chunk overlap: offset knob" `Quick
            test_chunk_overlap_offset_knob;
        ] );
      ( "races",
        [
          Alcotest.test_case "detection flips with quantum" `Quick
            test_race_detection_flips_with_quantum;
          Alcotest.test_case "stale use detected cross-core" `Quick
            test_race_stale_use_detected;
          Alcotest.test_case "fresh use completes" `Quick test_race_fresh_use_completes;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "heap aborts counted separately" `Quick
            test_sweep_counts_heap_abort_separately;
        ] );
      ( "shrinking",
        [
          Alcotest.test_case "minimal reproducer" `Slow
            test_shrinking_finds_minimal_reproducer;
        ] );
      ( "matrices",
        [
          Alcotest.test_case "byte-stable across geometries" `Slow
            test_matrix_geometry_stable;
          Alcotest.test_case "personalities differ" `Slow test_matrix_personalities_differ;
          Alcotest.test_case "rows cover the corpus" `Slow test_matrix_rows_cover_corpus;
          Alcotest.test_case "matches the golden file" `Slow test_matrix_matches_golden;
        ] );
    ]
