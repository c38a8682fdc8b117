(* Golden per-(workload x variant) timing counters.

   Every (workload, variant) cell below is simulated at a fixed scale and
   its complete counter snapshot — cycles, uop counts, every cache / TLB /
   predictor / monitor event — is compared byte-for-byte against
   golden/timing.json.  This is the equivalence evidence for hot-path
   refactors of the timing model: an optimization pass must leave every
   number identical, and an intentional timing bugfix must re-pin the
   golden file in the same commit with the delta called out.

   Regenerate (from the repo root) with:

     dune build test/test_golden.exe
     CHEX86_GOLDEN_UPDATE=test/golden/timing.json \
       ./_build/default/test/test_golden.exe

   then set [Runner.Store.model_fingerprint] to the new file's MD5
   ([md5sum test/golden/timing.json]); the "store" case fails until
   the two agree. *)

module Runner = Chex86_harness.Runner
module Json = Chex86_stats.Json
module Counter = Chex86_stats.Counter

let golden_scale = 1 (* fixed: goldens must not move with CHEX86_SCALE *)

let workload_names = [ "mcf"; "canneal" ]

let variants =
  [
    ("insecure", Runner.insecure);
    ("chex86", Runner.prediction);
    ( "always_on",
      Runner.Chex (Chex86.Variant.make Chex86.Variant.Microcode_always_on) );
    ("asan", Runner.Asan);
  ]

let entry_of wname vname config =
  let w = Chex86_workloads.Workloads.find wname in
  let r = Runner.run_program config (w.build ~scale:golden_scale) in
  Json.Obj
    [
      ("workload", Json.String wname);
      ("variant", Json.String vname);
      ("macro_insns", Json.Int r.Runner.macro_insns);
      ("uops", Json.Int r.Runner.uops);
      ("cycles", Json.Int r.Runner.cycles);
      ( "counters",
        Counter.json_of_snapshot (Counter.group_snapshot r.Runner.counters) );
    ]

let current () =
  List.concat_map
    (fun wname ->
      List.map (fun (vname, config) -> entry_of wname vname config) variants)
    workload_names

let doc_of entries =
  Json.Obj
    [
      ("schema", Json.String "chex86-timing-golden-v1");
      ("scale", Json.Int golden_scale);
      ("entries", Json.List entries);
    ]

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  body

let write_file path body =
  let oc = open_out path in
  output_string oc body;
  output_char oc '\n';
  close_out oc

let key_of entry =
  match
    ( Option.bind (Json.member "workload" entry) Json.to_string_opt,
      Option.bind (Json.member "variant" entry) Json.to_string_opt )
  with
  | Some w, Some v -> w ^ "/" ^ v
  | _ -> "<malformed>"

(* Human-readable field diff between one golden and one current entry. *)
let diff_entry golden current =
  let flat prefix = function
    | Json.Obj fields ->
      List.map (fun (k, v) -> (prefix ^ k, Json.to_string v)) fields
    | other -> [ (prefix, Json.to_string other) ]
  in
  let flatten entry =
    match entry with
    | Json.Obj fields ->
      List.concat_map
        (fun (k, v) ->
          match v with
          | Json.Obj _ when k = "counters" -> flat (k ^ ".") v
          | _ -> [ (k, Json.to_string v) ])
        fields
    | other -> [ ("<entry>", Json.to_string other) ]
  in
  let g = flatten golden and c = flatten current in
  let keys = List.sort_uniq compare (List.map fst g @ List.map fst c) in
  List.filter_map
    (fun k ->
      let gv = Option.value (List.assoc_opt k g) ~default:"<absent>"
      and cv = Option.value (List.assoc_opt k c) ~default:"<absent>" in
      if gv = cv then None else Some (Printf.sprintf "  %s: golden %s, got %s" k gv cv))
    keys

let golden_entries () =
  match Json.of_string (read_file "golden/timing.json") with
  | Error e -> Alcotest.failf "golden/timing.json unparseable: %s" e
  | Ok doc -> (
    match Json.member "entries" doc with
    | Some (Json.List entries) -> entries
    | _ -> Alcotest.fail "golden/timing.json: no entries array")

let check_entry golden_by_key entry () =
  let key = key_of entry in
  match List.assoc_opt key golden_by_key with
  | None -> Alcotest.failf "%s missing from golden/timing.json — re-pin it" key
  | Some golden ->
    if Json.to_string golden <> Json.to_string entry then
      Alcotest.failf "%s diverged from golden/timing.json:\n%s" key
        (String.concat "\n" (diff_entry golden entry))

(* The result store keys every entry by the model that simulated it, as
   the MD5 of this golden file: a re-pin that leaves the constant alone
   would let a warm store keep serving the old model's cycles. *)
let test_store_names_the_model () =
  Alcotest.(check string) "Runner.Store.model_fingerprint = MD5 of golden/timing.json"
    (Digest.to_hex (Digest.file "golden/timing.json"))
    Runner.Store.model_fingerprint

let () =
  match Sys.getenv_opt "CHEX86_GOLDEN_UPDATE" with
  | Some path when path <> "" ->
    write_file path (Json.to_string (doc_of (current ())));
    Printf.printf "[wrote %s]\n" path
  | _ ->
    let entries = current () in
    let golden_by_key = List.map (fun e -> (key_of e, e)) (golden_entries ()) in
    Alcotest.run "golden"
      [
        ( "timing",
          List.map
            (fun e -> Alcotest.test_case (key_of e) `Quick (check_entry golden_by_key e))
            entries );
        ( "store",
          [ Alcotest.test_case "entry ids name the model" `Quick test_store_names_the_model ] );
      ]
