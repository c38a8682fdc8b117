(* Ablation studies for the design choices DESIGN.md calls out.

   Each ablation switches off (or resizes) one mechanism of the
   prediction-driven CHEx86 and measures its contribution on the
   pointer-intensive subset of the workloads:

   - capability cache size sweep (the Fig 3 motivation: a handful of
     allocations are in use at a time);
   - alias-predictor stride field and non-reload blacklist;
   - the TLB alias-hosting filter (how many shadow lookups it saves);
   - the 32-entry alias victim cache;
   - context-sensitive scope (enforced text fraction vs micro-op bloat).

   Each one is an Experiments.grid: one supervised sweep that shards
   under --jobs/--workers, renders a faulted cell as FAULTED and appends
   the fault report. *)

module Render = Chex86_stats.Render
module Counter = Chex86_stats.Counter
module W = Chex86_workloads.Workloads

let pointer_workloads =
  List.map W.find [ "perlbench"; "gcc"; "mcf"; "xalancbmk"; "leela"; "canneal" ]

let scale = Experiments.scale
let cell = Experiments.cell

(* A column running [variant] on every workload. *)
let column name variant = (name, Runner.job ~scale (Runner.Chex variant))

(* A banner, a table with one row per workload, then the fault footer. *)
let render ~title ~header ~notes row (runs, report) =
  String.concat "\n"
    ([ Render.banner title; Render.table ~header (List.map row runs) ]
    @ notes @ Experiments.fault_footer report)

let name_of (w : Chex86_workloads.Bench_spec.t) = w.name

let cap_cache_sweep () =
  let sizes = [ 16; 32; 64; 128; 256 ] in
  let columns =
    List.map
      (fun entries ->
        column (Printf.sprintf "%de" entries)
          (Chex86.Variant.make ~cap_cache_entries:entries Chex86.Variant.Microcode_prediction))
      sizes
  in
  render ~title:"Ablation: capability cache size sweep (miss rate)" ~notes:[]
    ~header:("Benchmark" :: List.map fst columns)
    (fun (w, cells) ->
      name_of w
      :: List.map
           (fun (_, c) ->
             cell (fun r -> Render.percent (Experiments.cap_miss_rate r.Runner.counters)) c)
           cells)
    (Experiments.grid columns pointer_workloads)

let predictor_ablation () =
  let columns =
    [
      column "full" Chex86.Variant.default;
      column "no stride"
        (Chex86.Variant.make ~predictor_stride:false Chex86.Variant.Microcode_prediction);
      column "no blacklist"
        (Chex86.Variant.make ~predictor_blacklist:false Chex86.Variant.Microcode_prediction);
    ]
  in
  let mispredicts (r : Runner.run) =
    if Counter.get r.counters "alias.pred_events" = 0 then "n/a"
    else Render.percent (Experiments.mispredict_rate r.counters)
  and kills (r : Runner.run) = string_of_int (Counter.get r.counters "pipeline.uops_killed") in
  render ~title:"Ablation: alias predictor features (mispredict rate / killed uops)" ~notes:[]
    ~header:[ "Benchmark"; "full"; "kills"; "no-stride"; "kills"; "no-blacklist"; "kills" ]
    (fun (w, cells) ->
      name_of w :: List.concat_map (fun (_, c) -> [ cell mispredicts c; cell kills c ]) cells)
    (Experiments.grid columns pointer_workloads)

let tlb_filter_ablation () =
  let columns =
    [
      column "on" Chex86.Variant.default;
      column "off"
        (Chex86.Variant.make ~tlb_alias_filter:false Chex86.Variant.Microcode_prediction);
    ]
  in
  let accesses (r : Runner.run) =
    Counter.get r.counters "aliascache.hit"
    + Counter.get r.counters "aliascache.victim_hit"
    + Counter.get r.counters "aliascache.miss"
  in
  let saved (on : Runner.run) (off : Runner.run) =
    let a = accesses off in
    if a = 0 then "n/a" else Render.percent (1. -. (float_of_int (accesses on) /. float_of_int a))
  in
  render ~title:"Ablation: TLB alias-hosting filter (alias-cache lookups saved)" ~notes:[]
    ~header:[ "Benchmark"; "Lookups (filter)"; "Lookups (none)"; "TLB-filtered"; "Saved" ]
    (fun (w, cells) ->
      let on = List.assoc "on" cells and off = List.assoc "off" cells in
      [
        name_of w;
        cell (fun r -> string_of_int (accesses r)) on;
        cell (fun r -> string_of_int (accesses r)) off;
        cell (fun r -> string_of_int (Counter.get r.Runner.counters "alias.tlb_filtered")) on;
        cell (fun on -> cell (saved on) off) on;
      ])
    (Experiments.grid columns pointer_workloads)

let victim_cache_ablation () =
  let columns =
    [
      column "with victim" Chex86.Variant.default;
      column "no victim"
        (Chex86.Variant.make ~alias_victim_entries:0 Chex86.Variant.Microcode_prediction);
    ]
  in
  let miss (r : Runner.run) =
    match Experiments.alias_miss_rate r.counters with Some m -> Render.percent m | None -> "n/a"
  in
  render ~title:"Ablation: 32-entry alias victim cache (alias-cache miss rate)" ~notes:[]
    ~header:("Benchmark" :: List.map fst columns)
    (fun (w, cells) -> name_of w :: List.map (fun (_, c) -> cell miss c) cells)
    (Experiments.grid columns pointer_workloads)

(* Context sensitivity: enforce only a prefix of the text segment and
   watch injected micro-ops fall while allocations stay tracked. *)
let scope_sweep () =
  let fractions = [ 0; 25; 50; 75; 100 ] in
  let columns =
    List.map
      (fun pct ->
        ( Printf.sprintf "%d%%" pct,
          fun (w : Chex86_workloads.Bench_spec.t) ->
            let text_len = 4 * Chex86_isa.Program.length (w.build ~scale) in
            let lo = Chex86_isa.Program.text_base in
            let scope = Chex86.Variant.Ranges [ (lo, lo + (text_len * pct / 100)) ] in
            Runner.job ~scale
              (Runner.Chex (Chex86.Variant.make ~scope Chex86.Variant.Microcode_prediction))
              w ))
      fractions
  in
  let injected (r : Runner.run) =
    Printf.sprintf "%.1f%%" (100. *. float_of_int r.uops_injected /. float_of_int (max 1 r.uops))
  in
  render
    ~title:"Ablation: context-sensitive scope (injected uop share vs enforced text fraction)"
    ~header:("Benchmark" :: List.map fst columns)
    ~notes:[ "(allocations are tracked at every scope; only check injection is scoped)" ]
    (fun (w, cells) -> name_of w :: List.map (fun (_, c) -> cell injected c) cells)
    (Experiments.grid columns (List.map W.find [ "perlbench"; "mcf"; "canneal" ]))

let all =
  [
    ("ablation-capcache", cap_cache_sweep);
    ("ablation-predictor", predictor_ablation);
    ("ablation-tlb", tlb_filter_ablation);
    ("ablation-victim", victim_cache_ablation);
    ("ablation-scope", scope_sweep);
  ]
