(* chex86_sim: run a benchmark workload on the simulated CHEx86 machine.

     chex86_sim run --workload mcf --variant prediction --scale 1
     chex86_sim list
     chex86_sim store fsck --cache-dir _chex86_cache

   It also replays external traces and inspects the result store. It
   takes no sweep flags: the paper's tables and figures are regenerated
   by bench/main.exe (e.g. [bench/main.exe --jobs 2 figure6]), whose
   flags Chex86_harness.Cli parses. *)

open Cmdliner
module Runner = Chex86_harness.Runner

let variant_of_string = function
  | "insecure" -> Ok Runner.insecure
  | "hardware" -> Ok (Runner.Chex (Chex86.Variant.make Chex86.Variant.Hardware_only))
  | "bt" -> Ok (Runner.Chex (Chex86.Variant.make Chex86.Variant.Binary_translation))
  | "always-on" ->
    Ok (Runner.Chex (Chex86.Variant.make Chex86.Variant.Microcode_always_on))
  | "prediction" -> Ok Runner.prediction
  | "asan" -> Ok Runner.Asan
  | s -> Error (`Msg (Printf.sprintf "unknown variant %S" s))

let variant_conv =
  Arg.conv
    ( variant_of_string,
      fun ppf c -> Format.pp_print_string ppf (Runner.config_name c) )

let preset_conv =
  Arg.conv
    ( (fun s ->
        match Chex86_machine.Preset.find s with
        | Some p -> Ok p
        | None ->
          Error
            (`Msg
               (Printf.sprintf "unknown --cpu preset %S (available: %s)" s
                  (String.concat ", " (Chex86_machine.Preset.names ()))))),
      fun ppf p -> Format.pp_print_string ppf p.Chex86_machine.Preset.name )

let cpu_arg =
  Arg.(
    value
    & opt preset_conv Chex86_machine.Preset.skylake
    & info [ "cpu" ] ~docv:"PRESET"
        ~doc:
          "Named \xc2\xb5arch preset (skylake | nehalem | tiny): core widths/queues, \
           cache geometry and replacement policy, monitor-structure sizing. \
           The preset digest is part of every result-store key.")

let workload_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Benchmark workload to run.")

let variant_arg =
  Arg.(
    value
    & opt variant_conv Runner.prediction
    & info [ "v"; "variant" ] ~docv:"VARIANT"
        ~doc:
          "Protection configuration: insecure | hardware | bt | always-on | \
           prediction | asan.")

let scale_arg =
  Arg.(value & opt int 1 & info [ "s"; "scale" ] ~docv:"N" ~doc:"Workload scale factor.")

let counters_arg =
  Arg.(value & flag & info [ "counters" ] ~doc:"Dump all event counters after the run.")

let print_run name config (run : Runner.run) ~dump_counters =
  Printf.printf "workload:      %s\n" name;
  Printf.printf "configuration: %s\n" (Runner.config_name config);
  (match run.outcome with
  | Runner.Completed -> Printf.printf "outcome:       completed\n"
  | Runner.Blocked kind ->
    Printf.printf "outcome:       blocked (%s)\n" (Chex86.Violation.to_string kind)
  | Runner.Aborted msg -> Printf.printf "outcome:       allocator abort (%s)\n" msg
  | Runner.Faulted msg -> Printf.printf "outcome:       guest fault (%s)\n" msg
  | Runner.Budget_exhausted -> Printf.printf "outcome:       instruction budget exhausted\n");
  Printf.printf "macro insns:   %d\n" run.macro_insns;
  Printf.printf "micro-ops:     %d (%d injected, %d killed)\n" run.uops run.uops_injected
    run.uops_killed;
  Printf.printf "cycles:        %d (IPC %.2f)\n" run.cycles
    (if run.cycles = 0 then 0.
     else float_of_int run.macro_insns /. float_of_int run.cycles);
  Printf.printf "resident:      %d KB (+%d KB shadow)\n" (run.resident_bytes / 1024)
    (run.shadow_bytes / 1024);
  Printf.printf "DRAM traffic:  %d KB\n" (run.mem_bytes / 1024);
  if dump_counters then begin
    print_newline ();
    List.iter
      (fun (name, v) -> Printf.printf "%-40s %d\n" name v)
      (Chex86_stats.Counter.to_list run.counters)
  end

let run_cmd =
  let run cpu workload config scale dump_counters =
    Chex86_machine.Preset.set cpu;
    match
      List.find_opt
        (fun (w : Chex86_workloads.Bench_spec.t) -> w.name = workload)
        Chex86_workloads.Workloads.all
    with
    | None ->
      Printf.eprintf "unknown workload %S; try `chex86_sim list`\n" workload;
      exit 1
    | Some w ->
      let result = Runner.run_workload ~scale config w in
      print_run workload config result ~dump_counters
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one workload under a protection configuration.")
    Term.(const run $ cpu_arg $ workload_arg $ variant_arg $ scale_arg $ counters_arg)

let list_cmd =
  let list () =
    List.iter
      (fun (w : Chex86_workloads.Bench_spec.t) ->
        Printf.printf "%-14s %-12s %s\n" w.name
          (Chex86_workloads.Bench_spec.suite_name w.suite)
          w.description)
      Chex86_workloads.Workloads.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List available workloads.") Term.(const list $ const ())

(* Print the instrumented micro-op stream of a workload's first N
   macro-ops: what the decoder cracked and what the microcode
   customization unit injected (cf. examples/microcode_view.ml). *)
let uops_cmd =
  let trace workload count =
    match
      List.find_opt
        (fun (w : Chex86_workloads.Bench_spec.t) -> w.name = workload)
        Chex86_workloads.Workloads.all
    with
    | None ->
      Printf.eprintf "unknown workload %S; try `chex86_sim list`\n" workload;
      exit 1
    | Some w ->
      let module Machine = Chex86_machine in
      let proc = Chex86_os.Process.load (w.build ~scale:1) in
      let hooks = Machine.Hooks.none () in
      let sim = Machine.Simulator.create ~hooks proc in
      let monitor =
        Chex86.Monitor.create ~proc ~hier:(Machine.Simulator.hierarchy sim) ()
      in
      Chex86.Monitor.install monitor hooks;
      let remaining = ref count in
      let inner = hooks.Machine.Hooks.instrument in
      hooks.Machine.Hooks.instrument <-
        (fun ctx uops ->
          let out = inner ctx uops in
          if !remaining > 0 then begin
            decr remaining;
            let describe =
              match (ctx.Machine.Hooks.insn, ctx.Machine.Hooks.stub) with
              | _, Some (name, Machine.Hooks.Entry) -> Printf.sprintf "<%s>" name
              | _, Some (name, Machine.Hooks.Exit) -> Printf.sprintf "<%s ret>" name
              | Some insn, None -> Format.asprintf "%a" Chex86_isa.Insn.pp insn
              | None, None -> "<?>"
            in
            Printf.printf "%#x  %-32s " ctx.Machine.Hooks.pc describe;
            List.iter
              (fun uop ->
                let s = Format.asprintf "%a" Chex86_isa.Uop.pp uop in
                if Chex86_isa.Uop.is_injected uop then Printf.printf "[+%s] " s
                else Printf.printf "%s; " s)
              out;
            print_newline ()
          end;
          out);
      ignore (Machine.Simulator.run_functional ~max_insns:(count * 4) sim)
  in
  let count_arg =
    Arg.(value & opt int 40 & info [ "n" ] ~docv:"N" ~doc:"Macro-ops to trace.")
  in
  Cmd.v
    (Cmd.info "uops"
       ~doc:"Print the instrumented micro-op stream of a workload's first macro-ops.")
    Term.(const trace $ workload_arg $ count_arg)

(* Aggregate a --trace span file into per-stage latency histograms and a
   per-source utilization table. *)
let trace_summary_cmd =
  let summary file =
    match Chex86_harness.Trace.summarize_file file with
    | Ok rendered -> print_endline rendered
    | Error msg ->
      Printf.eprintf "trace-summary: %s\n" msg;
      exit 1
  in
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "trace-summary"
       ~doc:
         "Summarize a --trace JSONL file: per-stage latency percentiles and \
          per-worker utilization. Exits 1 on parse or structural errors.")
    Term.(const summary $ file_arg)

(* Trace-driven frontend: feed an external access trace (cachetrace
   text or uoptrace JSONL) to the cache hierarchy / timing pipeline of
   the selected preset, with optional per-access CSV. *)
let trace_frontend_cmd =
  let module Frontend = Chex86_frontend in
  let module Machine = Chex86_machine in
  let module Counter = Chex86_stats.Counter in
  let module Render = Chex86_stats.Render in
  let run cpu format file csv =
    Machine.Preset.set cpu;
    let preset = cpu in
    let counters = Counter.create_group () in
    let hier =
      Chex86_mem.Hierarchy.create ~config:preset.Machine.Preset.hier counters
    in
    let ic =
      match file with
      | None | Some "-" -> stdin
      | Some f -> (
        try open_in f
        with Sys_error msg ->
          Printf.eprintf "trace: %s\n" msg;
          exit 1)
    in
    let read_line () = try Some (input_line ic) with End_of_file -> None in
    let csv_oc =
      match csv with
      | None -> None
      | Some f -> (
        try Some (open_out f)
        with Sys_error msg ->
          Printf.eprintf "trace: %s\n" msg;
          exit 1)
    in
    let close_csv () = match csv_oc with Some oc -> close_out oc | None -> () in
    let fail msg =
      close_csv ();
      Printf.eprintf "trace: %s\n" msg;
      exit 1
    in
    let pct x = Printf.sprintf "%.2f%%" (100. *. x) in
    (match format with
    | `Cachetrace -> (
      match Frontend.Cachetrace.run ?csv:csv_oc ~counters hier read_line with
      | Error msg -> fail msg
      | Ok s ->
        let open Frontend.Cachetrace in
        print_endline
          (Render.table
             ~header:[ "metric"; "value" ]
             [
               [ "preset"; Machine.Preset.id preset ];
               [ "accesses"; string_of_int s.accesses ];
               [ "reads"; string_of_int s.reads ];
               [ "writes"; string_of_int s.writes ];
               [ "L1 hits"; string_of_int s.l1_hits ];
               [ "L2 hits"; string_of_int s.l2_hits ];
               [ "memory"; string_of_int s.misses ];
               [ "miss rate"; pct (miss_rate s) ];
               [ "avg latency"; Printf.sprintf "%.1f cycles" (avg_latency s) ];
               [ "DRAM traffic"; Printf.sprintf "%d B" s.mem_bytes ];
               [ "writebacks"; Printf.sprintf "%d B" s.writeback_bytes ];
             ]))
    | `Uoptrace -> (
      match Frontend.Uoptrace.read read_line with
      | Error msg -> fail msg
      | Ok records ->
        let pipeline =
          Machine.Pipeline.create ~config:preset.Machine.Preset.core hier counters
        in
        let observe =
          match csv_oc with
          | None -> None
          | Some oc ->
            output_string oc "seq,pc,op,cycles\n";
            Some
              (fun ~seq (r : Frontend.Uoptrace.record) ~cycles ->
                Printf.fprintf oc "%d,0x%x,%s,%d\n" seq r.Frontend.Uoptrace.pc
                  (Frontend.Uoptrace.op_name r.Frontend.Uoptrace.op)
                  cycles)
        in
        Frontend.Uoptrace.replay ?observe ~pipeline records;
        let cycles = Machine.Pipeline.cycles pipeline in
        let uops = Counter.get counters "pipeline.uops" in
        print_endline
          (Render.table
             ~header:[ "metric"; "value" ]
             [
               [ "preset"; Machine.Preset.id preset ];
               [ "records"; string_of_int (List.length records) ];
               [ "uops"; string_of_int uops ];
               [ "cycles"; string_of_int cycles ];
               [
                 "uops/cycle";
                 (if cycles = 0 then "-"
                  else Printf.sprintf "%.2f" (float_of_int uops /. float_of_int cycles));
               ];
               [
                 "branch flushes";
                 string_of_int (Counter.get counters "pipeline.branch_flushes");
               ];
               [
                 "L1d miss rate";
                 (let h = Counter.get counters "l1d.hit"
                  and m = Counter.get counters "l1d.miss" in
                  if h + m = 0 then "-"
                  else pct (float_of_int m /. float_of_int (h + m)));
               ];
               [ "DRAM traffic"; Printf.sprintf "%d B" (Chex86_mem.Hierarchy.mem_bytes hier) ];
               [
                 "writebacks";
                 Printf.sprintf "%d B" (Chex86_mem.Hierarchy.writeback_bytes hier);
               ];
             ])));
    close_csv ();
    if ic != stdin then close_in ic
  in
  let format_conv =
    Arg.conv
      ( (function
         | "cachetrace" -> Ok `Cachetrace
         | "uoptrace" -> Ok `Uoptrace
         | s ->
           Error (`Msg (Printf.sprintf "unknown --format %S (cachetrace | uoptrace)" s))),
        fun ppf f ->
          Format.pp_print_string ppf
            (match f with `Cachetrace -> "cachetrace" | `Uoptrace -> "uoptrace") )
  in
  let format_arg =
    Arg.(
      value
      & opt format_conv `Cachetrace
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Trace format: $(b,cachetrace) (R 0xADDR / W 0xADDR lines) or \
             $(b,uoptrace) (self-describing \xc2\xb5op JSONL).")
  in
  let file_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Trace file; omit or use - for stdin.")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Write one CSV row per access to $(docv).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Simulate an external access trace against a \xc2\xb5arch preset's cache \
          hierarchy (and, for uoptrace input, its timing pipeline).")
    Term.(const run $ cpu_arg $ format_arg $ file_arg $ csv_arg)

let trace_gen_cmd =
  let gen format seed n =
    match format with
    | `Cachetrace -> print_string (Chex86_frontend.Gen.cachetrace ~seed ~n ())
    | `Uoptrace ->
      Chex86_frontend.Uoptrace.write stdout (Chex86_frontend.Gen.uoptrace ~seed ~n ())
  in
  let format_conv =
    Arg.conv
      ( (function
         | "cachetrace" -> Ok `Cachetrace
         | "uoptrace" -> Ok `Uoptrace
         | s ->
           Error (`Msg (Printf.sprintf "unknown --format %S (cachetrace | uoptrace)" s))),
        fun ppf f ->
          Format.pp_print_string ppf
            (match f with `Cachetrace -> "cachetrace" | `Uoptrace -> "uoptrace") )
  in
  let format_arg =
    Arg.(value & opt format_conv `Cachetrace & info [ "format" ] ~docv:"FORMAT")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Deterministic LCG seed.")
  in
  let n_arg =
    Arg.(
      value & opt int 10000 & info [ "count"; "n" ] ~docv:"N" ~doc:"Records to generate.")
  in
  Cmd.v
    (Cmd.info "trace-gen"
       ~doc:
         "Emit a deterministic synthetic trace (same seed, same bytes) for \
          smoke tests and goldens.")
    Term.(const gen $ format_arg $ seed_arg $ n_arg)

let presets_cmd =
  let show () =
    let module P = Chex86_machine.Preset in
    print_endline
      (Chex86_stats.Render.table
         ~header:[ "name"; "id"; "description" ]
         (List.map (fun p -> [ p.P.name; P.id p; p.P.description ]) P.all))
  in
  Cmd.v
    (Cmd.info "presets" ~doc:"List the registered \xc2\xb5arch presets and their ids.")
    Term.(const show $ const ())

(* Offline maintenance of the on-disk result store: stats / fsck.
   These operate on an explicit directory and never require a sweep. *)
let store_cmd =
  let store_dir_arg =
    Arg.(
      value
      & opt string Runner.Store.default_dir
      & info [ "cache-dir" ] ~docv:"DIR" ~doc:"Result store location.")
  in
  let require_dir dir =
    if not (Sys.file_exists dir && Sys.is_directory dir) then begin
      Printf.eprintf "store: no such store directory %S\n" dir;
      exit 1
    end
  in
  let stats_cmd =
    let stats dir =
      require_dir dir;
      let s = Runner.Store.disk_stats ~dir in
      Printf.printf "entries:            %d (%d bytes)\n" s.Runner.Store.d_entries
        s.Runner.Store.d_bytes;
      Printf.printf "in-flight tmp:      %d\n" s.Runner.Store.d_tmp;
      Printf.printf "quarantine backlog: %d\n" s.Runner.Store.d_quarantine
    in
    Cmd.v
      (Cmd.info "stats" ~doc:"Report entry/byte counts for a store directory.")
      Term.(const stats $ store_dir_arg)
  in
  let fsck_cmd =
    let fsck dir out =
      require_dir dir;
      let r = Runner.Store.fsck ~dir in
      let body = Chex86_stats.Json.to_string (Runner.Store.fsck_json r) in
      (match out with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc body;
            output_char oc '\n'));
      Printf.printf "scanned:            %d entries (%d ok, %d bytes)\n"
        r.Runner.Store.f_scanned r.Runner.Store.f_ok r.Runner.Store.f_bytes;
      Printf.printf "tmp:                %d pending, %d reclaimed\n"
        r.Runner.Store.f_tmp_pending r.Runner.Store.f_tmp_reclaimed;
      Printf.printf "quarantined:        %d now, %d backlog\n"
        r.Runner.Store.f_quarantined r.Runner.Store.f_quarantine_backlog;
      if Runner.Store.fsck_clean r then print_endline "verdict:            clean"
      else begin
        Printf.printf "verdict:            %d invariant violation(s)\n"
          (List.length r.Runner.Store.f_issues);
        List.iter
          (fun i ->
            Printf.printf "  %s: %s\n" i.Runner.Store.f_path i.Runner.Store.f_problem)
          r.Runner.Store.f_issues;
        exit 1
      end
    in
    let out_arg =
      Arg.(
        value
        & opt (some string) None
        & info [ "out" ] ~docv:"FILE" ~doc:"Also write the report to $(docv) as JSON.")
    in
    Cmd.v
      (Cmd.info "fsck"
         ~doc:
           "Verify every store invariant (entry digests, shard placement, \
            foreign files); quarantine corrupt entries and reclaim stale tmp \
            files so a second run comes back clean. Exits 1 on violations.")
      Term.(const fsck $ store_dir_arg $ out_arg)
  in
  Cmd.group
    (Cmd.info "store" ~doc:"Inspect and maintain the on-disk result store.")
    [ stats_cmd; fsck_cmd ]

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "chex86_sim" ~version:"1.0.0"
             ~doc:"CHEx86 capability-hardware simulator")
          [
            run_cmd;
            list_cmd;
            uops_cmd;
            trace_frontend_cmd;
            trace_gen_cmd;
            presets_cmd;
            trace_summary_cmd;
            store_cmd;
          ]))
