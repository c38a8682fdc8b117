(* Remote sweep worker: one process per worker slot, driven by the
   supervisor in Chex86_harness.Remote over stdio (socketpair) or TCP.

   In --stdio mode stdout IS the frame channel, so nothing here may
   print to it; diagnostics go to stderr. *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Register the task kinds this binary can execute; the supervisor
     ships only (kind, key, arg) strings, never code. *)
  Chex86_harness.Security.register_remote ();
  Chex86_harness.Runner.register_remote ();
  (* Named fault points (CHEX86_FAULT_POINT) arm from the inherited
     environment so the chaos soak can kill store operations inside
     workers too; the per-chunk key plan still arrives over the wire
     and is armed by Remote per chunk. Malformed values are fatal here
     exactly as in the supervisor binaries. *)
  (match Chex86_harness.Faultinject.arm_from_env () with
  | Ok _ -> ()
  | Error msg ->
    Printf.eprintf "chex86_worker: %s\n%!" msg;
    exit 2);
  (* --trace FILE gives this worker a local span file of its own; it
     then opts out of shipping spans back to the supervisor (the
     explicit file sink takes precedence over collection). Without it,
     spans are collected and piggybacked on Chunk_done whenever the
     supervisor's request asks for them. *)
  let args =
    match Array.to_list Sys.argv with
    | exe :: "--trace" :: file :: rest when file <> "" ->
      Chex86_harness.Trace.set_src (Printf.sprintf "w%d" (Unix.getpid ()));
      Chex86_harness.Trace.set_output (Some file);
      exe :: rest
    | args -> args
  in
  match args with
  | [ _; "--stdio" ] ->
    Chex86_harness.Remote.Worker.serve ~input:Unix.stdin ~output:Unix.stdout
  | [ _; "--listen"; port ] -> (
    match int_of_string_opt port with
    | Some p when p > 0 && p < 65536 -> Chex86_harness.Remote.Worker.listen ~port:p
    | _ ->
      Printf.eprintf "chex86_worker: invalid port %S\n%!" port;
      exit 2)
  | _ ->
    prerr_endline "usage: chex86_worker [--trace FILE] (--stdio | --listen PORT)";
    exit 2
