(* Remote sweep worker: one process per worker slot, spawned by the
   supervisor in Chex86_harness.Remote and driven over its stdio (one
   end of a socketpair).

   Stdout IS the frame channel, so nothing here may print to it;
   diagnostics go to stderr.  Trace spans are collected and piggybacked
   on Chunk_done whenever the supervisor's request asks for them. *)

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
  match Sys.argv with
  | [| _; "--stdio" |] ->
    Chex86_harness.Remote.Worker.serve ~input:Unix.stdin ~output:Unix.stdout
  | _ ->
    prerr_endline "usage: chex86_worker --stdio";
    exit 2
