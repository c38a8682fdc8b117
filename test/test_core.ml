(* Tests for the CHEx86 core: capabilities and their shadow table/cache,
   the Table I rule database, the speculative pointer tracker (including
   transient-state squash recovery), the alias table/predictor, the
   Table II classifier, the hardware checker, and end-to-end detection
   semantics of the full monitor under every variant. *)

open Chex86_isa
open Chex86

(* ---------- capabilities ---------- *)

let test_capability_contains () =
  let cap = Capability.make ~pid:1 ~base:0x1000 ~size:64 () in
  Alcotest.(check bool) "first byte" true (Capability.contains cap ~ea:0x1000 ~width:1);
  Alcotest.(check bool) "last word" true (Capability.contains cap ~ea:0x1038 ~width:8);
  Alcotest.(check bool) "one past" false (Capability.contains cap ~ea:0x1040 ~width:1);
  Alcotest.(check bool) "straddles end" false (Capability.contains cap ~ea:0x103C ~width:8);
  Alcotest.(check bool) "below base" false (Capability.contains cap ~ea:0xFFF ~width:1)

let qcheck_capability_roundtrip =
  QCheck.Test.make ~name:"capability 128-bit encode/decode roundtrip"
    QCheck.(
      quad (int_range 1 10000) (int_range 0 0xFFFFFF) (int_range 0 0xFFFF)
        (triple bool bool bool))
    (fun (pid, base, size, (busy, valid, writable)) ->
      let cap = Capability.make ~writable ~pid ~base ~size () in
      cap.Capability.busy <- busy;
      cap.Capability.valid <- valid;
      let back = Capability.decode ~pid (Capability.encode cap) in
      back = cap)

let test_cap_table_lifecycle () =
  let t = Cap_table.create (Chex86_stats.Counter.create_group ()) in
  let cap = Cap_table.fresh t ~size:64 in
  Alcotest.(check bool) "busy after begin" true cap.Capability.busy;
  Alcotest.(check bool) "not yet valid" false cap.Capability.valid;
  Cap_table.finalize t cap.Capability.pid ~base:0x2000;
  Alcotest.(check bool) "valid after end" true cap.Capability.valid;
  Alcotest.(check bool) "busy cleared" false cap.Capability.busy;
  Cap_table.begin_free t cap.Capability.pid;
  Alcotest.(check bool) "busy during free" true cap.Capability.busy;
  Cap_table.end_free t cap.Capability.pid;
  Alcotest.(check bool) "freed capability retained" true
    (Cap_table.find t cap.Capability.pid <> None);
  Alcotest.(check bool) "freed capability invalid" false
    (match Cap_table.find t cap.Capability.pid with
    | Some c -> c.Capability.valid
    | None -> true)

let test_cap_table_null_malloc () =
  let t = Cap_table.create (Chex86_stats.Counter.create_group ()) in
  let cap = Cap_table.fresh t ~size:64 in
  Cap_table.finalize t cap.Capability.pid ~base:0;
  Alcotest.(check bool) "NULL base leaves capability invalid" false cap.Capability.valid

let test_cap_table_find_by_address () =
  let t = Cap_table.create (Chex86_stats.Counter.create_group ()) in
  let a = Cap_table.fresh t ~size:64 in
  Cap_table.finalize t a.Capability.pid ~base:0x1000;
  Cap_table.begin_free t a.Capability.pid;
  Cap_table.end_free t a.Capability.pid;
  let b = Cap_table.fresh t ~size:64 in
  Cap_table.finalize t b.Capability.pid ~base:0x1000;  (* recycled address *)
  (match Cap_table.find_by_address t 0x1010 with
  | Some cap ->
    Alcotest.(check int) "valid capability wins over freed" b.Capability.pid
      cap.Capability.pid
  | None -> Alcotest.fail "no capability found");
  Alcotest.(check bool) "untracked address" true (Cap_table.find_by_address t 0x9000 = None);
  Alcotest.(check int) "storage 16B/entry" (16 * 2) (Cap_table.storage_bytes t)

let test_cap_cache () =
  let g = Chex86_stats.Counter.create_group () in
  let c = Cap_cache.create ~entries:4 g in
  Alcotest.(check bool) "cold miss" false (Cap_cache.access c 1);
  Alcotest.(check bool) "hit" true (Cap_cache.access c 1);
  ignore (Cap_cache.access c 2);
  ignore (Cap_cache.access c 3);
  ignore (Cap_cache.access c 4);
  ignore (Cap_cache.access c 5);  (* evicts pid 1 (LRU) *)
  Alcotest.(check bool) "LRU evicted" false (Cap_cache.access c 1);
  Cap_cache.invalidate c 5;
  Alcotest.(check bool) "invalidated pid misses" false (Cap_cache.access c 5)

(* Lockstep reference for the capability cache, written from its
   documented policy: a plain array scan with no PID index, LRU by
   last-touch stamp, the lowest index on ties, and an invalidated slot
   keeping its stamp (so it is not preferred as the next victim).  The
   packed cache's [Intmap] index is what this checks. *)
module Ref_cap_cache = struct
  type t = {
    pids : int array;
    stamps : int array;
    mutable clock : int;
    mutable hits : int;
    mutable misses : int;
  }

  let create entries =
    { pids = Array.make entries 0; stamps = Array.make entries 0; clock = 0; hits = 0; misses = 0 }

  let access t pid =
    t.clock <- t.clock + 1;
    let n = Array.length t.pids in
    let rec find i = if i = n then None else if t.pids.(i) = pid then Some i else find (i + 1) in
    match find 0 with
    | Some i ->
      t.stamps.(i) <- t.clock;
      t.hits <- t.hits + 1;
      true
    | None ->
      t.misses <- t.misses + 1;
      let victim = ref 0 in
      Array.iteri (fun i s -> if s < t.stamps.(!victim) then victim := i) t.stamps;
      t.pids.(!victim) <- pid;
      t.stamps.(!victim) <- t.clock;
      false

  let invalidate t pid = Array.iteri (fun i p -> if p = pid then t.pids.(i) <- 0) t.pids
end

type cap_op = Cap_access of int | Cap_invalidate of int

let cap_op_name = function
  | Cap_access p -> Printf.sprintf "access %d" p
  | Cap_invalidate p -> Printf.sprintf "invalidate %d" p

(* PIDs come from twice the cache's capacity, so streams mix hits,
   capacity evictions and re-access after an invalidation. *)
let gen_cap_case =
  let open QCheck.Gen in
  let* entries = oneofl [ 4; 8; 64 ] in
  let pid = int_range 1 (2 * entries) in
  let op =
    frequency [ (6, map (fun p -> Cap_access p) pid); (1, map (fun p -> Cap_invalidate p) pid) ]
  in
  let* ops = list_size (int_range 1 (12 * entries)) op in
  return (entries, ops)

let qcheck_cap_cache_lockstep =
  QCheck.Test.make ~name:"capability cache = reference model" ~count:300
    (QCheck.make
       ~print:(fun (entries, ops) ->
         Printf.sprintf "%d entries: %s" entries (String.concat "; " (List.map cap_op_name ops)))
       gen_cap_case)
    (fun (entries, ops) ->
      let g = Chex86_stats.Counter.create_group () in
      let c = Cap_cache.create ~entries g and r = Ref_cap_cache.create entries in
      List.iteri
        (fun step op ->
          let got, want =
            match op with
            | Cap_access p -> (Cap_cache.access c p, Ref_cap_cache.access r p)
            | Cap_invalidate p ->
              Cap_cache.invalidate c p;
              Ref_cap_cache.invalidate r p;
              (false, false)
          in
          let hit = Chex86_stats.Counter.get g "capcache.hit"
          and miss = Chex86_stats.Counter.get g "capcache.miss" in
          if got <> want || hit <> r.hits || miss <> r.misses then
            QCheck.Test.fail_reportf
              "%d entries, step %d (%s): cache %b hit=%d miss=%d, reference %b hit=%d miss=%d"
              entries step (cap_op_name op) got hit miss want r.hits r.misses)
        ops;
      true)

(* ---------- Table I rules ---------- *)

let action_of uop = Rules.action_for (Rules.create ()) uop

let test_rules_table1 () =
  let greg r = Uop.Greg r in
  let checks =
    [
      ("MOV reg-reg", Uop.Mov { dst = greg RAX; src = greg RBX }, Rules.Copy_src);
      ( "ADD reg-reg",
        Uop.Alu { op = Insn.Add; dst = greg RAX; src1 = greg RAX; src2 = Loc (greg RBX) },
        Rules.Nonzero_of_sources );
      ( "ADD reg-imm",
        Uop.Alu { op = Insn.Add; dst = greg RAX; src1 = greg RAX; src2 = Imm 4 },
        Rules.Copy_first );
      ( "SUB reg-reg",
        Uop.Alu { op = Insn.Sub; dst = greg RAX; src1 = greg RAX; src2 = Loc (greg RBX) },
        Rules.Copy_first );
      ( "AND reg-imm",
        Uop.Alu { op = Insn.And; dst = greg RAX; src1 = greg RAX; src2 = Imm 0xF0 },
        Rules.Copy_first );
      ( "AND reg-reg",
        Uop.Alu { op = Insn.And; dst = greg RAX; src1 = greg RAX; src2 = Loc (greg RBX) },
        Rules.Nonzero_of_sources );
      ("LEA", Uop.Lea { dst = greg RAX; mem = Insn.mem_of_reg RBX }, Rules.Copy_src);
      ( "LD",
        Uop.Load { dst = greg RAX; mem = Insn.mem_of_reg RBX; width = Insn.W64 },
        Rules.From_memory );
      ( "ST",
        Uop.Store { src = Loc (greg RAX); mem = Insn.mem_of_reg RBX; width = Insn.W64 },
        Rules.To_memory );
      ("MOVI", Uop.Limm { dst = greg RAX; imm = 0x7fff1000 }, Rules.Wild);
      ( "XOR clears (other ops)",
        Uop.Alu { op = Insn.Xor; dst = greg RAX; src1 = greg RAX; src2 = Loc (greg RBX) },
        Rules.Clear );
      ( "IMUL clears",
        Uop.Alu { op = Insn.Imul; dst = greg RAX; src1 = greg RAX; src2 = Imm 8 },
        Rules.Clear );
    ]
  in
  List.iter
    (fun (name, uop, expected) ->
      Alcotest.(check bool) name true (action_of uop = expected))
    checks

let test_rules_combine () =
  Alcotest.(check int) "zero takes other" 5 (Rules.combine_nonzero 0 5);
  Alcotest.(check int) "other takes zero" 5 (Rules.combine_nonzero 5 0);
  Alcotest.(check int) "real pid beats wild" 5 (Rules.combine_nonzero (-1) 5);
  Alcotest.(check int) "real pid beats wild (sym)" 5 (Rules.combine_nonzero 5 (-1));
  Alcotest.(check int) "both real: first" 3 (Rules.combine_nonzero 3 5)

let test_rules_extensible () =
  let rules = Rules.create () in
  let before =
    Rules.action_for rules
      (Uop.Alu { op = Insn.Xor; dst = Greg RAX; src1 = Greg RAX; src2 = Imm 1 })
  in
  Alcotest.(check bool) "xor initially clears" true (before = Rules.Clear);
  Rules.add_rule rules
    {
      Rules.uop = Rules.OTHER;
      mode = Rules.Reg_imm;
      action = Rules.Copy_first;
      example = "xori %rcx, %rbx, $imm";
      propagation = "PID(rcx) <- PID(rbx)";
      code_example = "ptr ^= 1; (field update)";
    };
  let after =
    Rules.action_for rules
      (Uop.Alu { op = Insn.Xor; dst = Greg RAX; src1 = Greg RAX; src2 = Imm 1 })
  in
  Alcotest.(check bool) "database update takes effect" true (after = Rules.Copy_first);
  Alcotest.(check int) "render has all rows" 13 (List.length (Rules.render_rows rules))

(* ---------- tracker ---------- *)

let test_tracker_basics () =
  let t = Tracker.create () in
  let rax = Uop.Greg RAX in
  Alcotest.(check int) "untracked reads 0" 0 (Tracker.current_pid t rax);
  let s1 = Tracker.next_seq t in
  Tracker.set_pid t rax ~seq:s1 ~pid:7;
  Alcotest.(check int) "transient visible" 7 (Tracker.current_pid t rax);
  Tracker.commit_upto t ~seq:s1;
  Alcotest.(check int) "committed" 7 (Tracker.current_pid t rax)

let test_tracker_squash_recovery () =
  (* Fig 2: on a squash, transient PIDs younger than the offending
     instruction are discarded; the committed PID survives. *)
  let t = Tracker.create () in
  let rax = Uop.Greg RAX in
  let s1 = Tracker.next_seq t in
  Tracker.set_pid t rax ~seq:s1 ~pid:7;
  Tracker.commit_upto t ~seq:s1;
  let s2 = Tracker.next_seq t in
  Tracker.set_pid t rax ~seq:s2 ~pid:8;
  let s3 = Tracker.next_seq t in
  Tracker.set_pid t rax ~seq:s3 ~pid:9;
  Alcotest.(check int) "youngest transient wins" 9 (Tracker.current_pid t rax);
  Tracker.squash_after t ~seq:s2;
  Alcotest.(check int) "squash drops younger transients" 8 (Tracker.current_pid t rax);
  Tracker.squash_after t ~seq:s1;
  Alcotest.(check int) "squash to committed" 7 (Tracker.current_pid t rax)

let test_tracker_xmm_untracked () =
  let t = Tracker.create () in
  Tracker.set_pid t (Uop.Xreg 3) ~seq:(Tracker.next_seq t) ~pid:9;
  Alcotest.(check int) "xmm never tracked" 0 (Tracker.current_pid t (Uop.Xreg 3))

let qcheck_tracker_squash_prefix =
  QCheck.Test.make ~name:"squash keeps exactly the <= seq prefix" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 20) (int_range 1 100)) (int_range 0 20))
    (fun (pids, cut) ->
      let t = Tracker.create () in
      let rax = Uop.Greg RAX in
      let seqs = List.map (fun pid ->
          let s = Tracker.next_seq t in
          Tracker.set_pid t rax ~seq:s ~pid;
          (s, pid))
          pids
      in
      let cut_seq = cut in
      Tracker.squash_after t ~seq:cut_seq;
      let expected =
        match List.rev (List.filter (fun (s, _) -> s <= cut_seq) seqs) with
        | (_, pid) :: _ -> pid
        | [] -> 0
      in
      Tracker.current_pid t rax = expected)

(* ---------- alias table / predictor ---------- *)

let test_alias_table () =
  let t = Alias_table.create (Chex86_stats.Counter.create_group ()) in
  Alias_table.set t 0x7fff1000 42;
  Alcotest.(check int) "roundtrip" 42 (Alias_table.find t 0x7fff1000);
  Alcotest.(check int) "same granule" 42 (Alias_table.find t 0x7fff1007);
  Alcotest.(check int) "neighbour granule empty" 0 (Alias_table.find t 0x7fff1008);
  Alias_table.set t 0x7fff1000 0;
  Alcotest.(check int) "cleared" 0 (Alias_table.find t 0x7fff1000);
  Alcotest.(check int) "entries counted" 0 (Alias_table.entries t)

let test_alias_table_walk_depth () =
  let t = Alias_table.create (Chex86_stats.Counter.create_group ()) in
  Alias_table.set t 0x1000 7;
  let pid, levels = Alias_table.get t 0x1000 in
  Alcotest.(check int) "hit pid" 7 pid;
  Alcotest.(check int) "full walk is 5 levels" 5 levels;
  let _, levels_miss = Alias_table.get t 0x7F00_0000_0000 in
  Alcotest.(check bool) "miss short-circuits" true (levels_miss < 5)

let qcheck_alias_table_roundtrip =
  QCheck.Test.make ~name:"alias table set/find roundtrip" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 30) (pair (int_range 0 0xFFFFFFF) (int_range 1 1000)))
    (fun entries ->
      let t = Alias_table.create (Chex86_stats.Counter.create_group ()) in
      (* last write per granule wins *)
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun (addr, pid) ->
          let addr = addr land lnot 7 in
          Alias_table.set t addr pid;
          Hashtbl.replace tbl addr pid)
        entries;
      Hashtbl.fold (fun addr pid ok -> ok && Alias_table.find t addr = pid) tbl true)

let test_alias_table_storage () =
  let t = Alias_table.create (Chex86_stats.Counter.create_group ()) in
  let s0 = Alias_table.storage_bytes t in
  Alias_table.set t 0x1000 1;
  let s1 = Alias_table.storage_bytes t in
  Alcotest.(check bool) "nodes allocated on first insert" true (s1 > s0);
  Alias_table.set t 0x1008 2;
  Alcotest.(check int) "same leaf reused" s1 (Alias_table.storage_bytes t)

let test_predictor_constant_and_stride () =
  let g = Chex86_stats.Counter.create_group () in
  let p = Alias_predictor.create g in
  for _ = 1 to 4 do
    Alias_predictor.update ~alias_page:true p 0x400100 ~actual:9
  done;
  Alcotest.(check int) "constant learned" 9 (Alias_predictor.predict p 0x400100);
  for i = 1 to 6 do
    Alias_predictor.update ~alias_page:true p 0x400200 ~actual:(10 + i)
  done;
  Alcotest.(check int) "stride learned" 17 (Alias_predictor.predict p 0x400200)

let test_predictor_blacklist () =
  let g = Chex86_stats.Counter.create_group () in
  let p = Alias_predictor.create g in
  (* data loads: actual 0 from non-alias pages *)
  for _ = 1 to 4 do
    Alias_predictor.update ~alias_page:false p 0x400300 ~actual:0
  done;
  Alcotest.(check bool) "blacklisted" true (Alias_predictor.blacklisted p 0x400300);
  Alcotest.(check int) "blacklisted predicts 0" 0 (Alias_predictor.predict p 0x400300);
  (* one pointer outcome resets the blacklist *)
  Alias_predictor.update ~alias_page:true p 0x400300 ~actual:5;
  Alcotest.(check bool) "pointer hit resets" false (Alias_predictor.blacklisted p 0x400300)

let test_predictor_null_does_not_blacklist () =
  let g = Chex86_stats.Counter.create_group () in
  let p = Alias_predictor.create g in
  for _ = 1 to 10 do
    Alias_predictor.update ~alias_page:true p 0x400400 ~actual:0
  done;
  Alcotest.(check bool) "NULLs from alias pages never blacklist" false
    (Alias_predictor.blacklisted p 0x400400)

(* ---------- pattern classifier (Table II) ---------- *)

let test_pattern_classifier_table2 () =
  List.iter
    (fun (expected, _, seq) ->
      Alcotest.(check string) expected expected
        (Pattern_classifier.name (Pattern_classifier.classify seq)))
    Pattern_classifier.table_ii_examples

let test_pattern_classifier_edges () =
  Alcotest.(check string) "empty" "Constant"
    (Pattern_classifier.name (Pattern_classifier.classify []));
  Alcotest.(check string) "singleton" "Constant"
    (Pattern_classifier.name (Pattern_classifier.classify [ 42 ]))

(* ---------- checker ---------- *)

let test_checker () =
  let table = Cap_table.create (Chex86_stats.Counter.create_group ()) in
  let cap = Cap_table.fresh table ~size:64 in
  Cap_table.finalize table cap.Capability.pid ~base:0x1000;
  let checker = Checker.create table in
  let uop = Uop.Mov { dst = Greg RAX; src = Greg RBX } in
  Checker.check checker ~pc:0x400000 ~uop ~result:0x1010 ~predicted:cap.Capability.pid;
  Alcotest.(check (float 1e-9)) "agreement" 1. (Checker.agreement_rate checker);
  Checker.check checker ~pc:0x400004 ~uop ~result:0x1010 ~predicted:0;
  Alcotest.(check int) "mismatch recorded" 1 (List.length (Checker.mismatches checker));
  Alcotest.(check int) "both checks counted" 2 (Checker.checked checker)

(* ---------- end-to-end monitor semantics ---------- *)

let simple_program body =
  let b = Asm.create () in
  Asm.label b "_start";
  body b;
  Asm.emit b Insn.Halt;
  Asm.build b

let run ?(variant = Variant.default) program = Sim.run ~variant ~timing:false program

let expect_violation name program pred =
  match (run program).Sim.outcome with
  | Sim.Violation_detected kind ->
    Alcotest.(check bool) (name ^ ": class") true (pred kind)
  | Sim.Completed -> Alcotest.failf "%s: violation missed" name
  | _ -> Alcotest.failf "%s: unexpected outcome" name

let expect_clean name program =
  match (run program).Sim.outcome with
  | Sim.Completed -> ()
  | Sim.Violation_detected kind ->
    Alcotest.failf "%s: false positive: %s" name (Violation.to_string kind)
  | _ -> Alcotest.failf "%s: unexpected outcome" name

let is_oob = function Violation.Out_of_bounds _ -> true | _ -> false
let is_uaf = function Violation.Use_after_free _ -> true | _ -> false

let test_detect_boundaries () =
  (* Access at base+size-8 passes, base+size is flagged. *)
  expect_clean "last word in bounds"
    (simple_program (fun b ->
         Asm.call_malloc b 64;
         Asm.emit b (Insn.Mov (W64, Mem (Insn.mem ~base:RAX ~disp:56 ()), Imm 1))));
  expect_violation "one past the end"
    (simple_program (fun b ->
         Asm.call_malloc b 64;
         Asm.emit b (Insn.Mov (W64, Mem (Insn.mem ~base:RAX ~disp:64 ()), Imm 1))))
    is_oob;
  expect_violation "straddling the end (width)"
    (simple_program (fun b ->
         Asm.call_malloc b 64;
         Asm.emit b (Insn.Mov (W8, Mem (Insn.mem ~base:RAX ~disp:64 ()), Imm 1))))
    is_oob;
  expect_violation "below the base"
    (simple_program (fun b ->
         Asm.call_malloc b 64;
         Asm.emit b (Insn.Mov (W64, Reg RBX, Mem (Insn.mem ~base:RAX ~disp:(-8) ())))))
    is_oob

let test_detect_pointer_arithmetic () =
  (* ADD rule: derived pointer carries the PID. *)
  expect_violation "add-derived pointer OOB"
    (simple_program (fun b ->
         Asm.call_malloc b 64;
         Asm.emit b (Insn.Mov (W64, Reg RBX, Reg RAX));
         Asm.emit b (Insn.Alu (Add, Reg RBX, Imm 64));
         Asm.emit b (Insn.Mov (W64, Mem (Insn.mem_of_reg RBX), Imm 1))))
    is_oob;
  (* LEA rule. *)
  expect_violation "lea-derived pointer OOB"
    (simple_program (fun b ->
         Asm.call_malloc b 64;
         Asm.emit b (Insn.Mov (W64, Reg RCX, Imm 9));
         Asm.emit b (Insn.Lea (RBX, Insn.mem ~base:RAX ~index:RCX ~scale:8 ()));
         Asm.emit b (Insn.Mov (W64, Mem (Insn.mem_of_reg RBX), Imm 1))))
    is_oob;
  (* SUB rule keeps the minuend's PID. *)
  expect_violation "sub-derived pointer OOB"
    (simple_program (fun b ->
         Asm.call_malloc b 64;
         Asm.emit b (Insn.Mov (W64, Reg RBX, Reg RAX));
         Asm.emit b (Insn.Alu (Sub, Reg RBX, Imm 8));
         Asm.emit b (Insn.Mov (W64, Reg RDX, Mem (Insn.mem_of_reg RBX)))))
    is_oob;
  (* In-bounds pointer arithmetic must stay clean. *)
  expect_clean "in-bounds arithmetic"
    (simple_program (fun b ->
         Asm.call_malloc b 64;
         Asm.emit b (Insn.Mov (W64, Reg RBX, Reg RAX));
         Asm.emit b (Insn.Alu (Add, Reg RBX, Imm 32));
         Asm.emit b (Insn.Mov (W64, Mem (Insn.mem_of_reg RBX), Imm 1))))

let test_detect_spill_reload () =
  (* The alias path: pointer spilled to a global, reloaded, then abused. *)
  let program =
    let b = Asm.create () in
    let slot = Asm.global b "slot" 8 in
    Asm.label b "_start";
    Asm.call_malloc b 64;
    Asm.emit b (Insn.Mov (W64, Mem (Insn.mem_abs slot), Reg RAX));
    Asm.emit b (Insn.Mov (W64, Reg RAX, Imm 0));  (* clobber the register *)
    Asm.emit b (Insn.Mov (W64, Reg RBX, Mem (Insn.mem_abs slot)));  (* reload *)
    Asm.emit b (Insn.Mov (W64, Mem (Insn.mem ~base:RBX ~disp:72 ()), Imm 1));
    Asm.emit b Insn.Halt;
    Asm.build b
  in
  expect_violation "reloaded pointer OOB" program is_oob

let test_detect_stack_spill () =
  expect_violation "push/pop spilled pointer OOB"
    (simple_program (fun b ->
         Asm.call_malloc b 64;
         Asm.emit b (Insn.Push (Reg RAX));
         Asm.emit b (Insn.Mov (W64, Reg RAX, Imm 0));
         Asm.emit b (Insn.Pop RBX);
         Asm.emit b (Insn.Mov (W64, Mem (Insn.mem ~base:RBX ~disp:64 ()), Imm 1))))
    is_oob

let test_detect_uaf_and_frees () =
  expect_violation "use after free"
    (simple_program (fun b ->
         Asm.call_malloc b 64;
         Asm.emit b (Insn.Mov (W64, Reg R12, Reg RAX));
         Asm.call_free b R12;
         Asm.emit b (Insn.Mov (W64, Mem (Insn.mem_of_reg R12), Imm 1))))
    is_uaf;
  expect_violation "double free"
    (simple_program (fun b ->
         Asm.call_malloc b 64;
         Asm.emit b (Insn.Mov (W64, Reg R12, Reg RAX));
         Asm.call_free b R12;
         Asm.call_free b R12))
    (function Violation.Double_free _ -> true | _ -> false);
  expect_violation "invalid (interior) free"
    (simple_program (fun b ->
         Asm.call_malloc b 64;
         Asm.emit b (Insn.Lea (RDI, Insn.mem ~base:RAX ~disp:16 ()));
         Asm.call_extern b "free"))
    (function Violation.Invalid_free _ -> true | _ -> false);
  expect_clean "free(NULL) is benign"
    (simple_program (fun b ->
         Asm.emit b (Insn.Mov (W64, Reg RDI, Imm 0));
         Asm.call_extern b "free"))

let test_detect_wild_and_exhaustion () =
  expect_violation "wild constant dereference (MOVI rule)"
    (simple_program (fun b ->
         Asm.emit b (Insn.Mov (W64, Reg RBX, Imm 0x7fff1000));
         Asm.emit b (Insn.Mov (W64, Mem (Insn.mem_of_reg RBX), Imm 1))))
    (function Violation.Wild_dereference _ -> true | _ -> false);
  expect_violation "resource exhaustion at capGen"
    (simple_program (fun b -> Asm.call_malloc b (2 lsl 30)))
    (function Violation.Resource_exhaustion _ -> true | _ -> false)

let test_detect_globals () =
  let program oob =
    let b = Asm.create () in
    let g = Asm.global b "table" 64 in
    Asm.label b "_start";
    Asm.emit b (Insn.Lea (RBX, Insn.mem_abs g));
    Asm.emit b
      (Insn.Mov (W64, Mem (Insn.mem ~base:RBX ~disp:(if oob then 64 else 56) ()), Imm 1));
    Asm.emit b Insn.Halt;
    Asm.build b
  in
  expect_clean "global in bounds" (program false);
  expect_violation "global OOB via symbol-table capability" (program true) is_oob

let test_detect_realloc () =
  expect_violation "stale pointer after realloc"
    (simple_program (fun b ->
         Asm.call_malloc b 64;
         Asm.emit b (Insn.Mov (W64, Reg R12, Reg RAX));
         Asm.emit b (Insn.Mov (W64, Reg RDI, Reg R12));
         Asm.emit b (Insn.Mov (W64, Reg RSI, Imm 256));
         Asm.call_extern b "realloc";
         Asm.emit b (Insn.Mov (W64, Mem (Insn.mem_of_reg R12), Imm 1))))
    is_uaf

let test_all_variants_detect () =
  let program =
    simple_program (fun b ->
        Asm.call_malloc b 64;
        Asm.emit b (Insn.Mov (W64, Mem (Insn.mem ~base:RAX ~disp:64 ()), Imm 1)))
  in
  List.iter
    (fun scheme ->
      match (run ~variant:(Variant.make scheme) program).Sim.outcome with
      | Sim.Violation_detected _ -> ()
      | _ -> Alcotest.failf "%s missed the overflow" (Variant.scheme_name scheme))
    [
      Variant.Hardware_only;
      Variant.Binary_translation;
      Variant.Microcode_always_on;
      Variant.Microcode_prediction;
    ];
  match (run ~variant:(Variant.make Variant.Insecure) program).Sim.outcome with
  | Sim.Completed -> ()
  | _ -> Alcotest.fail "insecure baseline should not detect"

let test_context_sensitive_scope () =
  let program =
    simple_program (fun b ->
        Asm.call_malloc b 64;
        Asm.emit b (Insn.Mov (W64, Mem (Insn.mem ~base:RAX ~disp:64 ()), Imm 1)))
  in
  (* Scope covering no code: allocation tracked, check not injected. *)
  let out_of_scope =
    Variant.make ~scope:(Variant.Ranges [ (0, 4) ]) Variant.Microcode_prediction
  in
  (match (run ~variant:out_of_scope program).Sim.outcome with
  | Sim.Completed -> ()
  | _ -> Alcotest.fail "out-of-scope dereference should not be checked");
  let in_scope =
    Variant.make
      ~scope:(Variant.Ranges [ (Program.text_base, Program.text_base + 0x1000) ])
      Variant.Microcode_prediction
  in
  match (run ~variant:in_scope program).Sim.outcome with
  | Sim.Violation_detected _ -> ()
  | _ -> Alcotest.fail "in-scope dereference must be checked"

let test_uop_injection_accounting () =
  let program =
    simple_program (fun b ->
        Asm.call_malloc b 64;
        Asm.emit b (Insn.Mov (W64, Mem (Insn.mem_of_reg RAX), Imm 1));
        Asm.call_free b RAX)
  in
  let protected_run = Sim.run program in
  let insecure_run = Sim.run ~variant:(Variant.make Variant.Insecure) program in
  Alcotest.(check bool) "injection under prediction" true
    (protected_run.Sim.result.Chex86_machine.Simulator.uops_injected > 0);
  Alcotest.(check int) "no injection when insecure" 0
    insecure_run.Sim.result.Chex86_machine.Simulator.uops_injected

(* The §V-A rule-construction story, end to end: a workload that encodes
   pointers with XOR (a pattern outside Table I) escapes tracking — the
   hardware checker reports the mismatch — and a rule-database update
   (the modelled in-field microcode update) restores detection. *)
let xor_tagging_program () =
  simple_program (fun b ->
      Asm.call_malloc b 64;
      (* "tag" the pointer: p ^= 0x5; later untag and dereference OOB *)
      Asm.emit b (Insn.Alu (Xor, Reg RAX, Imm 5));
      Asm.emit b (Insn.Mov (W64, Reg RBX, Reg RAX));
      Asm.emit b (Insn.Alu (Xor, Reg RBX, Imm 5));
      Asm.emit b (Insn.Mov (W64, Mem (Insn.mem ~base:RBX ~disp:64 ()), Imm 1)))

let xor_rule =
  {
    Rules.uop = Rules.OTHER;
    mode = Rules.Reg_imm;
    action = Rules.Copy_first;
    example = "xori %rcx, %rbx, $imm";
    propagation = "PID(rcx) <- PID(rbx)";
    code_example = "ptr ^= TAG;";
  }

let test_rule_update_restores_detection () =
  (* Default database: the XOR clears the PID, so the OOB write escapes. *)
  (match (run (xor_tagging_program ())).Sim.outcome with
  | Sim.Completed -> ()
  | _ -> Alcotest.fail "XOR tagging should evade the default Table I rules");
  (* The checker (exhaustive search) notices the tracker losing the
     pointer. *)
  let checker_result = ref None in
  let configure m =
    let c = Checker.create (Monitor.cap_table m) in
    Monitor.attach_checker m c;
    checker_result := Some c
  in
  ignore (Sim.run ~timing:false ~configure (xor_tagging_program ()));
  (match !checker_result with
  | Some c ->
    Alcotest.(check bool) "checker reports a mismatch" true
      (List.length (Checker.mismatches c) > 0)
  | None -> Alcotest.fail "checker not attached");
  (* Extend the database in the field: detection is restored. *)
  let add_rule m = Rules.add_rule (Monitor.rules m) xor_rule in
  match (Sim.run ~timing:false ~configure:add_rule (xor_tagging_program ())).Sim.outcome with
  | Sim.Violation_detected (Violation.Out_of_bounds _) -> ()
  | _ -> Alcotest.fail "rule update must restore detection"

let test_prediction_queue_invariant () =
  (* After a full workload, the decode-time prediction queue must have
     stayed aligned with execution (no empty pops, no pc mismatches). *)
  let w = Chex86_workloads.Workloads.find "perlbench" in
  let r = Sim.run ~timing:false (w.Chex86_workloads.Bench_spec.build ~scale:1) in
  let c = r.Sim.result.Chex86_machine.Simulator.counters in
  Alcotest.(check int) "no empty pops" 0 (Chex86_stats.Counter.get c "alias.queue_empty");
  Alcotest.(check int) "no pc mismatches" 0
    (Chex86_stats.Counter.get c "alias.queue_mismatch")

(* Fig 5's three alias-misprediction recovery paths, each driven by a
   crafted reload pattern and observed through the counters. *)
let counter run name =
  Chex86_stats.Counter.get run.Sim.result.Chex86_machine.Simulator.counters name

let reload_program ~slots ~order =
  (* table[i] = malloc(64) for each slot; then reload table[order[j]]
     through ONE load PC and dereference. *)
  let b = Asm.create () in
  (* one extra (never-filled, NULL) slot so orders can reference it *)
  let table = Asm.global b "t5_table" (8 * (slots + 1)) in
  let order_tab = Asm.global b "t5_order" (8 * List.length order) in
  Asm.label b "_start";
  Chex86_workloads.Kernels.alloc_into_table b ~table ~count:slots ~size:64;
  List.iteri
    (fun i slot ->
      Asm.emit b (Insn.Mov (W64, Mem (Insn.mem_abs (order_tab + (8 * i))), Imm slot)))
    order;
  Asm.emit b (Insn.Mov (W64, Reg RCX, Imm 0));
  let loop = Asm.fresh b "t5" in
  Asm.label b loop;
  Asm.emit b (Insn.Mov (W64, Reg R10, Mem (Insn.mem ~index:RCX ~scale:8 ~disp:order_tab ())));
  Asm.emit b (Insn.Mov (W64, Reg RBX, Mem (Insn.mem ~index:R10 ~scale:8 ~disp:table ())));
  (* NULL slots (order index = slots) are skipped *)
  Asm.emit b (Insn.Test (Reg RBX, Reg RBX));
  let skip = Asm.fresh b "t5skip" in
  Asm.emit b (Insn.Jcc (Eq, skip));
  Asm.emit b (Insn.Inc (Mem (Insn.mem ~base:RBX ~disp:8 ())));
  Asm.label b skip;
  Asm.emit b (Insn.Inc (Reg RCX));
  Asm.emit b (Insn.Cmp (Reg RCX, Imm (List.length order)));
  Asm.emit b (Insn.Jcc (Lt, loop));
  Asm.emit b Insn.Halt;
  Asm.build b

let test_fig5_recovery_paths () =
  (* timing on: the killed-uop accounting lives in the pipeline *)
  let trun program = Sim.run program in
  (* P0AN: the very first reload at a cold PC is an unanticipated
     pointer: pipeline flush. *)
  let cold = trun (reload_program ~slots:4 ~order:[ 0; 1; 2; 3 ]) in
  Alcotest.(check bool) "P0AN fires on the cold reload" true
    (counter cold "alias.pred_p0an" >= 1);
  (* PMAN: alternating PIDs at one PC — wrong PID, cheap forward, and
     crucially no flood of flushes. *)
  let alternating =
    trun (reload_program ~slots:2 ~order:(List.concat (List.init 20 (fun _ -> [ 0; 1 ]))))
  in
  Alcotest.(check bool) "PMAN forwards" true (counter alternating "alias.pred_pman" >= 10);
  Alcotest.(check bool) "PMAN does not flush" true
    (counter alternating "alias.pred_p0an" <= 2);
  (* PNA0: a reload PC that sometimes finds an empty (NULL-bearing,
     untracked) slot: the pre-injected check dies as a zero-idiom. *)
  let with_nulls =
    (* slot index 2 is past the two allocated entries: reads NULL *)
    trun
      (reload_program ~slots:2 ~order:(List.concat (List.init 20 (fun _ -> [ 0; 0; 2 ]))))
  in
  Alcotest.(check bool) "PNA0 fires" true (counter with_nulls "alias.pred_pna0" >= 5);
  Alcotest.(check bool) "PNA0 kills decode slots" true
    (counter with_nulls "pipeline.uops_killed" >= 5)

(* The paper's one observed false positive (§VII-B): leela statically
   linked against libstdc++ dereferences a global through a constant
   integer address; the MOVI rule tags it PID(-1) and capCheck flags it.
   This is intended behaviour of the design — the test pins it so the
   model stays faithful to the paper's discussion. *)
let test_paper_false_positive_constant_global () =
  let b = Asm.create () in
  let g = Asm.global b "static_table" 64 in
  Asm.label b "_start";
  (* constant-pool (Lea) materialization: tracked, clean *)
  Asm.emit b (Insn.Lea (RBX, Insn.mem_abs g));
  Asm.emit b (Insn.Mov (W64, Reg RAX, Mem (Insn.mem_of_reg RBX)));
  Asm.emit b Insn.Halt;
  expect_clean "PC-relative/constant-pool path tracked" (Asm.build b);
  let b = Asm.create () in
  let g = Asm.global b "static_table" 64 in
  Asm.label b "_start";
  (* integer-constant materialization: the MOVI rule fires *)
  Asm.emit b (Insn.Mov (W64, Reg RBX, Imm g));
  Asm.emit b (Insn.Mov (W64, Reg RAX, Mem (Insn.mem_of_reg RBX)));
  Asm.emit b Insn.Halt;
  expect_violation "integer-constant global deref = the paper's leela FP" (Asm.build b)
    (function Violation.Wild_dereference _ -> true | _ -> false)

(* ---------- extensions: rodata globals + uninitialized reads ---------- *)

let test_rodata_globals () =
  let program write =
    let b = Asm.create () in
    let g = Asm.global ~writable:false b "lookup_table" 64 in
    Asm.label b "_start";
    Asm.emit b (Insn.Lea (RBX, Insn.mem_abs g));
    if write then Asm.emit b (Insn.Mov (W64, Mem (Insn.mem_of_reg RBX), Imm 1))
    else Asm.emit b (Insn.Mov (W64, Reg RAX, Mem (Insn.mem_of_reg RBX)));
    Asm.emit b Insn.Halt;
    Asm.build b
  in
  expect_clean "reading .rodata" (program false);
  expect_violation "writing .rodata" (program true)
    (function Violation.Permission_denied _ -> true | _ -> false)

let uninit_variant =
  Variant.make ~detect_uninitialized:true Variant.Microcode_prediction

let test_uninitialized_reads () =
  let program body =
    simple_program (fun b ->
        Asm.call_malloc b 64;
        Asm.emit b (Insn.Mov (W64, Reg RBX, Reg RAX));
        body b)
  in
  let write_then_read =
    program (fun b ->
        Asm.emit b (Insn.Mov (W64, Mem (Insn.mem_of_reg RBX), Imm 7));
        Asm.emit b (Insn.Mov (W64, Reg RAX, Mem (Insn.mem_of_reg RBX))))
  in
  let read_fresh =
    program (fun b ->
        Asm.emit b (Insn.Mov (W64, Reg RAX, Mem (Insn.mem ~base:RBX ~disp:8 ()))))
  in
  let narrow_over_wide =
    (* An 8-byte write initializes any narrower read inside it. *)
    program (fun b ->
        Asm.emit b (Insn.Mov (W64, Mem (Insn.mem_of_reg RBX), Imm 7));
        Asm.emit b (Insn.Mov (W8, Reg RAX, Mem (Insn.mem ~base:RBX ~disp:3 ()))))
  in
  (match (run ~variant:uninit_variant write_then_read).Sim.outcome with
  | Sim.Completed -> ()
  | _ -> Alcotest.fail "write-before-read must be clean");
  (match (run ~variant:uninit_variant narrow_over_wide).Sim.outcome with
  | Sim.Completed -> ()
  | _ -> Alcotest.fail "narrow read inside a wide write must be clean");
  (match (run ~variant:uninit_variant read_fresh).Sim.outcome with
  | Sim.Violation_detected (Violation.Uninitialized_read _) -> ()
  | _ -> Alcotest.fail "fresh-malloc read must be flagged");
  (* Off by default. *)
  match (run read_fresh).Sim.outcome with
  | Sim.Completed -> ()
  | _ -> Alcotest.fail "uninitialized-read detection must be opt-in"

let test_uninitialized_calloc_realloc () =
  let calloc_read =
    simple_program (fun b ->
        Asm.emit b (Insn.Mov (W64, Reg RDI, Imm 8));
        Asm.emit b (Insn.Mov (W64, Reg RSI, Imm 8));
        Asm.call_extern b "calloc";
        Asm.emit b (Insn.Mov (W64, Reg RBX, Mem (Insn.mem ~base:RAX ~disp:16 ()))))
  in
  match (run ~variant:uninit_variant calloc_read).Sim.outcome with
  | Sim.Completed -> ()
  | _ -> Alcotest.fail "calloc memory is initialized"

(* ---------- SMP: shared shadow tables + invalidation bus ---------- *)

let test_smp_cross_core_uaf () =
  let r =
    Smp.run ~timing:false ~threads:[ "thread0"; "thread1" ]
      (Chex86_workloads.Parallel.cross_core_uaf ())
  in
  match r.Smp.outcome with
  | Smp.Violation_detected { core; kind } ->
    Alcotest.(check int) "detected on the consuming core" 1 core;
    Alcotest.(check bool) "classified UAF" true
      (match kind with Violation.Use_after_free _ -> true | _ -> false)
  | _ -> Alcotest.fail "cross-core use-after-free missed"

let test_smp_clean_and_invalidations () =
  let run threads =
    Smp.run ~threads:(Chex86_workloads.Parallel.thread_labels threads)
      (Chex86_workloads.Parallel.canneal_mt ~threads ~scale:1)
  in
  let single = run 1 and quad = run 4 in
  (match (single.Smp.outcome, quad.Smp.outcome) with
  | Smp.Completed, Smp.Completed -> ()
  | _ -> Alcotest.fail "multithreaded workload must run clean under CHEx86");
  Alcotest.(check int) "no invalidations on one core" 0 single.Smp.cap_invalidations;
  Alcotest.(check bool) "frees broadcast capability invalidations" true
    (quad.Smp.cap_invalidations > 0);
  Alcotest.(check bool) "spills broadcast alias invalidations" true
    (quad.Smp.alias_invalidations > 0);
  Alcotest.(check int) "work scales with threads" (4 * single.Smp.macro_insns)
    quad.Smp.macro_insns;
  (* Round-robin cores progress in parallel: the slowest of four cores
     must be far below four times one core. *)
  Alcotest.(check bool) "parallel speedup" true
    (quad.Smp.cycles < 2 * single.Smp.cycles)

let qcheck_smp_interleaving_invariant =
  (* Shared shadow state must behave under any scheduler quantum: the
     multithreaded workload stays false-positive-free, and the total
     work is interleaving-independent. *)
  QCheck.Test.make ~name:"SMP clean under any scheduler quantum" ~count:6
    QCheck.(int_range 1 9)
    (fun quantum ->
      let r =
        Smp.run ~timing:false ~quantum
          ~threads:(Chex86_workloads.Parallel.thread_labels 2)
          (Chex86_workloads.Parallel.canneal_mt ~threads:2 ~scale:1)
      in
      r.Smp.outcome = Smp.Completed)

let test_allocation_failure_path () =
  (* The allocator runs out of heap (below CHEx86's 1 GB limit): malloc
     returns NULL, capGen.End leaves the capability invalid, and a
     program that checks for NULL completes cleanly. *)
  let program =
    simple_program (fun b ->
        Asm.call_malloc b 0x2FF0_0000;
        Asm.emit b (Insn.Test (Reg RAX, Reg RAX));
        let ok = Asm.fresh b "got_null" in
        Asm.emit b (Insn.Jcc (Eq, ok));
        (* would only run if the huge allocation surprisingly succeeded *)
        Asm.emit b (Insn.Mov (W64, Mem (Insn.mem_of_reg RAX), Imm 1));
        Asm.label b ok)
  in
  let run_result = run program in
  (match run_result.Sim.outcome with
  | Sim.Completed -> ()
  | _ -> Alcotest.fail "NULL-checked failed allocation must be clean");
  (* The failed allocation's capability exists but never became valid. *)
  let table = Monitor.cap_table run_result.Sim.monitor in
  let invalid_fresh = ref 0 in
  Cap_table.iter table (fun cap ->
      if (not cap.Capability.valid) && cap.Capability.base = 0 then incr invalid_fresh);
  Alcotest.(check int) "one never-finalized capability" 1 !invalid_fresh

let test_smp_determinism () =
  (* Regression: the round-robin scheduler has no hidden state — the
     same program under the same quantum is bit-identical run to run,
     down to the shadow-table counters and the invalidation traffic. *)
  let snapshot quantum =
    let r =
      Smp.run ~timing:false ~quantum
        ~threads:(Chex86_workloads.Parallel.thread_labels 4)
        (Chex86_workloads.Parallel.canneal_mt ~threads:4 ~scale:1)
    in
    ( r.Smp.outcome,
      r.Smp.cycles,
      r.Smp.per_core_cycles,
      r.Smp.macro_insns,
      r.Smp.cap_invalidations,
      r.Smp.alias_invalidations,
      Chex86_stats.Counter.to_list r.Smp.counters )
  in
  List.iter
    (fun quantum ->
      let a = snapshot quantum and b = snapshot quantum in
      Alcotest.(check bool)
        (Printf.sprintf "quantum %d bit-identical" quantum)
        true (a = b))
    [ 1; 3; 8 ];
  (* Sanity: the invalidation counters above are non-trivial, so the
     equality is not vacuous. *)
  let _, _, _, _, caps, aliases, _ = snapshot 1 in
  Alcotest.(check bool) "cap invalidations exercised" true (caps > 0);
  Alcotest.(check bool) "alias invalidations exercised" true (aliases > 0)

let test_smp_insecure_misses_cross_core_uaf () =
  let r =
    Smp.run ~timing:false
      ~variant:(Variant.make Variant.Insecure)
      ~threads:[ "thread0"; "thread1" ]
      (Chex86_workloads.Parallel.cross_core_uaf ())
  in
  match r.Smp.outcome with
  | Smp.Completed -> ()
  | _ -> Alcotest.fail "insecure SMP baseline should complete"

let () =
  Alcotest.run "core"
    [
      ( "capability",
        [
          Alcotest.test_case "contains" `Quick test_capability_contains;
          QCheck_alcotest.to_alcotest qcheck_capability_roundtrip;
        ] );
      ( "cap_table",
        [
          Alcotest.test_case "lifecycle" `Quick test_cap_table_lifecycle;
          Alcotest.test_case "NULL malloc" `Quick test_cap_table_null_malloc;
          Alcotest.test_case "find_by_address" `Quick test_cap_table_find_by_address;
          Alcotest.test_case "cap cache" `Quick test_cap_cache;
          QCheck_alcotest.to_alcotest qcheck_cap_cache_lockstep;
        ] );
      ( "rules",
        [
          Alcotest.test_case "Table I actions" `Quick test_rules_table1;
          Alcotest.test_case "combine" `Quick test_rules_combine;
          Alcotest.test_case "extensible database" `Quick test_rules_extensible;
        ] );
      ( "tracker",
        [
          Alcotest.test_case "basics" `Quick test_tracker_basics;
          Alcotest.test_case "squash recovery" `Quick test_tracker_squash_recovery;
          Alcotest.test_case "xmm untracked" `Quick test_tracker_xmm_untracked;
          QCheck_alcotest.to_alcotest qcheck_tracker_squash_prefix;
        ] );
      ( "alias",
        [
          Alcotest.test_case "alias table" `Quick test_alias_table;
          Alcotest.test_case "walk depth" `Quick test_alias_table_walk_depth;
          Alcotest.test_case "storage" `Quick test_alias_table_storage;
          QCheck_alcotest.to_alcotest qcheck_alias_table_roundtrip;
          Alcotest.test_case "predictor learns" `Quick test_predictor_constant_and_stride;
          Alcotest.test_case "blacklist" `Quick test_predictor_blacklist;
          Alcotest.test_case "NULLs don't blacklist" `Quick
            test_predictor_null_does_not_blacklist;
        ] );
      ( "patterns",
        [
          Alcotest.test_case "Table II examples" `Quick test_pattern_classifier_table2;
          Alcotest.test_case "edge cases" `Quick test_pattern_classifier_edges;
        ] );
      ("checker", [ Alcotest.test_case "validation" `Quick test_checker ]);
      ( "detection",
        [
          Alcotest.test_case "bounds edges" `Quick test_detect_boundaries;
          Alcotest.test_case "pointer arithmetic rules" `Quick
            test_detect_pointer_arithmetic;
          Alcotest.test_case "spill/reload" `Quick test_detect_spill_reload;
          Alcotest.test_case "stack spill" `Quick test_detect_stack_spill;
          Alcotest.test_case "UAF / frees" `Quick test_detect_uaf_and_frees;
          Alcotest.test_case "wild / exhaustion" `Quick test_detect_wild_and_exhaustion;
          Alcotest.test_case "globals" `Quick test_detect_globals;
          Alcotest.test_case "realloc" `Quick test_detect_realloc;
          Alcotest.test_case "all variants" `Quick test_all_variants_detect;
          Alcotest.test_case "context-sensitive scope" `Quick test_context_sensitive_scope;
          Alcotest.test_case "uop accounting" `Quick test_uop_injection_accounting;
          Alcotest.test_case "rule update restores detection" `Quick
            test_rule_update_restores_detection;
          Alcotest.test_case "prediction queue invariant" `Slow
            test_prediction_queue_invariant;
        ] );
      ( "paper fidelity",
        [
          Alcotest.test_case "Fig 5 recovery paths" `Quick test_fig5_recovery_paths;
          Alcotest.test_case "section VII-B constant-global FP" `Quick
            test_paper_false_positive_constant_global;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "rodata globals" `Quick test_rodata_globals;
          Alcotest.test_case "uninitialized reads" `Quick test_uninitialized_reads;
          Alcotest.test_case "calloc/realloc initialized" `Quick
            test_uninitialized_calloc_realloc;
        ] );
      ( "smp",
        [
          Alcotest.test_case "cross-core UAF" `Quick test_smp_cross_core_uaf;
          Alcotest.test_case "clean run + invalidations" `Quick
            test_smp_clean_and_invalidations;
          Alcotest.test_case "insecure baseline" `Quick
            test_smp_insecure_misses_cross_core_uaf;
          QCheck_alcotest.to_alcotest qcheck_smp_interleaving_invariant;
          Alcotest.test_case "determinism" `Quick test_smp_determinism;
          Alcotest.test_case "allocation failure path" `Quick
            test_allocation_failure_path;
        ] );
    ]
