(* Per-socket shards of the controller: per-node free pages (the
   allocator's node contract), the balanced accounting invariant across
   the failure-plane explorers, and cross-directory rename under writer
   death (DESIGN.md §4.14). *)

module Sched = Trio_sim.Sched
module Pmem = Trio_nvm.Pmem
module Controller = Trio_core.Controller
module Fs = Trio_core.Fs_intf
module Libfs = Arckfs.Libfs
module Script = Trio_check.Script
module Explore = Trio_check.Explore
module Rng = Trio_util.Rng
open Trio_core.Fs_types

let timeout_ns = 1.0e6

(* ------------------------------------------------------------------ *)
(* Per-node free pages *)

let free_counts ctl = List.map (fun s -> s.Controller.ss_reserve_free) (Controller.shard_stats ctl)

(* A draw comes whole from one node: the requested one if it can cover
   it, else the next that can; a draw no node covers takes nothing. *)
let test_draw_spills_whole_or_not_at_all () =
  Helpers.run_sim ~pages_per_node:64 (fun env ->
      let ctl = env.Helpers.ctl in
      Controller.register_process ctl ~proc:1 ~cred:{ uid = 1; gid = 1 } ();
      let n0, n1 =
        match free_counts ctl with [ a; b ] -> (a, b) | _ -> Alcotest.fail "two nodes"
      in
      let pages =
        Helpers.check_ok "spilling draw"
          (Controller.alloc_pages ctl ~proc:1 ~node:0 ~count:(n0 + 1) ~kind:Pmem.Data)
      in
      Alcotest.(check bool)
        "every page from node 1" true
        (List.for_all (fun pg -> Controller.node_of_page ctl pg = 1) pages);
      Alcotest.(check (list int)) "node 0 untouched" [ n0; n1 - n0 - 1 ] (free_counts ctl);
      Helpers.check_err "no node covers the draw" ENOSPC
        (Controller.alloc_pages ctl ~proc:1 ~node:1 ~count:(max n0 (n1 - n0 - 1) + 1)
           ~kind:Pmem.Data);
      Alcotest.(check (list int)) "failed draw took nothing" [ n0; n1 - n0 - 1 ] (free_counts ctl);
      Helpers.check_ok "free" (Controller.free_pages ctl ~proc:1 ~pages);
      Alcotest.(check (list int)) "both nodes restored" [ n0; n1 ] (free_counts ctl))

(* 200 two-page files, then their unlinks: every page returns and the
   balanced accounting still holds. *)
let test_create_unlink_churn_balances () =
  Helpers.run_sim ~pages_per_node:2048 (fun env ->
      let ctl = env.Helpers.ctl in
      let fs1 = Helpers.mount ~proc:1 env in
      let ops1 = Libfs.ops fs1 in
      Helpers.check_ok "mkdir" (ops1.Fs.mkdir "/churn" 0o755);
      for i = 0 to 199 do
        Helpers.check_ok "write"
          (Fs.write_file ops1 (Printf.sprintf "/churn/f%03d" i) (String.make 8192 'p'))
      done;
      for i = 0 to 199 do
        Helpers.check_ok "unlink" (ops1.Fs.unlink (Printf.sprintf "/churn/f%03d" i))
      done;
      Libfs.unmap_everything fs1;
      let gc = Controller.gc_once ctl in
      Alcotest.(check bool) "accounting invariant" true gc.Controller.gc_invariant_ok;
      Alcotest.(check int) "no leaks" 0 gc.Controller.gc_leaked)

(* ------------------------------------------------------------------ *)
(* Failure-plane exploration: the balanced invariant must hold (summed
   over both nodes) after every explored crash/fault state — the
   explorer's worlds are two-socket. *)

let test_proc_death_invariant_across_shards () =
  let rng = Rng.create 11 in
  let ops = Script.generate rng ~len:5 in
  let r = Explore.explore_proc_death ~config:{ (Explore.kills 4) with hang_points = 1 } ops in
  (match r.Explore.k_failure with
  | None -> ()
  | Some f -> Alcotest.failf "proc-death state failed:@.%a" Explore.pp_failure f);
  Alcotest.(check bool) "states explored" true (r.Explore.k_states > 0);
  Alcotest.(check int) "no leaks" 0 (Explore.tally r "leaked")

let test_faults_invariant_across_shards () =
  let rng = Rng.create 23 in
  let ops = Script.generate rng ~len:5 in
  let config =
    {
      Explore.fault_seed = 23;
      transient_read_p = 0.02;
      stuck_store_p = 0.03;
      fault_crash_points = 4;
    }
  in
  let r = Explore.explore_faults ~config ops in
  (match r.Explore.k_failure with
  | None -> ()
  | Some f -> Alcotest.failf "faulted state failed:@.%a" Explore.pp_failure f);
  Alcotest.(check bool) "states explored" true (r.Explore.k_states > 0)

(* ------------------------------------------------------------------ *)
(* Cross-directory rename under writer death *)

let test_rename_survives_writer_death () =
  let run_one kill_at =
    Helpers.run_sim ~lease_ns:timeout_ns (fun env ->
        let sched = env.Helpers.sched and ctl = env.Helpers.ctl in
        let fs1 = Helpers.mount ~proc:1 env in
        let fs2 = Helpers.mount ~proc:2 env in
        let ops1 = Libfs.ops fs1 and ops2 = Libfs.ops fs2 in
        let da = "/da" and db = "/db" in
        Helpers.check_ok "mkdir" (ops1.Fs.mkdir da 0o755);
        Helpers.check_ok "mkdir" (ops1.Fs.mkdir db 0o755);
        Helpers.check_ok "seed" (Fs.write_file ops1 (da ^ "/f") "payload");
        Libfs.unmap_everything fs1;
        (* the victim ping-pongs the file between the two directories
           and dies mid-flight *)
        Sched.spawn sched (fun () ->
            Sched.killable (fun () ->
                for i = 0 to 19 do
                  let src = if i land 1 = 0 then da ^ "/f" else db ^ "/f" in
                  let dst = if i land 1 = 0 then db ^ "/f" else da ^ "/f" in
                  ignore (ops1.Fs.rename src dst)
                done));
        Sched.arm_kill sched ~after:kill_at;
        Sched.delay 10.0e6;
        Sched.disarm sched;
        ignore (Controller.watchdog_once ctl ~timeout_ns);
        ignore (Controller.gc_once ctl);
        (* no double entry: after escalation and the verifier gate the
           file is in exactly one of the two directories *)
        let here = Result.is_ok (ops2.Fs.stat (da ^ "/f")) in
        let there = Result.is_ok (ops2.Fs.stat (db ^ "/f")) in
        if here && there then Alcotest.failf "kill@%d: file present in both directories" kill_at;
        if not (here || there) then Alcotest.failf "kill@%d: file lost" kill_at;
        (* no deadlock: both directories still serve the survivor *)
        Helpers.check_ok "create in A" (Fs.write_file ops2 (da ^ "/post_a") "x");
        Helpers.check_ok "create in B" (Fs.write_file ops2 (db ^ "/post_b") "y");
        Helpers.check_ok "survivor rename" (ops2.Fs.rename (da ^ "/post_a") (db ^ "/post_c"));
        Libfs.unmap_everything fs2;
        (* no double-free: a page freed twice would break the balanced
           accounting; run the GC twice so a stale free entry would show *)
        ignore (Controller.gc_once ctl);
        let gc = Controller.gc_once ctl in
        Alcotest.(check bool)
          (Printf.sprintf "invariant after kill@%d" kill_at)
          true gc.Controller.gc_invariant_ok;
        Alcotest.(check int) (Printf.sprintf "no leaks after kill@%d" kill_at) 0
          gc.Controller.gc_leaked)
  in
  List.iter run_one [ 0; 2; 5; 9; 14; 21; 34 ]

let () =
  Alcotest.run "shard"
    [
      ( "free pages",
        [
          Alcotest.test_case "draw spills whole or not at all" `Quick
            test_draw_spills_whole_or_not_at_all;
          Alcotest.test_case "create/unlink churn balances" `Quick
            test_create_unlink_churn_balances;
        ] );
      ( "invariant",
        [
          Alcotest.test_case "holds across proc-death exploration" `Quick
            test_proc_death_invariant_across_shards;
          Alcotest.test_case "holds across fault exploration" `Quick
            test_faults_invariant_across_shards;
        ] );
      ( "cross-directory",
        [
          Alcotest.test_case "rename survives writer death" `Quick
            test_rename_survives_writer_death;
        ] );
    ]
