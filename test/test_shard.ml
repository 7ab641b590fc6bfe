(* Per-socket shards of the controller: page pools (batched
   refill/drain against the global reserve), the balanced accounting
   invariant across the failure-plane explorers, and cross-directory
   rename under writer death (DESIGN.md §4.14). *)

module Sched = Trio_sim.Sched
module Controller = Trio_core.Controller
module Fs = Trio_core.Fs_intf
module Libfs = Arckfs.Libfs
module Script = Trio_check.Script
module Explore = Trio_check.Explore
module Rng = Trio_util.Rng

let timeout_ns = 1.0e6

(* ------------------------------------------------------------------ *)
(* Per-socket page pools *)

let test_pool_exhaustion_batch_refill () =
  Helpers.run_sim ~pages_per_node:2048 (fun env ->
      let ctl = env.Helpers.ctl in
      (* 200 two-page files, then their unlinks, cross both fixed pool
         limits: the 64-page refill batch and the 256-page high water *)
      let fs1 = Helpers.mount ~proc:1 env in
      let ops1 = Libfs.ops fs1 in
      Helpers.check_ok "mkdir" (ops1.Fs.mkdir "/pool" 0o755);
      for i = 0 to 199 do
        Helpers.check_ok "write"
          (Fs.write_file ops1 (Printf.sprintf "/pool/f%03d" i) (String.make 8192 'p'))
      done;
      let refills =
        List.fold_left
          (fun acc s -> acc + s.Controller.ss_pool_refills)
          0 (Controller.shard_stats ctl)
      in
      Alcotest.(check bool) "pools refilled in batches from the reserve" true (refills >= 2);
      for i = 0 to 199 do
        Helpers.check_ok "unlink" (ops1.Fs.unlink (Printf.sprintf "/pool/f%03d" i))
      done;
      Libfs.unmap_everything fs1;
      let stats = Controller.shard_stats ctl in
      let drains = List.fold_left (fun acc s -> acc + s.Controller.ss_pool_drains) 0 stats in
      Alcotest.(check bool) "mass frees drained pools back to the reserve" true (drains >= 1);
      List.iter
        (fun s ->
          Alcotest.(check bool) "pool bounded by its high water" true
            (s.Controller.ss_pool_free <= 256))
        stats;
      let gc = Controller.gc_once ctl in
      Alcotest.(check bool) "accounting invariant" true gc.Controller.gc_invariant_ok;
      Alcotest.(check int) "no leaks" 0 gc.Controller.gc_leaked)

(* ------------------------------------------------------------------ *)
(* Failure-plane exploration: the balanced invariant must hold (summed
   over all pools) after every explored crash/fault state — the
   explorer's worlds are two-socket, so every state exercises the
   per-socket pools. *)

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
           accounting; run the GC twice so a stale pool entry would show *)
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
      ( "pools",
        [ Alcotest.test_case "exhaustion refills in batches" `Quick
            test_pool_exhaustion_batch_refill ] );
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
