(* NUMA sharding of the controller: per-socket page pools (batched
   refill/drain against the global reserve), hashed registry shards with
   the two-shard ordered-lock protocol, and the balanced cross-shard
   accounting invariant (DESIGN.md §4.14). *)

module Sched = Trio_sim.Sched
module Controller = Trio_core.Controller
module Fs = Trio_core.Fs_intf
module Libfs = Arckfs.Libfs
module Script = Trio_check.Script
module Explore = Trio_check.Explore
module Rng = Trio_util.Rng
open Trio_core.Fs_types

let timeout_ns = 1.0e6

(* ------------------------------------------------------------------ *)
(* Shard routing *)

let test_shard_of_ino_balanced () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl in
      let shards = Controller.shard_count ctl in
      Alcotest.(check int) "one shard per socket" 2 shards;
      let counts = Array.make shards 0 in
      for ino = 1 to 1024 do
        let s = Controller.shard_of_ino ctl ino in
        Alcotest.(check bool) "in range" true (s >= 0 && s < shards);
        Alcotest.(check int) "deterministic" s (Controller.shard_of_ino ctl ino);
        counts.(s) <- counts.(s) + 1
      done;
      (* Fibonacci hashing over consecutive inos must not starve a shard *)
      Array.iter
        (fun c -> Alcotest.(check bool) "no shard starved" true (c > 1024 * 3 / 10))
        counts)

(* ------------------------------------------------------------------ *)
(* Per-socket page pools *)

let test_pool_exhaustion_batch_refill () =
  Helpers.run_sim ~pages_per_node:2048 (fun env ->
      let ctl = env.Helpers.ctl in
      (* tiny pools so a modest working set exhausts them repeatedly *)
      Controller.set_pool_limits ctl ~refill_batch:32 ~high_water:64;
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
            (s.Controller.ss_pool_free <= 64))
        stats;
      let gc = Controller.gc_once ctl in
      Alcotest.(check bool) "accounting invariant" true gc.Controller.gc_invariant_ok;
      Alcotest.(check int) "no leaks" 0 gc.Controller.gc_leaked)

(* ------------------------------------------------------------------ *)
(* Failure-plane exploration: the balanced invariant must hold (summed
   over all shards) after every explored crash/fault state — the
   explorer's worlds are two-socket, so every state exercises the
   sharded pools and registries. *)

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
(* Cross-shard rename: the two-shard ordered-lock path *)

(* Among a handful of directories the ino hash must land on both shards
   of a two-socket rig; hand back one directory per shard. *)
let cross_shard_dirs ctl ops =
  let dirs = List.init 6 (fun i -> Printf.sprintf "/d%d" i) in
  List.iter (fun d -> Helpers.check_ok "mkdir" (ops.Fs.mkdir d 0o755)) dirs;
  let shard d =
    let st = Helpers.check_ok "stat" (ops.Fs.stat d) in
    Controller.shard_of_ino ctl st.st_ino
  in
  let da = List.hd dirs in
  let sa = shard da in
  match List.find_opt (fun d -> shard d <> sa) dirs with
  | Some db -> (da, db)
  | None -> Alcotest.fail "six directories all hashed to one shard"

let test_cross_shard_rename_counts () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl in
      let fs1 = Helpers.mount ~proc:1 env in
      let ops1 = Libfs.ops fs1 in
      let da, db = cross_shard_dirs ctl ops1 in
      (* a cross-dir move locks the (directory, child) ino pair; over
         eight children the hash must pair at least one child with a
         directory on the other shard *)
      for i = 0 to 7 do
        Helpers.check_ok "seed" (Fs.write_file ops1 (Printf.sprintf "%s/f%d" da i) "payload")
      done;
      (* ingest the children under their source directory first — only a
         move of a *registered* child routes through the pair lock *)
      Libfs.unmap_everything fs1;
      let _, cross0 = Controller.lock_stats ctl in
      for i = 0 to 7 do
        Helpers.check_ok "rename"
          (ops1.Fs.rename (Printf.sprintf "%s/f%d" da i) (Printf.sprintf "%s/f%d" db i))
      done;
      Libfs.unmap_everything fs1;
      let _, cross1 = Controller.lock_stats ctl in
      Alcotest.(check bool) "renames took the two-shard lock path" true (cross1 > cross0))

let test_cross_shard_rename_survives_writer_death () =
  let run_one kill_at =
    Helpers.run_sim ~lease_ns:timeout_ns (fun env ->
        let sched = env.Helpers.sched and ctl = env.Helpers.ctl in
        let fs1 = Helpers.mount ~proc:1 env in
        let fs2 = Helpers.mount ~proc:2 env in
        let ops1 = Libfs.ops fs1 and ops2 = Libfs.ops fs2 in
        let da, db = cross_shard_dirs ctl ops1 in
        Helpers.check_ok "seed" (Fs.write_file ops1 (da ^ "/f") "payload");
        Libfs.unmap_everything fs1;
        (* the victim ping-pongs the file between the two shards' dirs
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
        (* no deadlock: both shards still serve the survivor *)
        Helpers.check_ok "create on shard A" (Fs.write_file ops2 (da ^ "/post_a") "x");
        Helpers.check_ok "create on shard B" (Fs.write_file ops2 (db ^ "/post_b") "y");
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
      ( "routing",
        [ Alcotest.test_case "shard-of-ino balanced and deterministic" `Quick
            test_shard_of_ino_balanced ] );
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
      ( "cross-shard",
        [
          Alcotest.test_case "rename counts a two-shard op" `Quick test_cross_shard_rename_counts;
          Alcotest.test_case "rename survives writer death" `Quick
            test_cross_shard_rename_survives_writer_death;
        ] );
    ]
