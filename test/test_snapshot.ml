(* Whole-FS CoW snapshot plane (DESIGN.md §4.16): root-slot commit
   protocol, snap-pinned page accounting, verifier-gated rollback
   through the ECC path, mount-the-newest-intact-root crash recovery,
   and the crash-during-publication exploration campaign. *)

module Sched = Trio_sim.Sched
module Pmem = Trio_nvm.Pmem
module Numa = Trio_nvm.Numa
module Perf = Trio_nvm.Perf
module Layout = Trio_core.Layout
module Mmu = Trio_core.Mmu
module Controller = Trio_core.Controller
module Ctl_state = Trio_core.Ctl_state
module Ctl_snapshot = Trio_core.Ctl_snapshot
module Scrub = Trio_core.Scrub
module Libfs = Arckfs.Libfs
module Fs = Trio_core.Fs_intf
module Rng = Trio_util.Rng
module Explore = Trio_check.Explore
module Script = Trio_check.Script
open Trio_core.Fs_types

let kactor = Pmem.kernel_actor

let take what ctl =
  match Controller.snapshot_take ctl with
  | Ok epoch -> epoch
  | Error e -> Alcotest.failf "%s: snapshot_take failed: %s" what (errno_to_string e)

let file_record ctl ino =
  match Controller.file_info ctl ino with
  | Some f -> f
  | None -> Alcotest.failf "ino %d has no kernel record" ino

(* ------------------------------------------------------------------ *)
(* Root slots: encode/decode, corruption rejection *)

let test_root_slot_roundtrip () =
  Helpers.run_sim (fun env ->
      let pm = env.Helpers.pmem in
      let r =
        {
          Layout.sr_epoch = 7;
          sr_head = 123;
          sr_npages = 4;
          sr_payload_len = 9000;
          sr_payload_crc = 0xdeadbeef;
        }
      in
      Layout.write_snap_root pm ~slot:1 r;
      (match Layout.read_snap_root pm ~slot:1 with
      | Some r' ->
        Alcotest.(check int) "epoch" 7 r'.Layout.sr_epoch;
        Alcotest.(check int) "head" 123 r'.Layout.sr_head;
        Alcotest.(check int) "npages" 4 r'.Layout.sr_npages;
        Alcotest.(check int) "payload len" 9000 r'.Layout.sr_payload_len;
        Alcotest.(check int) "payload crc" 0xdeadbeef r'.Layout.sr_payload_crc
      | None -> Alcotest.fail "written slot did not read back");
      (* one flipped byte anywhere in the record must fail the slot CRC *)
      let addr = Layout.snap_slot_addr 1 + 17 in
      let byte = Bytes.sub (Pmem.read pm ~actor:kactor ~addr ~len:1) 0 1 in
      Bytes.set byte 0 (Char.chr (Char.code (Bytes.get byte 0) lxor 0x40));
      Pmem.write pm ~actor:kactor ~addr ~src:byte;
      Pmem.persist pm ~addr ~len:1;
      Alcotest.(check bool) "corrupted slot rejected" true
        (Layout.read_snap_root pm ~slot:1 = None))

(* ------------------------------------------------------------------ *)
(* Publication: epoch monotonicity, slot alternation, pinning,
   accounting *)

let slot_of_epoch pm epoch =
  match
    List.filter (fun slot -> Controller.snapshot_root_status pm ~slot = Some epoch) [ 0; 1 ]
  with
  | [ s ] -> s
  | [] -> Alcotest.failf "no slot holds epoch %d" epoch
  | _ -> Alcotest.failf "both slots hold epoch %d" epoch

let test_publish_alternates_slots () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl and pm = env.Helpers.pmem in
      (* Controller.create published the empty epoch-1 root already *)
      Alcotest.(check int) "initial epoch" 1 (Controller.snapshot_epoch ctl);
      let fs = Helpers.mount ~proc:1 env in
      let ops = Libfs.ops fs in
      Helpers.check_ok "mkdir" (ops.Fs.mkdir "/d" 0o755);
      Helpers.check_ok "write a" (Fs.write_file ops "/a" "alpha");
      Helpers.check_ok "write b" (Fs.write_file ops "/d/b" "beta");
      Libfs.unmap_everything fs;
      let e2 = take "second" ctl in
      Alcotest.(check int) "second epoch" 2 e2;
      let s2 = slot_of_epoch pm 2 in
      let e3 = take "third" ctl in
      Alcotest.(check int) "third epoch" 3 e3;
      let s3 = slot_of_epoch pm 3 in
      Alcotest.(check bool) "slots alternate" true (s2 <> s3);
      Alcotest.(check bool) "payload pinned" true (Controller.snap_pinned_count ctl > 0);
      (* the published root names every verified file, root dir included *)
      (match Controller.snapshot_entries ctl with
      | Ok (epoch, entries) ->
        Alcotest.(check int) "entries epoch" 3 epoch;
        Alcotest.(check int) "entry count" 4 (List.length entries);
        Alcotest.(check bool) "root dir covered" true
          (List.exists (fun e -> e.Controller.e_ino = Controller.root_ino) entries);
        List.iter
          (fun e ->
            match Controller.snapshot_entry_checkpoint e with
            | Ok _ -> ()
            | Error m -> Alcotest.failf "entry ino %d blob rejected: %s" e.Controller.e_ino m)
          entries
      | Error m -> Alcotest.failf "entries: %s" m);
      (* pinned payload pages must be invisible to the GC as leaks and
         appear in their own invariant term *)
      let gc = Controller.gc_once ctl in
      Alcotest.(check bool) "gc invariant holds" true gc.Controller.gc_invariant_ok;
      Alcotest.(check int) "no leaks" 0 gc.Controller.gc_leaked;
      Alcotest.(check bool) "snap term populated" true (gc.Controller.gc_snap_pinned > 0);
      Alcotest.(check int) "pinned term matches" (Controller.snap_pinned_count ctl)
        gc.Controller.gc_snap_pinned)

(* Satellite: the accounting identity
     free + snap_pinned + reachable + cached + badblocks = total
   must survive snapshots composed with process death and media
   faults. *)
let test_snap_pinned_accounting_under_faults () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl and pm = env.Helpers.pmem in
      let fs1 = Helpers.mount ~proc:1 env in
      let ops1 = Libfs.ops fs1 in
      Helpers.check_ok "write a" (Fs.write_file ops1 "/a" (String.make 5000 'a'));
      Libfs.unmap_everything fs1;
      ignore (take "baseline" ctl);
      (* a second process dies mid-write, with a snapshot held *)
      let fs2 = Helpers.mount ~proc:2 env in
      let ops2 = Libfs.ops fs2 in
      let fd = Helpers.check_ok "open" (ops2.Fs.open_ "/a" [ O_RDWR ]) in
      ignore (Helpers.check_ok "append" (ops2.Fs.append fd (Bytes.of_string "tail")));
      Controller.abnormal_teardown ctl ~proc:2;
      let gc1 = Controller.gc_once ctl in
      Alcotest.(check bool) "invariant after proc death" true gc1.Controller.gc_invariant_ok;
      Alcotest.(check int) "no leak after proc death" 0 gc1.Controller.gc_leaked;
      (* media fault on a file page, repaired or quarantined by patrol *)
      let f = file_record ctl (Helpers.check_ok "stat" (ops1.Fs.stat "/a")).st_ino in
      let idx_pg = List.hd f.Ctl_state.f_index_pages in
      Pmem.inject_poison pm ~addr:(idx_pg * Layout.page_size) ~len:8;
      ignore (Scrub.patrol_once ctl);
      ignore (take "post-fault" ctl);
      let gc2 = Controller.gc_once ctl in
      Alcotest.(check bool) "invariant after fault + snapshot" true
        gc2.Controller.gc_invariant_ok;
      Alcotest.(check int) "no leak after fault + snapshot" 0 gc2.Controller.gc_leaked)

(* ------------------------------------------------------------------ *)
(* Satellite: rollback restores through the ECC path — a poisoned
   snapshot payload is detected and refused, never written back *)

let test_poisoned_snapshot_restore_rejected () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl and pm = env.Helpers.pmem in
      let fs = Helpers.mount ~proc:1 env in
      let ops = Libfs.ops fs in
      Helpers.check_ok "write" (Fs.write_file ops "/f" "precious");
      Libfs.unmap_everything fs;
      ignore (take "snapshot" ctl);
      let ino = (Helpers.check_ok "stat" (ops.Fs.stat "/f")).st_ino in
      (* control: an intact payload restores and re-verifies fine *)
      (match Controller.snapshot_rollback_file ctl ~proc:1 ~ino with
      | Ok () -> ()
      | Error m -> Alcotest.failf "clean rollback refused: %s" m);
      (* now poison a page of the payload chain *)
      let chain =
        match Ctl_snapshot.valid_roots pm with
        | (_, _, _, pages) :: _ -> pages
        | [] -> Alcotest.fail "no valid root after publication"
      in
      Pmem.inject_poison pm ~addr:(List.hd chain * Layout.page_size) ~len:8;
      let f = file_record ctl ino in
      let before = Pmem.read pm ~actor:kactor ~addr:(f.Ctl_state.f_dentry_addr) ~len:64 in
      let events_before = List.length (Controller.corruption_events ctl) in
      (match Controller.snapshot_rollback_file ctl ~proc:1 ~ino with
      | Ok () -> Alcotest.fail "rollback from a poisoned payload must be refused"
      | Error _ -> ());
      (* nothing was blindly written back, and the refusal is on the
         media-event record *)
      let after = Pmem.read pm ~actor:kactor ~addr:(f.Ctl_state.f_dentry_addr) ~len:64 in
      Alcotest.(check bool) "device untouched" true (Bytes.equal before after);
      Alcotest.(check bool) "media event recorded" true
        (List.length (Controller.corruption_events ctl) > events_before);
      (* the poisoned pinned page is the root's only copy: patrol must
         leave it for validation to reject, not zero-fill it *)
      ignore (Scrub.patrol_once ctl);
      Alcotest.(check bool) "patrol skips pinned payload" true (Pmem.poisoned_count pm > 0);
      (* the file itself is still healthy and readable *)
      Alcotest.(check bool) "file healthy" true
        (Controller.degradation_of ctl ino = Some Controller.Healthy);
      let fs2 = Helpers.mount ~proc:2 env in
      Alcotest.(check string) "content intact" "precious"
        (Helpers.check_ok "read" (Fs.read_file (Libfs.ops fs2) "/f")))

(* ------------------------------------------------------------------ *)
(* Deepest rollback rung: ensure_verified falls through to the durable
   root when corruption lands and no DRAM checkpoint exists — the
   scenario that used to end in Failed/EIO *)

let test_corruption_recovers_via_snapshot () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl and pm = env.Helpers.pmem in
      let fs = Helpers.mount ~proc:1 env in
      let ops = Libfs.ops fs in
      Helpers.check_ok "write" (Fs.write_file ops "/f" "hello");
      Libfs.unmap_everything fs;
      ignore (take "snapshot" ctl);
      let ino = (Helpers.check_ok "stat" (ops.Fs.stat "/f")).st_ino in
      (* the writer comes back, lies about the size, and dies; the
         controller has meanwhile lost its DRAM checkpoint (restart) *)
      let fd = Helpers.check_ok "reopen" (ops.Fs.open_ "/f" [ O_RDWR ]) in
      ignore (Helpers.check_ok "append" (ops.Fs.append fd (Bytes.of_string "!")));
      let f = file_record ctl ino in
      Pmem.write_u64 pm ~actor:kactor
        ~addr:(f.Ctl_state.f_dentry_addr + Layout.off_size)
        (1 lsl 26);
      f.Ctl_state.f_checkpoint <- None;
      (* the async pipeline may have verified the pre-corruption append
         already; the lie lands after, so re-flag the handoff *)
      Ctl_state.mark_unverified ctl f 1;
      Controller.abnormal_teardown ctl ~proc:1;
      (* teardown flags the handoff; the verdict ladder runs at the
         gate — force it now, as the next mapper would *)
      ignore (Controller.drain_unverified ctl);
      (* without the snapshot rung this was Failed + EIO; now the file
         rolls back to the published root and re-earns its verdict *)
      Alcotest.(check bool) "rolled back, not failed" true
        (Controller.degradation_of ctl ino = Some Controller.Healthy);
      Alcotest.(check bool) "restore attributed" true
        (Controller.was_snapshot_restored ctl ino);
      let fs2 = Helpers.mount ~proc:2 env in
      Alcotest.(check string) "snapshot content readable" "hello"
        (Helpers.check_ok "read" (Fs.read_file (Libfs.ops fs2) "/f")))

(* Scrub repair ladder: with the DRAM checkpoint gone, a poisoned
   metadata page is repaired from the durable root instead of being
   migrated + degraded. *)
let test_scrub_repairs_from_snapshot () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl and pm = env.Helpers.pmem in
      let fs = Helpers.mount ~proc:1 env in
      let ops = Libfs.ops fs in
      Helpers.check_ok "write" (Fs.write_file ops "/f" "scrub me");
      Libfs.unmap_everything fs;
      ignore (take "snapshot" ctl);
      let ino = (Helpers.check_ok "stat" (ops.Fs.stat "/f")).st_ino in
      let f = file_record ctl ino in
      f.Ctl_state.f_checkpoint <- None;
      let idx_pg = List.hd f.Ctl_state.f_index_pages in
      Pmem.inject_poison pm ~addr:(idx_pg * Layout.page_size) ~len:8;
      let st = Scrub.patrol_once ctl in
      Alcotest.(check int) "line repaired from root" 1 st.Scrub.repaired;
      Alcotest.(check int) "nothing migrated" 0 st.Scrub.migrated;
      Alcotest.(check int) "poison healed" 0 (Pmem.poisoned_count pm);
      Alcotest.(check bool) "file still healthy" true
        (Controller.degradation_of ctl ino = Some Controller.Healthy);
      let fs2 = Helpers.mount ~proc:2 env in
      Alcotest.(check string) "content intact" "scrub me"
        (Helpers.check_ok "read" (Fs.read_file (Libfs.ops fs2) "/f")))

(* ------------------------------------------------------------------ *)
(* Crash recovery: mount the newest intact root; fsck as fallback *)

let make_world () =
  let sched = Sched.create () in
  let topo = Numa.create ~nodes:2 ~cpus_per_node:4 in
  let pmem =
    Pmem.create ~sched ~topo ~profile:Perf.optane ~pages_per_node:16384 ~store_data:true ()
  in
  let mmu = Mmu.create pmem in
  (sched, pmem, mmu)

let test_recover_mounts_newest_root () =
  let sched, pmem, mmu = make_world () in
  let done_ = ref false in
  Sched.spawn sched (fun () ->
      let ctl = Controller.create ~sched ~pmem ~mmu () in
      let fs = Libfs.mount ~ctl ~proc:1 ~cred:{ uid = 1000; gid = 1000 } () in
      let ops = Libfs.ops fs in
      (match ops.Fs.mkdir "/d" 0o755 with Ok () -> () | Error _ -> Alcotest.fail "mkdir");
      (match Fs.write_file ops "/a" "survives" with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "write a");
      (match Fs.write_file ops "/d/b" "also survives" with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "write b");
      Libfs.unmap_everything fs;
      let epoch = take "publish" ctl in
      (* the machine dies: DRAM state is gone, NVM persists *)
      let mmu2 = Mmu.create pmem in
      (match Controller.recover ~sched ~pmem ~mmu:mmu2 () with
      | Ok (ctl2, Controller.Mounted_root e) ->
        Alcotest.(check int) "mounted the committed epoch" epoch e;
        let checked, bad = Controller.audit_all ctl2 in
        Alcotest.(check bool) "files audited" true (checked >= 4);
        Alcotest.(check int) "all certified" 0 bad;
        let gc = Controller.gc_once ctl2 in
        Alcotest.(check bool) "accounting rebuilt" true gc.Controller.gc_invariant_ok;
        Alcotest.(check int) "nothing leaked" 0 gc.Controller.gc_leaked;
        let fs2 = Libfs.mount ~ctl:ctl2 ~proc:2 ~cred:{ uid = 1000; gid = 1000 } () in
        let ops2 = Libfs.ops fs2 in
        (match Fs.read_file ops2 "/a" with
        | Ok s -> Alcotest.(check string) "/a content" "survives" s
        | Error e -> Alcotest.failf "/a unreadable: %s" (errno_to_string e));
        (match Fs.read_file ops2 "/d/b" with
        | Ok s -> Alcotest.(check string) "/d/b content" "also survives" s
        | Error e -> Alcotest.failf "/d/b unreadable: %s" (errno_to_string e))
      | Ok (_, Controller.Fsck_fallback) ->
        Alcotest.fail "intact roots existed but recovery fell back to the fsck walk"
      | Error m -> Alcotest.failf "recovery failed: %s" m);
      (* destroy both slots: recovery must demote itself to the walk *)
      let garbage = Bytes.make Layout.snap_slot_size '\xff' in
      List.iter
        (fun slot ->
          let addr = Layout.snap_slot_addr slot in
          Pmem.write pmem ~actor:kactor ~addr ~src:garbage;
          Pmem.persist pmem ~addr ~len:Layout.snap_slot_size)
        [ 0; 1 ];
      let mmu3 = Mmu.create pmem in
      (match Controller.recover ~sched ~pmem ~mmu:mmu3 () with
      | Ok (ctl3, Controller.Fsck_fallback) ->
        let fs3 = Libfs.mount ~ctl:ctl3 ~proc:3 ~cred:{ uid = 1000; gid = 1000 } () in
        (match Fs.read_file (Libfs.ops fs3) "/a" with
        | Ok s -> Alcotest.(check string) "fsck still serves /a" "survives" s
        | Error e -> Alcotest.failf "fsck mount unreadable: %s" (errno_to_string e))
      | Ok (_, Controller.Mounted_root e) ->
        Alcotest.failf "mounted epoch %d from two destroyed slots" e
      | Error m -> Alcotest.failf "fsck fallback failed: %s" m);
      done_ := true);
  ignore (Sched.run sched);
  Alcotest.(check bool) "simulation completed" true !done_

(* ------------------------------------------------------------------ *)
(* Satellite: kill publication at every Delay boundary — at least one
   valid root must exist in every crash state, and recovery must land
   on a state the Full verifier certifies *)

let parse_script s =
  match Script.parse s with
  | Ok ops -> ops
  | Error e -> Alcotest.failf "bad test script %S: %s" s e

let explain f = Format.asprintf "%a" Explore.pp_failure f

let explore_ops = parse_script "mkdir /d00; create /n00; write /n00 900; create /n01"

(* Zero-root and fsck-fallback states are campaign failures, so a
   passing campaign has none. *)
let test_crash_during_commit_safe () =
  let o = Explore.explore_snapshot_commit explore_ops in
  (match o.Explore.k_failure with
  | None -> ()
  | Some f -> Alcotest.failf "%s" (explain f));
  if o.Explore.k_points < 2 then
    Alcotest.failf "degenerate exploration: %d kill points" o.Explore.k_points;
  Alcotest.(check bool) "states explored" true (o.Explore.k_states > 0);
  Alcotest.(check int) "every state recovered on a root" o.Explore.k_states
    (Explore.tally o "old root" + Explore.tally o "new root")

let test_crash_during_commit_random_scripts () =
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let ops = Script.generate rng ~len:5 in
      let o = Explore.explore_snapshot_commit ~config:(Explore.kills 10) ops in
      match o.Explore.k_failure with
      | None -> ()
      | Some f -> Alcotest.failf "seed %d: %s" seed (explain f))
    [ 11; 42 ]

let () =
  Alcotest.run "snapshot"
    [
      ( "roots",
        [
          Alcotest.test_case "slot roundtrip + corruption rejected" `Quick
            test_root_slot_roundtrip;
          Alcotest.test_case "publish alternates slots" `Quick test_publish_alternates_slots;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "snap_pinned term under faults" `Quick
            test_snap_pinned_accounting_under_faults;
        ] );
      ( "rollback",
        [
          Alcotest.test_case "poisoned payload refused" `Quick
            test_poisoned_snapshot_restore_rejected;
          Alcotest.test_case "corruption recovers via snapshot" `Quick
            test_corruption_recovers_via_snapshot;
          Alcotest.test_case "scrub repairs from snapshot" `Quick
            test_scrub_repairs_from_snapshot;
        ] );
      ( "recovery",
        [ Alcotest.test_case "mount newest root, fsck fallback" `Quick
            test_recover_mounts_newest_root ] );
      ( "exploration",
        [
          Alcotest.test_case "crash during commit keeps a root" `Slow
            test_crash_during_commit_safe;
          Alcotest.test_case "random scripts" `Slow test_crash_during_commit_random_scripts;
        ] );
    ]
