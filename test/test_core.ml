(* Tests for the Trio core: core-state layout, MMU wiring, the kernel
   controller, and the integrity verifier. *)

module Sched = Trio_sim.Sched
module Pmem = Trio_nvm.Pmem
module Layout = Trio_core.Layout
module Mmu = Trio_core.Mmu
module Controller = Trio_core.Controller
module Verifier = Trio_core.Verifier
open Trio_core.Fs_types

let actor = Pmem.kernel_actor

(* ------------------------------------------------------------------ *)
(* Layout *)

let sample_inode =
  {
    Layout.ino = 42;
    ftype = Reg;
    mode = 0o640;
    uid = 1000;
    gid = 100;
    size = 12345;
    index_head = 77;
    mtime = 111;
    ctime = 222;
  }

let test_dentry_roundtrip () =
  let b = Layout.encode_dentry ~inode:sample_inode ~name:"report.txt" () in
  match Layout.decode_dentry b with
  | Some (Ok (inode, name)) ->
    Alcotest.(check string) "name" "report.txt" name;
    Alcotest.(check int) "ino" 42 inode.Layout.ino;
    Alcotest.(check int) "mode" 0o640 inode.Layout.mode;
    Alcotest.(check int) "uid" 1000 inode.Layout.uid;
    Alcotest.(check int) "size" 12345 inode.Layout.size;
    Alcotest.(check int) "index head" 77 inode.Layout.index_head;
    Alcotest.(check bool) "ftype" true (inode.Layout.ftype = Reg)
  | _ -> Alcotest.fail "decode failed"

let test_dentry_free_slot () =
  let b = Bytes.make Layout.dentry_size '\000' in
  Alcotest.(check bool) "free slot decodes to None" true (Layout.decode_dentry b = None)

let test_dentry_garbage_rejected () =
  let b = Layout.encode_dentry ~inode:sample_inode ~name:"x" () in
  Layout.set_u8 b Layout.off_ftype 9 (* invalid file type *);
  (match Layout.decode_dentry b with
  | Some (Error _) -> ()
  | _ -> Alcotest.fail "invalid ftype accepted");
  let b2 = Layout.encode_dentry ~inode:sample_inode ~name:"x" () in
  Layout.set_u16 b2 Layout.off_name_len 5000;
  match Layout.decode_dentry b2 with
  | Some (Error _) -> ()
  | _ -> Alcotest.fail "invalid name length accepted"

let test_name_too_long_rejected () =
  let name = String.make 200 'a' in
  try
    ignore (Layout.encode_dentry ~inode:sample_inode ~name ());
    Alcotest.fail "over-long name accepted"
  with Invalid_argument _ -> ()

let test_superblock_roundtrip () =
  Helpers.run_sim (fun env ->
      match Layout.read_superblock env.Helpers.pmem ~actor with
      | Ok (total, psize, root_ino, root_addr) ->
        Alcotest.(check int) "total pages" (Pmem.total_pages env.Helpers.pmem) total;
        Alcotest.(check int) "page size" 4096 psize;
        Alcotest.(check int) "root ino" Layout.root_ino root_ino;
        Alcotest.(check int) "root dentry" Layout.root_dentry_addr root_addr
      | Error e -> Alcotest.fail e)

let test_atomic_create_protocol () =
  (* write_dentry_atomic must persist everything before activating ino:
     a crash immediately after the full-block write (before the ino
     store is persisted) must leave the slot free. *)
  Helpers.run_sim (fun env ->
      let pm = env.Helpers.pmem in
      let addr = 3 * Layout.page_size in
      (* simulate the first half of the protocol by hand *)
      let b = Layout.encode_dentry ~inode:sample_inode ~name:"f" () in
      Layout.set_u64 b Layout.off_ino 0;
      Pmem.write pm ~actor ~addr ~src:b;
      Pmem.persist pm ~addr ~len:Layout.dentry_size;
      (* the ino store happens but is NOT persisted *)
      Pmem.write_u64 pm ~actor ~addr 42;
      Pmem.crash pm;
      match Layout.read_dentry pm ~actor ~addr with
      | None -> () (* slot still free: correct *)
      | _ -> Alcotest.fail "torn create became visible")

let test_index_page_chain () =
  Helpers.run_sim (fun env ->
      let pm = env.Helpers.pmem in
      let p1 = 10 and p2 = 11 in
      Layout.write_index_entry pm ~actor ~page:p1 0 100;
      Layout.write_index_entry pm ~actor ~page:p1 1 101;
      Layout.write_index_next pm ~actor ~page:p1 p2;
      Layout.write_index_entry pm ~actor ~page:p2 0 200;
      let seen = ref [] in
      (match
         Layout.walk_index_chain pm ~actor ~head:p1 ~max_pages:100
           (fun ~index_page ~entries ~next:_ ->
             seen := (index_page, Array.to_list (Array.sub entries 0 2)) :: !seen)
       with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      Alcotest.(check int) "two pages" 2 (List.length !seen);
      Alcotest.(check (list int)) "page 1 entries" [ 100; 101 ] (snd (List.nth (List.rev !seen) 0)))

let test_index_chain_cycle_detected () =
  Helpers.run_sim (fun env ->
      let pm = env.Helpers.pmem in
      Layout.write_index_next pm ~actor ~page:10 11;
      Layout.write_index_next pm ~actor ~page:11 10 (* cycle! *);
      match
        Layout.walk_index_chain pm ~actor ~head:10 ~max_pages:50
          (fun ~index_page:_ ~entries:_ ~next:_ -> ())
      with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "cycle not detected")

(* ------------------------------------------------------------------ *)
(* Controller: allocation & mapping *)

let test_alloc_pages_grants_access () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl in
      Controller.register_process ctl ~proc:1 ~cred:{ uid = 1; gid = 1 } ();
      match Controller.alloc_pages ctl ~proc:1 ~node:0 ~count:4 ~kind:Pmem.Meta with
      | Error e -> Alcotest.failf "alloc: %s" (errno_to_string e)
      | Ok pages ->
        Alcotest.(check int) "got 4" 4 (List.length pages);
        (* the process can now write these pages *)
        let pg = List.hd pages in
        Pmem.write_u64 env.Helpers.pmem ~actor:1 ~addr:(pg * 4096) 7;
        Alcotest.(check int) "wrote" 7 (Pmem.read_u64 env.Helpers.pmem ~actor:1 ~addr:(pg * 4096)))

let test_unallocated_page_faults () =
  Helpers.run_sim (fun env ->
      Controller.register_process env.Helpers.ctl ~proc:1 ~cred:{ uid = 1; gid = 1 } ();
      match Pmem.write_u64 env.Helpers.pmem ~actor:1 ~addr:(500 * 4096) 1 with
      | _ -> Alcotest.fail "expected fault"
      | exception Pmem.Mmu_fault _ -> ())

let test_free_pages_revokes () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl in
      Controller.register_process ctl ~proc:1 ~cred:{ uid = 1; gid = 1 } ();
      let pages =
        match Controller.alloc_pages ctl ~proc:1 ~node:0 ~count:1 ~kind:Pmem.Meta with
        | Ok p -> p
        | Error _ -> Alcotest.fail "alloc"
      in
      (match Controller.free_pages ctl ~proc:1 ~pages with
      | Ok () -> ()
      | Error e -> Alcotest.failf "free: %s" (errno_to_string e));
      let pg = List.hd pages in
      match Pmem.write_u64 env.Helpers.pmem ~actor:1 ~addr:(pg * 4096) 1 with
      | _ -> Alcotest.fail "freed page still writable"
      | exception Pmem.Mmu_fault _ -> ())

(* A freed page must be revoked before anyone can be handed it: proc 2
   allocates while proc 1's free is still charging its unmap cost, gets
   the very page proc 1 freed, and must keep its grant. *)
let test_free_revokes_before_reuse () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl and pmem = env.Helpers.pmem in
      Controller.register_process ctl ~proc:1 ~cred:{ uid = 1; gid = 1 } ();
      Controller.register_process ctl ~proc:2 ~cred:{ uid = 2; gid = 2 } ();
      let freed =
        Helpers.check_ok "alloc"
          (Controller.alloc_pages ctl ~proc:1 ~node:0 ~count:1 ~kind:Pmem.Data)
      in
      let reused = ref [] and finished = ref 0 in
      Sched.spawn env.Helpers.sched ~cpu:0 (fun () ->
          Helpers.check_ok "free" (Controller.free_pages ctl ~proc:1 ~pages:freed);
          incr finished);
      Sched.spawn env.Helpers.sched ~cpu:1 (fun () ->
          (* land inside the free's page-table delay, after its release *)
          Sched.delay 100.0;
          reused :=
            Helpers.check_ok "realloc"
              (Controller.alloc_pages ctl ~proc:2 ~node:0 ~count:1 ~kind:Pmem.Data);
          incr finished);
      Sched.delay 1.0e6;
      Alcotest.(check int) "both finished" 2 !finished;
      Alcotest.(check (list int)) "proc 2 got the freed page" freed !reused;
      let addr = List.hd freed * 4096 in
      (match Pmem.write_u64 pmem ~actor:2 ~addr 2 with
      | () -> ()
      | exception Pmem.Mmu_fault _ -> Alcotest.fail "new owner lost its grant");
      match Pmem.write_u64 pmem ~actor:1 ~addr 1 with
      | () -> Alcotest.fail "old owner can still write the reused page"
      | exception Pmem.Mmu_fault _ -> ())

let test_free_foreign_pages_refused () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl in
      Controller.register_process ctl ~proc:1 ~cred:{ uid = 1; gid = 1 } ();
      Controller.register_process ctl ~proc:2 ~cred:{ uid = 2; gid = 2 } ();
      let pages =
        match Controller.alloc_pages ctl ~proc:1 ~node:0 ~count:1 ~kind:Pmem.Meta with
        | Ok p -> p
        | Error _ -> Alcotest.fail "alloc"
      in
      Helpers.check_err "free foreign" EACCES (Controller.free_pages ctl ~proc:2 ~pages))

let test_alloc_inos_distinct () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl in
      Controller.register_process ctl ~proc:1 ~cred:{ uid = 1; gid = 1 } ();
      let a = Controller.alloc_inos ctl ~proc:1 ~count:10 in
      let b = Controller.alloc_inos ctl ~proc:1 ~count:10 in
      let all = a @ b in
      Alcotest.(check int) "distinct" 20 (List.length (List.sort_uniq compare all)))

(* ------------------------------------------------------------------ *)
(* Controller + LibFS integration: sharing and verification *)

let test_two_procs_share_file () =
  Helpers.run_sim (fun env ->
      let fs1 = Helpers.mount ~proc:1 ~uid:1000 env in
      let fs2 = Helpers.mount ~proc:2 ~uid:1001 env in
      let ops1 = Arckfs.Libfs.ops fs1 and ops2 = Arckfs.Libfs.ops fs2 in
      Helpers.check_ok "write" (Trio_core.Fs_intf.write_file ops1 "/shared.txt" "from proc 1");
      (* hand the file over *)
      Arckfs.Libfs.unmap_everything fs1;
      let content = Helpers.check_ok "read" (Trio_core.Fs_intf.read_file ops2 "/shared.txt") in
      Alcotest.(check string) "cross-process content" "from proc 1" content)

let test_exclusive_write_blocks_reader () =
  (* While proc 1 holds a write mapping, proc 2's read map must wait for
     the lease; after expiry it succeeds. *)
  Helpers.run_sim ~lease_ns:1.0e6 (fun env ->
      let fs1 = Helpers.mount ~proc:1 ~uid:1000 env in
      let fs2 = Helpers.mount ~proc:2 ~uid:1001 env in
      let ops1 = Arckfs.Libfs.ops fs1 and ops2 = Arckfs.Libfs.ops fs2 in
      Helpers.check_ok "write" (Trio_core.Fs_intf.write_file ops1 "/f" "v1");
      Arckfs.Libfs.unmap_everything fs1;
      (* proc1 opens for write again and keeps it mapped *)
      let fd = Helpers.check_ok "open" (ops1.Trio_core.Fs_intf.open_ "/f" [ O_RDWR ]) in
      ignore (Helpers.check_ok "append" (ops1.Trio_core.Fs_intf.append fd (Bytes.of_string "x")));
      let t0 = Sched.now env.Helpers.sched in
      let content = Helpers.check_ok "read" (Trio_core.Fs_intf.read_file ops2 "/f") in
      let waited = Sched.now env.Helpers.sched -. t0 in
      Alcotest.(check string) "content" "v1x" content;
      if waited < 0.5e6 then Alcotest.failf "reader did not wait for the lease (%.0fns)" waited)

(* A malicious process with write access to the parent directory edits
   the mode bits in a victim file's inode; the verifier must restore them
   from the shadow table when the directory is shared (check I4). *)
let test_shadow_restores_mode () =
  Helpers.run_sim (fun env ->
      let pm = env.Helpers.pmem in
      let fs1 = Helpers.mount ~proc:1 ~uid:1000 env in
      let ops1 = Arckfs.Libfs.ops fs1 in
      Helpers.check_ok "write" (Trio_core.Fs_intf.write_file ops1 "/secret" "data");
      Helpers.check_ok "chmod" (ops1.Trio_core.Fs_intf.chmod "/secret" 0o600);
      Arckfs.Libfs.unmap_everything fs1;
      (* find the file's ino/dentry through the kernel records *)
      let ino =
        match ops1.Trio_core.Fs_intf.stat "/secret" with
        | Ok st -> st.st_ino
        | Error _ -> Alcotest.fail "stat"
      in
      let dentry_addr =
        match Controller.dentry_addr_of env.Helpers.ctl ino with
        | Some a -> a
        | None -> Alcotest.fail "dentry unknown"
      in
      (* open the parent for write so proc 1 has the mapping, then attack *)
      let fd2 = Helpers.check_ok "create sibling" (ops1.Trio_core.Fs_intf.create "/sibling" 0o644) in
      ignore fd2;
      let evil = Bytes.create 2 in
      Layout.set_u16 evil 0 0o777;
      Pmem.write pm ~actor:1 ~addr:(dentry_addr + Layout.off_mode) ~src:evil;
      Pmem.persist pm ~addr:(dentry_addr + Layout.off_mode) ~len:2;
      (* sharing point: unmap triggers verification; I4 repairs the mode *)
      Arckfs.Libfs.unmap_everything fs1;
      match Layout.read_dentry pm ~actor ~addr:dentry_addr with
      | Some (Ok (inode, _)) -> Alcotest.(check int) "mode restored from shadow" 0o600 inode.Layout.mode
      | _ -> Alcotest.fail "dentry unreadable")

let test_corruption_detected_and_rolled_back () =
  (* Proc 1 write-maps the root, corrupts a sibling's index-head to point
     at a foreign page, and unmaps: the verifier must flag it and the
     controller must restore the checkpoint. *)
  Helpers.run_sim (fun env ->
      let pm = env.Helpers.pmem in
      let ctl = env.Helpers.ctl in
      let fs1 = Helpers.mount ~proc:1 ~uid:1000 env in
      let ops1 = Arckfs.Libfs.ops fs1 in
      Helpers.check_ok "victim" (Trio_core.Fs_intf.write_file ops1 "/victim" "precious");
      Arckfs.Libfs.unmap_everything fs1;
      Alcotest.(check int) "no corruption yet" 0 (List.length (Controller.corruption_events ctl));
      (* re-acquire write access to "/" by creating a file, then attack *)
      ignore (Helpers.check_ok "attacker file" (ops1.Trio_core.Fs_intf.create "/mine" 0o644));
      let victim_ino =
        match ops1.Trio_core.Fs_intf.stat "/victim" with
        | Ok st -> st.st_ino
        | Error _ -> Alcotest.fail "stat victim"
      in
      let victim_addr = Option.get (Controller.dentry_addr_of ctl victim_ino) in
      (* point the victim's index head at the superblock page *)
      Pmem.write_u64 pm ~actor:1 ~addr:(victim_addr + Layout.off_index_head) 0;
      (* point at a free page: neither part of the victim nor allocated
         to the attacker *)
      let free_page = Pmem.total_pages pm - 5 in
      Pmem.write_u64 pm ~actor:1 ~addr:(victim_addr + Layout.off_index_head) free_page;
      Pmem.persist pm ~addr:(victim_addr + Layout.off_index_head) ~len:8;
      Arckfs.Libfs.unmap_everything fs1;
      (* the verifier caught it... *)
      if Controller.corruption_events ctl = [] then Alcotest.fail "corruption not detected";
      (* ...and the rollback restored a readable, verified state *)
      let fs2 = Helpers.mount ~proc:2 ~uid:1001 env in
      let ops2 = Arckfs.Libfs.ops fs2 in
      let content = Helpers.check_ok "read after recovery" (Trio_core.Fs_intf.read_file ops2 "/victim") in
      Alcotest.(check string) "content recovered" "precious" content)

let test_trust_group_shares_without_verify () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl in
      (* both processes in trust group 7 *)
      let fs1 =
        Arckfs.Libfs.mount ~ctl ~proc:1 ~cred:{ uid = 1000; gid = 1000 } ()
      in
      ignore fs1;
      Controller.register_process ctl ~proc:3 ~cred:{ uid = 1000; gid = 1000 } ~group:7 ();
      Controller.register_process ctl ~proc:4 ~cred:{ uid = 1000; gid = 1000 } ~group:7 ();
      (* proc 3 maps root for write; proc 4's map must not wait *)
      Helpers.check_ok "map 3" (Controller.map_file ctl ~proc:3 ~ino:Controller.root_ino ~write:true);
      let t0 = Sched.now env.Helpers.sched in
      Helpers.check_ok "map 4" (Controller.map_file ctl ~proc:4 ~ino:Controller.root_ino ~write:true);
      let waited = Sched.now env.Helpers.sched -. t0 in
      if waited > 1.0e6 then Alcotest.failf "trust-group map waited %.0fns" waited)

(* Access control: the shadow inode table is the ground truth the
   controller consults when granting mappings. *)
let test_map_denied_without_permission () =
  Helpers.run_sim (fun env ->
      let owner = Helpers.mount ~proc:1 ~uid:1000 env in
      let owner_ops = Arckfs.Libfs.ops owner in
      Helpers.check_ok "write" (Trio_core.Fs_intf.write_file owner_ops "/private" "secret");
      Helpers.check_ok "chmod 600" (owner_ops.Trio_core.Fs_intf.chmod "/private" 0o600);
      Arckfs.Libfs.unmap_everything owner;
      (* a different uid cannot map the file *)
      let stranger = Helpers.mount ~proc:2 ~uid:2222 env in
      let ops = Arckfs.Libfs.ops stranger in
      Helpers.check_err "open denied" EACCES
        (ops.Trio_core.Fs_intf.open_ "/private" [ O_RDONLY ]);
      (* mode 644 readable but not writable for others *)
      Helpers.check_ok "chmod 644" (owner_ops.Trio_core.Fs_intf.chmod "/private" 0o644);
      let fd = Helpers.check_ok "open ro" (ops.Trio_core.Fs_intf.open_ "/private" [ O_RDONLY ]) in
      let buf = Bytes.create 6 in
      ignore (Helpers.check_ok "read" (ops.Trio_core.Fs_intf.pread fd buf 0));
      Alcotest.(check string) "content" "secret" (Bytes.to_string buf);
      (* a write attempt needs a write mapping, which is denied *)
      Helpers.check_err "write denied" EACCES
        (ops.Trio_core.Fs_intf.pwrite fd (Bytes.of_string "x") 0))

let test_chown_requires_root () =
  Helpers.run_sim (fun env ->
      let user = Helpers.mount ~proc:1 ~uid:1000 env in
      let ops = Arckfs.Libfs.ops user in
      Helpers.check_ok "write" (Trio_core.Fs_intf.write_file ops "/f" "x");
      Arckfs.Libfs.unmap_everything user;
      let ino = (Helpers.check_ok "stat" (ops.Trio_core.Fs_intf.stat "/f")).st_ino in
      Helpers.check_err "chown as user" EACCES
        (Controller.chown env.Helpers.ctl ~proc:1 ~ino ~uid:2222 ~gid:2222);
      (* a root process may *)
      Controller.register_process env.Helpers.ctl ~proc:9 ~cred:{ uid = 0; gid = 0 } ();
      Helpers.check_ok "chown as root"
        (Controller.chown env.Helpers.ctl ~proc:9 ~ino ~uid:2222 ~gid:2222);
      let st = Helpers.check_ok "stat" (ops.Trio_core.Fs_intf.stat "/f") in
      Alcotest.(check int) "uid" 2222 st.st_uid)

let test_chmod_only_owner () =
  Helpers.run_sim (fun env ->
      let owner = Helpers.mount ~proc:1 ~uid:1000 env in
      let ops = Arckfs.Libfs.ops owner in
      Helpers.check_ok "write" (Trio_core.Fs_intf.write_file ops "/f" "x");
      Arckfs.Libfs.unmap_everything owner;
      let other = Helpers.mount ~proc:2 ~uid:2222 env in
      Helpers.check_err "chmod by non-owner" EACCES
        ((Arckfs.Libfs.ops other).Trio_core.Fs_intf.chmod "/f" 0o777))

(* ------------------------------------------------------------------ *)
(* Patrol scrubber: media-fault repair, migration, quarantine *)

module Scrub = Trio_core.Scrub

(* First data page of a regular file, through the kernel's eyes. *)
let first_data_page pm ino ctl =
  let addr = Option.get (Controller.dentry_addr_of ctl ino) in
  match Layout.read_dentry pm ~actor ~addr with
  | Some (Ok (inode, _)) ->
    let head = inode.Layout.index_head in
    (head, Pmem.read_u64 pm ~actor ~addr:(head * Layout.page_size))
  | _ -> Alcotest.fail "dentry unreadable"

let test_scrub_repairs_index_from_checkpoint () =
  Helpers.run_sim (fun env ->
      let pm = env.Helpers.pmem and ctl = env.Helpers.ctl in
      let fs1 = Helpers.mount ~proc:1 ~uid:1000 env in
      let ops1 = Arckfs.Libfs.ops fs1 in
      Helpers.check_ok "write" (Trio_core.Fs_intf.write_file ops1 "/a" "hello scrub");
      Arckfs.Libfs.unmap_everything fs1;
      (* the sharing point verified the file and checkpointed its
         metadata; now a cacheline of its index page goes bad *)
      let ino = (Helpers.check_ok "stat" (ops1.Trio_core.Fs_intf.stat "/a")).st_ino in
      let index_page, _ = first_data_page pm ino ctl in
      Pmem.inject_poison pm ~addr:(index_page * Layout.page_size) ~len:8;
      Alcotest.(check int) "poisoned" 1 (Pmem.poisoned_count pm);
      let st = Scrub.patrol_once ctl in
      Alcotest.(check int) "line repaired" 1 st.Scrub.repaired;
      Alcotest.(check int) "poison gone" 0 (Pmem.poisoned_count pm);
      Alcotest.(check bool) "no pages quarantined" true (Controller.badblocks ctl = []);
      Alcotest.(check bool) "file still healthy" true
        (Controller.degradation_of ctl ino = Some Controller.Healthy);
      (* the repaired index still leads to the data *)
      let fs2 = Helpers.mount ~proc:2 ~uid:1001 env in
      let content =
        Helpers.check_ok "read" (Trio_core.Fs_intf.read_file (Arckfs.Libfs.ops fs2) "/a")
      in
      Alcotest.(check string) "content intact" "hello scrub" content)

let test_scrub_quarantines_data_page_and_degrades () =
  Helpers.run_sim (fun env ->
      let pm = env.Helpers.pmem and ctl = env.Helpers.ctl in
      let fs1 = Helpers.mount ~proc:1 ~uid:1000 env in
      let ops1 = Arckfs.Libfs.ops fs1 in
      let payload = String.make 80 'p' in
      Helpers.check_ok "write" (Trio_core.Fs_intf.write_file ops1 "/big" payload);
      Arckfs.Libfs.unmap_everything fs1;
      let ino = (Helpers.check_ok "stat" (ops1.Trio_core.Fs_intf.stat "/big")).st_ino in
      let _, data_page = first_data_page pm ino ctl in
      (* data pages have no checkpoint copy: losing a line there is
         unrepairable.  The scrubber must migrate the page, retire the
         bad one, and degrade the file to read-only. *)
      Pmem.inject_poison pm ~addr:(data_page * Layout.page_size) ~len:8;
      let st = Scrub.patrol_once ctl in
      Alcotest.(check int) "page migrated" 1 st.Scrub.migrated;
      Alcotest.(check int) "page quarantined" 1 st.Scrub.quarantined;
      Alcotest.(check (list int)) "badblock recorded" [ data_page ] (Controller.badblocks ctl);
      Alcotest.(check bool) "file degraded read-only" true
        (Controller.degradation_of ctl ino = Some Controller.Degraded_ro);
      Alcotest.(check bool) "media event recorded" true
        (Controller.corruption_events ctl <> []);
      (* reads still work: salvageable bytes survive, the damaged first
         line reads as zeros *)
      let fs2 = Helpers.mount ~proc:2 ~uid:1001 env in
      let ops2 = Arckfs.Libfs.ops fs2 in
      let content = Helpers.check_ok "read" (Trio_core.Fs_intf.read_file ops2 "/big") in
      Alcotest.(check int) "size preserved" 80 (String.length content);
      Alcotest.(check string) "tail survives" (String.make 16 'p') (String.sub content 64 16);
      Alcotest.(check string) "damaged line zeroed" (String.make 64 '\000') (String.sub content 0 64);
      (* writes are refused at the mapping boundary *)
      let fd = Helpers.check_ok "open" (ops2.Trio_core.Fs_intf.open_ "/big" [ O_RDWR ]) in
      Helpers.check_err "write on degraded file" EROFS
        (ops2.Trio_core.Fs_intf.pwrite fd (Bytes.of_string "x") 0))

(* Pinned seed: the whole fault → scrub → degrade pipeline is replayable.
   Two identical runs must agree on every counter and every outcome. *)
let test_seeded_fault_run_deterministic () =
  let run () =
    Helpers.run_sim (fun env ->
        let pm = env.Helpers.pmem and ctl = env.Helpers.ctl in
        Pmem.set_fault_injection pm ~seed:20260806 ~transient_read_p:0.02 ~stuck_store_p:0.05 ();
        let fs1 = Helpers.mount ~proc:1 ~uid:1000 env in
        let ops1 = Arckfs.Libfs.ops fs1 in
        let outcomes = ref [] in
        for i = 0 to 19 do
          let path = Printf.sprintf "/f%d" i in
          let r = Trio_core.Fs_intf.write_file ops1 path (String.make (50 + i) 'd') in
          outcomes := (match r with Ok () -> "ok" | Error e -> errno_to_string e) :: !outcomes
        done;
        Arckfs.Libfs.unmap_everything fs1;
        let st = Scrub.make_stats () in
        (* several rounds: earlier repairs can unmask later work *)
        for _ = 1 to 3 do
          ignore (Scrub.patrol_once ~stats:st ctl)
        done;
        let fst_ = Pmem.fault_stats pm in
        ( List.rev !outcomes,
          (fst_.Pmem.transient_faults, fst_.Pmem.stuck_stores, fst_.Pmem.poison_read_hits),
          (st.Scrub.repaired, st.Scrub.scrubbed, st.Scrub.migrated, st.Scrub.quarantined),
          Pmem.poisoned_count pm,
          Controller.badblocks ctl ))
  in
  let o1, f1, s1, p1, b1 = run () in
  let o2, f2, s2, p2, b2 = run () in
  Alcotest.(check (list string)) "op outcomes replay" o1 o2;
  Alcotest.(check bool) "fault counters replay" true (f1 = f2);
  Alcotest.(check bool) "scrub counters replay" true (s1 = s2);
  Alcotest.(check int) "residual poison replays" p1 p2;
  Alcotest.(check (list int)) "badblocks replay" b1 b2;
  (* the seeded rates actually exercised the plane *)
  let _, stuck, _ = f1 in
  if stuck = 0 then Alcotest.fail "seed drew no stuck stores; pick a better seed"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "core"
    [
      ( "layout",
        [
          Alcotest.test_case "dentry roundtrip" `Quick test_dentry_roundtrip;
          Alcotest.test_case "free slot" `Quick test_dentry_free_slot;
          Alcotest.test_case "garbage rejected" `Quick test_dentry_garbage_rejected;
          Alcotest.test_case "name too long" `Quick test_name_too_long_rejected;
          Alcotest.test_case "superblock" `Quick test_superblock_roundtrip;
          Alcotest.test_case "atomic create protocol" `Quick test_atomic_create_protocol;
          Alcotest.test_case "index chain" `Quick test_index_page_chain;
          Alcotest.test_case "index cycle detected" `Quick test_index_chain_cycle_detected;
        ] );
      ( "controller",
        [
          Alcotest.test_case "alloc grants access" `Quick test_alloc_pages_grants_access;
          Alcotest.test_case "unallocated faults" `Quick test_unallocated_page_faults;
          Alcotest.test_case "free revokes" `Quick test_free_pages_revokes;
          Alcotest.test_case "free revokes before reuse" `Quick test_free_revokes_before_reuse;
          Alcotest.test_case "free foreign refused" `Quick test_free_foreign_pages_refused;
          Alcotest.test_case "inos distinct" `Quick test_alloc_inos_distinct;
        ] );
      ( "sharing",
        [
          Alcotest.test_case "two procs share a file" `Quick test_two_procs_share_file;
          Alcotest.test_case "exclusive write blocks reader" `Quick
            test_exclusive_write_blocks_reader;
          Alcotest.test_case "shadow restores mode (I4)" `Quick test_shadow_restores_mode;
          Alcotest.test_case "corruption detected and rolled back" `Quick
            test_corruption_detected_and_rolled_back;
          Alcotest.test_case "trust group skips wait" `Quick test_trust_group_shares_without_verify;
        ] );
      ( "scrub",
        [
          Alcotest.test_case "repairs index from checkpoint" `Quick
            test_scrub_repairs_index_from_checkpoint;
          Alcotest.test_case "quarantines data page, degrades file" `Quick
            test_scrub_quarantines_data_page_and_degrades;
          Alcotest.test_case "seeded fault run deterministic" `Quick
            test_seeded_fault_run_deterministic;
        ] );
      ( "access control",
        [
          Alcotest.test_case "map denied without permission" `Quick
            test_map_denied_without_permission;
          Alcotest.test_case "chown requires root" `Quick test_chown_requires_root;
          Alcotest.test_case "chmod only owner" `Quick test_chmod_only_owner;
        ] );
    ]
