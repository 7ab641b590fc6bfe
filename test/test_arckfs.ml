(* End-to-end tests of the ArckFS LibFS: POSIX-like semantics, data
   paths, concurrency, delegation, crash consistency. *)

module Sched = Trio_sim.Sched
module Pmem = Trio_nvm.Pmem
module Libfs = Arckfs.Libfs
module Fs = Trio_core.Fs_intf
module Layout = Trio_core.Layout
open Trio_core.Fs_types

let ( let* ) = Result.bind
let ok = Helpers.check_ok
let err = Helpers.check_err

(* Everything flows through the instrumented VFS dispatch layer, like
   production consumers do. *)
let with_fs f =
  Helpers.run_sim (fun env ->
      let fs = Helpers.mount ~proc:1 env in
      f env fs (Trio_core.Vfs.ops (Trio_core.Vfs.wrap ~sched:env.Helpers.sched (Libfs.ops fs))))

(* ------------------------------------------------------------------ *)
(* Basic namespace operations *)

let test_create_and_stat () =
  with_fs (fun _ _ ops ->
      let fd = ok "create" (ops.Fs.create "/a.txt" 0o644) in
      ok "close" (ops.Fs.close fd);
      let st = ok "stat" (ops.Fs.stat "/a.txt") in
      Alcotest.(check int) "size 0" 0 st.st_size;
      Alcotest.(check int) "mode" 0o644 st.st_mode;
      Alcotest.(check int) "uid" 1000 st.st_uid;
      Alcotest.(check bool) "is regular" true (st.st_ftype = Reg))

let test_create_duplicate_fails () =
  with_fs (fun _ _ ops ->
      ignore (ok "first" (ops.Fs.create "/dup" 0o644));
      err "duplicate" EEXIST (ops.Fs.create "/dup" 0o644))

let test_open_missing_fails () =
  with_fs (fun _ _ ops -> err "missing" ENOENT (ops.Fs.open_ "/nope" [ O_RDONLY ]))

let test_open_o_creat () =
  with_fs (fun _ _ ops ->
      let fd = ok "o_creat" (ops.Fs.open_ "/new" [ O_RDWR; O_CREAT ]) in
      ok "close" (ops.Fs.close fd);
      ignore (ok "stat" (ops.Fs.stat "/new")))

let test_invalid_paths () =
  with_fs (fun _ _ ops ->
      err "relative" EINVAL (ops.Fs.create "relative/path" 0o644);
      err "empty name" EINVAL (ops.Fs.create "/" 0o644);
      err "name too long" ENAMETOOLONG (ops.Fs.create ("/" ^ String.make 190 'x') 0o644))

let test_mkdir_nested () =
  with_fs (fun _ _ ops ->
      ok "mkdir a" (ops.Fs.mkdir "/a" 0o755);
      ok "mkdir a/b" (ops.Fs.mkdir "/a/b" 0o755);
      ok "mkdir a/b/c" (ops.Fs.mkdir "/a/b/c" 0o755);
      ignore (ok "create deep" (ops.Fs.create "/a/b/c/file" 0o644));
      let st = ok "stat dir" (ops.Fs.stat "/a/b") in
      Alcotest.(check bool) "is dir" true (st.st_ftype = Dir);
      err "file in file" ENOTDIR (ops.Fs.create "/a/b/c/file/x" 0o644))

let test_readdir () =
  with_fs (fun _ _ ops ->
      ok "mkdir" (ops.Fs.mkdir "/d" 0o755);
      List.iter (fun n -> ignore (ok n (ops.Fs.create ("/d/" ^ n) 0o644))) [ "x"; "y"; "z" ];
      ok "subdir" (ops.Fs.mkdir "/d/sub" 0o755);
      let entries = ok "readdir" (ops.Fs.readdir "/d") in
      let names = List.sort compare (List.map (fun e -> e.d_name) entries) in
      Alcotest.(check (list string)) "names" [ "sub"; "x"; "y"; "z" ] names;
      let sub = List.find (fun e -> e.d_name = "sub") entries in
      Alcotest.(check bool) "sub is dir" true (sub.d_ftype = Dir))

let test_unlink () =
  with_fs (fun _ _ ops ->
      ignore (ok "create" (ops.Fs.create "/gone" 0o644));
      ok "unlink" (ops.Fs.unlink "/gone");
      err "stat after unlink" ENOENT (ops.Fs.stat "/gone");
      err "unlink again" ENOENT (ops.Fs.unlink "/gone");
      (* the name can be reused *)
      ignore (ok "recreate" (ops.Fs.create "/gone" 0o644)))

let test_unlink_dir_fails () =
  with_fs (fun _ _ ops ->
      ok "mkdir" (ops.Fs.mkdir "/d" 0o755);
      err "unlink dir" EISDIR (ops.Fs.unlink "/d"))

let test_rmdir () =
  with_fs (fun _ _ ops ->
      ok "mkdir" (ops.Fs.mkdir "/d" 0o755);
      ignore (ok "file" (ops.Fs.create "/d/f" 0o644));
      err "non-empty" ENOTEMPTY (ops.Fs.rmdir "/d");
      ok "unlink" (ops.Fs.unlink "/d/f");
      ok "rmdir" (ops.Fs.rmdir "/d");
      err "gone" ENOENT (ops.Fs.stat "/d");
      err "rmdir file" ENOTDIR (let* _ = ops.Fs.create "/f" 0o644 in ops.Fs.rmdir "/f"))

let test_many_files_in_dir () =
  (* exceeds one dentry page (16 slots) and one index page chain link *)
  with_fs (fun _ _ ops ->
      ok "mkdir" (ops.Fs.mkdir "/big" 0o755);
      let n = 200 in
      for i = 1 to n do
        ignore (ok "create" (ops.Fs.create (Printf.sprintf "/big/f%03d" i) 0o644))
      done;
      let entries = ok "readdir" (ops.Fs.readdir "/big") in
      Alcotest.(check int) "all entries" n (List.length entries);
      (* delete every other file, then recreate — slot reuse *)
      for i = 1 to n do
        if i mod 2 = 0 then ok "unlink" (ops.Fs.unlink (Printf.sprintf "/big/f%03d" i))
      done;
      Alcotest.(check int) "half left" (n / 2) (List.length (ok "readdir" (ops.Fs.readdir "/big")));
      for i = 1 to n do
        if i mod 2 = 0 then ignore (ok "recreate" (ops.Fs.create (Printf.sprintf "/big/f%03d" i) 0o644))
      done;
      Alcotest.(check int) "full again" n (List.length (ok "readdir" (ops.Fs.readdir "/big"))))

(* ------------------------------------------------------------------ *)
(* Data path *)

let test_write_read_roundtrip () =
  with_fs (fun _ _ ops ->
      ok "write" (Fs.write_file ops "/data" "The quick brown fox");
      Alcotest.(check string) "read" "The quick brown fox" (ok "read" (Fs.read_file ops "/data")))

let test_pwrite_pread_offsets () =
  with_fs (fun _ _ ops ->
      let fd = ok "create" (ops.Fs.create "/f" 0o644) in
      ignore (ok "append" (ops.Fs.append fd (Bytes.make 100 'a')));
      ignore (ok "pwrite" (ops.Fs.pwrite fd (Bytes.make 10 'b') 50));
      let buf = Bytes.create 100 in
      let n = ok "pread" (ops.Fs.pread fd buf 0) in
      Alcotest.(check int) "read all" 100 n;
      Alcotest.(check string) "patched"
        (String.make 50 'a' ^ String.make 10 'b' ^ String.make 40 'a')
        (Bytes.to_string buf))

let test_read_past_eof () =
  with_fs (fun _ _ ops ->
      let fd = ok "create" (ops.Fs.create "/f" 0o644) in
      ignore (ok "append" (ops.Fs.append fd (Bytes.make 10 'x')));
      let buf = Bytes.create 20 in
      Alcotest.(check int) "partial read" 10 (ok "pread" (ops.Fs.pread fd buf 0));
      Alcotest.(check int) "read at eof" 0 (ok "pread" (ops.Fs.pread fd buf 10));
      Alcotest.(check int) "read past eof" 0 (ok "pread" (ops.Fs.pread fd buf 100)))

let test_multi_page_file () =
  with_fs (fun _ _ ops ->
      let size = 3 * 4096 in
      let data = Bytes.init size (fun i -> Char.chr (i * 7 mod 256)) in
      let fd = ok "create" (ops.Fs.create "/big" 0o644) in
      ignore (ok "append" (ops.Fs.append fd data));
      let st = ok "stat" (ops.Fs.stat "/big") in
      Alcotest.(check int) "size" size st.st_size;
      let buf = Bytes.create size in
      ignore (ok "pread" (ops.Fs.pread fd buf 0));
      Alcotest.(check bool) "content" true (Bytes.equal data buf);
      (* unaligned read across page boundaries *)
      let buf2 = Bytes.create 5000 in
      ignore (ok "unaligned" (ops.Fs.pread fd buf2 3000));
      Alcotest.(check bool) "slice" true (Bytes.equal (Bytes.sub data 3000 5000) buf2))

let test_sparse_write_extends () =
  with_fs (fun _ _ ops ->
      let fd = ok "create" (ops.Fs.create "/f" 0o644) in
      (* write at offset 8192 with nothing before: pages 0-1 are zero *)
      ignore (ok "pwrite" (ops.Fs.pwrite fd (Bytes.of_string "tail") 8192));
      let st = ok "stat" (ops.Fs.stat "/f") in
      Alcotest.(check int) "size" 8196 st.st_size;
      let buf = Bytes.create 8196 in
      ignore (ok "pread" (ops.Fs.pread fd buf 0));
      Alcotest.(check string) "zero prefix" (String.make 100 '\000')
        (Bytes.sub_string buf 0 100);
      Alcotest.(check string) "tail" "tail" (Bytes.sub_string buf 8192 4))

let test_truncate_shrink () =
  with_fs (fun _ _ ops ->
      let fd = ok "create" (ops.Fs.create "/f" 0o644) in
      ignore (ok "append" (ops.Fs.append fd (Bytes.make 10000 'z')));
      ok "truncate" (ops.Fs.truncate "/f" 100);
      let st = ok "stat" (ops.Fs.stat "/f") in
      Alcotest.(check int) "shrunk" 100 st.st_size;
      let buf = Bytes.create 200 in
      Alcotest.(check int) "read after shrink" 100 (ok "pread" (ops.Fs.pread fd buf 0));
      (* grow it back: the new range is zero *)
      ok "grow" (ops.Fs.truncate "/f" 5000);
      let buf2 = Bytes.create 5000 in
      ignore (ok "pread2" (ops.Fs.pread fd buf2 0));
      Alcotest.(check char) "old data kept" 'z' (Bytes.get buf2 0);
      Alcotest.(check char) "zero fill" '\000' (Bytes.get buf2 4000))

let test_o_trunc () =
  with_fs (fun _ _ ops ->
      ok "write" (Fs.write_file ops "/f" "content");
      let fd = ok "open trunc" (ops.Fs.open_ "/f" [ O_RDWR; O_TRUNC ]) in
      ok "close" (ops.Fs.close fd);
      let st = ok "stat" (ops.Fs.stat "/f") in
      Alcotest.(check int) "truncated" 0 st.st_size)

let test_bad_fd () =
  with_fs (fun _ _ ops ->
      err "pread" EBADF (ops.Fs.pread 424242 (Bytes.create 1) 0);
      err "close" EBADF (ops.Fs.close 424242))

(* ------------------------------------------------------------------ *)
(* Rename *)

let test_rename_same_dir () =
  with_fs (fun _ _ ops ->
      ok "write" (Fs.write_file ops "/old" "payload");
      ok "rename" (ops.Fs.rename "/old" "/new");
      err "old gone" ENOENT (ops.Fs.stat "/old");
      Alcotest.(check string) "content follows" "payload" (ok "read" (Fs.read_file ops "/new")))

let test_rename_cross_dir () =
  with_fs (fun _ _ ops ->
      ok "mkdir a" (ops.Fs.mkdir "/a" 0o755);
      ok "mkdir b" (ops.Fs.mkdir "/b" 0o755);
      ok "write" (Fs.write_file ops "/a/f" "moved");
      ok "rename" (ops.Fs.rename "/a/f" "/b/g");
      err "src gone" ENOENT (ops.Fs.stat "/a/f");
      Alcotest.(check string) "dst content" "moved" (ok "read" (Fs.read_file ops "/b/g"));
      Alcotest.(check int) "a empty" 0 (List.length (ok "readdir" (ops.Fs.readdir "/a")));
      Alcotest.(check int) "b has one" 1 (List.length (ok "readdir" (ops.Fs.readdir "/b"))))

let test_rename_replaces_destination () =
  with_fs (fun _ _ ops ->
      ok "write src" (Fs.write_file ops "/src" "SRC");
      ok "write dst" (Fs.write_file ops "/dst" "DST");
      ok "rename" (ops.Fs.rename "/src" "/dst");
      Alcotest.(check string) "replaced" "SRC" (ok "read" (Fs.read_file ops "/dst"));
      err "src gone" ENOENT (ops.Fs.stat "/src"))

let test_rename_directory () =
  with_fs (fun _ _ ops ->
      ok "mkdir" (ops.Fs.mkdir "/olddir" 0o755);
      ok "write" (Fs.write_file ops "/olddir/f" "inside");
      ok "rename" (ops.Fs.rename "/olddir" "/newdir");
      Alcotest.(check string) "reachable through new path" "inside"
        (ok "read" (Fs.read_file ops "/newdir/f")))

let test_rename_missing_src () =
  with_fs (fun _ _ ops -> err "missing" ENOENT (ops.Fs.rename "/nope" "/x"))

(* ------------------------------------------------------------------ *)
(* Concurrency within one LibFS *)

let test_concurrent_creates_in_dir () =
  Helpers.run_sim (fun env ->
      let fs = Helpers.mount ~proc:1 env in
      let ops = Libfs.ops fs in
      Sched.delay 1.0;
      let created = ref 0 in
      let nthreads = 8 and per_thread = 25 in
      for th = 0 to nthreads - 1 do
        Sched.spawn ~cpu:th env.Helpers.sched (fun () ->
            for i = 0 to per_thread - 1 do
              match ops.Fs.create (Printf.sprintf "/t%d_f%d" th i) 0o644 with
              | Ok fd ->
                incr created;
                ignore (ops.Fs.close fd)
              | Error e -> Alcotest.failf "create: %s" (errno_to_string e)
            done)
      done;
      (* let the spawned fibers run *)
      Sched.park (fun waker -> Sched.schedule env.Helpers.sched 1.0e12 waker);
      Alcotest.(check int) "all created" (nthreads * per_thread) !created;
      let entries = ok "readdir" (ops.Fs.readdir "/") in
      Alcotest.(check int) "directory consistent" (nthreads * per_thread) (List.length entries))

let test_concurrent_disjoint_writes () =
  Helpers.run_sim (fun env ->
      let fs = Helpers.mount ~proc:1 env in
      let ops = Libfs.ops fs in
      let fd = ok "create" (ops.Fs.create "/shared" 0o644) in
      ignore (ok "prealloc" (ops.Fs.append fd (Bytes.make (8 * 4096) '\000')));
      let done_count = ref 0 in
      for th = 0 to 7 do
        Sched.spawn ~cpu:th env.Helpers.sched (fun () ->
            let data = Bytes.make 4096 (Char.chr (Char.code 'A' + th)) in
            (match ops.Fs.pwrite fd data (th * 4096) with
            | Ok _ -> incr done_count
            | Error e -> Alcotest.failf "pwrite: %s" (errno_to_string e)))
      done;
      Sched.park (fun waker -> Sched.schedule env.Helpers.sched 1.0e12 waker);
      Alcotest.(check int) "all wrote" 8 !done_count;
      let buf = Bytes.create (8 * 4096) in
      ignore (ok "pread" (ops.Fs.pread fd buf 0));
      for th = 0 to 7 do
        Alcotest.(check char)
          (Printf.sprintf "region %d" th)
          (Char.chr (Char.code 'A' + th))
          (Bytes.get buf (th * 4096))
      done)

(* ------------------------------------------------------------------ *)
(* Delegation *)

let test_delegation_equivalent_results () =
  (* The same large write/read must produce identical bytes with and
     without the delegation engine. *)
  let run_with_delegation use_dlg =
    Helpers.run_sim ~nodes:2 ~cpus_per_node:4 ~pages_per_node:32768 (fun env ->
        let delegation =
          if use_dlg then
            Some
              (Arckfs.Delegation.create ~sched:env.Helpers.sched ~pmem:env.Helpers.pmem
                 ~threads_per_node:2 ())
          else None
        in
        let fs = Helpers.mount ~proc:1 ?delegation env in
        let ops = Libfs.ops fs in
        let size = 256 * 1024 in
        let data = Bytes.init size (fun i -> Char.chr (i * 13 mod 256)) in
        let fd = ok "create" (ops.Fs.create "/blob" 0o644) in
        ignore (ok "append" (ops.Fs.append fd data));
        let buf = Bytes.create size in
        ignore (ok "pread" (ops.Fs.pread fd buf 0));
        (match delegation with Some d -> Arckfs.Delegation.shutdown d | None -> ());
        (Bytes.equal data buf, Option.map Arckfs.Delegation.request_count delegation))
  in
  let ok_direct, _ = run_with_delegation false in
  let ok_dlg, reqs = run_with_delegation true in
  Alcotest.(check bool) "direct path intact" true ok_direct;
  Alcotest.(check bool) "delegated path intact" true ok_dlg;
  match reqs with
  | Some n when n > 0 -> ()
  | _ -> Alcotest.fail "delegation engine was not used"

(* Drive the engine directly, as process 7, over two pages at the top of
   node 0 that nothing else touches: [mapped] is mapped read-write for
   process 7 and holds 'w' bytes, [unmapped] is not mapped at all.  One
   delegation fiber per node serves both pages in submission order. *)
let with_delegated_pages f =
  Helpers.run_sim (fun env ->
      let pmem = env.Helpers.pmem in
      let dlg =
        Arckfs.Delegation.create ~sched:env.Helpers.sched ~pmem ~threads_per_node:1 ()
      in
      let actor = 7 and page_size = Pmem.page_size in
      let unmapped = Pmem.pages_per_node pmem - 1 in
      let mapped = unmapped - 1 in
      Trio_core.Mmu.grant_free env.Helpers.mmu ~actor ~pages:[ mapped ]
        ~perm:Trio_core.Mmu.P_readwrite;
      Arckfs.Delegation.run_all dlg ~actor ~write:true ~buf:(Bytes.make page_size 'w')
        [ (mapped * page_size, 0, page_size) ];
      f env dlg ~actor ~mapped:(mapped * page_size) ~unmapped:(unmapped * page_size);
      Arckfs.Delegation.shutdown dlg)

let all_bytes c b = Bytes.for_all (Char.equal c) b

let test_delegation_mmu_fault_reaches_submitter () =
  (* A delegated access that faults must not end the simulation: the
     fault is re-raised in the submitting fiber, only after every run of
     the batch has completed, and the engine keeps serving. *)
  with_delegated_pages (fun _ dlg ~actor ~mapped ~unmapped ->
      let page_size = Pmem.page_size in
      let buf = Bytes.make (2 * page_size) '.' in
      (match
         Arckfs.Delegation.run_all dlg ~actor ~write:false ~buf
           [ (unmapped, 0, page_size); (mapped, page_size, page_size) ]
       with
      | () -> Alcotest.fail "delegated read of an unmapped page completed"
      | exception Pmem.Mmu_fault { actor = a; page; write } ->
        Alcotest.(check (triple int int bool))
          "read fault of the unmapped page"
          (actor, unmapped / page_size, false)
          (a, page, write);
        Alcotest.(check bool)
          "the run after the fault completed first" true
          (all_bytes 'w' (Bytes.sub buf page_size page_size)));
      (match
         Arckfs.Delegation.run_all dlg ~actor ~write:true ~buf [ (unmapped, 0, page_size) ]
       with
      | () -> Alcotest.fail "delegated write to an unmapped page completed"
      | exception Pmem.Mmu_fault { write; _ } -> Alcotest.(check bool) "write fault" true write);
      let back = Bytes.create page_size in
      Arckfs.Delegation.run_all dlg ~actor ~write:false ~buf:back [ (mapped, 0, page_size) ];
      Alcotest.(check bool) "engine still serves" true (all_bytes 'w' back))

let test_delegation_media_fault_reaches_submitter () =
  (* A poisoned line fails a delegated load, and a cost-only transfer
     over it, in the submitting fiber; a delegated store heals it. *)
  with_delegated_pages (fun env dlg ~actor ~mapped ~unmapped:_ ->
      let pmem = env.Helpers.pmem and page_size = Pmem.page_size in
      Pmem.inject_poison pmem ~addr:mapped ~len:1;
      let expect_media_fault what f =
        match f () with
        | () -> Alcotest.failf "%s of a poisoned line completed" what
        | exception Pmem.Media_fault { transient; _ } ->
          Alcotest.(check bool) (what ^ ": latent poison") false transient
      in
      let buf = Bytes.create page_size in
      expect_media_fault "delegated read" (fun () ->
          Arckfs.Delegation.run_all dlg ~actor ~write:false ~buf [ (mapped, 0, page_size) ]);
      expect_media_fault "cost-only read" (fun () ->
          Arckfs.Delegation.touch_all dlg ~actor ~write:false [ (mapped, page_size) ]);
      Arckfs.Delegation.run_all dlg ~actor ~write:true ~buf:(Bytes.make page_size 'h')
        [ (mapped, 0, page_size) ];
      Arckfs.Delegation.run_all dlg ~actor ~write:false ~buf [ (mapped, 0, page_size) ];
      Alcotest.(check bool) "store healed the line" true (all_bytes 'h' buf))

(* ------------------------------------------------------------------ *)
(* Crash consistency *)

let test_crash_after_create_consistent () =
  Helpers.run_sim (fun env ->
      let pm = env.Helpers.pmem in
      let fs = Helpers.mount ~proc:1 env in
      let ops = Libfs.ops fs in
      ignore (ok "before" (ops.Fs.create "/durable" 0o644));
      (* crash with everything persisted *)
      Pmem.crash pm;
      Trio_core.Controller.crash_recover env.Helpers.ctl;
      (* a fresh LibFS (fresh aux state) must see the created file *)
      let fs2 = Helpers.mount ~proc:2 ~uid:1000 env in
      let ops2 = Libfs.ops fs2 in
      ignore (ok "after crash" (ops2.Fs.stat "/durable")))

let test_crash_mid_rename_rolls_back () =
  Helpers.run_sim (fun env ->
      let pm = env.Helpers.pmem in
      let fs = Helpers.mount ~proc:1 env in
      let ops = Libfs.ops fs in
      ok "write" (Fs.write_file ops "/orig" "payload");
      ok "rename" (ops.Fs.rename "/orig" "/renamed");
      (* now crash; rename was journaled and committed, so it survives *)
      Pmem.crash pm;
      Trio_core.Controller.crash_recover env.Helpers.ctl;
      let fs2 = Helpers.mount ~proc:2 ~uid:1000 env in
      let ops2 = Libfs.ops fs2 in
      Alcotest.(check string) "renamed file intact" "payload"
        (ok "read" (Fs.read_file ops2 "/renamed"));
      err "old name gone" ENOENT (ops2.Fs.stat "/orig"))

let test_crash_size_field_repaired () =
  (* Force a stale directory size: the dentry persists but the size
     update is lost in the crash; LibFS recovery must recount. *)
  Helpers.run_sim (fun env ->
      let pm = env.Helpers.pmem in
      let fs = Helpers.mount ~proc:1 env in
      let ops = Libfs.ops fs in
      ok "mkdir" (ops.Fs.mkdir "/d" 0o755);
      ignore (ok "create" (ops.Fs.create "/d/f" 0o644));
      (* manually stale-ify the size field without persisting *)
      let st = ok "stat" (ops.Fs.stat "/d") in
      ignore st;
      Pmem.crash pm;
      Trio_core.Controller.crash_recover env.Helpers.ctl;
      let fs2 = Helpers.mount ~proc:2 ~uid:1000 env in
      let ops2 = Libfs.ops fs2 in
      let entries = ok "readdir" (ops2.Fs.readdir "/d") in
      let st2 = ok "stat" (ops2.Fs.stat "/d") in
      Alcotest.(check int) "size matches entries" (List.length entries) st2.st_size)

(* ------------------------------------------------------------------ *)
(* Dentry-slot reuse after an aux rebuild *)

(* Dentry pages linked into [path]'s index chain on NVM. *)
let dentry_pages env ops path =
  let st = ok "stat" (ops.Fs.stat path) in
  let ctl = env.Helpers.ctl in
  match Trio_core.Controller.dentry_addr_of ctl st.st_ino with
  | None -> Alcotest.fail "directory unknown to the controller"
  | Some dentry_addr -> (
    match Trio_core.Controller.walk_file ctl ~ino:st.st_ino ~dentry_addr with
    | Some (_, _, data_pages, _) -> List.length data_pages
    | None -> Alcotest.fail "unreadable directory")

let names_of ops path =
  List.sort compare (List.map (fun e -> e.d_name) (ok "readdir" (ops.Fs.readdir path)))

(* A LibFS that hands its directory back after every write rebuilds the
   directory's aux state from a skeleton on the next op.  Its creates
   must still find the slots its unlinks freed: 200 creates, then 200
   create+unlink pairs, stay within one page of the 13 that 200 entries
   need, where each create used to claim a fresh page. *)
let slot_reuse_after_handoff ?ring () =
  Helpers.run_sim (fun env ->
      let fs = Helpers.mount ~proc:1 ~unmap_after_write:true ?ring env in
      let ops = Libfs.ops fs in
      ok "mkdir" (ops.Fs.mkdir "/h" 0o755);
      let live = Queue.create () in
      let create i =
        let name = Printf.sprintf "f%04d" i in
        ok "close" (ops.Fs.close (ok "create" (ops.Fs.create ("/h/" ^ name) 0o644)));
        Queue.push name live
      in
      for i = 0 to 199 do
        create i
      done;
      for i = 200 to 399 do
        create i;
        ok "unlink" (ops.Fs.unlink ("/h/" ^ Queue.pop live))
      done;
      let model = List.sort compare (List.of_seq (Queue.to_seq live)) in
      Alcotest.(check (list string)) "entries" model (names_of ops "/h");
      Libfs.unmap_everything fs;
      let bound = ((Queue.length live + Layout.dentries_per_page - 1) / Layout.dentries_per_page) + 1 in
      let pages = dentry_pages env ops "/h" in
      if pages > bound then Alcotest.failf "%d dentry pages for %d entries" pages (Queue.length live))

let test_slot_reuse_after_handoff () = slot_reuse_after_handoff ()
let test_slot_reuse_after_ring_handoff () = slot_reuse_after_handoff ~ring:4 ()

(* Creates that scan a skeleton's pages for free slots race unlinks and
   renames that free slots on those pages; no slot may be handed out
   twice.  Process 2 churns, from 4 fibers, a directory process 1
   filled: every name must be where the model says, the pages must
   stay near the minimum, and the controller must certify the result. *)
let test_slot_reuse_concurrent () =
  Helpers.run_sim (fun env ->
      let p1 = Helpers.mount ~proc:1 env in
      let ops1 = Libfs.ops p1 in
      ok "mkdir" (ops1.Fs.mkdir "/c" 0o777);
      let pre i = Printf.sprintf "pre%02d" i in
      for i = 0 to 63 do
        ok "close" (ops1.Fs.close (ok "create" (ops1.Fs.create ("/c/" ^ pre i) 0o644)))
      done;
      Libfs.unmap_everything p1;
      let p2 = Helpers.mount ~proc:2 env in
      let ops = Libfs.ops p2 in
      (* write-map the directory before the fibers start: racing first
         maps of one directory from one process end in EAGAIN *)
      ok "close" (ops.Fs.close (ok "create" (ops.Fs.create "/c/warm" 0o644)));
      let expected = ref [ "warm" ] in
      for th = 0 to 3 do
        Sched.spawn ~cpu:th env.Helpers.sched (fun () ->
            for i = 0 to 15 do
              let fresh = Printf.sprintf "t%d_%02d" th i and old = pre ((th * 16) + i) in
              ok "close" (ops.Fs.close (ok "create" (ops.Fs.create ("/c/" ^ fresh) 0o644)));
              if i mod 2 = 0 then ok "unlink" (ops.Fs.unlink ("/c/" ^ old))
              else begin
                let moved = Printf.sprintf "r%d_%02d" th i in
                ok "rename" (ops.Fs.rename ("/c/" ^ old) ("/c/" ^ moved));
                expected := moved :: !expected
              end;
              expected := fresh :: !expected
            done)
      done;
      Sched.park (fun waker -> Sched.schedule env.Helpers.sched 1.0e12 waker);
      let expected = List.sort compare !expected in
      Alcotest.(check (list string)) "entries" expected (names_of ops "/c");
      Libfs.unmap_everything p2;
      let _, bad = Trio_core.Controller.audit_all env.Helpers.ctl in
      Alcotest.(check int) "certified" 0 bad;
      let ops3 = Libfs.ops (Helpers.mount ~proc:3 env) in
      Alcotest.(check (list string)) "entries, fresh process" expected (names_of ops3 "/c");
      let pages = dentry_pages env ops3 "/c" in
      if pages > 7 then Alcotest.failf "%d dentry pages for 96 entries" pages)

(* Materializing a skeleton used to list every empty slot of every
   page, on top of the slots a create had already listed (the spares of
   a page it had just added).  Losing the index is one way there: the
   next create materializes.  Two creates then shared a slot, and the
   second overwrote the first's dentry. *)
let test_materialize_lists_slot_once () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl in
      let p1 = Helpers.mount ~proc:1 env in
      let ops1 = Libfs.ops p1 in
      ok "mkdir" (ops1.Fs.mkdir "/m" 0o755);
      let names = ref [] in
      let create ops name =
        ok "close" (ops.Fs.close (ok "create" (ops.Fs.create ("/m/" ^ name) 0o644)));
        names := name :: !names
      in
      for i = 0 to 19 do
        create ops1 (Printf.sprintf "pre%02d" i)
      done;
      Libfs.unmap_everything p1;
      let p2 = Helpers.mount ~proc:2 env in
      let ops = Libfs.ops p2 in
      create ops "first";
      (* tear the index root: the next create finds it damaged, falls
         back to the page scan and drops the index *)
      let st = ok "stat" (ops.Fs.stat "/m") in
      let dentry_addr = Option.get (Trio_core.Controller.dentry_addr_of ctl st.st_ino) in
      let root = Layout.read_dindex_root env.Helpers.pmem ~actor:Pmem.kernel_actor ~dentry_addr in
      if root = 0 then Alcotest.fail "directory is not indexed";
      Pmem.write env.Helpers.pmem ~actor:Pmem.kernel_actor ~addr:((root * Layout.page_size) + 8)
        ~src:(Bytes.make 8 '\xff');
      create ops "second";
      for i = 0 to 39 do
        create ops (Printf.sprintf "post%02d" i)
      done;
      let model = List.sort compare !names in
      Alcotest.(check (list string)) "entries" model (names_of ops "/m");
      Libfs.unmap_everything p2;
      let _, bad = Trio_core.Controller.audit_all ctl in
      Alcotest.(check int) "certified" 0 bad;
      let ops3 = Libfs.ops (Helpers.mount ~proc:3 env) in
      Alcotest.(check (list string)) "entries, fresh process" model (names_of ops3 "/m");
      let addrs =
        List.map
          (fun name ->
            let st = ok "stat" (ops3.Fs.stat ("/m/" ^ name)) in
            Trio_core.Controller.dentry_addr_of ctl st.st_ino)
          model
      in
      Alcotest.(check int) "distinct dentry addresses" (List.length model)
        (List.length (List.sort_uniq compare addrs)))

(* Two processes of one trust group create and unlink in one directory
   at once, as in Table 3's trust-group run: each keeps its own slot
   list, so neither may take holes from pages the other is filling.  A
   shared slot shows as a stat that reads the other writer's dentry
   (each writer uses its own mode); afterwards the directory must hold
   exactly its prepopulated entries and certify. *)
let test_trust_group_co_writers () =
  Helpers.run_sim (fun env ->
      let a = Helpers.mount ~proc:1 ~group:77 env and b = Helpers.mount ~proc:2 ~group:77 env in
      let aops = Libfs.ops a and bops = Libfs.ops b in
      ok "mkdir" (aops.Fs.mkdir "/g" 0o777);
      (* leave holes in the pages both writers will see *)
      let base i = Printf.sprintf "base%02d" i in
      for i = 0 to 47 do
        ok "close" (aops.Fs.close (ok "create" (aops.Fs.create ("/g/" ^ base i) 0o644)))
      done;
      for i = 0 to 23 do
        ok "unlink" (aops.Fs.unlink ("/g/" ^ base (2 * i)))
      done;
      let expected = List.init 24 (fun i -> base ((2 * i) + 1)) in
      Libfs.unmap_everything a;
      List.iteri
        (fun tid (ops, mode) ->
          Sched.spawn ~cpu:tid env.Helpers.sched (fun () ->
              for round = 0 to 5 do
                let paths = List.init 4 (fun n -> Printf.sprintf "/g/t%d_%d_%d" tid round n) in
                List.iter
                  (fun path -> ok "close" (ops.Fs.close (ok "create" (ops.Fs.create path mode))))
                  paths;
                List.iter
                  (fun path ->
                    let st = ok "stat" (ops.Fs.stat path) in
                    if st.st_mode <> mode then Alcotest.failf "%s: another writer's dentry" path)
                  paths;
                List.iter (fun path -> ok "unlink" (ops.Fs.unlink path)) paths
              done))
        [ (aops, 0o640); (bops, 0o604) ];
      Sched.park (fun waker -> Sched.schedule env.Helpers.sched 1.0e12 waker);
      Alcotest.(check (list string)) "entries" expected (names_of aops "/g");
      Libfs.unmap_everything a;
      Libfs.unmap_everything b;
      let _, bad = Trio_core.Controller.audit_all env.Helpers.ctl in
      Alcotest.(check int) "certified" 0 bad;
      Alcotest.(check int) "corruption events" 0
        (List.length (Trio_core.Controller.corruption_events env.Helpers.ctl));
      let ops3 = Libfs.ops (Helpers.mount ~proc:3 env) in
      Alcotest.(check (list string)) "entries, fresh process" expected (names_of ops3 "/g"))

(* ------------------------------------------------------------------ *)

(* The shared conformance suite (including errno parity and VFS counter
   checks) over a fresh ArckFS per check. *)
let arckfs_conformance =
  ( "conformance",
    Conformance.suite ~make_fs:(fun check ->
        Helpers.run_sim (fun env ->
            let fs = Helpers.mount ~proc:1 env in
            check (Trio_core.Vfs.wrap ~sched:env.Helpers.sched (Libfs.ops fs));
            Libfs.unmap_everything fs;
            Conformance.accounting env.Helpers.ctl)) )

let () =
  Alcotest.run "arckfs"
    [
      arckfs_conformance;
      ( "namespace",
        [
          Alcotest.test_case "create and stat" `Quick test_create_and_stat;
          Alcotest.test_case "duplicate create" `Quick test_create_duplicate_fails;
          Alcotest.test_case "open missing" `Quick test_open_missing_fails;
          Alcotest.test_case "O_CREAT" `Quick test_open_o_creat;
          Alcotest.test_case "invalid paths" `Quick test_invalid_paths;
          Alcotest.test_case "nested mkdir" `Quick test_mkdir_nested;
          Alcotest.test_case "readdir" `Quick test_readdir;
          Alcotest.test_case "unlink" `Quick test_unlink;
          Alcotest.test_case "unlink dir" `Quick test_unlink_dir_fails;
          Alcotest.test_case "rmdir" `Quick test_rmdir;
          Alcotest.test_case "many files (page growth)" `Quick test_many_files_in_dir;
        ] );
      ( "data",
        [
          Alcotest.test_case "roundtrip" `Quick test_write_read_roundtrip;
          Alcotest.test_case "pwrite/pread offsets" `Quick test_pwrite_pread_offsets;
          Alcotest.test_case "read past eof" `Quick test_read_past_eof;
          Alcotest.test_case "multi-page file" `Quick test_multi_page_file;
          Alcotest.test_case "sparse extend" `Quick test_sparse_write_extends;
          Alcotest.test_case "truncate" `Quick test_truncate_shrink;
          Alcotest.test_case "O_TRUNC" `Quick test_o_trunc;
          Alcotest.test_case "bad fd" `Quick test_bad_fd;
        ] );
      ( "rename",
        [
          Alcotest.test_case "same dir" `Quick test_rename_same_dir;
          Alcotest.test_case "cross dir" `Quick test_rename_cross_dir;
          Alcotest.test_case "replaces destination" `Quick test_rename_replaces_destination;
          Alcotest.test_case "directory" `Quick test_rename_directory;
          Alcotest.test_case "missing src" `Quick test_rename_missing_src;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "concurrent creates" `Quick test_concurrent_creates_in_dir;
          Alcotest.test_case "disjoint writes" `Quick test_concurrent_disjoint_writes;
        ] );
      ( "slot reuse",
        [
          Alcotest.test_case "after handoffs" `Quick test_slot_reuse_after_handoff;
          Alcotest.test_case "after ring handoffs" `Quick test_slot_reuse_after_ring_handoff;
          Alcotest.test_case "concurrent churn on a skeleton" `Quick test_slot_reuse_concurrent;
          Alcotest.test_case "materialize lists a slot once" `Quick test_materialize_lists_slot_once;
          Alcotest.test_case "trust-group co-writers" `Quick test_trust_group_co_writers;
        ] );
      ( "delegation",
        [
          Alcotest.test_case "results equivalent" `Quick test_delegation_equivalent_results;
          Alcotest.test_case "mmu fault reaches the submitter" `Quick
            test_delegation_mmu_fault_reaches_submitter;
          Alcotest.test_case "media fault reaches the submitter" `Quick
            test_delegation_media_fault_reaches_submitter;
        ] );
      ( "crash",
        [
          Alcotest.test_case "create durable" `Quick test_crash_after_create_consistent;
          Alcotest.test_case "rename journaled" `Quick test_crash_mid_rename_rolls_back;
          Alcotest.test_case "dir size repaired" `Quick test_crash_size_field_repaired;
        ] );
    ]
