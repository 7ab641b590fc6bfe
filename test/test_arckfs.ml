(* End-to-end tests of the ArckFS LibFS: POSIX-like semantics, data
   paths, concurrency, delegation, crash consistency. *)

module Sched = Trio_sim.Sched
module Pmem = Trio_nvm.Pmem
module Libfs = Arckfs.Libfs
module Fs = Trio_core.Fs_intf
module Layout = Trio_core.Layout
module Radix = Trio_util.Radix
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

(* Minidb's manifest swap: create /d/tmp, append 4 KiB, close, rename it
   over /d/m, 1,000 times; with [unlink_first], /d/m is unlinked before
   each rename.  With [drop], the LibFS forgets each file's cached state
   after the close, as [with_retry] does after a fault, so the pages
   must be found from the dentry.  Every /d/m replaced or unlinked is a
   file this process created and never shared, so its pages must go
   back into the process' allocation cache: after the handoff, the
   process may keep only its journal, the last /d/m, the directory and
   what its allocation cache holds. *)
let rename_over_unshared ~unlink_first ~drop =
  Helpers.run_sim (fun env ->
      let free_pages () =
        List.fold_left
          (fun acc s -> acc + s.Trio_core.Controller.ss_reserve_free)
          0
          (Trio_core.Controller.shard_stats env.Helpers.ctl)
      in
      let start = free_pages () in
      let fs = Helpers.mount ~proc:1 env in
      let ops = Libfs.ops fs in
      ok "mkdir" (ops.Fs.mkdir "/d" 0o755);
      for _ = 1 to 1000 do
        let fd = ok "create" (ops.Fs.create "/d/tmp" 0o644) in
        ignore (ok "append" (ops.Fs.append fd (Bytes.make 4096 'x')) : int);
        ok "close" (ops.Fs.close fd);
        if drop then Libfs.drop_aux fs (ok "stat" (ops.Fs.stat "/d/tmp")).st_ino;
        if unlink_first then
          (match ops.Fs.unlink "/d/m" with Ok () | Error ENOENT -> () | r -> ok "unlink" r);
        ok "rename" (ops.Fs.rename "/d/tmp" "/d/m")
      done;
      Libfs.unmap_everything fs;
      let kept = start - free_pages () - Arckfs.Alloc_cache.cached_pages (Libfs.cache_of fs) in
      if kept > 64 then
        Alcotest.failf "unlink first %b, drop %b: %d pages not handed back" unlink_first drop kept;
      Alcotest.(check string)
        "last file" (String.make 4096 'x')
        (ok "read" (Fs.read_file ops "/d/m")))

let test_rename_over_unshared_frees () =
  List.iter (fun drop -> rename_over_unshared ~unlink_first:false ~drop) [ false; true ]

let test_unlink_unshared_frees () =
  List.iter (fun drop -> rename_over_unshared ~unlink_first:true ~drop) [ false; true ]

(* A file or directory of 64 pages that this process created and never
   shared goes back into its own allocation cache: unlink, rename-over
   and rmdir each take under 10 us of virtual time and program no PTE
   (a synchronous free revokes one PTE per page, 82.8 us for such a
   file), and the next 64-page append draws the recycled pages as one
   contiguous run, lowest page first. *)
let test_unshared_free_recycles () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl and sched = env.Helpers.sched in
      let fs = Helpers.mount ~proc:1 env in
      let ops = Libfs.ops fs in
      let make path =
        let fd = ok "create" (ops.Fs.create path 0o644) in
        ignore (ok "append" (ops.Fs.append fd (Bytes.make (64 * 4096) 'x')) : int);
        ok "close" (ops.Fs.close fd);
        Hashtbl.find fs.Libfs.files (ok "stat" (ops.Fs.stat path)).st_ino
      in
      let data_pages f = Radix.fold f.Libfs.r_index [] (fun acc _ pg -> pg :: acc) in
      let timed what f =
        let pte = Trio_core.Controller.pte_ops ctl and t0 = Sched.now sched in
        ok what (f ());
        let us = (Sched.now sched -. t0) /. 1000.0 in
        if us >= 10.0 then Alcotest.failf "%s took %.1f us" what us;
        Alcotest.(check int) (what ^ ": PTE ops") pte (Trio_core.Controller.pte_ops ctl)
      in
      (* [f]'s 64 pages are one run that starts at the lowest of [freed] *)
      let one_run what f ~freed =
        match ok "runs" (Libfs.collect_runs f ~off:0 ~len:(64 * 4096)) with
        | [ (addr, _, _) ] ->
          Alcotest.(check int)
            (what ^ ": starts at the lowest recycled page")
            (List.fold_left min max_int freed) (addr / 4096)
        | runs -> Alcotest.failf "%s: 64-page append split into %d runs" what (List.length runs)
      in
      let a = data_pages (make "/a") in
      timed "unlink" (fun () -> ops.Fs.unlink "/a");
      let b = make "/b" in
      one_run "after unlink" b ~freed:a;
      ok "close" (ops.Fs.close (ok "create" (ops.Fs.create "/c" 0o644)));
      timed "rename over" (fun () -> ops.Fs.rename "/c" "/b");
      one_run "after rename over" (make "/e") ~freed:(data_pages b);
      ok "mkdir" (ops.Fs.mkdir "/d" 0o755);
      let names = List.init (64 * Layout.dentries_per_page) (Printf.sprintf "/d/f%04d") in
      List.iter (fun p -> ok "close" (ops.Fs.close (ok "create" (ops.Fs.create p 0o644)))) names;
      List.iter (fun p -> ok "unlink" (ops.Fs.unlink p)) names;
      let d = Option.get (Libfs.cached_dir fs (ok "stat" (ops.Fs.stat "/d")).st_ino) in
      if List.length d.Libfs.d_data_pages + List.length d.Libfs.d_index_pages < 64 then
        Alcotest.fail "directory holds fewer than 64 pages";
      timed "rmdir" (fun () -> ops.Fs.rmdir "/d"))

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

(* [writers] processes of one trust group create and unlink in one
   directory at once, as in Table 3's trust-group run, for [rounds]
   rounds of [files] files each: they share one slot list, so no two
   may take one hole, and their index updates must not interleave.  A
   shared slot shows as a stat that reads another writer's dentry (each
   writer uses its own mode); a lost index update shows as a corruption
   event when the directory is handed back.  Afterwards the directory
   must hold exactly its prepopulated entries and certify. *)
let trust_group_co_writers ~writers ~rounds ~files =
  let label what = Printf.sprintf "(%d, %d, %d) %s" writers rounds files what in
  Helpers.run_sim (fun env ->
      let first = Helpers.mount ~proc:1 env in
      let fss =
        first :: List.init (writers - 1) (fun i -> Helpers.mount ~proc:(i + 2) ~group:first env)
      in
      let aops = Libfs.ops (List.hd fss) in
      ok "mkdir" (aops.Fs.mkdir "/g" 0o777);
      (* leave holes in the pages every writer will see *)
      let base i = Printf.sprintf "base%02d" i in
      for i = 0 to 47 do
        ok "close" (aops.Fs.close (ok "create" (aops.Fs.create ("/g/" ^ base i) 0o644)))
      done;
      for i = 0 to 23 do
        ok "unlink" (aops.Fs.unlink ("/g/" ^ base (2 * i)))
      done;
      let expected = List.init 24 (fun i -> base ((2 * i) + 1)) in
      Libfs.unmap_everything (List.hd fss);
      List.iteri
        (fun tid fs ->
          let ops = Libfs.ops fs and mode = List.nth [ 0o640; 0o604; 0o644; 0o600 ] tid in
          Sched.spawn ~cpu:tid env.Helpers.sched (fun () ->
              for round = 0 to rounds - 1 do
                let paths = List.init files (fun n -> Printf.sprintf "/g/t%d_%d_%d" tid round n) in
                List.iter
                  (fun path -> ok "close" (ops.Fs.close (ok "create" (ops.Fs.create path mode))))
                  paths;
                List.iter
                  (fun path ->
                    let st = ok "stat" (ops.Fs.stat path) in
                    if st.st_mode <> mode then
                      Alcotest.failf "%s" (label (path ^ ": another writer's dentry")))
                  paths;
                List.iter (fun path -> ok "unlink" (ops.Fs.unlink path)) paths
              done))
        fss;
      Sched.park (fun waker -> Sched.schedule env.Helpers.sched 1.0e12 waker);
      Alcotest.(check (list string)) (label "entries") expected (names_of aops "/g");
      List.iter Libfs.unmap_everything fss;
      let _, bad = Trio_core.Controller.audit_all env.Helpers.ctl in
      Alcotest.(check int) (label "certified") 0 bad;
      Alcotest.(check int) (label "corruption events") 0
        (List.length (Trio_core.Controller.corruption_events env.Helpers.ctl));
      let ops3 = Libfs.ops (Helpers.mount ~proc:(writers + 1) env) in
      Alcotest.(check (list string)) (label "entries, fresh process") expected (names_of ops3 "/g"))

let test_trust_group_co_writers () =
  List.iter
    (fun (writers, rounds, files) -> trust_group_co_writers ~writers ~rounds ~files)
    [ (2, 6, 4); (2, 12, 4); (2, 6, 8); (2, 20, 3); (3, 6, 4); (3, 10, 6); (4, 6, 4) ]

(* ------------------------------------------------------------------ *)
(* Mappings: write intent, stress-mode handbacks, crossings *)

module Controller = Trio_core.Controller

let ino_of ops path = (ok "stat" (ops.Fs.stat path)).st_ino

(* Under [unmap_after_write], every op that writes hands back what it
   wrote.  After an O_CREAT open, an O_TRUNC open and a truncate, the
   controller must not list the directory or file as write-mapped by
   the process (the three used to keep the write lease until it
   expired). *)
let test_stress_mode_hands_back () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl in
      let fs = Helpers.mount ~proc:1 ~unmap_after_write:true env in
      let ops = Libfs.ops fs in
      ok "mkdir" (ops.Fs.mkdir "/d" 0o755);
      let fd = ok "create" (ops.Fs.create "/d/f" 0o644) in
      ignore (ok "pwrite" (ops.Fs.pwrite fd (Bytes.make 8192 'x') 0));
      ok "close" (ops.Fs.close fd);
      (* let the handoffs land: /d and /d/f are now known to the kernel *)
      Controller.drain_verification ctl;
      let d = ino_of ops "/d" and f = ino_of ops "/d/f" in
      let handed_back what ino =
        Alcotest.(check bool)
          (what ^ " handed back") false
          (List.exists (fun (i, _, _) -> i = ino) (Controller.write_mapped_inos ctl ~proc:1))
      in
      ok "close" (ops.Fs.close (ok "O_CREAT" (ops.Fs.open_ "/d/g" [ O_RDWR; O_CREAT ])));
      handed_back "O_CREAT: parent" d;
      let fd = ok "O_TRUNC" (ops.Fs.open_ "/d/f" [ O_RDWR; O_TRUNC ]) in
      handed_back "O_TRUNC: file" f;
      ignore (ok "pwrite" (ops.Fs.pwrite fd (Bytes.make 8192 'y') 0));
      ok "close" (ops.Fs.close fd);
      Controller.drain_verification ctl;
      ok "truncate" (ops.Fs.truncate "/d/f" 100);
      handed_back "truncate: file" f;
      Alcotest.(check int) "size" 100 (ok "stat" (ops.Fs.stat "/d/f")).st_size)

(* Controller crossings of [proc]'s trust group so far, as the QoS
   plane charges them: (synchronous syscalls, ring slots).  The ring is
   drained first, so fire-and-forget unmaps are counted. *)
let crossings ctl ~proc =
  Option.iter Controller.ring_drain (Controller.ring_of ctl proc);
  match List.find_opt (fun s -> s.Controller.ts_group = proc) (Controller.qos_stats ctl) with
  | Some s -> (s.Controller.ts_syscalls, s.Controller.ts_ring_slots)
  | None -> (0, 0)

(* A process that hands back after every write, and does not hold the
   directory, pays one map (writable from the start) and one unmap for
   create+close, and one map, one free_file_tree and one unmap to
   unlink an ingested file.  A synchronous mount pays each as a
   syscall; a ring mount pays the maps and unmaps as ring slots. *)
let handoff_crossings ?ring () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl in
      let owner = Helpers.mount ~proc:1 env in
      let oops = Libfs.ops owner in
      ok "mkdir" (oops.Fs.mkdir "/d" 0o777);
      List.iter
        (fun n -> ok "close" (oops.Fs.close (ok "create" (oops.Fs.create ("/d/" ^ n) 0o666))))
        [ "a"; "b"; "victim" ];
      Libfs.unmap_everything owner;
      let ops = Libfs.ops (Helpers.mount ~proc:2 ~unmap_after_write:true ?ring env) in
      (* the first create fills the allocation caches (inos, pages) *)
      ok "close" (ops.Fs.close (ok "warm-up" (ops.Fs.create "/d/warm" 0o644)));
      let count what (sys, slots) op =
        let sys0, slots0 = crossings ctl ~proc:2 in
        op ();
        let sys1, slots1 = crossings ctl ~proc:2 in
        let expected = if ring = None then (sys + slots, 0) else (sys, slots) in
        Alcotest.(check (pair int int)) (what ^ ": (syscalls, ring slots)") expected
          (sys1 - sys0, slots1 - slots0)
      in
      count "create+close" (0, 2) (fun () ->
          ok "close" (ops.Fs.close (ok "create" (ops.Fs.create "/d/x" 0o644))));
      count "unlink" (1, 2) (fun () -> ok "unlink" (ops.Fs.unlink "/d/victim"));
      Alcotest.(check (list string)) "entries" [ "a"; "b"; "warm"; "x" ] (names_of ops "/d"))

(* ------------------------------------------------------------------ *)
(* The index-node mirror (DESIGN.md §4.18) *)

(* Index nodes the LibFSes' descents took from their mirrors and from
   the device so far: (mirrored, device). *)
let node_reads ctl =
  let s = Controller.stats ctl in
  ( Trio_sim.Stats.get s "verify.dindex.mirror_nodes",
    Trio_sim.Stats.get s "verify.dindex.device_nodes" )

let mirrored fs ops path =
  match Libfs.cached_dir fs (ino_of ops path) with
  | Some d -> Hashtbl.length d.Libfs.d_nodes
  | None -> Alcotest.failf "%s: no cached state" path

let create_in ops dir name =
  ok "close" (ops.Fs.close (ok ("create " ^ name) (ops.Fs.create (dir ^ "/" ^ name) 0o666)))

let names_n prefix n = List.init n (Printf.sprintf "%s%02d" prefix)

(* The takeover of /d by B, another trust group, after A warmed its
   mirror of /d: with [lease], A never hands /d back and B takes it when
   A's write lease expires; otherwise A hands it back first.  B's
   creates split the leaves A mirrored.  A's next create, lookups and
   unlink must see B's names (a handoff drops the mirror with the
   directory's state; after a lease expiry the create's first store
   faults and starts over), and every handoff must certify. *)
let mirror_after_takeover ~lease =
  Trio_core.Dirindex.with_test_capacity 4 @@ fun () ->
  Helpers.run_sim ~lease_ns:1.0e6 (fun env ->
      let ctl = env.Helpers.ctl in
      let a_fs = Helpers.mount ~proc:1 env in
      let a = Libfs.ops a_fs in
      ok "mkdir" (a.Fs.mkdir "/d" 0o777);
      List.iter (create_in a "/d") (names_n "a" 8);
      (* a directory A built itself answers a miss from its name table;
         after a handoff, A's rebuilt state descends the index *)
      Libfs.unmap_everything a_fs;
      List.iter (create_in a "/d") (names_n "x" 4);
      (* the first miss may read a leaf no create touched; the second
         finds every node of its descent mirrored *)
      err "A: missing name" ENOENT (a.Fs.stat "/d/zz");
      let m0, d0 = node_reads ctl in
      err "A: missing name again" ENOENT (a.Fs.stat "/d/zz");
      let m1, d1 = node_reads ctl in
      Alcotest.(check bool) "A's descent served from its mirror" true (m1 > m0 && d1 = d0);
      Alcotest.(check bool) "A's mirror is warm" true (mirrored a_fs a "/d" > 1);
      if not lease then Libfs.unmap_everything a_fs;
      let b_fs = Helpers.mount ~proc:2 env in
      let b = Libfs.ops b_fs in
      List.iter (create_in b "/d") (names_n "b" 16);
      Libfs.unmap_everything b_fs;
      create_in a "/d" "a_new";
      err "A: B's name" EEXIST (a.Fs.create "/d/b03" 0o666);
      List.iter
        (fun n -> ignore (ok ("A: stat " ^ n) (a.Fs.stat ("/d/" ^ n)) : stat))
        (names_n "b" 16);
      ok "A: unlink B's name" (a.Fs.unlink "/d/b05");
      err "A: unlinked" ENOENT (a.Fs.stat "/d/b05");
      Libfs.unmap_everything a_fs;
      Alcotest.(check int) "corruption events" 0 (List.length (Controller.corruption_events ctl));
      let _, bad = Controller.audit_all ctl in
      Alcotest.(check int) "certified" 0 bad;
      let expected =
        List.sort compare
          (("a_new" :: names_n "a" 8)
          @ names_n "x" 4
          @ List.filter (( <> ) "b05") (names_n "b" 16))
      in
      let fresh = Libfs.ops (Helpers.mount ~proc:3 env) in
      Alcotest.(check (list string)) "entries, fresh process" expected (names_of fresh "/d"))

let test_mirror_after_handoff () = mirror_after_takeover ~lease:false
let test_mirror_after_lease_expiry () = mirror_after_takeover ~lease:true

(* Only a LibFS that holds a directory write-mapped uses a mirror: a
   read-mapped reader reads every node from the device and mirrors
   none.  The two members of a trust group that write the directory
   share its one state, and so one mirror: a descent by either takes
   the nodes the other's updates left there. *)
let test_mirror_reader_and_group () =
  Trio_core.Dirindex.with_test_capacity 4 @@ fun () ->
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl in
      let owner = Helpers.mount ~proc:1 env in
      let oops = Libfs.ops owner in
      ok "mkdir" (oops.Fs.mkdir "/d" 0o777);
      List.iter (create_in oops "/d") (names_n "e" 16);
      Libfs.unmap_everything owner;
      let from_device what fs ops f =
        let m0, d0 = node_reads ctl in
        f ();
        let m1, d1 = node_reads ctl in
        Alcotest.(check bool) (what ^ ": nodes from the device") true (d1 > d0);
        Alcotest.(check (float 0.0)) (what ^ ": nodes from a mirror") 0.0 (m1 -. m0);
        Alcotest.(check int) (what ^ ": mirrored") 0 (mirrored fs ops "/d")
      in
      let r_fs = Helpers.mount ~proc:2 env in
      let r = Libfs.ops r_fs in
      from_device "reader" r_fs r (fun () ->
          List.iter (fun n -> ignore (ok "stat" (r.Fs.stat ("/d/" ^ n)) : stat)) (names_n "e" 8);
          err "missing" ENOENT (r.Fs.stat "/d/zz"));
      let w_fs = Helpers.mount ~proc:3 env in
      let peer_fs = Helpers.mount ~proc:4 ~group:w_fs env in
      let w = Libfs.ops w_fs and peer = Libfs.ops peer_fs in
      List.iter (create_in w "/d") (names_n "c" 8);
      ok "unlink" (w.Fs.unlink "/d/e03");
      create_in peer "/d" "p00";
      err "peer: missing name" ENOENT (peer.Fs.stat "/d/zz");
      let m0, d0 = node_reads ctl in
      err "peer: missing name again" ENOENT (peer.Fs.stat "/d/zz");
      let m1, d1 = node_reads ctl in
      Alcotest.(check bool) "the peer's descent served from the mirror" true (m1 > m0 && d1 = d0);
      Alcotest.(check bool) "one mirror" true
        (mirrored w_fs w "/d" > 1 && mirrored w_fs w "/d" = mirrored peer_fs peer "/d");
      List.iter Libfs.unmap_everything [ w_fs; peer_fs ];
      Alcotest.(check int) "corruption events" 0 (List.length (Controller.corruption_events ctl));
      let fresh = Libfs.ops (Helpers.mount ~proc:5 env) in
      Alcotest.(check int) "entries" 24 (List.length (names_of fresh "/d")))

let test_handoff_crossings_sync () = handoff_crossings ()
let test_handoff_crossings_ring () = handoff_crossings ~ring:4 ()

(* FPFS resolves a create's parent with write intent on a cache miss:
   a create in a directory the process does not hold maps it writable
   in one crossing, not a read map and an upgrade. *)
let test_fpfs_create_crossings () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl in
      let owner = Helpers.mount ~proc:1 env in
      let oops = Libfs.ops owner in
      ok "mkdir" (oops.Fs.mkdir "/d" 0o777);
      ok "mkdir" (oops.Fs.mkdir "/w" 0o777);
      Libfs.unmap_everything owner;
      let ops = Fpfs.ops (Fpfs.mount (Helpers.mount ~proc:2 env)) in
      (* the first create fills the allocation caches (inos, pages) *)
      ok "close" (ops.Fs.close (ok "warm-up" (ops.Fs.create "/w/warm" 0o644)));
      let sys0, _ = crossings ctl ~proc:2 in
      ok "close" (ops.Fs.close (ok "create" (ops.Fs.create "/d/x" 0o644)));
      let sys1, _ = crossings ctl ~proc:2 in
      Alcotest.(check int) "create: syscalls" 1 (sys1 - sys0);
      Alcotest.(check (list string)) "entries" [ "x" ] (names_of ops "/d"))

(* Trust groups A and B share one directory.  A reads it, B's write map
   revokes A's read grant without A noticing, and A then upgrades: the
   upgrade must not write from the size and slots A cached under the
   revoked grant. *)
let test_upgrade_after_revoked_read () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl in
      let owner = Helpers.mount ~proc:1 env in
      let oops = Libfs.ops owner in
      ok "mkdir" (oops.Fs.mkdir "/d" 0o777);
      ok "close" (oops.Fs.close (ok "create" (oops.Fs.create "/d/e" 0o666)));
      Libfs.unmap_everything owner;
      let a_fs = Helpers.mount ~proc:2 env in
      let a = Libfs.ops a_fs in
      let b = Libfs.ops (Helpers.mount ~proc:3 ~unmap_after_write:true env) in
      ignore (ok "A stat" (a.Fs.stat "/d/e"));
      ok "B close" (b.Fs.close (ok "B create" (b.Fs.create "/d/b" 0o644)));
      ok "A close" (a.Fs.close (ok "A create" (a.Fs.create "/d/a" 0o644)));
      Libfs.unmap_everything a_fs;
      Alcotest.(check int) "corruption events" 0 (List.length (Controller.corruption_events ctl));
      let fresh = Libfs.ops (Helpers.mount ~proc:4 env) in
      Alcotest.(check (list string)) "entries" [ "a"; "b"; "e" ] (names_of fresh "/d");
      Alcotest.(check int) "size field" 3 (ok "stat" (fresh.Fs.stat "/d")).st_size)

(* The file counterpart: A caches the file's size under a read grant,
   B's append revokes it, and A's append after the upgrade must land
   after B's, not over it. *)
let test_file_upgrade_after_revoked_read () =
  Helpers.run_sim (fun env ->
      let owner = Helpers.mount ~proc:1 env in
      let oops = Libfs.ops owner in
      ok "write" (Fs.write_file oops "/f" "0123");
      ok "chmod" (oops.Fs.chmod "/f" 0o666);
      Libfs.unmap_everything owner;
      let a = Libfs.ops (Helpers.mount ~proc:2 env) in
      let b = Libfs.ops (Helpers.mount ~proc:3 ~unmap_after_write:true env) in
      let fd = ok "A open" (a.Fs.open_ "/f" [ O_RDWR ]) in
      ignore (ok "A pread" (a.Fs.pread fd (Bytes.create 4) 0));
      let bfd = ok "B open" (b.Fs.open_ "/f" [ O_RDWR ]) in
      ignore (ok "B append" (b.Fs.append bfd (Bytes.of_string "BBBB")));
      ok "B close" (b.Fs.close bfd);
      ignore (ok "A append" (a.Fs.append fd (Bytes.of_string "AAAA")));
      ok "A close" (a.Fs.close fd);
      let fresh = Libfs.ops (Helpers.mount ~proc:4 env) in
      Alcotest.(check string) "contents" "0123BBBBAAAA" (ok "read" (Fs.read_file fresh "/f")))

(* A process with r-x but not w on a directory is refused every
   namespace op that would change it, with the directory as the parent
   or as either end of a rename.  The refused write map leaves no
   cached directory state and no mapping behind, and the process can
   still stat and list the directory. *)
let test_dir_write_permission () =
  Helpers.run_sim (fun env ->
      let owner = Helpers.mount ~proc:1 ~uid:1000 ~gid:1000 env in
      let oops = Libfs.ops owner in
      ok "mkdir ro" (oops.Fs.mkdir "/ro" 0o755);
      ok "mkdir w" (oops.Fs.mkdir "/w" 0o777);
      ok "mkdir sub" (oops.Fs.mkdir "/ro/sub" 0o755);
      ok "close" (oops.Fs.close (ok "create" (oops.Fs.create "/ro/f" 0o666)));
      ok "close" (oops.Fs.close (ok "create" (oops.Fs.create "/w/g" 0o666)));
      Libfs.unmap_everything owner;
      let fs = Helpers.mount ~proc:2 ~uid:2000 ~gid:2000 env in
      let ops = Libfs.ops fs in
      let ro = ino_of ops "/ro" in
      err "create" EACCES (ops.Fs.create "/ro/x" 0o644);
      err "unlink" EACCES (ops.Fs.unlink "/ro/f");
      err "mkdir" EACCES (ops.Fs.mkdir "/ro/y" 0o755);
      err "rmdir" EACCES (ops.Fs.rmdir "/ro/sub");
      err "rename from" EACCES (ops.Fs.rename "/ro/f" "/w/f2");
      err "rename into" EACCES (ops.Fs.rename "/w/g" "/ro/g2");
      Alcotest.(check bool) "no cached state" false (Hashtbl.mem fs.Libfs.dirs ro);
      let page =
        match Controller.dentry_addr_of env.Helpers.ctl ro with
        | None -> Alcotest.fail "/ro unknown to the controller"
        | Some dentry_addr -> (
          match Controller.walk_file env.Helpers.ctl ~ino:ro ~dentry_addr with
          | Some (_, _, pg :: _, _) -> pg
          | _ -> Alcotest.fail "/ro has no dentry page")
      in
      Alcotest.(check bool)
        "no mapping" true
        (match Pmem.read env.Helpers.pmem ~actor:2 ~addr:(page * Layout.page_size) ~len:8 with
        | exception Pmem.Mmu_fault _ -> true
        | _ -> false);
      Alcotest.(check int) "stat" 0o666 (ok "stat" (ops.Fs.stat "/ro/f")).st_mode;
      Alcotest.(check (list string)) "readdir" [ "f"; "sub" ] (names_of ops "/ro");
      Alcotest.(check (list string)) "untouched" [ "g" ] (names_of ops "/w"))

(* ------------------------------------------------------------------ *)
(* Handback: a LibFS keeps the state it hands back (DESIGN.md §4.5) *)

module Dirindex = Trio_core.Dirindex

(* Bytes the LibFSes have read from the device so far: every node's
   reads less the kernel's. *)
let libfs_reads env =
  let pm = env.Helpers.pmem in
  let nodes = Trio_nvm.Numa.nodes (Pmem.topo pm) in
  let total =
    List.fold_left
      (fun acc node ->
        let _, read, _ = Pmem.node_stats pm node in
        acc +. read)
      0.0 (List.init nodes Fun.id)
  in
  int_of_float total - snd (Pmem.kernel_read_stats pm)

let quiesce env ~proc =
  Option.iter Controller.ring_drain (Controller.ring_of env.Helpers.ctl proc);
  Controller.drain_verification env.Helpers.ctl

(* The state [fs] caches for [ino] must agree with a fresh
   [build_dir_aux] + [materialize] of the device, made by the checker
   process [chk] under a read map of its own: the same size, chain,
   index root and (for a complete table) names, every cached name and
   free slot present on the device, and every mirrored node equal to
   the device's. *)
let agrees_with_device env ~chk (d : Libfs.dir_state) =
  let ctl = env.Helpers.ctl and pm = env.Helpers.pmem in
  let ino = d.Libfs.d_ino in
  ignore (ok "checker map" (Controller.map_file ctl ~proc:(Libfs.proc_of chk) ~ino ~write:false));
  let fresh = Libfs.build_dir_aux chk ~ino ~addr:d.Libfs.d_addr in
  Libfs.materialize chk fresh;
  ok "checker unmap" (Controller.unmap_file ctl ~proc:(Libfs.proc_of chk) ~ino);
  let check what eq = if not eq then Alcotest.failf "handed-back state of %d: %s" ino what in
  check "size" (d.Libfs.d_size = fresh.Libfs.d_size);
  check "data pages" (d.Libfs.d_data_pages = fresh.Libfs.d_data_pages);
  check "index pages" (d.Libfs.d_index_pages = fresh.Libfs.d_index_pages);
  check "index tail"
    (d.Libfs.d_index_tail = fresh.Libfs.d_index_tail
    && d.Libfs.d_index_used = fresh.Libfs.d_index_used);
  check "index root" (d.Libfs.d_dindex_root = fresh.Libfs.d_dindex_root);
  let names (d : Libfs.dir_state) =
    Trio_util.Htbl.fold d.Libfs.d_names [] (fun acc n r ->
        (n, (r.Libfs.e_ino, r.Libfs.e_addr, r.Libfs.e_ftype)) :: acc)
    |> List.sort compare
  in
  let cached = names d and device = names fresh in
  check "names" (List.for_all (fun e -> List.mem e device) cached);
  if d.Libfs.d_aux_built then check "complete names" (cached = device);
  let slots = List.sort compare d.Libfs.d_free_slots in
  check "free slots listed once" (List.sort_uniq compare slots = slots);
  check "free slots free" (List.for_all (fun s -> List.mem s fresh.Libfs.d_free_slots) slots);
  check "unscanned pages" (List.for_all (fun pg -> List.mem pg d.Libfs.d_data_pages) d.Libfs.d_unscanned);
  if d.Libfs.d_aux_built then
    check "every free slot listed" (slots = List.sort compare fresh.Libfs.d_free_slots);
  Hashtbl.iter
    (fun page node ->
      match Dirindex.read_node pm ~actor:Pmem.kernel_actor page with
      | Ok dev -> check "mirrored node" (dev = node)
      | Error e -> Alcotest.failf "mirrored node %d: %s" page e)
    d.Libfs.d_nodes

type disturbance =
  | Nothing
  | Other_group  (** another trust group creates or unlinks *)
  | Co_writer  (** a member of P's group creates *)
  | Takeover  (** another group holds the directory until its lease expires *)
  | Chmod  (** the kernel rewrites a child's mode bits *)
  | Rejected_child  (** a fresh child whose index chain cycles *)
  | Rollback  (** a size lie the verifier rolls back *)
  | Poison  (** a poisoned line of a dentry page, scrubbed *)

let disturbance_name = function
  | Nothing -> "-"
  | Other_group -> "other-group"
  | Co_writer -> "co-writer"
  | Takeover -> "takeover"
  | Chmod -> "chmod"
  | Rejected_child -> "rejected-child"
  | Rollback -> "rollback"
  | Poison -> "poison"

type p_op = Create of int | Unlink of int | Rename of int * int | Mkdir of int | Rmdir of int | Pwrite of int

let p_op_name = function
  | Create i -> Printf.sprintf "create %d" i
  | Unlink i -> Printf.sprintf "unlink %d" i
  | Rename (i, j) -> Printf.sprintf "rename %d %d" i j
  | Mkdir i -> Printf.sprintf "mkdir %d" i
  | Rmdir i -> Printf.sprintf "rmdir %d" i
  | Pwrite i -> Printf.sprintf "pwrite %d" i

(* Process P, alone in its trust group unless a co-writer runs, works in
   /d with [unmap_after_write] (synchronously or over a 4-deep ring).
   Between its ops come writers of another group, a same-group
   co-writer, a lease-expiry takeover, a chmod of a child, a fresh child
   the verifier rejects, a rollback and a poisoned line.  After each of
   P's ops that re-held /d and succeeded, the state P keeps must agree
   with the device; no handoff of P's may be flagged, and only the two
   attacks may log a corruption event. *)
let handback_run (ring, co_writer, steps) =
  Dirindex.with_test_capacity 4 @@ fun () ->
  Helpers.run_sim ~lease_ns:1.0e6 (fun env ->
      let ctl = env.Helpers.ctl and pm = env.Helpers.pmem in
      let owner_fs = Helpers.mount ~proc:5 env in
      let owner = Libfs.ops owner_fs in
      ok "mkdir" (owner.Fs.mkdir "/d" 0o777);
      List.iter (create_in owner "/d") (names_n "pre" 12);
      Libfs.unmap_everything owner_fs;
      let p_fs =
        Helpers.mount ~proc:1 ~unmap_after_write:true ?ring:(if ring then Some 4 else None) env
      in
      let p = Libfs.ops p_fs in
      let co =
        if co_writer then
          Some (Libfs.ops (Helpers.mount ~proc:2 ~group:p_fs ~unmap_after_write:true env))
        else None
      in
      let other = Libfs.ops (Helpers.mount ~proc:3 ~unmap_after_write:true env) in
      let holder_fs = Helpers.mount ~proc:4 env in
      let holder = Libfs.ops holder_fs in
      let attacker_fs = Helpers.mount ~proc:6 env in
      let attacker = Libfs.ops attacker_fs in
      let chk = Helpers.mount ~proc:9 env in
      let d_ino = ino_of owner "/d" in
      let path i = Printf.sprintf "/d/n%d" i in
      let fresh = ref 0 in
      let fresh_name prefix =
        incr fresh;
        Printf.sprintf "/d/%s%d" prefix !fresh
      in
      let unlinked = ref (-1) in
      let ignore_result r = ignore (r : (unit, errno) result) in
      let create_fresh ops prefix =
        match ops.Fs.create (fresh_name prefix) 0o666 with
        | Ok fd -> ignore_result (ops.Fs.close fd)
        | Error _ -> ()
      in
      (* P holds /d after a failed op (it hands back only what it
         wrote), and its next op does not re-hold it *)
      let handed_back () =
        match Hashtbl.find_opt p_fs.Libfs.dirs d_ino with
        | Some d -> not (Libfs.dir_serves p_fs d ~write:false)
        | None -> true
      in
      let run_p = function
        | Create i -> (
          match p.Fs.create (path i) 0o666 with
          | Ok fd ->
            ok "close" (p.Fs.close fd);
            true
          | Error _ -> false)
        | Unlink i -> Result.is_ok (p.Fs.unlink (path i))
        | Rename (i, j) -> Result.is_ok (p.Fs.rename (path i) (path j))
        | Mkdir i -> Result.is_ok (p.Fs.mkdir (path i) 0o777)
        | Rmdir i -> Result.is_ok (p.Fs.rmdir (path i))
        | Pwrite i -> (
          match p.Fs.open_ (path i) [ O_RDWR ] with
          | Ok fd ->
            let wrote = Result.is_ok (p.Fs.pwrite fd (Bytes.make 5000 'p') 100) in
            ok "close" (p.Fs.close fd);
            wrote
          | Error _ -> false)
      in
      let disturb = function
        | Nothing -> ()
        | Other_group ->
          (* unlink the next pre-existing name, or create once they
             are gone *)
          incr unlinked;
          if Result.is_error (other.Fs.unlink (Printf.sprintf "/d/pre%02d" !unlinked)) then
            create_fresh other "o"
        | Co_writer -> Option.iter (fun c -> create_fresh c "c") co
        | Takeover ->
          (* held write-mapped until the lease expires: P's next map
             forces it off *)
          create_fresh holder "h"
        | Chmod -> (
          match List.find_opt (fun n -> n <> "") (names_of owner "/d") with
          | Some n -> ignore_result (owner.Fs.chmod ("/d/" ^ n) 0o640)
          | None -> ())
        | Rejected_child -> (
          let name = fresh_name "evil" in
          let fd = ok "evil" (attacker.Fs.create name 0o666) in
          ignore (ok "evil data" (attacker.Fs.pwrite fd (Bytes.make 8192 'e') 0) : int);
          ok "close" (attacker.Fs.close fd);
          let d = Option.get (Libfs.cached_dir attacker_fs d_ino) in
          match Libfs.lookup attacker_fs d (Filename.basename name) with
          | Some r -> (
            match Layout.read_dentry pm ~actor:Pmem.kernel_actor ~addr:r.Libfs.e_addr with
            | Some (Ok (inode, _)) ->
              let head = inode.Layout.index_head in
              Pmem.write_u64 pm ~actor:6
                ~addr:((head * Layout.page_size) + Layout.index_next_off)
                head;
              Libfs.unmap_everything attacker_fs
            | _ -> Alcotest.fail "evil dentry unreadable")
          | None -> Alcotest.fail "evil child lost")
        | Rollback ->
          create_fresh attacker "a";
          let d = Option.get (Libfs.cached_dir attacker_fs d_ino) in
          Pmem.write_u64 pm ~actor:6 ~addr:(d.Libfs.d_addr + Layout.off_size) 4242;
          Libfs.unmap_everything attacker_fs
        | Poison -> (
          (* the scrubber defers a page whose file is write-mapped;
             poison only what it repairs at once *)
          match Controller.dentry_addr_of ctl d_ino with
          | Some _ when Controller.writer_of ctl d_ino <> None -> ()
          | None -> ()
          | Some dentry_addr -> (
            match Controller.walk_file ctl ~ino:d_ino ~dentry_addr with
            | Some (_, _, page :: _, _) ->
              Pmem.poison_line pm ~page ~line:5;
              ignore (Trio_core.Scrub.patrol_once ctl : Trio_core.Scrub.stats)
            | _ -> ()))
      in
      let events () = Controller.corruption_events ctl in
      List.iter
        (fun (op, x) ->
          let before = List.length (events ()) in
          let reheld = handed_back () in
          let done_ = run_p op in
          quiesce env ~proc:1;
          (match List.find_opt (fun (proc, _, _) -> proc = 1) (events ()) with
          | Some (_, ino, vs) ->
            Alcotest.failf "P's handoff of %d after %s was flagged: %s" ino (p_op_name op)
              (String.concat "; " (List.map (Fmt.str "%a" Trio_core.Verifier.pp_violation) vs))
          | None -> ());
          (if done_ && reheld then
             match Hashtbl.find_opt p_fs.Libfs.dirs d_ino with
             | Some d -> agrees_with_device env ~chk d
             | None -> ());
          disturb x;
          quiesce env ~proc:1;
          let logged = List.length (events ()) - before in
          let attack = x = Rejected_child || x = Rollback in
          if logged > (if attack then 1 else 0) then
            Alcotest.failf "%d corruption event(s) after %s / %s" logged (p_op_name op)
              (disturbance_name x))
        steps;
      true)

(* [handback_run] over random op and disturbance sequences. *)
let prop_handback_matches_device =
  let p_op =
    QCheck.Gen.(
      frequency
        [
          (5, map (fun i -> Create i) (int_bound 7));
          (3, map (fun i -> Unlink i) (int_bound 7));
          (2, map2 (fun i j -> Rename (i, j)) (int_bound 7) (int_bound 7));
          (1, map (fun i -> Mkdir i) (int_bound 7));
          (1, map (fun i -> Rmdir i) (int_bound 7));
          (2, map (fun i -> Pwrite i) (int_bound 7));
        ])
  in
  let disturbance co_writer =
    QCheck.Gen.(
      frequency
        ([
           (4, return Nothing);
           (4, return Other_group);
           (1, return Takeover);
           (1, return Chmod);
           (1, return Rejected_child);
           (1, return Rollback);
           (1, return Poison);
         ]
        @ if co_writer then [ (3, return Co_writer) ] else []))
  in
  let gen =
    QCheck.Gen.(
      bool >>= fun ring ->
      bool >>= fun co_writer ->
      list_size (int_range 4 14) (pair p_op (disturbance co_writer)) >|= fun steps ->
      (ring, co_writer, steps))
  in
  let print (ring, co_writer, steps) =
    Printf.sprintf "%s%s: %s"
      (if ring then "ring" else "sync")
      (if co_writer then " +co-writer" else "")
      (String.concat "; "
         (List.map (fun (op, x) -> p_op_name op ^ " / " ^ disturbance_name x) steps))
  in
  QCheck.Test.make ~name:"a kept state matches the device" ~count:20 (QCheck.make ~print gen)
    handback_run

(* A steady-state create in a 64-entry directory, handed back after
   every write, reads only its own 256-byte dentry on the LibFS side:
   no chain page, no dentry page, no index node. *)
let test_handback_create_reads () =
  Helpers.run_sim (fun env ->
      let owner_fs = Helpers.mount ~proc:1 env in
      let owner = Libfs.ops owner_fs in
      ok "mkdir" (owner.Fs.mkdir "/d" 0o777);
      List.iter (create_in owner "/d") (names_n "e" 64);
      Libfs.unmap_everything owner_fs;
      let ops = Libfs.ops (Helpers.mount ~proc:2 ~unmap_after_write:true env) in
      (* the first creates fill the allocation caches and the mirror *)
      List.iter (create_in ops "/d") (names_n "w" 4);
      let r0 = libfs_reads env in
      create_in ops "/d" "x";
      let read = libfs_reads env - r0 in
      if read > 512 then Alcotest.failf "a handed-back create read %d B" read)

(* Over the ring, an unmap and the re-map that chases it fuse: the
   mapping never went away, and the LibFS rebuilds nothing. *)
let test_handback_fused_rebuilds_nothing () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl in
      let owner_fs = Helpers.mount ~proc:1 env in
      let owner = Libfs.ops owner_fs in
      ok "mkdir" (owner.Fs.mkdir "/d" 0o777);
      List.iter (create_in owner "/d") (names_n "e" 16);
      Libfs.unmap_everything owner_fs;
      let fs = Helpers.mount ~proc:2 ~unmap_after_write:true ~ring:4 env in
      let ops = Libfs.ops fs in
      create_in ops "/d" "warm";
      let fused () =
        List.fold_left
          (fun acc s -> if s.Controller.rg_proc = 2 then acc + s.Controller.rg_fused else acc)
          0 (Controller.ring_stats ctl)
      in
      let rebuild () = Trio_sim.Stats.get (Libfs.stats_of fs) "rebuild" in
      let f0 = fused () and b0 = rebuild () in
      List.iter (create_in ops "/d") (names_n "x" 8);
      Alcotest.(check bool) "re-maps fused" true (fused () > f0);
      Alcotest.(check (float 0.0)) "rebuild time" 0.0 (rebuild () -. b0))

(* A handed-back directory stays cached but is not served: [cached_dir]
   (FPFS's path table, KVFS) answers [None] until a re-hold. *)
let test_handback_not_served () =
  Helpers.run_sim (fun env ->
      let fs = Helpers.mount ~proc:1 ~unmap_after_write:true env in
      let ops = Libfs.ops fs in
      ok "mkdir" (ops.Fs.mkdir "/d" 0o777);
      create_in ops "/d" "a";
      Controller.drain_verification env.Helpers.ctl;
      let d = ino_of ops "/d" in
      create_in ops "/d" "b";
      Alcotest.(check bool) "state kept" true (Hashtbl.mem fs.Libfs.dirs d);
      Alcotest.(check bool) "not served" true (Libfs.cached_dir fs d = None);
      ignore (ok "stat" (ops.Fs.stat "/d/b") : stat);
      Alcotest.(check bool) "served after a re-hold" true (Libfs.cached_dir fs d <> None))

(* Removing an ino drops the state this LibFS kept for it: rmdir of a
   directory and unlink of a file it had handed back. *)
let test_handback_removal_drops () =
  Helpers.run_sim (fun env ->
      let owner_fs = Helpers.mount ~proc:1 env in
      let owner = Libfs.ops owner_fs in
      ok "mkdir" (owner.Fs.mkdir "/d" 0o777);
      ok "mkdir" (owner.Fs.mkdir "/d/sub" 0o777);
      ok "write" (Fs.write_file owner "/d/f" "0123");
      ok "chmod" (owner.Fs.chmod "/d/f" 0o666);
      Libfs.unmap_everything owner_fs;
      let fs = Helpers.mount ~proc:2 ~unmap_after_write:true env in
      let ops = Libfs.ops fs in
      let sub = ino_of ops "/d/sub" and f = ino_of ops "/d/f" in
      create_in ops "/d/sub" "x";
      ok "unlink" (ops.Fs.unlink "/d/sub/x");
      Alcotest.(check bool) "directory kept" true (Hashtbl.mem fs.Libfs.dirs sub);
      ok "rmdir" (ops.Fs.rmdir "/d/sub");
      Alcotest.(check bool) "directory dropped" false (Hashtbl.mem fs.Libfs.dirs sub);
      let fd = ok "open" (ops.Fs.open_ "/d/f" [ O_RDWR ]) in
      ignore (ok "pwrite" (ops.Fs.pwrite fd (Bytes.of_string "ab") 0) : int);
      ok "close" (ops.Fs.close fd);
      Alcotest.(check bool) "file kept" true (Hashtbl.mem fs.Libfs.files f);
      ok "unlink" (ops.Fs.unlink "/d/f");
      Alcotest.(check bool) "file dropped" false (Hashtbl.mem fs.Libfs.files f))

(* A read->write upgrade that no writer came before keeps the state
   built under the read grant: a pwrite into a 600-page file (two index
   pages) reads no index page. *)
let test_upgrade_reads_no_index () =
  Helpers.run_sim (fun env ->
      let owner_fs = Helpers.mount ~proc:1 env in
      let owner = Libfs.ops owner_fs in
      ok "write" (Fs.write_file owner "/f" (String.make (600 * Layout.page_size) 'o'));
      ok "chmod" (owner.Fs.chmod "/f" 0o666);
      Libfs.unmap_everything owner_fs;
      let ops = Libfs.ops (Helpers.mount ~proc:2 env) in
      let fd = ok "open" (ops.Fs.open_ "/f" [ O_RDWR ]) in
      ignore (ok "pread" (ops.Fs.pread fd (Bytes.create 16) 0) : int);
      let r0 = libfs_reads env in
      ignore (ok "pwrite" (ops.Fs.pwrite fd (Bytes.make 16 'a') 0) : int);
      let read = libfs_reads env - r0 in
      if read >= Layout.page_size then Alcotest.failf "the upgrade read %d B" read;
      ok "close" (ops.Fs.close fd);
      Alcotest.(check string) "contents" ("aaaaaaaaaaaaaaaa" ^ String.make ((600 * Layout.page_size) - 16) 'o')
        (ok "read" (Fs.read_file ops "/f")))

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

(* ------------------------------------------------------------------ *)
(* On-demand directory write maps (DESIGN.md §4.5) *)

module Mmu = Trio_core.Mmu
module Ctl_state = Trio_core.Ctl_state

let file_of ctl ino =
  match Controller.file_info ctl ino with
  | Some f -> f
  | None -> Alcotest.failf "ino %d unknown to the controller" ino

(* The pages a write map of [ino] grants eagerly: the dentry's page and
   every page the controller attributes to it. *)
let dir_pages ctl ino = Ctl_state.file_pages (file_of ctl ino)

(* (PTE ops, faults) so far. *)
let pte_counts env = (Controller.pte_ops env.Helpers.ctl, Mmu.faults env.Helpers.mmu)

(* No PTE of [proc] is left on [ino]'s pages: none at all on its own
   pages, and no write access to its dentry's page (the parent's, which
   a read map of the parent covers). *)
let check_no_ptes env ~proc ino =
  let f = file_of env.Helpers.ctl ino in
  let dentry_page = f.Ctl_state.f_dentry_addr / Layout.page_size in
  List.iter
    (fun pg ->
      let held =
        if pg = dentry_page then Mmu.permits env.Helpers.mmu ~actor:proc ~page:pg ~write:true
        else Mmu.permits env.Helpers.mmu ~actor:proc ~page:pg ~write:false
      in
      if held then Alcotest.failf "process %d still holds a PTE on page %d" proc pg)
    (Ctl_state.file_pages f)

(* /d with [n] entries made by process 1, handed back. *)
let shared_dir env n =
  let owner = Helpers.mount ~proc:1 env in
  let oops = Libfs.ops owner in
  ok "mkdir" (oops.Fs.mkdir "/d" 0o777);
  List.iter (create_in oops "/d") (names_n "pre" n);
  Libfs.unmap_everything owner;
  ino_of oops "/d"

(* A steady-state create handoff in a 64-entry directory stores to 3 of
   its pages (its dentry's, one slot page, one index leaf): 3 faults
   and 3 revokes, where an eager map and unmap edit 2 PTEs per page of
   the directory.  After the handback the process holds no PTE on the
   directory, and a fresh process sees every name. *)
let test_demand_create_ptes () =
  Helpers.run_sim (fun env ->
      let d = shared_dir env 64 in
      let ops = Libfs.ops (Helpers.mount ~proc:2 ~unmap_after_write:true env) in
      (* the first create maps eagerly (no view yet) and fills the
         allocation caches; the second is the first on demand *)
      List.iter (create_in ops "/d") [ "w0"; "w1" ];
      let eager = List.length (dir_pages env.Helpers.ctl d) in
      Alcotest.(check bool) "a 64-entry directory spans more than 3 pages" true (eager > 3);
      let pte0, faults0 = pte_counts env in
      create_in ops "/d" "x";
      Controller.drain_verification env.Helpers.ctl;
      let pte1, faults1 = pte_counts env in
      Alcotest.(check int) "faults" 3 (faults1 - faults0);
      Alcotest.(check int) "PTE ops: 3 faults + 3 revokes" 6 (pte1 - pte0);
      check_no_ptes env ~proc:2 d;
      ok "unlink" (ops.Fs.unlink "/d/x");
      Controller.drain_verification env.Helpers.ctl;
      check_no_ptes env ~proc:2 d;
      Alcotest.(check int) "corruption events" 0
        (List.length (Controller.corruption_events env.Helpers.ctl));
      let fresh = Libfs.ops (Helpers.mount ~proc:3 env) in
      Alcotest.(check (list string)) "entries" (List.sort compare ("w0" :: "w1" :: names_n "pre" 64))
        (names_of fresh "/d"))

(* Map [ino] for [proc] through the controller and return the PTE ops
   and faults the map itself made. *)
let map_counts env ~proc ~ino ~write =
  let pte0, faults0 = pte_counts env in
  ignore (ok "map" (Controller.map_file env.Helpers.ctl ~proc ~ino ~write) : bool);
  let pte1, faults1 = pte_counts env in
  (pte1 - pte0, faults1 - faults0)

(* Unmap [ino] for [proc] and let its verification land. *)
let hand_back env ~proc ~ino =
  ok "unmap" (Controller.unmap_file env.Helpers.ctl ~proc ~ino);
  Controller.drain_verification env.Helpers.ctl

(* Only a current directory view, not upgrading, maps on demand, a
   process with a live trust-group peer's included; a file write map,
   an upgrade and a view not yet current grant one PTE per page, as
   before. *)
let test_demand_only_where_it_pays () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl in
      let d = shared_dir env 20 in
      let owner_fs = Helpers.mount ~proc:9 env in
      let owner = Libfs.ops owner_fs in
      ok "write" (Fs.write_file owner "/file" (String.make 20000 'f'));
      let file = ino_of owner "/file" in
      Libfs.unmap_everything owner_fs;
      let eager what ~proc ~ino ~write =
        let n = List.length (dir_pages ctl ino) in
        Alcotest.(check (pair int int)) (what ^ ": (PTE ops, faults)") (n, 0)
          (map_counts env ~proc ~ino ~write)
      in
      Controller.register_process ctl ~proc:2 ~cred:{ uid = 1000; gid = 1000 } ();
      eager "a view not yet current" ~proc:2 ~ino:d ~write:true;
      hand_back env ~proc:2 ~ino:d;
      Alcotest.(check (pair int int)) "a current view: (PTE ops, faults)" (0, 0)
        (map_counts env ~proc:2 ~ino:d ~write:true);
      hand_back env ~proc:2 ~ino:d;
      eager "a file write map" ~proc:2 ~ino:file ~write:true;
      hand_back env ~proc:2 ~ino:file;
      eager "a file write map, current" ~proc:2 ~ino:file ~write:true;
      hand_back env ~proc:2 ~ino:file;
      eager "a read map" ~proc:2 ~ino:d ~write:false;
      eager "an upgrade" ~proc:2 ~ino:d ~write:true;
      hand_back env ~proc:2 ~ino:d;
      Controller.register_process ctl ~proc:3 ~cred:{ uid = 1000; gid = 1000 } ~group:2 ();
      Alcotest.(check (pair int int)) "a process with a live group peer: (PTE ops, faults)" (0, 0)
        (map_counts env ~proc:2 ~ino:d ~write:true);
      hand_back env ~proc:2 ~ino:d;
      check_no_ptes env ~proc:2 d)

(* Process 2 holds /d, a 40-entry directory, write-mapped on demand;
   returns /d's ino. *)
let demand_mapped env =
  let ctl = env.Helpers.ctl in
  let d = shared_dir env 40 in
  Controller.register_process ctl ~proc:2 ~cred:{ uid = 1000; gid = 1000 } ();
  ignore (ok "map" (Controller.map_file ctl ~proc:2 ~ino:d ~write:true) : bool);
  hand_back env ~proc:2 ~ino:d;
  Alcotest.(check (pair int int)) "on demand" (0, 0) (map_counts env ~proc:2 ~ino:d ~write:true);
  d

let touch env ~proc pg =
  match Pmem.read env.Helpers.pmem ~actor:proc ~addr:(pg * Layout.page_size) ~len:8 with
  | (_ : Bytes.t) -> true
  | exception Pmem.Mmu_fault _ -> false

(* A page that leaves the directory while the mapping stands is no
   longer faultable, whoever it goes to next; a page still in it is. *)
let test_demand_freed_page_not_faultable () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl in
      let d = demand_mapped env in
      let f = file_of ctl d in
      (match (f.Ctl_state.f_data_pages, f.Ctl_state.f_index_pages) with
      | slot :: _, chain :: _ ->
        Alcotest.(check bool) "a page of the directory faults in" true (touch env ~proc:2 slot);
        ok "free the chain page" (Controller.free_pages ctl ~proc:2 ~pages:[ chain ]);
        Alcotest.(check bool) "a freed page does not" false (touch env ~proc:2 chain);
        Controller.register_process ctl ~proc:3 ~cred:{ uid = 1000; gid = 1000 } ();
        let node = Controller.node_of_page ctl chain in
        let pages =
          ok "alloc" (Controller.alloc_pages ctl ~proc:3 ~node ~count:1 ~kind:Pmem.Meta)
        in
        Alcotest.(check (list int)) "another process owns it" [ chain ] pages;
        Alcotest.(check bool) "nor once another process owns it" false (touch env ~proc:2 chain)
      | _ -> Alcotest.fail "a 40-entry directory has a chain page and slot pages"))

(* A lease-expiry force-unmap that lands during a fault's delay refuses
   the fault: the access faults, and the page stays unmapped. *)
let test_demand_fault_refused_after_takeover () =
  Helpers.run_sim ~lease_ns:1.0e6 (fun env ->
      let ctl = env.Helpers.ctl and sched = env.Helpers.sched in
      let d = demand_mapped env in
      let slot = List.hd (file_of ctl d).Ctl_state.f_data_pages in
      let expire = (file_of ctl d).Ctl_state.f_lease_expire in
      Controller.register_process ctl ~proc:3 ~cred:{ uid = 1000; gid = 1000 } ();
      let took = ref false in
      Sched.spawn sched (fun () ->
          ignore (ok "takeover" (Controller.map_file ctl ~proc:3 ~ino:d ~write:true) : bool);
          took := true);
      (* the fault starts just before the lease expires *)
      Sched.delay (expire -. Sched.now sched -. 100.0);
      Alcotest.(check bool) "the fault is refused" false (touch env ~proc:2 slot);
      Sched.delay 1.0e6;
      Alcotest.(check bool) "the waiter took the directory" true !took;
      check_no_ptes env ~proc:2 d)

(* Crash recovery and process teardown take the PTEs an on-demand
   mapping faulted in, like an unmap. *)
let test_demand_recovery_and_teardown () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl in
      let d = demand_mapped env in
      let touch_all proc =
        List.iter
          (fun pg -> Alcotest.(check bool) "faults in" true (touch env ~proc pg))
          (file_of ctl d).Ctl_state.f_data_pages
      in
      touch_all 2;
      Controller.crash_recover ctl;
      check_no_ptes env ~proc:2 d;
      (* recovery leaves no view to vouch for: one eager map first *)
      ignore (ok "map" (Controller.map_file ctl ~proc:2 ~ino:d ~write:true) : bool);
      hand_back env ~proc:2 ~ino:d;
      Alcotest.(check (pair int int)) "on demand again" (0, 0)
        (map_counts env ~proc:2 ~ino:d ~write:true);
      touch_all 2;
      Controller.abnormal_teardown ctl ~proc:2;
      check_no_ptes env ~proc:2 d)

(* Crash recovery of a directory mapped on demand takes the grants of
   the dentry page its creates added too, as an eager revoke would. *)
let test_demand_recovery_takes_new_pages () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl in
      let d = shared_dir env 40 in
      let fs = Helpers.mount ~proc:2 env in
      let ops = Libfs.ops fs in
      create_in ops "/d" "x00";
      Libfs.unmap_everything fs;
      let pages0 = List.length (file_of ctl d).Ctl_state.f_data_pages in
      let _, faults0 = pte_counts env in
      List.iter (create_in ops "/d") (names_n "y" 16);
      Alcotest.(check bool) "mapped on demand" true (snd (pte_counts env) > faults0);
      Controller.crash_recover ctl;
      Alcotest.(check bool) "a dentry page was added" true
        (List.length (file_of ctl d).Ctl_state.f_data_pages > pages0);
      check_no_ptes env ~proc:2 d;
      let fresh = Libfs.ops (Helpers.mount ~proc:3 env) in
      Alcotest.(check int) "entries" 57 (List.length (names_of fresh "/d")))

(* Three waiters parked on one expiring lease: the holder is revoked
   once, its verification is queued once, and one waiter writes. *)
let test_takeover_revokes_once () =
  Helpers.run_sim ~lease_ns:1.0e6 (fun env ->
      let ctl = env.Helpers.ctl and sched = env.Helpers.sched in
      let d = shared_dir env 40 in
      let stats = Controller.stats ctl in
      Controller.register_process ctl ~proc:2 ~cred:{ uid = 1000; gid = 1000 } ();
      ignore (ok "holder" (Controller.map_file ctl ~proc:2 ~ino:d ~write:true) : bool);
      let expire = (file_of ctl d).Ctl_state.f_lease_expire in
      let pages = List.length (dir_pages ctl d) in
      let unmap0 = Trio_sim.Stats.get stats "unmap" in
      let queued0 = Trio_sim.Stats.get stats "verify.queue.enqueued" in
      let writers = ref [] in
      List.iter
        (fun proc ->
          Controller.register_process ctl ~proc ~cred:{ uid = 1000; gid = 1000 } ();
          Sched.spawn sched (fun () ->
              ignore (ok "waiter" (Controller.map_file ctl ~proc ~ino:d ~write:true) : bool);
              writers := proc :: !writers))
        [ 3; 4; 5 ];
      Sched.delay (expire -. Sched.now sched +. 200.0e3);
      Alcotest.(check (float 0.0)) "one revoke of the holder"
        (Trio_nvm.Perf.Cpu.page_table_op *. float_of_int pages)
        (Trio_sim.Stats.get stats "unmap" -. unmap0);
      Alcotest.(check (float 0.0)) "one queued verification" 1.0
        (Trio_sim.Stats.get stats "verify.queue.enqueued" -. queued0);
      (match !writers with
      | [ w ] ->
        Alcotest.(check (list int)) "the writer holds the claim" [ w ]
          (file_of ctl d).Ctl_state.f_writers
      | ws -> Alcotest.failf "%d writers" (List.length ws));
      check_no_ptes env ~proc:2 d)

(* A failed namespace op under [unmap_after_write] hands its directory
   back: another trust group's create does not wait out the lease. *)
let test_failed_op_hands_back () =
  Helpers.run_sim ~lease_ns:1.0e6 (fun env ->
      let ctl = env.Helpers.ctl and sched = env.Helpers.sched in
      ignore (shared_dir env 4 : int);
      let ops = Libfs.ops (Helpers.mount ~proc:2 ~unmap_after_write:true env) in
      create_in ops "/d" "a";
      err "create again" EEXIST (ops.Fs.create "/d/a" 0o644);
      err "unlink a missing name" ENOENT (ops.Fs.unlink "/d/zz");
      err "rmdir a missing name" ENOENT (ops.Fs.rmdir "/d/zz");
      err "rename a missing name" ENOENT (ops.Fs.rename "/d/zz" "/d/yy");
      ok "mkdir" (ops.Fs.mkdir "/d/sub" 0o777);
      create_in ops "/d/sub" "child";
      err "rmdir a full directory" ENOTEMPTY (ops.Fs.rmdir "/d/sub");
      err "mkdir again" EEXIST (ops.Fs.mkdir "/d/sub" 0o777);
      Alcotest.(check (list int)) "write-mapped" []
        (List.map (fun (ino, _, _) -> ino) (Controller.write_mapped_inos ctl ~proc:2));
      let other = Libfs.ops (Helpers.mount ~proc:3 env) in
      let t0 = Sched.now sched in
      create_in other "/d" "b";
      Alcotest.(check bool) "no lease wait" true (Sched.now sched -. t0 < 0.1e6))

(* ------------------------------------------------------------------ *)
(* Trust groups (DESIGN.md §4.5, "Trust groups") *)

type group_config = {
  g_members : int;  (** 2 or 3 processes of one trust group *)
  g_creates : int;  (** per member *)
  g_stagger : bool;  (** members start 1 ms apart *)
  g_same_names : bool;  (** all create the same names; else each its own, unlinking every third *)
  g_prefilled : bool;  (** /g starts with 48 entries *)
  g_each_op : bool;  (** hand back after every write; else hold /g to the end *)
  g_ring : bool;  (** every other member crosses over a 4-deep ring *)
}

let group_config n =
  let bit i = n land (1 lsl i) <> 0 in
  {
    g_members = (if bit 0 then 3 else 2);
    g_creates = (if bit 1 then 9 else 4);
    g_stagger = bit 2;
    g_same_names = bit 3;
    g_prefilled = bit 4;
    g_each_op = bit 5;
    g_ring = bit 6;
  }

let print_group_config g =
  Printf.sprintf "%d members, %d creates each, stagger %b, same names %b, prefilled %b, %s%s"
    g.g_members g.g_creates g.g_stagger g.g_same_names g.g_prefilled
    (if g.g_each_op then "hand back each op" else "hold to the end")
    (if g.g_ring then ", ring" else "")

(* The members of one trust group create (and unlink) in /g at once,
   then hand back; a process outside the group must list every name a
   create acknowledged and no unlink removed, and nothing else, and the
   run logs no corruption event. *)
let group_run g =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl in
      let owner = Helpers.mount ~proc:9 env in
      let oops = Libfs.ops owner in
      ok "mkdir" (oops.Fs.mkdir "/g" 0o777);
      let pre = if g.g_prefilled then names_n "pre" 48 else [] in
      List.iter (create_in oops "/g") pre;
      Libfs.unmap_everything owner;
      let mount i ?group () =
        Helpers.mount ~proc:(i + 1) ?group ~unmap_after_write:g.g_each_op
          ?ring:(if g.g_ring && i mod 2 = 1 then Some 4 else None)
          env
      in
      let first = mount 0 () in
      let fss = first :: List.init (g.g_members - 1) (fun i -> mount (i + 1) ~group:first ()) in
      let acked = Hashtbl.create 16 in
      let wg = Trio_sim.Sync.Waitgroup.create g.g_members in
      List.iteri
        (fun i fs ->
          let ops = Libfs.ops fs in
          Sched.spawn ~cpu:i env.Helpers.sched (fun () ->
              if g.g_stagger then Sched.delay (float_of_int i *. 1.0e6);
              for n = 0 to g.g_creates - 1 do
                let name =
                  if g.g_same_names then Printf.sprintf "s%d" n else Printf.sprintf "m%d_%d" i n
                in
                (match ops.Fs.create ("/g/" ^ name) 0o644 with
                | Ok fd ->
                  Hashtbl.replace acked name ();
                  ok "close" (ops.Fs.close fd)
                | Error EEXIST when g.g_same_names -> ()
                | Error e -> Alcotest.failf "member %d: create %s: %s" i name (errno_to_string e));
                if (not g.g_same_names) && n mod 3 = 2 then begin
                  ok "unlink" (ops.Fs.unlink ("/g/" ^ name));
                  Hashtbl.remove acked name
                end
              done;
              Trio_sim.Sync.Waitgroup.done_ wg))
        fss;
      Trio_sim.Sync.Waitgroup.wait wg;
      List.iter Libfs.unmap_everything fss;
      let outsider = Libfs.ops (Helpers.mount ~proc:8 env) in
      let expected = List.sort compare (pre @ Hashtbl.fold (fun n () acc -> n :: acc) acked []) in
      Alcotest.(check (list string)) "the outsider's listing" expected (names_of outsider "/g");
      Alcotest.(check int) "corruption events" 0 (List.length (Controller.corruption_events ctl));
      true)

let prop_group_creates_survive =
  QCheck.Test.make ~name:"every acknowledged create survives" ~count:256
    (QCheck.make ~print:print_group_config QCheck.Gen.(map group_config (int_bound 127)))
    group_run

(* Two members of one trust group write /d, a 4-entry directory. *)
let two_members env =
  let d = shared_dir env 4 in
  let a_fs = Helpers.mount ~proc:2 env in
  let b_fs = Helpers.mount ~proc:3 ~group:a_fs env in
  create_in (Libfs.ops a_fs) "/d" "a";
  create_in (Libfs.ops b_fs) "/d" "b";
  (d, a_fs, b_fs)

let queued env = Trio_sim.Stats.get (Controller.stats env.Helpers.ctl) "verify.queue.enqueued"

(* What a process outside the group lists in /d once every member has
   handed back, and the corruption events logged. *)
let outsider_view env fss =
  List.iter Libfs.unmap_everything fss;
  Alcotest.(check int) "corruption events" 0
    (List.length (Controller.corruption_events env.Helpers.ctl));
  names_of (Libfs.ops (Helpers.mount ~proc:7 env)) "/d"

let test_group_same_name () =
  Helpers.run_sim (fun env ->
      let _, a_fs, b_fs = two_members env in
      err "the same name by the other member" EEXIST ((Libfs.ops b_fs).Fs.create "/d/a" 0o644);
      err "and back" EEXIST ((Libfs.ops a_fs).Fs.create "/d/b" 0o644);
      Alcotest.(check (list string)) "entries" ("a" :: "b" :: names_n "pre" 4)
        (outsider_view env [ a_fs; b_fs ]))

(* A member's unmap takes only it out of the group's claim, and answers
   Ok; the last member's queues the claim's one verification.  Then
   neither holds a PTE on /d, through another group's claim too. *)
let test_group_member_unmap () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl in
      let d, a_fs, b_fs = two_members env in
      Alcotest.(check (list int)) "one claim" [ 2; 3 ]
        (List.sort compare (file_of ctl d).Ctl_state.f_writers);
      let q0 = queued env in
      ok "a member's unmap" (Controller.unmap_file ctl ~proc:2 ~ino:d);
      Alcotest.(check (list int)) "the claim holds on" [ 3 ] (file_of ctl d).Ctl_state.f_writers;
      Alcotest.(check (float 0.0)) "no verification yet" 0.0 (queued env -. q0);
      ok "the last member's unmap" (Controller.unmap_file ctl ~proc:3 ~ino:d);
      Alcotest.(check (float 0.0)) "one verification" 1.0 (queued env -. q0);
      Controller.drain_verification ctl;
      check_no_ptes env ~proc:2 d;
      check_no_ptes env ~proc:3 d;
      let o_fs = Helpers.mount ~proc:4 env in
      create_in (Libfs.ops o_fs) "/d" "o";
      check_no_ptes env ~proc:2 d;
      check_no_ptes env ~proc:3 d;
      Alcotest.(check (list string)) "entries" ("a" :: "b" :: "o" :: names_n "pre" 4)
        (outsider_view env [ a_fs; b_fs; o_fs ]))

(* Crash recovery verifies a two-member claim once and revokes both
   members. *)
let test_group_crash_recovery () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl in
      let d, a_fs, b_fs = two_members env in
      Controller.crash_recover ctl;
      Alcotest.(check (list int)) "no claim" [] (file_of ctl d).Ctl_state.f_writers;
      check_no_ptes env ~proc:2 d;
      check_no_ptes env ~proc:3 d;
      Alcotest.(check (list string)) "entries" ("a" :: "b" :: names_n "pre" 4)
        (outsider_view env [ a_fs; b_fs ]))

(* Another group's map at the lease expiry revokes every member of the
   claim, once each, and verifies the claim once; a member's next create
   waits for that group's claim to end, rather than landing under it. *)
let test_group_takeover () =
  Helpers.run_sim ~lease_ns:1.0e6 (fun env ->
      let ctl = env.Helpers.ctl and sched = env.Helpers.sched in
      let d, a_fs, b_fs = two_members env in
      let q0 = queued env in
      let o_fs = Helpers.mount ~proc:4 env in
      create_in (Libfs.ops o_fs) "/d" "o";
      Alcotest.(check (float 0.0)) "one verification of the group's claim" 1.0 (queued env -. q0);
      Alcotest.(check (list int))
        "the other group's claim" [ 4 ] (file_of ctl d).Ctl_state.f_writers;
      check_no_ptes env ~proc:2 d;
      check_no_ptes env ~proc:3 d;
      let expire = (file_of ctl d).Ctl_state.f_lease_expire in
      create_in (Libfs.ops a_fs) "/d" "a2";
      Alcotest.(check bool)
        "the member waited out the other claim" true (Sched.now sched >= expire);
      Alcotest.(check bool)
        "and holds /d now" true
        (List.mem 2 (file_of ctl d).Ctl_state.f_writers);
      Alcotest.(check (list string)) "entries"
        (List.sort compare ("a" :: "a2" :: "b" :: "o" :: names_n "pre" 4))
        (outsider_view env [ a_fs; b_fs; o_fs ]))

(* A member that dies while its peer holds /d loses only its own grants;
   its pools pass to the peer, so the GC reclaims nothing /d links, the
   peer keeps writing, and a process outside the group lists every
   acknowledged name. *)
let test_group_member_death () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl in
      let d, a_fs, b_fs = two_members env in
      let a = Libfs.ops a_fs and b = Libfs.ops b_fs in
      List.iter (create_in a "/d") (names_n "x" 40);
      ok "mkdir" (a.Fs.mkdir "/d/sub" 0o777);
      create_in a "/d/sub" "y";
      create_in b "/d" "b2";
      Controller.abnormal_teardown ctl ~proc:2;
      check_no_ptes env ~proc:2 d;
      let gc = Controller.gc_once ctl in
      Alcotest.(check (pair int int)) "reclaimed (pages, inos)" (0, 0)
        (gc.Controller.gc_reclaimed_pages, gc.Controller.gc_reclaimed_inos);
      Alcotest.(check bool) "page accounting" true gc.Controller.gc_invariant_ok;
      List.iter (create_in b "/d") (names_n "z" 8);
      create_in b "/d/sub" "w";
      Alcotest.(check (list string)) "entries"
        (List.sort compare
           (("a" :: "b" :: "b2" :: "sub" :: names_n "pre" 4) @ names_n "x" 40 @ names_n "z" 8))
        (outsider_view env [ b_fs ]);
      Alcotest.(check (list string)) "the subdirectory" [ "w"; "y" ]
        (names_of (Libfs.ops (Helpers.mount ~proc:8 env)) "/d/sub"))

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
          Alcotest.test_case "over an unshared file frees it" `Quick
            test_rename_over_unshared_frees;
          Alcotest.test_case "unlink of an unshared file frees it" `Quick
            test_unlink_unshared_frees;
          Alcotest.test_case "an unshared free recycles into the cache" `Quick
            test_unshared_free_recycles;
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
      ( "mappings",
        [
          Alcotest.test_case "stress mode hands back" `Quick test_stress_mode_hands_back;
          Alcotest.test_case "handoff crossings, sync" `Quick test_handoff_crossings_sync;
          Alcotest.test_case "handoff crossings, ring" `Quick test_handoff_crossings_ring;
          Alcotest.test_case "fpfs create crossings" `Quick test_fpfs_create_crossings;
          Alcotest.test_case "upgrade after a revoked read" `Quick test_upgrade_after_revoked_read;
          Alcotest.test_case "file upgrade after a revoked read" `Quick
            test_file_upgrade_after_revoked_read;
          Alcotest.test_case "directory write permission" `Quick test_dir_write_permission;
        ] );
      ( "handback",
        [
          QCheck_alcotest.to_alcotest prop_handback_matches_device;
          Alcotest.test_case "a create reads only its dentry" `Quick test_handback_create_reads;
          Alcotest.test_case "a fused re-map rebuilds nothing" `Quick
            test_handback_fused_rebuilds_nothing;
          Alcotest.test_case "a handed-back state is not served" `Quick test_handback_not_served;
          Alcotest.test_case "removing an ino drops its state" `Quick test_handback_removal_drops;
          Alcotest.test_case "an upgrade reads no index page" `Quick test_upgrade_reads_no_index;
        ] );
      ( "on-demand maps",
        [
          Alcotest.test_case "a create faults 3 pages" `Quick test_demand_create_ptes;
          Alcotest.test_case "only where it pays" `Quick test_demand_only_where_it_pays;
          Alcotest.test_case "a freed page is not faultable" `Quick
            test_demand_freed_page_not_faultable;
          Alcotest.test_case "a takeover refuses a fault" `Quick
            test_demand_fault_refused_after_takeover;
          Alcotest.test_case "a takeover revokes once" `Quick test_takeover_revokes_once;
          Alcotest.test_case "recovery and teardown revoke" `Quick
            test_demand_recovery_and_teardown;
          Alcotest.test_case "recovery takes new pages" `Quick
            test_demand_recovery_takes_new_pages;
          Alcotest.test_case "a failed op hands back" `Quick test_failed_op_hands_back;
        ] );
      ( "mirror",
        [
          Alcotest.test_case "after a cross-group handoff" `Quick test_mirror_after_handoff;
          Alcotest.test_case "after a lease expiry" `Quick test_mirror_after_lease_expiry;
          Alcotest.test_case "a reader reads the device, a group one mirror" `Quick
            test_mirror_reader_and_group;
        ] );
      ( "trust groups",
        [
          QCheck_alcotest.to_alcotest prop_group_creates_survive;
          Alcotest.test_case "a same-name create answers EEXIST" `Quick test_group_same_name;
          Alcotest.test_case "a member's unmap" `Quick test_group_member_unmap;
          Alcotest.test_case "a takeover revokes every member" `Quick test_group_takeover;
          Alcotest.test_case "crash recovery revokes every member" `Quick test_group_crash_recovery;
          Alcotest.test_case "a member dies while its peer holds" `Quick test_group_member_death;
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
