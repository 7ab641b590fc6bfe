(* Tests for the customized LibFSes (paper §5): KVFS and FPFS.

   Beyond functional correctness, these suites check the two properties
   Trio promises for customization: (1) the customized auxiliary state
   is *private* — files stay fully shareable through the generic POSIX
   LibFS — and (2) the customization actually pays off on its target
   workload (measured in virtual time). *)

module Rig = Trio_workloads.Rig
module Sched = Trio_sim.Sched
module Libfs = Arckfs.Libfs
module Fs = Trio_core.Fs_intf

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Trio_core.Fs_types.errno_to_string e)

let with_rig f = Rig.run ~nodes:2 ~cpus_per_node:4 ~pages_per_node:32768 ~store_data:true f

let names_of fs path =
  ok "readdir" (fs.Fs.readdir path)
  |> List.map (fun e -> e.Trio_core.Fs_types.d_name)
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* KVFS *)

let test_kvfs_set_get () =
  with_rig (fun rig ->
      let libfs = Rig.mount_arckfs ~delegated:false rig in
      let kv = ok "mount" (Kvfs.mount libfs ~dir:"/kv") in
      ok "set" (Kvfs.set kv "alpha" (Bytes.of_string "value-1"));
      Alcotest.(check string) "get" "value-1" (Bytes.to_string (ok "get" (Kvfs.get kv "alpha")));
      ok "overwrite" (Kvfs.set kv "alpha" (Bytes.of_string "v2"));
      Alcotest.(check string) "updated" "v2" (Bytes.to_string (ok "get" (Kvfs.get kv "alpha")));
      (match Kvfs.get kv "missing" with
      | Error Trio_core.Fs_types.ENOENT -> ()
      | _ -> Alcotest.fail "missing key should be ENOENT");
      Alcotest.(check bool) "exists" true (Kvfs.exists kv "alpha");
      Alcotest.(check bool) "not exists" false (Kvfs.exists kv "missing"))

let test_kvfs_size_limit () =
  with_rig (fun rig ->
      let libfs = Rig.mount_arckfs ~delegated:false rig in
      let kv = ok "mount" (Kvfs.mount libfs ~dir:"/kv") in
      (* exactly the 32 KiB cap is fine; beyond is refused *)
      ok "max" (Kvfs.set kv "big" (Bytes.make Kvfs.max_file_size 'x'));
      match Kvfs.set kv "too-big" (Bytes.make (Kvfs.max_file_size + 1) 'x') with
      | Error Trio_core.Fs_types.EINVAL -> ()
      | _ -> Alcotest.fail "oversized value accepted")

let test_kvfs_many_small_values () =
  with_rig (fun rig ->
      let libfs = Rig.mount_arckfs ~delegated:false rig in
      let kv = ok "mount" (Kvfs.mount libfs ~dir:"/kv") in
      for i = 0 to 299 do
        ok "set" (Kvfs.set kv (Printf.sprintf "obj%04d" i) (Bytes.make (100 + i) 'a'))
      done;
      for i = 0 to 299 do
        let v = ok "get" (Kvfs.get kv (Printf.sprintf "obj%04d" i)) in
        Alcotest.(check int) "length" (100 + i) (Bytes.length v)
      done)

(* Customization is PRIVATE: the same files are visible through the
   plain POSIX interface of the same (and another) LibFS. *)
let test_kvfs_interops_with_posix () =
  with_rig (fun rig ->
      let libfs = Rig.mount_arckfs ~delegated:false rig in
      let kv = ok "mount" (Kvfs.mount libfs ~dir:"/kv") in
      ok "set" (Kvfs.set kv "shared-obj" (Bytes.of_string "kv-payload"));
      (* same process, POSIX view *)
      let posix = Libfs.ops libfs in
      Alcotest.(check string) "same LibFS" "kv-payload"
        (ok "read" (Fs.read_file posix "/kv/shared-obj"));
      (* hand the namespace to a different process with a plain LibFS *)
      Libfs.unmap_everything libfs;
      let other = Rig.mount_arckfs ~delegated:false rig in
      let other_ops = Libfs.ops other in
      Alcotest.(check string) "other LibFS" "kv-payload"
        (ok "read" (Fs.read_file other_ops "/kv/shared-obj"));
      (* and POSIX-created files are readable through get *)
      ())

let test_kvfs_delete () =
  with_rig (fun rig ->
      let libfs = Rig.mount_arckfs ~delegated:false rig in
      let kv = ok "mount" (Kvfs.mount libfs ~dir:"/kv") in
      ok "set" (Kvfs.set kv "gone" (Bytes.of_string "x"));
      ok "delete" (Kvfs.delete kv "gone");
      match Kvfs.get kv "gone" with
      | Error Trio_core.Fs_types.ENOENT -> ()
      | _ -> Alcotest.fail "deleted key still readable")

(* The headline: get/set must beat open/pread/close on small files. *)
let test_kvfs_faster_than_posix () =
  with_rig (fun rig ->
      let libfs = Rig.mount_arckfs ~delegated:false rig in
      let kv = ok "mount" (Kvfs.mount libfs ~dir:"/kv") in
      let posix = Libfs.ops libfs in
      let value = Bytes.make 4096 'v' in
      for i = 0 to 63 do
        ok "seed" (Kvfs.set kv (Printf.sprintf "o%03d" i) value)
      done;
      let kv_cost =
        Trio_workloads.Runner.time_op ~sched:rig.Rig.sched ~iters:200 (fun () ->
            ignore (ok "get" (Kvfs.get kv "o007")))
      in
      let posix_cost =
        let buf = Bytes.create 4096 in
        Trio_workloads.Runner.time_op ~sched:rig.Rig.sched ~iters:200 (fun () ->
            let fd = ok "open" (posix.Fs.open_ "/kv/o007" [ Trio_core.Fs_types.O_RDONLY ]) in
            ignore (ok "pread" (posix.Fs.pread fd buf 0));
            ok "close" (posix.Fs.close fd))
      in
      if kv_cost >= posix_cost then
        Alcotest.failf "KVFS get (%.0fns) should beat POSIX open+read+close (%.0fns)" kv_cost
          posix_cost)

(* KVFS hands its mappings back like any LibFS (the sharing point the
   noisy neighbour uses).  Its next get, overwrite and create must map
   the directory and the files again instead of letting the MMU fault
   escape. *)
let test_kvfs_after_own_handoff () =
  Helpers.run_sim (fun env ->
      let libfs = Helpers.mount ~proc:2 env in
      let kv = ok "mount" (Kvfs.mount libfs ~dir:"/kv") in
      ok "set k1" (Kvfs.set kv "k1" (Bytes.of_string "v1"));
      Libfs.unmap_everything libfs;
      Alcotest.(check string) "get k1" "v1" (Bytes.to_string (ok "get k1" (Kvfs.get kv "k1")));
      ok "set k2" (Kvfs.set kv "k2" (Bytes.of_string "v2"));
      ok "overwrite k1" (Kvfs.set kv "k1" (Bytes.of_string "v1-new"));
      let buf = Bytes.create Kvfs.max_file_size in
      Alcotest.(check int) "get_into k2" 2 (ok "get_into k2" (Kvfs.get_into kv "k2" buf));
      Libfs.unmap_everything libfs;
      Alcotest.(check int) "corruption events" 0
        (List.length (Trio_core.Controller.corruption_events env.Helpers.ctl));
      let other = Libfs.ops (Helpers.mount ~proc:3 env) in
      Alcotest.(check string) "k1 elsewhere" "v1-new" (ok "read" (Fs.read_file other "/kv/k1"));
      Alcotest.(check string) "k2 elsewhere" "v2" (ok "read" (Fs.read_file other "/kv/k2")))

(* Another trust group takes the KVFS directory's write grant at lease
   expiry and creates a file in it; KVFS's next get and create map
   again. *)
let test_kvfs_after_another_group_writes () =
  Helpers.run_sim ~lease_ns:1.0e6 (fun env ->
      let kv = ok "mount" (Kvfs.mount (Helpers.mount ~proc:2 env) ~dir:"/kv") in
      ok "set k1" (Kvfs.set kv "k1" (Bytes.of_string "v1"));
      Sched.delay 5.0e6;
      let other = Libfs.ops (Helpers.mount ~proc:3 env) in
      ok "close" (other.Fs.close (ok "create x" (other.Fs.create "/kv/x" 0o644)));
      Sched.delay 5.0e6;
      Alcotest.(check string) "get k1" "v1" (Bytes.to_string (ok "get k1" (Kvfs.get kv "k1")));
      ok "set k2" (Kvfs.set kv "k2" (Bytes.of_string "v2"));
      Alcotest.(check (list string)) "entries" [ "k1"; "k2"; "x" ] (names_of other "/kv"))

(* ------------------------------------------------------------------ *)
(* FPFS *)

let deep_path depth name =
  "/" ^ String.concat "/" (List.init depth (fun i -> Printf.sprintf "l%d" i)) ^ "/" ^ name

let test_fpfs_conformance =
  ( "fpfs conformance",
    Conformance.suite ~make_fs:(fun check ->
        with_rig (fun rig ->
            check (Rig.mount_fs rig "fpfs");
            Rig.unmount_all rig;
            Conformance.accounting rig.Rig.ctl)) )

let test_fpfs_deep_paths () =
  with_rig (fun rig ->
      let fs = Trio_core.Vfs.ops (Rig.mount_fs rig "fpfs") in
      let dir = deep_path 20 "" in
      let dir = String.sub dir 0 (String.length dir - 1) in
      ok "mkdir_p" (Fs.mkdir_p fs dir);
      ok "write" (Fs.write_file fs (dir ^ "/leaf") "deep-content");
      Alcotest.(check string) "read back" "deep-content" (ok "read" (Fs.read_file fs (dir ^ "/leaf"))))

let test_fpfs_faster_on_deep_dirs () =
  (* stat at depth 20: FPFS (one probe after warmup) must beat ArckFS
     (twenty component walks). *)
  let cost name =
    with_rig (fun rig ->
        let fs = Trio_core.Vfs.ops (Rig.mount_fs rig name) in
        let dir =
          "/" ^ String.concat "/" (List.init 20 (fun i -> Printf.sprintf "l%d" i))
        in
        ok "mkdir_p" (Fs.mkdir_p fs dir);
        ok "write" (Fs.write_file fs (dir ^ "/leaf") "x");
        (* warm both systems' caches *)
        ignore (ok "warm" (fs.Fs.stat (dir ^ "/leaf")));
        Trio_workloads.Runner.time_op ~sched:rig.Rig.sched ~iters:300 (fun () ->
            ignore (ok "stat" (fs.Fs.stat (dir ^ "/leaf")))))
  in
  let arckfs = cost "arckfs" and fpfs = cost "fpfs" in
  if fpfs >= arckfs then
    Alcotest.failf "FPFS deep stat (%.0fns) should beat ArckFS (%.0fns)" fpfs arckfs

let test_fpfs_rename_dir_invalidates () =
  with_rig (fun rig ->
      let libfs = Rig.mount_arckfs ~delegated:false rig in
      let fpfs = Fpfs.mount libfs in
      let fs = Fpfs.ops fpfs in
      ok "mkdir" (fs.Fs.mkdir "/olddir" 0o755);
      ok "write" (Fs.write_file fs "/olddir/f" "inside");
      (* warm the path cache *)
      ignore (ok "stat" (fs.Fs.stat "/olddir/f"));
      if Fpfs.cached_paths fpfs = 0 then Alcotest.fail "path cache not populated";
      ok "rename" (fs.Fs.rename "/olddir" "/newdir");
      (* stale cached paths must not resolve *)
      (match fs.Fs.stat "/olddir/f" with
      | Error Trio_core.Fs_types.ENOENT -> ()
      | Ok _ -> Alcotest.fail "stale path resolved after directory rename"
      | Error e -> Alcotest.failf "unexpected %s" (Trio_core.Fs_types.errno_to_string e));
      Alcotest.(check string) "new path works" "inside" (ok "read" (Fs.read_file fs "/newdir/f")))

(* FPFS's path table names a directory by ino, and a hit counts only
   while the LibFS still caches that directory: after another trust
   group took the directory's write grant at lease expiry, the next
   FPFS create walks and maps it again instead of faulting on the
   dropped state until the retries run out (EAGAIN). *)
let test_fpfs_after_another_group_writes () =
  Helpers.run_sim ~lease_ns:1.0e6 (fun env ->
      let fp = Fpfs.ops (Fpfs.mount (Helpers.mount ~proc:2 env)) in
      ok "mkdir" (fp.Fs.mkdir "/d" 0o755);
      ok "close" (fp.Fs.close (ok "create a1" (fp.Fs.create "/d/a1" 0o644)));
      Sched.delay 5.0e6;
      let other = Libfs.ops (Helpers.mount ~proc:3 env) in
      ok "close" (other.Fs.close (ok "create b1" (other.Fs.create "/d/b1" 0o644)));
      Sched.delay 5.0e6;
      ok "close" (fp.Fs.close (ok "create a2" (fp.Fs.create "/d/a2" 0o644)));
      Alcotest.(check (list string)) "entries" [ "a1"; "a2"; "b1" ] (names_of fp "/d"))

(* The path table is keyed by the parent's components, so a path with a
   trailing slash cannot file a directory's path under its parent; and
   FPFS splits paths as ArckFS does, so a name over the limit is
   ENAMETOOLONG. *)
let test_fpfs_path_edges () =
  with_rig (fun rig ->
      let fs = Fpfs.ops (Fpfs.mount (Rig.mount_arckfs ~delegated:false rig)) in
      ok "mkdir a" (fs.Fs.mkdir "/a" 0o755);
      ok "mkdir d" (fs.Fs.mkdir "/a/d" 0o755);
      ignore (ok "stat" (fs.Fs.stat "/a/d/"));
      ok "close" (fs.Fs.close (ok "create" (fs.Fs.create "/a/d/x" 0o644)));
      Alcotest.(check (list string)) "/a/d" [ "x" ] (names_of fs "/a/d");
      Alcotest.(check (list string)) "/a" [ "d" ] (names_of fs "/a");
      match fs.Fs.create ("/a/" ^ String.make 190 'x') 0o644 with
      | Error Trio_core.Fs_types.ENAMETOOLONG -> ()
      | Ok _ -> Alcotest.fail "name too long: created"
      | Error e -> Alcotest.failf "name too long: %s" (Trio_core.Fs_types.errno_to_string e))

let () =
  Alcotest.run "customized"
    [
      ( "kvfs",
        [
          Alcotest.test_case "set/get" `Quick test_kvfs_set_get;
          Alcotest.test_case "size limit" `Quick test_kvfs_size_limit;
          Alcotest.test_case "many small values" `Quick test_kvfs_many_small_values;
          Alcotest.test_case "interops with POSIX view" `Quick test_kvfs_interops_with_posix;
          Alcotest.test_case "delete" `Quick test_kvfs_delete;
          Alcotest.test_case "faster than POSIX on small files" `Quick test_kvfs_faster_than_posix;
          Alcotest.test_case "after its own handoff" `Quick test_kvfs_after_own_handoff;
          Alcotest.test_case "after another group writes" `Quick
            test_kvfs_after_another_group_writes;
        ] );
      test_fpfs_conformance;
      ( "fpfs",
        [
          Alcotest.test_case "deep paths" `Quick test_fpfs_deep_paths;
          Alcotest.test_case "faster on deep dirs" `Quick test_fpfs_faster_on_deep_dirs;
          Alcotest.test_case "dir rename invalidates cache" `Quick test_fpfs_rename_dir_invalidates;
          Alcotest.test_case "create after another group writes" `Quick
            test_fpfs_after_another_group_writes;
          Alcotest.test_case "path edge cases" `Quick test_fpfs_path_edges;
        ] );
    ]
