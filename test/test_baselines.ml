(* Conformance + behaviour tests for the baseline file system models.

   Every baseline must pass the exact same POSIX conformance suite as
   ArckFS (the comparisons in the benchmarks are only meaningful if the
   systems do the same work), plus a few model-specific sanity checks
   (kernel traps cost more, journals serialize, delegation engages). *)

module Rig = Trio_workloads.Rig
module Sched = Trio_sim.Sched
module Fs = Trio_core.Fs_intf
module Vfs = Trio_core.Vfs

let baseline_names =
  [ "ext4"; "ext4-raid0"; "pmfs"; "nova"; "winefs"; "odinfs"; "splitfs"; "strata" ]

let with_fs name check =
  Rig.run ~nodes:2 ~cpus_per_node:4 ~pages_per_node:16384 ~store_data:true (fun rig ->
      check (Rig.mount_fs rig name);
      (* every fs, trio-family or baseline, must leave balanced books *)
      Rig.unmount_all rig;
      Conformance.accounting rig.Rig.ctl)

(* ------------------------------------------------------------------ *)
(* Model-behaviour checks *)

(* Userspace data path: SplitFS 4K reads must be cheaper than ext4's
   (same data cost, no kernel trap). *)
let test_splitfs_beats_ext4_on_data () =
  let cost name =
    Rig.run ~nodes:1 ~cpus_per_node:4 ~store_data:false (fun rig ->
        let fs = Vfs.ops (Rig.mount_fs ~store_data:false rig name) in
        let fd = Conformance.ok "create" (fs.Fs.create "/f" 0o644) in
        Conformance.ok "truncate" (fs.Fs.truncate "/f" (1 lsl 20));
        let buf = Bytes.create 4096 in
        Trio_workloads.Runner.time_op ~sched:rig.Rig.sched ~iters:100 (fun () ->
            ignore (Conformance.ok "pread" (fs.Fs.pread fd buf 0))))
  in
  let ext4 = cost "ext4" and splitfs = cost "splitfs" in
  if splitfs >= ext4 then
    Alcotest.failf "splitfs 4K read (%.0fns) should beat ext4 (%.0fns)" splitfs ext4

(* NOVA metadata must beat ext4 (log append vs journal transaction). *)
let test_nova_creates_faster_than_ext4 () =
  let cost name =
    Rig.run ~nodes:1 ~cpus_per_node:4 (fun rig ->
        let fs = Vfs.ops (Rig.mount_fs ~store_data:false rig name) in
        let i = ref 0 in
        Trio_workloads.Runner.time_op ~sched:rig.Rig.sched ~iters:100 (fun () ->
            incr i;
            ignore (Conformance.ok "create" (fs.Fs.create (Printf.sprintf "/f%d" !i) 0o644))))
  in
  let ext4 = cost "ext4" and nova = cost "nova" in
  if nova >= ext4 then
    Alcotest.failf "nova create (%.0fns) should beat ext4 (%.0fns)" nova ext4

(* ext4 fsync (journal commit) must dwarf NOVA's. *)
let test_fsync_costs () =
  let cost name =
    Rig.run ~nodes:1 ~cpus_per_node:4 (fun rig ->
        let fs = Vfs.ops (Rig.mount_fs ~store_data:false rig name) in
        let fd = Conformance.ok "create" (fs.Fs.create "/f" 0o644) in
        ignore (Conformance.ok "append" (fs.Fs.append fd (Bytes.make 128 'x')));
        Trio_workloads.Runner.time_op ~sched:rig.Rig.sched ~iters:50 (fun () ->
            Conformance.ok "fsync" (fs.Fs.fsync fd)))
  in
  let ext4 = cost "ext4" and nova = cost "nova" in
  if ext4 < 3.0 *. nova then
    Alcotest.failf "ext4 fsync (%.0fns) should dwarf nova (%.0fns)" ext4 nova

(* The global rename lock must serialize concurrent renames: 8 threads
   take ~8x the virtual time of sequential per-op latency. *)
let test_rename_lock_serializes () =
  (* the global rename lock means 8 threads get no more throughput than
     one — private-rename scalability is flat for kernel FSes (MWRL) *)
  let throughput threads =
    Rig.run ~nodes:1 ~cpus_per_node:8 (fun rig ->
        let fs = Vfs.ops (Rig.mount_fs ~store_data:false rig "nova") in
        for tid = 0 to threads - 1 do
          Conformance.ok "mkdir" (fs.Fs.mkdir (Printf.sprintf "/d%d" tid) 0o755);
          ignore (Conformance.ok "create" (fs.Fs.create (Printf.sprintf "/d%d/a" tid) 0o644))
        done;
        let flips = Array.make threads false in
        let result =
          Trio_workloads.Runner.run ~sched:rig.Rig.sched ~topo:rig.Rig.topo ~threads
            ~max_ops:800 ~max_ns:1.0e9
            ~body:(fun ~tid ->
              let d = Printf.sprintf "/d%d" tid in
              let src, dst = if flips.(tid) then (d ^ "/b", d ^ "/a") else (d ^ "/a", d ^ "/b") in
              flips.(tid) <- not flips.(tid);
              Conformance.ok "rename" (fs.Fs.rename src dst);
              0)
            ()
        in
        result.Trio_workloads.Runner.ops_per_us)
  in
  let one = throughput 1 and eight = throughput 8 in
  if eight > one *. 1.8 then
    Alcotest.failf "rename scaled under a global lock: 1thr=%.2f 8thr=%.2f ops/us" one eight

(* OdinFS large writes must engage the shared delegation engine. *)
let test_odinfs_uses_delegation () =
  Rig.run ~nodes:2 ~cpus_per_node:4 (fun rig ->
      let fs = Vfs.ops (Rig.mount_fs ~store_data:false rig "odinfs") in
      let fd = Conformance.ok "create" (fs.Fs.create "/f" 0o644) in
      ignore (Conformance.ok "append" (fs.Fs.append fd (Bytes.make (1 lsl 21) 'x')));
      let dlg = Lazy.force rig.Rig.delegation in
      if Arckfs.Delegation.request_count dlg = 0 then
        Alcotest.fail "odinfs did not delegate a 2MiB write")

(* ext4-RAID0 must beat plain ext4 on large sequential reads (striping
   across NVM nodes). *)
let test_raid0_stripes () =
  let cost name =
    Rig.run ~nodes:4 ~cpus_per_node:4 ~store_data:false (fun rig ->
        let fs = Vfs.ops (Rig.mount_fs ~store_data:false rig name) in
        let fd = Conformance.ok "create" (fs.Fs.create "/f" 0o644) in
        Conformance.ok "truncate" (fs.Fs.truncate "/f" (1 lsl 23));
        let buf = Bytes.create (1 lsl 22) in
        Trio_workloads.Runner.time_op ~sched:rig.Rig.sched ~iters:10 (fun () ->
            ignore (Conformance.ok "pread" (fs.Fs.pread fd buf 0))))
  in
  ignore (cost "ext4");
  ignore (cost "ext4-raid0")
(* striping helps under concurrency, not single-thread; the check above
   only asserts both paths execute. Concurrent behaviour is asserted in
   the bench shape tests. *)

(* Every personality [trioctl --fs] accepts answers [stat "/"] with a
   directory. *)
let test_stat_root_everywhere () =
  List.iter
    (fun name ->
      with_fs name (fun vfs ->
          match (Vfs.ops vfs).Fs.stat "/" with
          | Ok st ->
            Alcotest.(check bool) (name ^ ": a directory") true
              (st.Trio_core.Fs_types.st_ftype = Trio_core.Fs_types.Dir)
          | Error e ->
            Alcotest.failf "%s: stat /: %s" name (Trio_core.Fs_types.errno_to_string e)))
    Rig.fs_names

let () =
  let conformance_suites =
    List.map (fun name -> (name ^ " conformance", Conformance.suite ~make_fs:(with_fs name)))
      baseline_names
  in
  Alcotest.run "baselines"
    (conformance_suites
    @ [
        ( "models",
          [
            Alcotest.test_case "splitfs data beats ext4" `Quick test_splitfs_beats_ext4_on_data;
            Alcotest.test_case "nova create beats ext4" `Quick test_nova_creates_faster_than_ext4;
            Alcotest.test_case "fsync costs" `Quick test_fsync_costs;
            Alcotest.test_case "rename lock serializes" `Quick test_rename_lock_serializes;
            Alcotest.test_case "odinfs delegates" `Quick test_odinfs_uses_delegation;
            Alcotest.test_case "raid0 paths execute" `Quick test_raid0_stripes;
          ] );
        ( "every file system",
          [ Alcotest.test_case "stat / is a directory" `Quick test_stat_root_everywhere ] );
      ])
