(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6) on the simulated machine.

   Usage:
     bench/main.exe                 run everything
     bench/main.exe fig5 fig7       run selected experiments
     bench/main.exe --fast ...      smaller sweeps (quick iteration)

   Experiments (see DESIGN.md §3 for the index):
     fig5  single-thread data & metadata performance
     fig6  fio throughput scaling (1 and 8 NUMA nodes)
     fig7  FxMark metadata scalability
     tab3  sharing cost between untrusted processes
     fig8  sharing-cost breakdown (map/unmap/verify/rebuild)
     fig9  Filebench macrobenchmarks
     tab5  LevelDB db_bench
     fig10 customized LibFSes (KVFS / FPFS)
     sec65 integrity attacks & corruption campaign
     meta  descriptive tables (Table 2, Table 4)
     micro Bechamel wall-clock microbenchmarks of core data structures

   The plane gates (shardscale ringbatch snaprecover qos dirscale) each
   write one BENCH_<name>.json record; the run exits 1 after the last
   selected experiment if any of their gates failed.

   All performance numbers are virtual-time (deterministic); see
   EXPERIMENTS.md for the shape-by-shape comparison with the paper. *)

module Sched = Trio_sim.Sched
module Numa = Trio_nvm.Numa
module Pmem = Trio_nvm.Pmem
module Rig = Trio_workloads.Rig
module Runner = Trio_workloads.Runner
module Fio = Trio_workloads.Fio
module Fxmark = Trio_workloads.Fxmark
module Filebench = Trio_workloads.Filebench
module Dbbench = Trio_workloads.Dbbench
module Libfs = Arckfs.Libfs
module Controller = Trio_core.Controller
module Dirindex = Trio_core.Dirindex
module Stats = Trio_sim.Stats
module Fs = Trio_core.Fs_intf
module Vfs = Trio_core.Vfs
module Ycsb = Trio_workloads.Ycsb
module Attacks = Trio_attacks.Attacks

let fast = ref false

(* ------------------------------------------------------------------ *)
(* Plane-gate records *)

(* Record values are rendered JSON; a non-finite number is null. *)
let num digits x = if Float.is_finite x then Printf.sprintf "%.*f" digits x else "null"
let int = string_of_int
let str = Printf.sprintf "%S"
let obj fields =
  "{ " ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ " }"

(* No gate passes vacuously: [all] is false over no items, and a [ratio]
   over a zero baseline is nan, which fails every comparison. *)
let all p = function [] -> false | xs -> List.for_all p xs
let ratio a b = if b > 0.0 then a /. b else Float.nan
let rec pairs = function a :: (b :: _ as rest) -> (a, b) :: pairs rest | _ -> []

(* (bench, gate) of every failed gate; [main] exits 1 once, at the end. *)
let failed_gates = ref []

(* Every plane gate writes BENCH_<name>.json as {bench, config, points,
   gates, pass}: [points] is a flat list of objects and [gates] maps
   each gate to its verdict.  A --fast run has fewer points, so it
   keeps its gates but leaves the tracked record as it was. *)
let record name ~config ~points gates =
  let pass = List.for_all snd gates in
  List.iter (fun (g, ok) -> if not ok then failed_gates := (name, g) :: !failed_gates) gates;
  let file = Printf.sprintf "BENCH_%s.json" name in
  if !fast then Printf.printf "--fast: %s left as recorded (pass: %b)\n" file pass
  else begin
    let oc = open_out file in
    Printf.fprintf oc
      "{\n  \"bench\": %S,\n  \"config\": %s,\n  \"points\": [\n    %s\n  ],\n  \
       \"gates\": %s,\n  \"pass\": %b\n}\n"
      name (obj config)
      (String.concat ",\n    " (List.map obj points))
      (obj (List.map (fun (g, ok) -> (g, string_of_bool ok)) gates))
      pass;
    close_out oc;
    Printf.printf "wrote %s (pass: %b)\n" file pass
  end

let section title =
  Printf.printf "\n==== %s %s\n%!" title (String.make (max 1 (66 - String.length title)) '=')

let sub title = Printf.printf "\n-- %s\n%!" title

(* ------------------------------------------------------------------ *)
(* Machine configurations *)

let paper_nodes = 8
let paper_cpus = 28

let one_node_rig f =
  Rig.run ~nodes:1 ~cpus_per_node:paper_cpus ~pages_per_node:(1 lsl 20) ~store_data:false f

let eight_node_rig f =
  Rig.run ~nodes:paper_nodes ~cpus_per_node:paper_cpus ~pages_per_node:(1 lsl 19)
    ~store_data:false f

let threads_1node () = if !fast then [ 1; 4; 28 ] else [ 1; 2; 4; 8; 16; 28 ]
let threads_8node () = if !fast then [ 1; 28; 224 ] else [ 1; 2; 4; 8; 16; 28; 56; 112; 224 ]

(* ------------------------------------------------------------------ *)
(* Printing helpers *)

(* Cells are 10 wide with at least one space between them. *)
let print_header name cols =
  Printf.printf "%-14s" name;
  List.iter (fun c -> Printf.printf " %9s" c) cols;
  print_newline ()

let print_row name cells =
  Printf.printf "%-14s" name;
  List.iter (fun v -> Printf.printf " %9.2f" v) cells;
  print_newline ()

(* Per-op latency breakdown of an instrumented VFS handle, rendered
   inside the simulation (the handle does not outlive its rig). *)
let breakdown_of vfs = Format.asprintf "%a" Vfs.pp_breakdown vfs

(* Print a sweep row and, underneath it, the per-op p50/p99 breakdown
   captured at the highest thread count of the sweep. *)
let print_row_with_breakdown name results =
  print_row name (List.map fst results);
  match List.rev results with
  | (_, b) :: _ -> print_string b
  | [] -> ()

(* ------------------------------------------------------------------ *)
(* Figure 5: single-thread performance *)

let fig5 () =
  section "Figure 5: single-thread performance";
  let data_fses = [ "nova"; "splitfs"; "strata"; "odinfs"; "arckfs-nd"; "arckfs" ] in
  sub "(a,b) data operations, GiB/s (one thread)";
  print_header "fs" [ "4K-read"; "4K-write"; "2M-read"; "2M-write" ];
  List.iter
    (fun name ->
      let one config =
        eight_node_rig (fun rig ->
            let fs = Rig.mount_fs ~store_data:false rig name in
            let r = Fio.run rig fs config ~max_ops:3000 ~max_ns:30.0e6 () in
            r.Runner.gib_per_s)
      in
      let mk kind block =
        { Fio.threads = 1; block_size = block; file_size = 16 * 1024 * 1024; kind }
      in
      print_row name
        [
          one (mk Fio.Read 4096);
          one (mk Fio.Write 4096);
          one (mk Fio.Read (2 * 1024 * 1024));
          one (mk Fio.Write (2 * 1024 * 1024));
        ])
    data_fses;
  sub "(c,d) metadata operations, ops/us (one thread)";
  let meta_fses = [ "nova"; "strata"; "splitfs"; "odinfs"; "arckfs" ] in
  print_header "fs" [ "open"; "create"; "delete" ];
  List.iter
    (fun name ->
      let run_bench bench =
        eight_node_rig (fun rig ->
            let fs = Rig.mount_fs ~store_data:false rig name in
            let r = Fxmark.run rig fs bench ~threads:1 ~max_ops:3000 ~max_ns:20.0e6 () in
            r.Runner.ops_per_us)
      in
      print_row name
        [
          run_bench (Fxmark.find "MRPL");
          run_bench (Fxmark.find "MWCL");
          run_bench (Fxmark.find "MWUL");
        ])
    meta_fses

(* ------------------------------------------------------------------ *)
(* Figure 6: fio throughput scaling *)

let fig6 () =
  section "Figure 6: data operation throughput (fio), GiB/s";
  let run_sweep ~rig_of ~fses ~threads ~block ~kind label =
    sub label;
    print_header "fs" (List.map string_of_int threads);
    List.iter
      (fun name ->
        let cells =
          List.map
            (fun n ->
              rig_of (fun rig ->
                  let vfs = Rig.mount_fs ~store_data:false rig name in
                  let file_size = max (4 * 1024 * 1024) (4 * block) in
                  let config = { Fio.threads = n; block_size = block; file_size; kind } in
                  let max_ops = if block > 65536 then 4000 else 12000 in
                  let r = Fio.run rig vfs config ~max_ops ~max_ns:10.0e6 () in
                  (r.Runner.gib_per_s, breakdown_of vfs)))
            threads
        in
        print_row_with_breakdown name cells)
      fses
  in
  let one_fses = [ "ext4"; "pmfs"; "nova"; "winefs"; "splitfs"; "arckfs-nd" ] in
  let eight_fses = [ "ext4"; "ext4-raid0"; "nova"; "winefs"; "odinfs"; "splitfs"; "arckfs" ] in
  let big = 2 * 1024 * 1024 in
  run_sweep ~rig_of:one_node_rig ~fses:one_fses ~threads:(threads_1node ()) ~block:4096
    ~kind:Fio.Read "(a) 4KB read, 1 NUMA node";
  run_sweep ~rig_of:one_node_rig ~fses:one_fses ~threads:(threads_1node ()) ~block:4096
    ~kind:Fio.Write "(b) 4KB write, 1 NUMA node";
  run_sweep ~rig_of:one_node_rig ~fses:one_fses ~threads:(threads_1node ()) ~block:big
    ~kind:Fio.Read "(c) 2MB read, 1 NUMA node";
  run_sweep ~rig_of:one_node_rig ~fses:one_fses ~threads:(threads_1node ()) ~block:big
    ~kind:Fio.Write "(d) 2MB write, 1 NUMA node";
  run_sweep ~rig_of:eight_node_rig ~fses:eight_fses ~threads:(threads_8node ()) ~block:4096
    ~kind:Fio.Read "(e) 4KB read, 8 NUMA nodes";
  run_sweep ~rig_of:eight_node_rig ~fses:eight_fses ~threads:(threads_8node ()) ~block:4096
    ~kind:Fio.Write "(f) 4KB write, 8 NUMA nodes";
  run_sweep ~rig_of:eight_node_rig ~fses:eight_fses ~threads:(threads_8node ()) ~block:big
    ~kind:Fio.Read "(g) 2MB read, 8 NUMA nodes";
  run_sweep ~rig_of:eight_node_rig ~fses:eight_fses ~threads:(threads_8node ()) ~block:big
    ~kind:Fio.Write "(h) 2MB write, 8 NUMA nodes"

(* ------------------------------------------------------------------ *)
(* Figure 7: FxMark metadata scalability *)

let fig7 () =
  section "Figure 7: metadata scalability (FxMark), ops/us";
  let fses = [ "ext4"; "pmfs"; "nova"; "winefs"; "odinfs"; "splitfs"; "arckfs" ] in
  let threads = if !fast then [ 1; 28; 224 ] else [ 1; 4; 16; 28; 56; 112; 224 ] in
  List.iter
    (fun bench_name ->
      let bench = Fxmark.find bench_name in
      sub (Printf.sprintf "%s: %s" bench.Fxmark.name bench.Fxmark.description);
      print_header "fs" (List.map string_of_int threads);
      List.iter
        (fun fs_name ->
          let cells =
            List.map
              (fun n ->
                eight_node_rig (fun rig ->
                    let vfs = Rig.mount_fs ~store_data:false rig fs_name in
                    let r =
                      Fxmark.run rig vfs bench ~threads:n ~max_ops:12_000 ~max_ns:10.0e6 ()
                    in
                    (r.Runner.ops_per_us, breakdown_of vfs)))
              threads
          in
          print_row_with_breakdown fs_name cells)
        fses)
    [ "DWTL"; "MRPL"; "MRPM"; "MRPH"; "MRDL"; "MRDM"; "MWCL"; "MWCM"; "MWUL"; "MWUM"; "MWRL"; "MWRM" ]

(* ------------------------------------------------------------------ *)
(* Table 3 + Figure 8: sharing cost *)

(* The paper uses a 1 GiB file with a 100 ms lease; we scale both by 8x
   (128 MiB file, 12.5 ms lease) so the ratio of mapping cost to lease
   time — which produces the paper's 7.8x overhead — is preserved, while
   the small-file row keeps its negligible overhead. *)
let share_file_small = 2 * 1024 * 1024
let share_file_large = 128 * 1024 * 1024
let share_lease_ns = 100.0e6 /. 8.0

let sharing_rig ?(lease_ns = share_lease_ns) f =
  Rig.run ~nodes:2 ~cpus_per_node:4 ~pages_per_node:(1 lsl 16) ~store_data:false ~lease_ns f

let get_ok what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Trio_core.Fs_types.errno_to_string e)

(* Two ArckFS processes [pa] then [pb] on one rig, each as (LibFS,
   ops); with [group] each joins trust group 77 once it is mounted. *)
let two_procs ?(group = false) ?unmap_after_write rig (pa, pb) =
  let cred = { Trio_core.Fs_types.uid = 1000; gid = 1000 } in
  let mk proc =
    let t = Libfs.mount ~ctl:rig.Rig.ctl ~proc ~cred ?unmap_after_write () in
    if group then Controller.register_process rig.Rig.ctl ~proc ~cred ~group:77 ();
    (t, Libfs.ops t)
  in
  let a = mk pa in
  (a, mk pb)

(* Process a creates /shared at [file_size] bytes and hands it back. *)
let create_shared (a, aops) ~file_size =
  ignore (get_ok "create" (aops.Fs.create "/shared" 0o666));
  get_ok "truncate" (aops.Fs.truncate "/shared" file_size);
  Libfs.unmap_everything a

(* [create_shared], then both processes open /shared: the [ops_of] of
   [write_sharing_body], thread 0 writing through a, thread 1 through b. *)
let open_shared ((_, aops) as a) (_, bops) ~file_size =
  create_shared a ~file_size;
  let fda = get_ok "open" (aops.Fs.open_ "/shared" [ Trio_core.Fs_types.O_RDWR ]) in
  let fdb = get_ok "open" (bops.Fs.open_ "/shared" [ Trio_core.Fs_types.O_RDWR ]) in
  fun tid -> if tid = 0 then (aops, fda) else (bops, fdb)

(* /shared_dir holding [n] files named [prefix]0, [prefix]1, ... *)
let shared_dir ops prefix n =
  get_ok "mkdir" (ops.Fs.mkdir "/shared_dir" 0o777);
  for i = 0 to n - 1 do
    ignore (get_ok "pre" (ops.Fs.create (Printf.sprintf "/shared_dir/%s%d" prefix i) 0o644))
  done

let shared_name = Printf.sprintf "/shared_dir/t%d_%d"

(* A Runner body: each call creates, closes and unlinks a fresh file,
   thread [tid]'s nth being [path tid n] through [ops_of tid]. *)
let churn ~threads ~path ops_of =
  let counters = Array.make threads 0 in
  fun ~tid ->
    let ops = ops_of tid in
    let n = counters.(tid) in
    counters.(tid) <- n + 1;
    let path = path tid n in
    (match ops.Fs.create path 0o644 with
    | Ok fd ->
      ignore (ops.Fs.close fd);
      ignore (ops.Fs.unlink path)
    | Error _ -> ());
    0

(* two writers ping-ponging 4 KiB stores over one file *)
let write_sharing_body rig ~file_size ~ops_of =
  let buf = Bytes.make 4096 'x' in
  let rngs = Array.init 2 (fun i -> Trio_util.Rng.create i) in
  let r =
    Runner.run ~sched:rig.Rig.sched ~topo:rig.Rig.topo ~threads:2 ~max_ops:60_000
      ~max_ns:500.0e6
      ~body:(fun ~tid ->
        let ops, fd = ops_of tid in
        let off = Trio_util.Rng.int rngs.(tid) (file_size / 4096) * 4096 in
        match ops.Fs.pwrite fd buf off with Ok n -> n | Error _ -> 0)
      ()
  in
  r.Runner.gib_per_s

let run_write_sharing ?lease_ns ?(procs = (301, 302)) ~file_size mode =
  sharing_rig ?lease_ns (fun rig ->
      match mode with
      | `Nova ->
        let fs = Vfs.ops (Rig.mount_fs ~store_data:false rig "nova") in
        let fd = get_ok "create" (fs.Fs.create "/shared" 0o666) in
        get_ok "truncate" (fs.Fs.truncate "/shared" file_size);
        write_sharing_body rig ~file_size ~ops_of:(fun _ -> (fs, fd))
      | `Arckfs group ->
        let a, b = two_procs ~group rig procs in
        write_sharing_body rig ~file_size ~ops_of:(open_shared a b ~file_size))

(* Concurrent create+unlink in a shared directory, unmapping after every
   operation (the paper's stress mode); reports us per metadata op. *)
let run_create_sharing ~prepopulate mode =
  sharing_rig (fun rig ->
      let ops_of =
        match mode with
        | `Nova ->
          let fs = Vfs.ops (Rig.mount_fs ~store_data:false rig "nova") in
          shared_dir fs "base" prepopulate;
          fun _ -> fs
        | `Arckfs group ->
          let (a, aops), (_, bops) =
            two_procs ~group ~unmap_after_write:(not group) rig (311, 312)
          in
          shared_dir aops "base" prepopulate;
          Libfs.unmap_everything a;
          fun tid -> if tid = 0 then aops else bops
      in
      let r =
        Runner.run ~sched:rig.Rig.sched ~topo:rig.Rig.topo ~threads:2 ~max_ops:600
          ~max_ns:400.0e6
          ~body:(churn ~threads:2 ~path:shared_name ops_of)
          ()
      in
      r.Runner.elapsed_ns /. float_of_int r.Runner.ops /. 1e3 /. 2.0)

let tab3 () =
  section "Table 3: sharing cost (two processes on one file/directory)";
  Printf.printf "(scaled: paper's 1GiB file + 100ms lease -> 128MiB + 12.5ms; see DESIGN.md)\n";
  print_header "workload" [ "NOVA"; "ArckFS"; "Arck-TG" ];
  let row name run = print_row name [ run `Nova; run (`Arckfs false); run (`Arckfs true) ] in
  row "4KBw-2MB GiB/s" (run_write_sharing ~file_size:share_file_small);
  row "4KBw-128MB GiB/s" (run_write_sharing ~file_size:share_file_large);
  row "create-10 us" (run_create_sharing ~prepopulate:10);
  row "create-100 us" (run_create_sharing ~prepopulate:100)

(* Figure 8: where the sharing time goes. *)
let fig8 () =
  section "Figure 8: breakdown of ArckFS' sharing cost";
  let instrumented ~creates ~file_size =
    sharing_rig (fun rig ->
        let ((a, aops) as pa), ((b, bops) as pb) =
          two_procs ~unmap_after_write:creates rig (321, 322)
        in
        if creates then begin
          shared_dir aops "b" 100;
          Libfs.unmap_everything a;
          ignore
            (Runner.run ~sched:rig.Rig.sched ~topo:rig.Rig.topo ~threads:2 ~max_ops:400
               ~max_ns:400.0e6
               ~body:
                 (churn ~threads:2 ~path:shared_name (fun tid -> if tid = 0 then aops else bops))
               ())
        end
        else ignore (write_sharing_body rig ~file_size ~ops_of:(open_shared pa pb ~file_size));
        let cstats = Controller.stats rig.Rig.ctl in
        let rebuild =
          Stats.get (Libfs.stats_of a) "rebuild" +. Stats.get (Libfs.stats_of b) "rebuild"
        in
        (Stats.get cstats "map", Stats.get cstats "unmap", Stats.get cstats "verify", rebuild))
  in
  let breakdown describe (map, unmap, verify, rebuild) =
    let total = map +. unmap +. verify +. rebuild in
    let pct x = if total > 0.0 then 100.0 *. x /. total else 0.0 in
    Printf.printf "%-22s map %5.1f%%  unmap %5.1f%%  verifier %5.1f%%  aux-state %5.1f%%\n"
      describe (pct map) (pct unmap) (pct verify) (pct rebuild)
  in
  breakdown "4KB-write 16MB" (instrumented ~creates:false ~file_size:share_file_large);
  breakdown "create-100" (instrumented ~creates:true ~file_size:0)

(* Companion to Figure 8: the verifier slice of a write-sharing handoff,
   full re-verification vs the incremental pipeline.  Two processes
   ping-pong write ownership of one large file; each handoff dirties a
   single 4KiB page, so the incremental verifier re-checks one page's
   worth of index entries against the delta checkpoint while a full walk
   re-reads all ~64 index pages of the 128MiB file. *)
let fig8v () =
  section "Figure 8 companion: verifier slice per handoff, full vs incremental";
  let handoffs = 16 in
  let slice mode =
    Controller.with_verify_mode mode @@ fun () ->
    sharing_rig (fun rig ->
        let a, b = two_procs rig (351, 352) in
        create_shared a ~file_size:share_file_large;
        (* Warm both processes: first contact ingests the file and builds
           its checkpoint.  That cost is identical in both modes and is
           not part of the steady-state handoff being measured. *)
        List.iter
          (fun (libfs, ops) ->
            let fd = get_ok "open" (ops.Fs.open_ "/shared" [ Trio_core.Fs_types.O_RDWR ]) in
            ignore (ops.Fs.close fd);
            Libfs.unmap_everything libfs)
          [ a; b ];
        let cstats = Controller.stats rig.Rig.ctl in
        let v0 = Stats.get cstats "verify" in
        let buf = Bytes.make 4096 'v' in
        for i = 0 to handoffs - 1 do
          let libfs, ops = if i land 1 = 0 then a else b in
          let fd = get_ok "open" (ops.Fs.open_ "/shared" [ Trio_core.Fs_types.O_RDWR ]) in
          ignore (get_ok "pwrite" (ops.Fs.pwrite fd buf (i * 4096)));
          ignore (ops.Fs.close fd);
          Libfs.unmap_everything libfs
        done;
        (Stats.get cstats "verify" -. v0) /. float_of_int handoffs /. 1e3)
  in
  let full = slice Controller.Full in
  let incr = slice Controller.Incremental in
  Printf.printf "128MiB file, one 4KiB page dirtied per handoff, %d handoffs\n" handoffs;
  Printf.printf "  full walk   : %8.1f us/handoff\n" full;
  Printf.printf "  incremental : %8.1f us/handoff\n" incr;
  Printf.printf "  reduction   : %8.1fx\n" (if incr > 0.0 then full /. incr else 0.0)

(* ------------------------------------------------------------------ *)
(* Figure 9: Filebench *)

let fig9 () =
  section "Figure 9: Filebench macrobenchmarks, Kops/s";
  let fses = [ "ext4"; "pmfs"; "nova"; "winefs"; "odinfs"; "splitfs"; "arckfs" ] in
  let run_personality ~rig_of ~threads name pname =
    sub name;
    print_header "fs" (List.map string_of_int threads);
    let p = Filebench.find pname in
    List.iter
      (fun fs_name ->
        let cells =
          List.map
            (fun n ->
              rig_of (fun rig ->
                  let fs = Rig.mount_fs ~store_data:false rig fs_name in
                  let r = Filebench.run rig fs p ~threads:n ~max_ops:8000 ~max_ns:20.0e6 () in
                  r.Runner.ops_per_us *. 1000.0))
            threads
        in
        print_row fs_name cells)
      fses
  in
  let t1 = if !fast then [ 1; 28 ] else [ 1; 4; 16; 28 ] in
  let t8 = if !fast then [ 1; 224 ] else [ 1; 16; 56; 112; 224 ] in
  let t16 = if !fast then [ 1; 16 ] else [ 1; 2; 4; 8; 16 ] in
  run_personality ~rig_of:one_node_rig ~threads:t1 "(a) Fileserver, 1 NUMA node" "fileserver";
  run_personality ~rig_of:one_node_rig ~threads:t1 "(b) Webserver, 1 NUMA node" "webserver";
  run_personality ~rig_of:eight_node_rig ~threads:t8 "(c) Fileserver, 8 NUMA nodes" "fileserver";
  run_personality ~rig_of:eight_node_rig ~threads:t8 "(d) Webserver, 8 NUMA nodes" "webserver";
  run_personality ~rig_of:eight_node_rig ~threads:t16 "(e) Webproxy, 8 NUMA nodes" "webproxy";
  run_personality ~rig_of:eight_node_rig ~threads:t16 "(f) Varmail, 8 NUMA nodes" "varmail"

(* ------------------------------------------------------------------ *)
(* Table 5: LevelDB *)

let tab5 () =
  section "Table 5: LevelDB db_bench, ops/ms (one thread)";
  Printf.printf "(scaled: paper's 1M objects -> 8000; fill100K -> 400 objects)\n";
  let fses = [ "ext4"; "nova"; "winefs"; "arckfs"; "arckfs-nd" ] in
  print_header "fs" (List.map Dbbench.workload_name Dbbench.all);
  List.iter
    (fun name ->
      let cells =
        List.map
          (fun w ->
            Rig.run ~nodes:paper_nodes ~cpus_per_node:paper_cpus ~pages_per_node:(1 lsl 17)
              ~store_data:true (fun rig ->
                let fs = Rig.mount_fs ~store_data:true rig name in
                let n =
                  match w with
                  | Dbbench.Fill_100k -> if !fast then 100 else 400
                  | _ -> if !fast then 2000 else 8000
                in
                (Dbbench.run ~sched:rig.Rig.sched fs w ~n).Dbbench.ops_per_ms))
          Dbbench.all
      in
      print_row name cells)
    fses

(* ------------------------------------------------------------------ *)
(* Figure 10: customized file systems *)

let fig10 () =
  section "Figure 10: customized LibFSes (8 threads), Kops/s";
  let threads = 8 in
  let posix_fses = [ "ext4"; "nova"; "winefs"; "odinfs"; "arckfs" ] in
  sub "Webproxy (KVFS's target workload)";
  List.iter
    (fun name ->
      let v =
        eight_node_rig (fun rig ->
            let fs = Rig.mount_fs ~store_data:false rig name in
            let p = Filebench.find "webproxy" in
            let r = Filebench.run rig fs p ~threads ~max_ops:8000 ~max_ns:30.0e6 () in
            r.Runner.ops_per_us *. 1000.0)
      in
      print_row name [ v ])
    posix_fses;
  let kv_result =
    eight_node_rig (fun rig ->
        let libfs = Rig.mount_arckfs ~delegated:true rig in
        match Kvfs.mount libfs ~dir:"/kv" with
        | Error _ -> 0.0
        | Ok kv ->
          let r = Filebench.run_kv_webproxy rig kv ~threads ~max_ops:8000 ~max_ns:30.0e6 () in
          r.Runner.ops_per_us *. 1000.0)
  in
  print_row "kvfs" [ kv_result ];
  sub "Varmail with 20-deep directories (FPFS's target workload)";
  List.iter
    (fun name ->
      let v =
        eight_node_rig (fun rig ->
            let fs = Rig.mount_fs ~store_data:false rig name in
            let p = Filebench.find "varmail-deep" in
            let r = Filebench.run rig fs p ~threads ~max_ops:8000 ~max_ns:30.0e6 () in
            r.Runner.ops_per_us *. 1000.0)
      in
      print_row name [ v ])
    (posix_fses @ [ "fpfs" ])

(* ------------------------------------------------------------------ *)
(* §6.5: integrity *)

let sec65 () =
  section "Section 6.5: metadata integrity under attacks";
  sub "handcrafted malicious-LibFS attacks";
  List.iter
    (fun o -> Format.printf "  %a@." Trio_attacks.Attacks.pp_outcome o)
    (Trio_attacks.Attacks.run_handcrafted ());
  sub "scripted corruption campaign (buggy LibFS emulation)";
  let seeds = if !fast then 4 else 17 in
  let r = Trio_attacks.Attacks.run_campaign ~seeds () in
  Printf.printf "  scenarios: %d   detected-or-benign: %d   consistent afterwards: %d\n"
    r.Trio_attacks.Attacks.c_total r.Trio_attacks.Attacks.c_detected
    r.Trio_attacks.Attacks.c_consistent

(* ------------------------------------------------------------------ *)
(* Descriptive tables *)

let meta () =
  section "Table 2: FxMark metadata microbenchmarks";
  List.iter (fun (n, d) -> Printf.printf "  %-6s %s\n" n d) Fxmark.descriptions;
  section "Table 4: Filebench configurations (scaled per DESIGN.md)";
  Printf.printf "  %-14s %8s %12s %10s %10s %6s\n" "name" "files/th" "avg size" "read sz"
    "write sz" "depth";
  List.iter
    (fun p ->
      Printf.printf "  %-14s %8d %12d %10d %10d %6d\n" p.Filebench.p_name p.Filebench.p_nfiles
        p.Filebench.p_avg_size p.Filebench.p_io_read p.Filebench.p_io_write
        p.Filebench.p_dir_depth)
    Filebench.personalities

(* ------------------------------------------------------------------ *)
(* Bechamel wall-clock microbenchmarks *)

let micro () =
  section "Bechamel microbenchmarks (wall clock, host machine)";
  let open Bechamel in
  let tests =
    [
      Test.make ~name:"radix-insert-1k"
        (Staged.stage (fun () ->
             let r = Trio_util.Radix.create () in
             for i = 0 to 999 do
               Trio_util.Radix.insert r (i * 37) i
             done));
      Test.make ~name:"htbl-insert-1k"
        (Staged.stage (fun () ->
             let h = Trio_util.Htbl.create_string () in
             for i = 0 to 999 do
               Trio_util.Htbl.replace h (string_of_int i) i
             done));
      Test.make ~name:"extent-alloc-free-1k"
        (Staged.stage (fun () ->
             let a = Trio_util.Extent_alloc.create ~start:0 ~len:100_000 in
             for _ = 0 to 999 do
               let p = Trio_util.Extent_alloc.alloc a 4 in
               Trio_util.Extent_alloc.free a p 4
             done));
      (let buf = Bytes.make 4096 'x' in
       Test.make ~name:"crc32-4k" (Staged.stage (fun () -> ignore (Trio_util.Crc32.of_bytes buf))));
      (let inode =
         {
           Trio_core.Layout.ino = 7;
           ftype = Trio_core.Fs_types.Reg;
           mode = 0o644;
           uid = 0;
           gid = 0;
           size = 4096;
           index_head = 9;
           mtime = 0;
           ctime = 0;
         }
       in
       Test.make ~name:"dentry-encode-decode"
         (Staged.stage (fun () ->
              let b = Trio_core.Layout.encode_dentry ~inode ~name:"some-file.txt" () in
              ignore (Trio_core.Layout.decode_dentry b))));
      Test.make ~name:"sim-10k-events"
        (Staged.stage (fun () ->
             let s = Sched.create () in
             for i = 0 to 9 do
               Sched.spawn s (fun () ->
                   for _ = 0 to 999 do
                     Sched.delay (float_of_int (i + 1))
                   done)
             done;
             ignore (Sched.run s)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.25) () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ]) in
      let analyzed =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |])
          Toolkit.Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "  %-28s %12.1f ns/op\n%!" name est
          | _ -> Printf.printf "  %-28s (no estimate)\n%!" name)
        analyzed)
    tests

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out *)

let ablation () =
  section "Ablations";
  (* 1. data striping granularity *)
  sub "striping granularity: 2MB reads, 28 threads, 8 nodes (GiB/s)";
  List.iter
    (fun stripe_pages ->
      let v =
        Rig.run ~nodes:paper_nodes ~cpus_per_node:paper_cpus ~pages_per_node:(1 lsl 19)
          ~store_data:false ~stripe_pages (fun rig ->
            let fs = Rig.mount_fs ~store_data:false rig "arckfs" in
            let config =
              { Fio.threads = 28; block_size = 2 * 1024 * 1024; file_size = 16 * 1024 * 1024;
                kind = Fio.Read }
            in
            (Fio.run rig fs config ~max_ops:3000 ~max_ns:10.0e6 ()).Runner.gib_per_s)
      in
      Printf.printf "  stripe %4d KiB: %8.2f\n%!" (stripe_pages * 4) v)
    [ 4; 16; 64; 512 ];
  (* 2. delegation threads per node *)
  sub "delegation threads per node: 4KB writes, 224 threads (GiB/s)";
  List.iter
    (fun tpn ->
      let v =
        Rig.run ~nodes:paper_nodes ~cpus_per_node:paper_cpus ~pages_per_node:(1 lsl 19)
          ~store_data:false ~threads_per_node:tpn (fun rig ->
            let fs = Rig.mount_fs ~store_data:false rig "arckfs" in
            let config =
              { Fio.threads = 224; block_size = 4096; file_size = 4 * 1024 * 1024;
                kind = Fio.Write }
            in
            (Fio.run rig fs config ~max_ops:12000 ~max_ns:10.0e6 ()).Runner.gib_per_s)
      in
      Printf.printf "  %2d threads/node: %8.2f\n%!" tpn v)
    [ 2; 6; 12; 24 ];
  (* 3. lease length vs sharing overhead *)
  sub "lease length: contended 4KB writes to a shared 128MiB file (GiB/s)";
  List.iter
    (fun lease_ms ->
      let v =
        run_write_sharing ~lease_ns:(lease_ms *. 1e6) ~procs:(341, 342)
          ~file_size:share_file_large (`Arckfs false)
      in
      Printf.printf "  lease %5.1f ms: %8.3f\n%!" lease_ms v)
    [ 2.0; 6.0; 12.5; 25.0; 50.0 ];
  (* 4. verifier cost vs directory size *)
  sub "verifier cost vs directory size (virtual us per verification)";
  List.iter
    (fun entries ->
      let v =
        Rig.run ~nodes:2 ~cpus_per_node:4 ~pages_per_node:(1 lsl 16) ~store_data:false
          (fun rig ->
            let libfs = Rig.mount_arckfs ~delegated:false rig in
            let fs = Libfs.ops libfs in
            get_ok "mkdir" (fs.Fs.mkdir "/dir" 0o755);
            for i = 0 to entries - 1 do
              ignore (get_ok "create" (fs.Fs.create (Printf.sprintf "/dir/f%05d" i) 0o644))
            done;
            let before = Stats.get (Controller.stats rig.Rig.ctl) "verify" in
            Libfs.unmap_everything libfs;
            (Stats.get (Controller.stats rig.Rig.ctl) "verify" -. before) /. 1e3)
      in
      Printf.printf "  %5d entries: %8.1f us\n%!" entries v)
    [ 10; 100; 1000 ];
  (* 5. device profile: Trio is not Optane-specific *)
  sub "CXL-class NVM profile (no write collapse): create scalability, ops/us";
  List.iter
    (fun threads ->
      let v =
        let sched = Sched.create () in
        let topo = Numa.create ~nodes:paper_nodes ~cpus_per_node:paper_cpus in
        let pmem =
          Pmem.create ~sched ~topo ~profile:Trio_nvm.Perf.cxl_nvm ~pages_per_node:(1 lsl 19)
            ~store_data:false ()
        in
        let mmu = Trio_core.Mmu.create pmem in
        let result = ref 0.0 in
        Sched.spawn sched (fun () ->
            let ctl = Controller.create ~sched ~pmem ~mmu () in
            let rig =
              {
                Rig.sched;
                topo;
                pmem;
                mmu;
                ctl;
                delegation = lazy (Arckfs.Delegation.create ~sched ~pmem ());
                next_proc = 400;
                mounts = [];
              }
            in
            let fs = Rig.mount_fs ~store_data:false rig "arckfs" in
            let r =
              Fxmark.run rig fs (Fxmark.find "MWCL") ~threads ~max_ops:12_000 ~max_ns:10.0e6 ()
            in
            result := r.Runner.ops_per_us);
        ignore (Sched.run sched);
        !result
      in
      Printf.printf "  %3d threads: %8.2f\n%!" threads v)
    [ 1; 28; 224 ]

(* ------------------------------------------------------------------ *)
(* Shard scaling: controller-syscall throughput vs socket count *)

(* The same machine budget (8 CPUs, 64Ki pages) sliced into 1, 2 or 4
   sockets: more sockets means more per-socket verifier fibers, ring
   drains and NVM bandwidth domains, so the create/delete-heavy FxMark
   runs should get faster as the controller's planes spread out.
   Records BENCH_shard_scaling.json; the gate requires throughput to
   rise monotonically from 1 to 4 sockets. *)
let shardscale () =
  section "Shard scaling: FxMark throughput vs simulated socket count";
  let total_cpus = 16 and total_pages = 1 lsl 16 in
  let threads = 16 in
  let sockets = [ 1; 2; 4 ] in
  let run_point bench nodes =
    (* unmap-after-write puts the controller on the critical path of
       every operation (each create/unlink hands the directory back),
       and the full-walk verify mode makes each handoff re-read the
       whole directory — so throughput is bounded by the verification
       plane's aggregate device bandwidth and fiber parallelism, the
       two resources the per-socket shards multiply. *)
    Controller.with_verify_mode Controller.Full @@ fun () ->
    Rig.run ~nodes ~cpus_per_node:(total_cpus / nodes) ~pages_per_node:(total_pages / nodes)
      ~store_data:false (fun rig ->
        let fs =
          Vfs.wrap ~sched:rig.Rig.sched
            (Libfs.ops (Rig.mount_arckfs ~delegated:true ~unmap_after_write:true rig))
        in
        let max_ops = if !fast then 3000 else 12_000 in
        let r = Fxmark.run rig fs bench ~threads ~max_ops ~max_ns:10.0e6 () in
        let cstats = Controller.stats rig.Rig.ctl in
        Printf.printf "  [%d sockets] ops=%d map=%.0fus unmap=%.0fus verify=%.0fus\n%!" nodes
          r.Runner.ops
          (Stats.get cstats "map" /. 1e3)
          (Stats.get cstats "unmap" /. 1e3)
          (Stats.get cstats "verify" /. 1e3);
        r.Runner.ops_per_us)
  in
  let results =
    List.map
      (fun name ->
        let bench = Fxmark.find name in
        (name, List.map (fun n -> (n, run_point bench n)) sockets))
      [ "MWCL"; "MWUL" ]
  in
  print_header "bench" (List.map (fun n -> Printf.sprintf "%d-socket" n) sockets);
  List.iter (fun (name, points) -> print_row name (List.map snd points)) results;
  record "shard_scaling"
    ~config:
      [ ("threads", int threads); ("total_cpus", int total_cpus); ("total_pages", int total_pages) ]
    ~points:
      (List.concat_map
         (fun (name, points) ->
           List.map
             (fun (n, v) -> [ ("workload", str name); ("sockets", int n); ("ops_per_us", num 4 v) ])
             points)
         results)
    [
      ( "monotonic",
        all (fun (_, points) -> all (fun ((_, a), (_, b)) -> a < b) (pairs points)) results );
    ]

(* ------------------------------------------------------------------ *)
(* Ring batching: the submission/completion ring vs per-op syscalls *)

(* Create/open/delete-heavy workload with [unmap_after_write], so every
   operation remaps and hands back its directory: the controller sits on
   the critical path of each op.  The batched plane moves the unmap
   (fire-and-forget) and its verification settle off that path and
   amortizes the kernel crossing over the drained batch; the gate
   requires batched >= 1.5x synchronous at >= 32 concurrent processes.
   Emits BENCH_ring_batching.json. *)
let ringbatch () =
  section "Ring batching: create/delete-heavy ops/us, sync vs batched syscall plane";
  let depth = 32 in
  let proc_counts = if !fast then [ 10; 32 ] else [ 10; 32; 100 ] in
  let run_point ~ring nprocs =
    Rig.run ~nodes:2 ~cpus_per_node:8 ~pages_per_node:(1 lsl 16) ~store_data:false (fun rig ->
        (* One LibFS per process, each working in a private directory so
           the measurement is ring-vs-sync, not lease ping-pong. *)
        let fss =
          Array.init nprocs (fun _ ->
              Libfs.ops
                (Rig.mount_arckfs ~delegated:true ~unmap_after_write:true
                   ?ring:(if ring then Some depth else None) rig))
        in
        Array.iteri
          (fun i fs -> ignore (get_ok "mkdir" (fs.Fs.mkdir (Printf.sprintf "/rb%d" i) 0o755)))
          fss;
        let max_ops = if !fast then 4000 else 12_000 in
        let r =
          Runner.run ~sched:rig.Rig.sched ~topo:rig.Rig.topo ~threads:nprocs ~max_ops
            ~max_ns:20.0e6
            ~body:(churn ~threads:nprocs ~path:(Printf.sprintf "/rb%d/f%d") (Array.get fss))
            ()
        in
        Printf.printf "  [%3d procs, %s] ops=%d %.4f ops/us\n%!" nprocs
          (if ring then "ring" else "sync")
          r.Runner.ops r.Runner.ops_per_us;
        r.Runner.ops_per_us)
  in
  let points =
    List.map
      (fun n ->
        let sync = run_point ~ring:false n in
        let batched = run_point ~ring:true n in
        (n, sync, batched, ratio batched sync))
      proc_counts
  in
  print_header "procs" [ "sync"; "ring"; "speedup" ];
  List.iter
    (fun (n, sync, batched, sp) -> print_row (string_of_int n) [ sync; batched; sp ])
    points;
  let required = 1.5 in
  record "ring_batching"
    ~config:
      [
        ("ring_depth", int depth);
        ("workload", str "create-close-unlink, unmap_after_write");
        ("required_speedup", num 2 required);
      ]
    ~points:
      (List.map
         (fun (n, sync, batched, sp) ->
           [
             ("procs", int n);
             ("sync_ops_per_us", num 4 sync);
             ("ring_ops_per_us", num 4 batched);
             ("speedup", num 3 sp);
           ])
         points)
    [
      ( "speedup",
        all (fun (_, _, _, sp) -> sp >= required) (List.filter (fun (n, _, _, _) -> n >= 32) points)
      );
    ]

(* ------------------------------------------------------------------ *)
(* Snapshot recovery: mount-the-newest-intact-root vs the fsck walk *)

(* Crash recovery cost (virtual time): validating and mounting the
   newest snapshot root is O(snapshot payload), while the fallback is a
   full fsck walk plus a Full-mode certification sweep over every file.
   Emits BENCH_snapshot_recovery.json; the gate requires the root mount
   to be >= 5x faster. *)
let snaprecover () =
  section "Snapshot recovery: mount-last-valid-root vs full fsck walk + audit";
  let files = if !fast then 60 else 200 in
  let dirs = 8 in
  Rig.run ~nodes:2 ~cpus_per_node:4 ~pages_per_node:65536 ~store_data:true (fun rig ->
      let sched = rig.Rig.sched and pmem = rig.Rig.pmem and ctl = rig.Rig.ctl in
      let libfs = Rig.mount_arckfs ~delegated:false rig in
      let fs = Libfs.ops libfs in
      for d = 0 to dirs - 1 do
        get_ok "mkdir" (fs.Fs.mkdir (Printf.sprintf "/d%d" d) 0o755);
        for i = 0 to (files / dirs) - 1 do
          get_ok "write"
            (Fs.write_file fs
               (Printf.sprintf "/d%d/f%03d" d i)
               (String.make ((i * 613 mod 7000) + 64) 'r'))
        done
      done;
      Libfs.unmap_everything libfs;
      let epoch =
        match Controller.snapshot_take ctl with
        | Ok e -> e
        | Error _ -> failwith "snapshot_take"
      in
      (* the crash: DRAM dies, a fresh controller recovers from NVM *)
      let time f =
        let t0 = Sched.now sched in
        let v = f () in
        (v, Sched.now sched -. t0)
      in
      let (n_root, root_ns) =
        time (fun () ->
            let mmu = Trio_core.Mmu.create pmem in
            match Controller.recover ~sched ~pmem ~mmu () with
            | Ok (ctl', Controller.Mounted_root e) when e = epoch ->
              Trio_core.Ctl_state.fold_files ctl' (fun _ _ n -> n + 1) 0
            | Ok (_, Controller.Mounted_root e) ->
              failwith (Printf.sprintf "mounted epoch %d, expected %d" e epoch)
            | Ok (_, Controller.Fsck_fallback) -> failwith "unexpected fsck fallback"
            | Error m -> failwith m)
      in
      let (n_fsck, fsck_ns) =
        time (fun () ->
            let mmu = Trio_core.Mmu.create pmem in
            match Controller.cold_start ~sched ~pmem ~mmu () with
            | Error m -> failwith m
            | Ok ctl' ->
              let checked, bad = Controller.audit_all ctl' in
              if bad > 0 then failwith (Printf.sprintf "%d files fail certification" bad);
              checked)
      in
      if n_root <> n_fsck then
        Printf.printf "  note: root mount sees %d files, fsck walk %d\n" n_root n_fsck;
      let speedup = ratio fsck_ns root_ns in
      print_header "path" [ "virtual us"; "files" ];
      print_row "mount-root" [ root_ns /. 1e3; float_of_int n_root ];
      print_row "fsck+audit" [ fsck_ns /. 1e3; float_of_int n_fsck ];
      Printf.printf "  recovery-to-root speedup: %.1fx\n" speedup;
      let required = 5.0 in
      record "snapshot_recovery"
        ~config:[ ("files", int files); ("required_speedup", num 2 required) ]
        ~points:
          [
            [
              ("snapshot_epoch", int epoch);
              ("mount_root_us", num 3 (root_ns /. 1e3));
              ("fsck_audit_us", num 3 (fsck_ns /. 1e3));
              ("speedup", num 3 speedup);
            ];
          ]
        [ ("speedup", speedup >= required) ])

(* ------------------------------------------------------------------ *)
(* Multi-tenant QoS: noisy-neighbour isolation *)

(* Two honest YCSB tenants (A and C) run twice on identical rigs: once
   alone, once sharing the machine with a byzantine noisy neighbour
   (tight create/corrupt/unmap loop on a starvation share) and a
   kill-prone bulk tenant that is SIGKILLed mid-run.  The QoS plane
   throttles the attackers, the watchdog reclaims the corpse, and the
   gate requires every honest tenant's p99 under attack to stay within
   2x of its all-honest baseline — with zero honest errors and a
   balanced page ledger after reclamation.  Emits
   BENCH_tenant_isolation.json. *)
let qos () =
  section "Multi-tenant QoS: honest tail latency under byzantine/SIGKILL neighbours";
  let records = if !fast then 32 else 64 in
  let ops = if !fast then 40 else 120 in
  let honest_specs =
    [ Ycsb.spec ~share:1.0 ~ops "honest-a" Ycsb.A;
      Ycsb.spec ~share:1.0 ~ops "honest-c" Ycsb.C ]
  in
  let run ~attack =
    Rig.run ~nodes:2 ~cpus_per_node:4 ~pages_per_node:(1 lsl 14) ~store_data:true
      (fun rig ->
        let specs =
          honest_specs
          @
          if attack then
            [ Ycsb.spec ~share:0.1 ~ops:(ops * 4) ~kill_after:(ops * 3) "killer" Ycsb.A ]
          else []
        in
        let chaos, neighbor =
          if attack then begin
            let nb = Attacks.noisy_neighbor ~qos_share:0.02 rig in
            ([ Attacks.neighbor_fiber nb ], Some nb)
          end
          else ([], None)
        in
        let results = Ycsb.run rig ~records ~value_size:32 ~chaos specs in
        List.iter (fun r -> Format.printf "  %a@." Ycsb.pp_tenant_result r) results;
        (match neighbor with
        | Some nb ->
          Printf.printf "  neighbour: %d byzantine cycles (%d rejected)\n%!"
            nb.Attacks.nb_cycles nb.Attacks.nb_rejected
        | None -> ());
        let gc_ok =
          if attack then begin
            (* Reclaim the killed tenant and audit the page ledger. *)
            let ctl = rig.Rig.ctl in
            Sched.delay 2.0e6;
            let escalated = Controller.watchdog_once ctl ~timeout_ns:1.0e6 in
            ignore (Controller.drain_unverified ctl : int);
            let gc = Controller.gc_once ctl in
            Printf.printf
              "  reclaim: watchdog escalated %d, gc reclaimed %d page(s), ledger %s\n%!"
              (List.length escalated) gc.Controller.gc_reclaimed_pages
              (if gc.Controller.gc_invariant_ok then "balanced" else "IMBALANCED");
            gc.Controller.gc_invariant_ok && gc.Controller.gc_leaked = 0
          end
          else true
        in
        (results, gc_ok))
  in
  sub "baseline: honest tenants only";
  let baseline, _ = run ~attack:false in
  sub "under attack: + byzantine neighbour (share 0.02) + kill-prone tenant (share 0.1)";
  let attacked, gc_ok = run ~attack:true in
  let honest_of results name =
    List.find (fun r -> r.Ycsb.y_name = name) results
  in
  let rows =
    List.map
      (fun s ->
        let b = honest_of baseline s.Ycsb.s_name
        and a = honest_of attacked s.Ycsb.s_name in
        (s.Ycsb.s_name, b, a, ratio a.Ycsb.y_p99 b.Ycsb.y_p99))
      honest_specs
  in
  print_header "tenant" [ "base p50"; "base p99"; "atk p50"; "atk p99"; "ratio" ];
  List.iter
    (fun (name, b, a, ratio) ->
      print_row name [ b.Ycsb.y_p50; b.Ycsb.y_p99; a.Ycsb.y_p50; a.Ycsb.y_p99; ratio ])
    rows;
  let required = 2.0 in
  let honest_clean (_, b, a, _) =
    b.Ycsb.y_errors = 0 && a.Ycsb.y_errors = 0 && (not a.Ycsb.y_killed)
    && a.Ycsb.y_ops_done = b.Ycsb.y_ops_done
  in
  record "tenant_isolation"
    ~config:
      [ ("records", int records); ("ops_per_tenant", int ops); ("required_ratio", num 2 required) ]
    ~points:
      (List.map
         (fun (name, b, a, ratio) ->
           [
             ("tenant", str name);
             ("baseline_p99_ns", num 0 b.Ycsb.y_p99);
             ("attacked_p99_ns", num 0 a.Ycsb.y_p99);
             ("ratio", num 3 ratio);
           ])
         rows)
    [
      ("ratio", all (fun (_, _, _, ratio) -> ratio <= required) rows);
      ("honest_clean", all honest_clean rows);
      ("killer_killed", (honest_of attacked "killer").Ycsb.y_killed);
      ("gc_balanced", gc_ok);
    ]

(* ------------------------------------------------------------------ *)
(* Directory scaling: B-link index vs linear dentry-page scan *)

(* Two sweeps.  (1) End-to-end: one directory grown to 10^3..10^5
   entries; create/lookup/readdir/delete are timed in virtual ns from a
   second, cold-cache process after the sharing point.  The lookup
   baseline re-runs the probes on an unindexed twin of the same
   directory (index maintenance off, so the root word stays 0 — a legal
   state the verifier certifies), which makes the comparison index
   descent vs linear scan over identical dentry layouts.  (2) Raw tree:
   the bare B-link structure driven to 10^6 keys — pushing a million
   *files* through the sharing point would mostly measure the simulated
   kernel shadowing a million checkpoints, so the top decade isolates
   the index itself.  Emits BENCH_dirscale.json; the gate requires the
   index >= 10x the scan at the largest end-to-end size, sub-linear
   lookup growth per decade in both sweeps, and readdir served by an
   index range scan. *)
let dirscale () =
  section "Directory scaling: B-link index vs linear dentry scan";
  let sizes = if !fast then [ 1_000; 10_000 ] else [ 1_000; 10_000; 100_000 ] in
  let name_of i = Printf.sprintf "/big/f%07d" i in
  let run_point ~indexed n =
    let ppn = 1 lsl 14 in
    Rig.run ~nodes:2 ~cpus_per_node:4 ~pages_per_node:ppn ~store_data:false (fun rig ->
        let sched = rig.Rig.sched in
        let scoped f = if indexed then f () else Trio_core.Mutation.(with_mutation Skip_index f) in
        scoped @@ fun () ->
        let writer = Rig.mount_arckfs ~delegated:false rig in
        let fs = Libfs.ops writer in
        ignore (get_ok "mkdir" (fs.Fs.mkdir "/big" 0o755));
        let t0 = Sched.now sched in
        for i = 0 to n - 1 do
          match fs.Fs.create (name_of i) 0o644 with
          | Ok fd -> ignore (fs.Fs.close fd)
          | Error e -> failwith ("create: " ^ Trio_core.Fs_types.errno_to_string e)
        done;
        let create_ns = (Sched.now sched -. t0) /. float_of_int n in
        (* the sharing point: hand the directory to the kernel, then
           measure from a second process whose caches start cold *)
        Libfs.unmap_everything writer;
        let fs2 = Libfs.ops (Rig.mount_arckfs ~delegated:false rig) in
        (* distinct, evenly spread names: the aux table never serves a
           probe twice, so every stat pays the real resolution path *)
        let probes = if n >= 100_000 then 8 else if n >= 10_000 then 16 else 32 in
        let step = n / probes in
        (* one untimed stat first: it pays the one-time open cost of the
           cold directory (kernel map of every dentry page + aux
           skeleton), which is the same for both configurations and not
           what this experiment measures *)
        ignore (get_ok "warmup" (fs2.Fs.stat (name_of (n - 1))));
        let i = ref 0 in
        let lookup_ns =
          Runner.time_op ~sched ~iters:probes (fun () ->
              let name = name_of (!i * step) in
              incr i;
              ignore (get_ok "stat" (fs2.Fs.stat name)))
        in
        if not indexed then (create_ns, lookup_ns, 0.0, false, 0.0)
        else begin
          let cstats = Controller.stats rig.Rig.ctl in
          let scans0 = Stats.get cstats "verify.dindex.range_scans" in
          let t0 = Sched.now sched in
          let listed = List.length (get_ok "readdir" (fs2.Fs.readdir "/big")) in
          let readdir_ns = Sched.now sched -. t0 in
          if listed <> n then failwith (Printf.sprintf "readdir returned %d of %d" listed n);
          let range_scan = Stats.get cstats "verify.dindex.range_scans" > scans0 in
          let dels = min (n / 2) 512 in
          let i = ref 0 in
          let delete_ns =
            Runner.time_op ~sched ~iters:dels (fun () ->
                (* odd offsets: never a name the probe loop cached *)
                let name = name_of ((!i * 2) + 1) in
                incr i;
                ignore (get_ok "unlink" (fs2.Fs.unlink name)))
          in
          (create_ns, lookup_ns, readdir_ns, range_scan, delete_ns)
        end)
  in
  let points =
    List.map
      (fun n ->
        let create_ns, lookup_ns, readdir_ns, range_scan, delete_ns =
          run_point ~indexed:true n
        in
        let _, scan_ns, _, _, _ = run_point ~indexed:false n in
        Printf.printf
          "  [%7d entries] create %.0fns  lookup %.0fns  scan %.0fns  readdir %.0fus (range \
           scan %b)  delete %.0fns\n%!"
          n create_ns lookup_ns scan_ns (readdir_ns /. 1e3) range_scan delete_ns;
        (n, create_ns, lookup_ns, scan_ns, ratio scan_ns lookup_ns, readdir_ns, range_scan,
         delete_ns))
      sizes
  in
  print_header "entries" [ "create"; "lookup"; "scan"; "speedup" ];
  List.iter
    (fun (n, c, l, b, sp, _, _, _) -> print_row (string_of_int n) [ c; l; b; sp ])
    points;
  let required = 10.0 in
  (* lookup grows sub-linearly: each 10x in entries costs well under 10x *)
  let sublinear lookups = all (fun (a, b) -> b < a *. 5.0) (pairs lookups) in
  (* raw-tree sweep: insert/lookup latency on the bare B-link structure
     up to 10^6 keys, pool carved from the top half of the device (the
     controller's extent allocators never reach up there) *)
  let tree_sizes = if !fast then [ 1_000; 10_000 ] else [ 1_000; 10_000; 100_000; 1_000_000 ] in
  let tree_point n =
    (* split-born leaves sit around 70% full, so budget ~n/118 leaf
       pages in the top half of the device *)
    let ppn = if n >= 1_000_000 then 1 lsl 14 else 1 lsl 11 in
    Rig.run ~nodes:2 ~cpus_per_node:4 ~pages_per_node:ppn ~store_data:false (fun rig ->
        let sched = rig.Rig.sched and pm = rig.Rig.pmem in
        let actor = Pmem.kernel_actor in
        let total = Pmem.total_pages pm in
        let next = ref (total / 2) and freed = ref [] in
        let alloc () =
          match !freed with
          | pg :: rest ->
            freed := rest;
            Some pg
          | [] ->
            if !next >= total then None
            else begin
              let pg = !next in
              incr next;
              Some pg
            end
        in
        let free pg = freed := pg :: !freed in
        (* multiplicative scramble: shuffled arrival order, rare
           duplicate hashes, same recipe as the unit tests *)
        let hash i = i * 2654435761 land 0xFFFFFFF in
        let root = ref 0 in
        let t0 = Sched.now sched in
        for i = 0 to n - 1 do
          match Dirindex.insert pm ~actor ~alloc ~free ~root:!root ~hash:(hash i) ~addr:i with
          | Ok (r, _fresh) -> root := r
          | Error `Nospace -> failwith "tree insert: out of space"
          | Error (`Damaged e) -> failwith ("tree insert: " ^ e)
        done;
        let insert_ns = (Sched.now sched -. t0) /. float_of_int n in
        let probes = 64 in
        let step = n / probes in
        let i = ref 0 in
        let lookup_ns =
          Runner.time_op ~sched ~iters:probes (fun () ->
              let h = hash (!i * step) in
              incr i;
              match Dirindex.lookup pm ~actor ~root:!root ~hash:h with
              | Ok (_ :: _) -> ()
              | Ok [] -> failwith "tree lookup: missing key"
              | Error e -> failwith ("tree lookup: " ^ e))
        in
        (n, insert_ns, lookup_ns))
  in
  let tree_points =
    List.map
      (fun n ->
        let (_, ins, lk) as p = tree_point n in
        Printf.printf "  [tree %7d keys] insert %.0fns  lookup %.0fns\n%!" n ins lk;
        p)
      tree_sizes
  in
  print_header "tree keys" [ "insert"; "lookup" ];
  List.iter (fun (n, ins, lk) -> print_row (string_of_int n) [ ins; lk ]) tree_points;
  record "dirscale"
    ~config:
      [
        ("workload", str "one directory, create/lookup/readdir/delete");
        ("required_speedup", num 1 required);
      ]
    ~points:
      (List.map
         (fun (n, c, l, b, sp, rd, rs, d) ->
           [
             ("entries", int n);
             ("create_ns", num 1 c);
             ("lookup_ns", num 1 l);
             ("linear_scan_ns", num 1 b);
             ("speedup", num 2 sp);
             ("readdir_ns", num 1 rd);
             ("readdir_range_scan", string_of_bool rs);
             ("delete_ns", num 1 d);
           ])
         points
      @ List.map
          (fun (n, ins, lk) -> [ ("keys", int n); ("insert_ns", num 1 ins); ("lookup_ns", num 1 lk) ])
          tree_points)
    [
      (* at the largest size, descent beats the scan 10x *)
      ( "speedup",
        match List.rev points with (_, _, _, _, sp, _, _, _) :: _ -> sp >= required | [] -> false );
      ("sublinear", sublinear (List.map (fun (_, _, l, _, _, _, _, _) -> l) points));
      (* every readdir was served by an index range scan *)
      ("range_scan", all (fun (_, _, _, _, _, _, rs, _) -> rs) points);
      (* the bare tree's lookup also grows sub-linearly, all the way to 10^6 *)
      ("tree_sublinear", sublinear (List.map (fun (_, _, lk) -> lk) tree_points));
    ]

let experiments =
  [
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("tab3", tab3);
    ("fig8", fig8);
    ("fig8v", fig8v);
    ("fig9", fig9);
    ("tab5", tab5);
    ("fig10", fig10);
    ("sec65", sec65);
    ("shardscale", shardscale);
    ("dirscale", dirscale);
    ("ringbatch", ringbatch);
    ("snaprecover", snaprecover);
    ("qos", qos);
    ("ablation", ablation);
    ("meta", meta);
    ("micro", micro);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args =
    List.filter
      (fun a ->
        if a = "--fast" then begin
          fast := true;
          false
        end
        else true)
      args
  in
  let selected = if args = [] then List.map fst experiments else args in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
        let s = Unix.gettimeofday () in
        f ();
        Printf.printf "[%s took %.1fs]\n%!" name (Unix.gettimeofday () -. s)
      | None ->
        Printf.eprintf "unknown experiment %S; available: %s\n" name
          (String.concat " " (List.map fst experiments)))
    selected;
  Printf.printf "\nTotal wall time: %.1fs\n" (Unix.gettimeofday () -. t0);
  let failed = List.rev !failed_gates in
  List.iter (fun (bench, gate) -> Printf.eprintf "FAILED: %s: %s\n" bench gate) failed;
  if failed <> [] then exit 1
