(* trioctl: command-line driver for the Trio/ArckFS simulator.

     dune exec bin/trioctl.exe -- info
     dune exec bin/trioctl.exe -- smoke
     dune exec bin/trioctl.exe -- fsck
     dune exec bin/trioctl.exe -- attacks --seeds 8
     dune exec bin/trioctl.exe -- micro --fs arckfs --op create --threads 28

   Everything runs against the deterministic simulated machine; see
   bench/main.exe for the full paper-evaluation harness. *)

module Rig = Trio_workloads.Rig
module Libfs = Arckfs.Libfs
module Sched = Trio_sim.Sched
module Numa = Trio_nvm.Numa
module Perf = Trio_nvm.Perf
module Pmem = Trio_nvm.Pmem
module Controller = Trio_core.Controller
module Verifier = Trio_core.Verifier
module Fs = Trio_core.Fs_intf
module Vfs = Trio_core.Vfs
module Mutation = Trio_core.Mutation
module Explore = Trio_check.Explore
module Script = Trio_check.Script
open Cmdliner

let ok what = function
  | Ok v -> v
  | Error e ->
    Printf.eprintf "%s failed: %s\n" what (Trio_core.Fs_types.errno_to_string e);
    exit 1

(* ------------------------------------------------------------------ *)
(* info *)

let info_cmd =
  let run () =
    let p = Perf.optane in
    Printf.printf "simulated machine (paper configuration):\n";
    Printf.printf "  sockets: %d, CPUs: %d (%d per socket)\n" 8 224 28;
    Printf.printf "  NVM profile: %s\n" p.Perf.name;
    Printf.printf "    read latency  %.0f ns   write latency %.0f ns   flush %.0f ns\n"
      p.Perf.read_latency p.Perf.write_latency p.Perf.flush_latency;
    Printf.printf "    remote access: reads x%.1f, writes x%.1f\n" p.Perf.remote_read_factor
      p.Perf.remote_write_factor;
    Printf.printf "    per-socket read bandwidth:  %.1f GB/s (1 thr) -> %.1f GB/s (16 thr)\n"
      (Perf.read_bandwidth p 1) (Perf.read_bandwidth p 16);
    Printf.printf "    per-socket write bandwidth: %.1f GB/s (4 thr) -> %.1f GB/s (64 thr)\n"
      (Perf.write_bandwidth p 4) (Perf.write_bandwidth p 64);
    Printf.printf "  file systems: arckfs arckfs-nd kvfs fpfs | ext4 ext4-raid0 pmfs nova\n";
    Printf.printf "                winefs odinfs splitfs strata\n";
    0
  in
  Cmd.v (Cmd.info "info" ~doc:"Describe the simulated machine and NVM cost model")
    Term.(const run $ const ())

(* --fs for every subcommand that mounts a file system by name: an
   unknown name is a usage error that lists the valid ones. *)
let fs_arg =
  let names = List.map (fun n -> (n, n)) Rig.fs_names in
  Arg.(value & opt (enum names) "arckfs" & info [ "fs" ] ~docv:"FS" ~doc:"File system to exercise")

(* ------------------------------------------------------------------ *)
(* smoke *)

let smoke_cmd =
  let run fs_name =
    Rig.run ~nodes:2 ~cpus_per_node:4 ~pages_per_node:32768 ~store_data:true (fun rig ->
        let vfs = Rig.mount_fs rig fs_name in
        let fs = Vfs.ops vfs in
        ok "mkdir" (fs.Fs.mkdir "/smoke" 0o755);
        ok "write" (Fs.write_file fs "/smoke/hello" "hello from trioctl\n");
        let back = ok "read" (Fs.read_file fs "/smoke/hello") in
        ok "rename" (fs.Fs.rename "/smoke/hello" "/smoke/world");
        ok "unlink" (fs.Fs.unlink "/smoke/world");
        Printf.printf "%s: create/write/read/rename/unlink all OK (read back %d bytes)\n"
          fs_name (String.length back);
        Format.printf "per-op latency breakdown:@.%a" Vfs.pp_breakdown vfs;
        0)
  in
  Cmd.v (Cmd.info "smoke" ~doc:"Run a quick end-to-end smoke test on a file system")
    Term.(const run $ fs_arg)

(* ------------------------------------------------------------------ *)
(* fsck: build a tree, then verify every file through the Trio verifier *)

let fsck_cmd =
  let run files dirs =
    Rig.run ~nodes:2 ~cpus_per_node:4 ~pages_per_node:65536 ~store_data:true (fun rig ->
        let libfs = Rig.mount_arckfs ~delegated:false rig in
        let fs = Libfs.ops libfs in
        for d = 0 to dirs - 1 do
          ok "mkdir" (fs.Fs.mkdir (Printf.sprintf "/dir%02d" d) 0o755);
          for f = 0 to files - 1 do
            ok "write"
              (Fs.write_file fs
                 (Printf.sprintf "/dir%02d/file%03d" d f)
                 (String.make ((f * 731 mod 9000) + 10) 'x'))
          done
        done;
        Libfs.unmap_everything libfs;
        (* every file was verified at ingestion; now audit the volume *)
        let ctl = rig.Rig.ctl in
        let sched = rig.Rig.sched in
        let t0 = Sched.now sched in
        let checked = ref 0 and violations = ref 0 in
        let rec audit ino =
          match Controller.file_info ctl ino with
          | None -> ()
          | Some _ ->
            let dentry_addr = Option.get (Controller.dentry_addr_of ctl ino) in
            let report =
              Verifier.check_file (Controller.view ctl) ~proc:Pmem.kernel_actor ~ino ~dentry_addr
            in
            incr checked;
            violations := !violations + List.length report.Verifier.violations;
            List.iter
              (fun (c : Verifier.child) ->
                if c.Verifier.c_ftype = Trio_core.Fs_types.Dir then audit c.Verifier.c_ino)
              report.Verifier.children
        in
        audit Controller.root_ino;
        Printf.printf "fsck: verified %d directories+files, %d violations, %.2f virtual ms\n"
          !checked !violations
          ((Sched.now sched -. t0) /. 1e6);
        Printf.printf "corruption events recorded by the controller: %d\n"
          (List.length (Controller.corruption_events ctl));
        if !violations = 0 then 0 else 1)
  in
  let files = Arg.(value & opt int 50 & info [ "files" ] ~doc:"Files per directory") in
  let dirs = Arg.(value & opt int 8 & info [ "dirs" ] ~doc:"Number of directories") in
  Cmd.v
    (Cmd.info "fsck" ~doc:"Build a namespace and audit every file with the integrity verifier")
    Term.(const run $ files $ dirs)

(* ------------------------------------------------------------------ *)
(* attacks *)

let attacks_cmd =
  let run seeds =
    print_endline "handcrafted malicious-LibFS attacks:";
    let outcomes = Trio_attacks.Attacks.run_handcrafted () in
    List.iter (fun o -> Format.printf "  %a@." Trio_attacks.Attacks.pp_outcome o) outcomes;
    let r = Trio_attacks.Attacks.run_campaign ~seeds () in
    Printf.printf "corruption campaign: %d scenarios, %d detected-or-benign, %d consistent\n"
      r.Trio_attacks.Attacks.c_total r.Trio_attacks.Attacks.c_detected
      r.Trio_attacks.Attacks.c_consistent;
    if
      List.for_all (fun o -> o.Trio_attacks.Attacks.a_detected && o.Trio_attacks.Attacks.a_recovered) outcomes
      && r.Trio_attacks.Attacks.c_consistent = r.Trio_attacks.Attacks.c_total
    then 0
    else 1
  in
  let seeds = Arg.(value & opt int 4 & info [ "seeds" ] ~doc:"Seeds per corruption script") in
  Cmd.v (Cmd.info "attacks" ~doc:"Run the §6.5 integrity attack suite") Term.(const run $ seeds)

(* ------------------------------------------------------------------ *)
(* faults / scrub: the media-fault plane (DESIGN.md §4.11) *)

let print_fault_counters pmem =
  let f = Pmem.fault_stats pmem in
  Printf.printf "media-fault counters:\n";
  Printf.printf "  transient read faults: %d\n" f.Pmem.transient_faults;
  Printf.printf "  stuck stores:          %d\n" f.Pmem.stuck_stores;
  Printf.printf "  poison read hits:      %d\n" f.Pmem.poison_read_hits;
  Printf.printf "  poison repaired:       %d\n" f.Pmem.poison_repaired;
  Printf.printf "  poisoned lines now:    %d\n" f.Pmem.poisoned_now

let print_poison_list pmem =
  match Pmem.poisoned_lines pmem with
  | [] -> Printf.printf "poisoned lines: none\n"
  | lines ->
    let shown = List.filteri (fun i _ -> i < 16) lines in
    Printf.printf "poisoned lines (%d total): %s%s\n" (List.length lines)
      (String.concat ", "
         (List.map (fun (pg, ln) -> Printf.sprintf "%d:%d" pg ln) shown))
      (if List.length lines > 16 then ", ..." else "")

let faults_cmd =
  let run fs_name seed transient_p stuck_p inject clear files file_kb =
    let inject_ranges =
      List.map
        (fun s ->
          match String.split_on_char ':' s with
          | [ a; l ] -> (
            match (int_of_string_opt a, int_of_string_opt l) with
            | Some a, Some l when l > 0 -> (a, l)
            | _ ->
              Printf.eprintf "bad --inject %S (want ADDR:LEN)\n" s;
              exit 2)
          | _ ->
            Printf.eprintf "bad --inject %S (want ADDR:LEN)\n" s;
            exit 2)
        inject
    in
    Rig.run ~nodes:2 ~cpus_per_node:4 ~pages_per_node:65536 ~store_data:true (fun rig ->
        let pmem = rig.Trio_workloads.Rig.pmem in
        let ctl = rig.Trio_workloads.Rig.ctl in
        let vfs = Rig.mount_fs rig fs_name in
        let fs = Vfs.ops vfs in
        Pmem.set_fault_injection pmem ~seed ~transient_read_p:transient_p
          ~stuck_store_p:stuck_p ();
        Printf.printf "fault injection armed: seed %d, transient-read p=%g, stuck-store p=%g\n"
          seed transient_p stuck_p;
        List.iter
          (fun (addr, len) ->
            Pmem.inject_poison pmem ~addr ~len;
            Printf.printf "injected latent poison: addr %d, %d bytes\n" addr len)
          inject_ranges;
        (* conformance + fio-style sweep under live injection: the only
           hard requirement is graceful degradation — every operation
           returns Ok or a clean errno, nothing throws *)
        let oks = ref 0 in
        let errs = Hashtbl.create 8 in
        let note = function
          | Ok _ -> incr oks
          | Error e ->
            let k = Trio_core.Fs_types.errno_to_string e in
            Hashtbl.replace errs k (1 + Option.value ~default:0 (Hashtbl.find_opt errs k))
        in
        let outcome =
          try
            note (Result.map (fun () -> ()) (fs.Fs.mkdir "/fio" 0o755));
            for i = 0 to files - 1 do
              let path = Printf.sprintf "/fio/f%03d" i in
              let body = String.make (file_kb * 1024) (Char.chr (Char.code 'a' + (i mod 26))) in
              note (Result.map (fun () -> ()) (Fs.write_file fs path body));
              note (Result.map (fun _ -> ()) (Fs.read_file fs path));
              note (Result.map (fun _ -> ()) (fs.Fs.stat path));
              if i mod 4 = 0 then begin
                let target = Printf.sprintf "/fio/r%03d" i in
                note (Result.map (fun () -> ()) (fs.Fs.rename path target));
                note (Result.map (fun () -> ()) (fs.Fs.unlink target))
              end
            done;
            note (Result.map (fun _ -> ()) (fs.Fs.readdir "/fio"));
            Ok ()
          with exn -> Error exn
        in
        (match outcome with
        | Ok () -> Printf.printf "workload completed: no uncaught exceptions\n"
        | Error exn -> Printf.printf "UNCAUGHT EXCEPTION: %s\n" (Printexc.to_string exn));
        Printf.printf "operations: %d ok" !oks;
        Hashtbl.iter (fun k v -> Printf.printf ", %d %s" v k) errs;
        Printf.printf "\n";
        print_fault_counters pmem;
        print_poison_list pmem;
        (match Controller.badblocks ctl with
        | [] -> Printf.printf "badblock quarantine: empty\n"
        | bad ->
          Printf.printf "badblock quarantine: %s\n"
            (String.concat ", " (List.map string_of_int bad)));
        Format.printf "per-op counters (media-faults column when nonzero):@.%a" Vfs.pp_breakdown
          vfs;
        if clear then begin
          Pmem.clear_fault_injection pmem;
          Pmem.clear_poison pmem;
          Printf.printf "fault injection cleared; poisoned lines now: %d\n"
            (Pmem.poisoned_count pmem)
        end;
        match outcome with Ok () -> 0 | Error _ -> 1)
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Fault-injection seed") in
  let transient_arg =
    Arg.(
      value & opt float 0.01
      & info [ "transient-p" ] ~docv:"P" ~doc:"Per-access transient read-fault probability")
  in
  let stuck_arg =
    Arg.(
      value & opt float 0.02
      & info [ "stuck-p" ] ~docv:"P" ~doc:"Per-store stuck-at failure probability")
  in
  let inject_arg =
    Arg.(
      value & opt_all string []
      & info [ "inject" ] ~docv:"ADDR:LEN"
          ~doc:"Inject latent poison over a byte range (repeatable)")
  in
  let clear_arg =
    Arg.(
      value & flag
      & info [ "clear" ] ~doc:"Clear fault injection and all poison after the workload")
  in
  let files_arg =
    Arg.(value & opt int 24 & info [ "files" ] ~doc:"Files in the fio-style sweep")
  in
  let kb_arg = Arg.(value & opt int 16 & info [ "file-kb" ] ~doc:"File size in KiB") in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Run a conformance + fio-style workload with the media-fault plane armed, then list \
          fault counters, poisoned lines and the badblock quarantine")
    Term.(
      const run $ fs_arg $ seed_arg $ transient_arg $ stuck_arg $ inject_arg $ clear_arg
      $ files_arg $ kb_arg)

let scrub_cmd =
  let module Scrub = Trio_core.Scrub in
  let run seed lines rounds files =
    Rig.run ~nodes:2 ~cpus_per_node:4 ~pages_per_node:65536 ~store_data:true (fun rig ->
        let pmem = rig.Trio_workloads.Rig.pmem in
        let ctl = rig.Trio_workloads.Rig.ctl in
        let libfs = Rig.mount_arckfs ~delegated:false rig in
        let fs = Libfs.ops libfs in
        ok "mkdir" (fs.Fs.mkdir "/scrub" 0o755);
        let paths =
          List.init files (fun i ->
              let path = Printf.sprintf "/scrub/f%03d" i in
              ok "write"
                (Fs.write_file fs path (String.make ((i * 977 mod 12000) + 64) 'd'));
              path)
        in
        (* the sharing point: ingestion verifies and checkpoints the tree *)
        Libfs.unmap_everything libfs;
        (* seeded latent poison over in-file pages only: the interesting
           scrub paths (checkpoint repair, migration, quarantine) *)
        let rng = Trio_util.Rng.create seed in
        let in_file =
          List.filter
            (fun pg ->
              match Controller.page_owner_of ctl pg with
              | Controller.In_file _ -> true
              | _ -> false)
            (List.init (Pmem.total_pages pmem) Fun.id)
          |> Array.of_list
        in
        if Array.length in_file = 0 then begin
          Printf.eprintf "no in-file pages to poison\n";
          exit 1
        end;
        for _ = 1 to lines do
          let page = in_file.(Trio_util.Rng.int rng (Array.length in_file)) in
          Pmem.poison_line pmem ~page ~line:(Trio_util.Rng.int rng Pmem.lines_per_page)
        done;
        Printf.printf "injected %d poisoned lines across %d in-file pages\n" lines
          (Array.length in_file);
        let stats = Scrub.make_stats () in
        for _ = 1 to rounds do
          ignore (Scrub.patrol_once ~stats ctl : Scrub.stats)
        done;
        Format.printf "patrol scrubber (%d rounds):@.%a@." rounds Scrub.pp_stats stats;
        (match Controller.badblocks ctl with
        | [] -> Printf.printf "badblock quarantine: empty\n"
        | bad ->
          Printf.printf "badblock quarantine: %s\n"
            (String.concat ", " (List.map string_of_int bad)));
        Printf.printf "poisoned lines remaining: %d\n" (Pmem.poisoned_count pmem);
        (* remount and sweep: repaired files read back, degraded ones
           answer with clean errnos *)
        let libfs2 = Rig.mount_arckfs ~delegated:false rig in
        let fs2 = Libfs.ops libfs2 in
        let full = ref 0 and errno = ref 0 in
        List.iter
          (fun path ->
            match Fs.read_file fs2 path with
            | Ok _ -> incr full
            | Error _ -> incr errno)
          paths;
        Printf.printf "post-scrub sweep: %d/%d files readable, %d clean errnos, 0 exceptions\n"
          !full (List.length paths) !errno;
        0)
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Poison-placement seed") in
  let lines_arg =
    Arg.(value & opt int 12 & info [ "lines" ] ~docv:"N" ~doc:"Latent poisoned lines to inject")
  in
  let rounds_arg = Arg.(value & opt int 2 & info [ "rounds" ] ~doc:"Patrol passes to run") in
  let files_arg = Arg.(value & opt int 40 & info [ "files" ] ~doc:"Files to build beforehand") in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:
         "Poison live pages, run the controller patrol scrubber, and report repairs, migrations \
          and quarantined pages")
    Term.(const run $ seed_arg $ lines_arg $ rounds_arg $ files_arg)

(* ------------------------------------------------------------------ *)
(* stats / trace: per-op observability of the VFS dispatch layer *)

(* Scripted mixed workload: data and metadata ops, plus a few operations
   that are expected to fail so the errno counters are exercised. *)
let observability_workload ?(dir = "/obs") fs =
  ok "mkdir" (fs.Fs.mkdir dir 0o755);
  for i = 0 to 15 do
    ok "write"
      (Fs.write_file fs (Printf.sprintf "%s/f%02d" dir i) (String.make (512 * (i + 1)) 'a'))
  done;
  for i = 0 to 15 do
    ignore (ok "read" (Fs.read_file fs (Printf.sprintf "%s/f%02d" dir i)))
  done;
  ignore (ok "readdir" (fs.Fs.readdir dir));
  ignore (ok "stat" (fs.Fs.stat (dir ^ "/f01")));
  ok "rename" (fs.Fs.rename (dir ^ "/f00") (dir ^ "/renamed"));
  ok "unlink" (fs.Fs.unlink (dir ^ "/renamed"));
  (* expected failures *)
  ignore (fs.Fs.open_ (dir ^ "/missing") [ Trio_core.Fs_types.O_RDONLY ]);
  ignore (fs.Fs.mkdir dir 0o755);
  ignore (fs.Fs.unlink (dir ^ "/missing"))

let print_verify_counters ctl =
  let stats = Controller.stats ctl in
  let verify =
    List.filter
      (fun (name, _) -> String.length name >= 6 && String.sub name 0 6 = "verify")
      (Trio_sim.Stats.to_list stats)
  in
  match verify with
  | [] -> Printf.printf "verification plane: no activity recorded\n"
  | kvs ->
    Printf.printf "verification plane (per-invariant timers, pipeline counters):\n";
    List.iter (fun (k, v) -> Printf.printf "  %-32s %.1f\n" k v) kvs

(* The map path's timers, the wait for verification ("settle"), the
   device reads the controller made, the PTE ops the MMU charged and
   how many of them were first-touch faults of on-demand maps. *)
let print_controller_counters ctl pmem =
  let stats = Controller.stats ctl in
  Printf.printf "controller timers (virtual ns) and device reads:\n";
  List.iter
    (fun k -> Printf.printf "  %-32s %.1f\n" k (Trio_sim.Stats.get stats k))
    [ "settle"; "map.walk"; "map.checkpoint"; "map"; "unmap" ];
  let reads, bytes = Pmem.kernel_read_stats pmem in
  Printf.printf "  %-32s %d (%d B)\n" "kernel device reads" reads bytes;
  Printf.printf "  %-32s %d (%d demand faults)\n" "pte ops" (Controller.pte_ops ctl)
    (Controller.demand_faults ctl)

let stats_cmd =
  let run fs_name =
    Rig.run ~nodes:2 ~cpus_per_node:4 ~pages_per_node:65536 ~store_data:true (fun rig ->
        let vfs = Rig.mount_fs rig fs_name in
        observability_workload (Vfs.ops vfs);
        (* A second, ring-mounted LibFS so the batched syscall plane has
           activity to report alongside the sync-path numbers. *)
        let ringfs = Rig.mount_arckfs ~ring:16 rig in
        observability_workload ~dir:"/obs-ring" (Libfs.ops ringfs);
        (* the sharing point: released write mappings ride the
           verification pipeline, so the verify counters are live *)
        Rig.unmount_all rig;
        Printf.printf "%s: %d operations dispatched through the VFS layer\n" fs_name
          (Vfs.total_ops vfs);
        Format.printf "per-op counters, errno breakdown and latency percentiles:@.%a"
          Vfs.pp_breakdown vfs;
        print_verify_counters rig.Rig.ctl;
        print_controller_counters rig.Rig.ctl rig.Rig.pmem;
        Format.printf "per-socket shards (free pages, verify queues):@.%a@."
          Controller.pp_shard_stats
          (Controller.shard_stats rig.Rig.ctl);
        Format.printf "ring plane (depth, batch histogram, park/wake counts per ring):@.%a@."
          Controller.pp_ring_stats
          (Controller.ring_stats rig.Rig.ctl);
        0)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run a mixed workload and dump the VFS per-op counters and latency histograms")
    Term.(const run $ fs_arg)

let trace_cmd =
  let run fs_name last =
    if last <= 0 then begin
      Printf.eprintf "--last must be positive\n";
      exit 2
    end;
    Rig.run ~nodes:2 ~cpus_per_node:4 ~pages_per_node:65536 ~store_data:true (fun rig ->
        let vfs = Rig.mount_fs ~trace_capacity:last rig fs_name in
        observability_workload (Vfs.ops vfs);
        Rig.unmount_all rig;
        Printf.printf "%s: last %d of %d operations (ring capacity %d):\n" fs_name
          (List.length (Vfs.trace vfs))
          (Vfs.total_ops vfs) last;
        Format.printf "%a" Vfs.pp_trace vfs;
        0)
  in
  let last_arg =
    Arg.(value & opt int 32 & info [ "last" ] ~docv:"N" ~doc:"Trace ring capacity (entries kept)")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a mixed workload with a bounded trace ring and dump the most recent operations")
    Term.(const run $ fs_arg $ last_arg)

(* ------------------------------------------------------------------ *)
(* Campaigns: shared arguments, the script loop and the self-test *)

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Script/sampling seed")

let scripts_arg =
  Arg.(value & opt int 3 & info [ "scripts" ] ~doc:"Number of generated scripts to explore")

let ops_arg ?(doc = "Ops per generated script") n = Arg.(value & opt int n & info [ "ops" ] ~doc)

let kill_points_arg ?(doc = "Sampled kill injection points per script") n =
  Arg.(value & opt int n & info [ "kill-points" ] ~docv:"N" ~doc)

(* --timeout-us, handed over in nanoseconds *)
let timeout_ns_arg =
  Term.(
    const (fun us -> us *. 1000.0)
    $ Arg.(
        value & opt float 1000.0
        & info [ "timeout-us" ] ~docv:"US" ~doc:"Watchdog heartbeat timeout in microseconds"))

let mutate_arg doc = Arg.(value & flag & info [ "mutate" ] ~doc)

(* Print a report and hand back its failure. *)
let reported r =
  Format.printf "%a@." Explore.pp_report r;
  r.Explore.k_failure

(* Explore the [given] script, or [scripts] scripts generated from
   [seed], one after another up to the first failure.  A crash-state
   failure also prints the command that replays it. *)
let first_failure ?given ~seed ~scripts ~ops explore () =
  let scripts =
    match given with
    | Some script -> [ script ]
    | None ->
      let rng = Trio_util.Rng.create seed in
      List.init scripts (fun _ -> Script.generate rng ~len:ops)
  in
  let rec go i = function
    | [] -> None
    | script :: rest -> (
      Printf.printf "script %d/%d: %s\n%!" (i + 1) (List.length scripts) (Script.to_string script);
      let r = explore script in
      Format.printf "  %a@." Explore.pp_report r;
      match r.Explore.k_failure with
      | None -> go (i + 1) rest
      | Some { Explore.f_state = Some (Crash { at; survivors }); f_ops; _ } as failure ->
        Format.printf "replay: trioctl crashcheck --script %S --at %d --survive %a@."
          (Script.to_string f_ops) at Explore.pp_survivors survivors;
        failure
      | failure -> failure)
  in
  go 0 scripts

(* Every check subcommand ends here: [check] prints its reports and
   returns the first failure, which fails the command.  Under [--mutate]
   the check runs with the deliberate bug [m] armed and the contract
   inverts: exit 0 only BECAUSE it failed for the [expect]ed reason. *)
let self_test ~mutate m ~expect check =
  if not mutate then if check () = None then 0 else 1
  else begin
    let expected = Explore.reason_to_string expect in
    Printf.printf "%s mutation armed: the campaign must fail (%s)\n%!" (Mutation.to_string m)
      expected;
    match Mutation.with_mutation m check with
    | Some f when f.Explore.f_reason = expect ->
      Printf.printf "mutation caught (%s)\n" expected;
      0
    | Some f ->
      Printf.printf "MUTATION CAUGHT BY THE WRONG CHECK: %s, expected %s\n"
        (Explore.reason_to_string f.Explore.f_reason) expected;
      1
    | None ->
      Printf.printf "MUTATION NOT CAUGHT: the campaign passed\n";
      1
  end

(* ------------------------------------------------------------------ *)
(* crashcheck: systematic crash-state exploration / differential fuzzing *)

let crashcheck_cmd =
  let module Differ = Trio_check.Differ in
  let run script at survive seed scripts ops budget samples diff mutate no_shrink =
    let given =
      Option.map
        (fun s ->
          match Script.parse s with
          | Ok ops -> ops
          | Error e ->
            Printf.eprintf "bad --script: %s\n" e;
            exit 2)
        script
    in
    let config =
      {
        Explore.default_config with
        seed;
        max_states = budget;
        samples_per_point = samples;
        shrink = not no_shrink;
      }
    in
    (* replay one specific crash state of one script *)
    let replay at () =
      match given with
      | None ->
        Printf.eprintf "--at requires --script\n";
        exit 2
      | Some ops -> (
        let survivors =
          match Explore.parse_survivors survive with
          | Ok s -> s
          | Error e ->
            Printf.eprintf "bad --survive: %s\n" e;
            exit 2
        in
        Printf.printf "replaying: %s\n" (Script.to_string ops);
        Format.printf "crash after %d LibFS stores, surviving lines: %a@." at Explore.pp_survivors
          survivors;
        match Explore.check_state ops ~at ~survivors with
        | Ok () ->
          Printf.printf "state is consistent: all completed ops durable, in-flight op atomic\n";
          None
        | Error (reason, d) ->
          Printf.printf "VIOLATION: %s\n" d;
          Some
            {
              Explore.f_reason = reason;
              f_state = Some (Crash { at; survivors });
              f_ops = ops;
              f_detail = d;
            })
    in
    match (at, given) with
    | None, Some ops when diff -> (
      Printf.printf "diffing %d ops across: %s\n" (List.length ops)
        (String.concat " " Differ.default_fses);
      match Differ.diff ~shrink:(not no_shrink) ops with
      | [] ->
        Printf.printf "all file systems agree with the model\n";
        0
      | ds ->
        List.iter (fun d -> Format.printf "%a@." Differ.pp_divergence d) ds;
        1)
    | None, None when diff -> (
      Printf.printf "differential campaign: %d scripts x %d ops across %d file systems\n" scripts
        ops
        (List.length Differ.default_fses);
      match Differ.campaign ~rounds:scripts ~len:ops ~seed () with
      | None ->
        Printf.printf "no divergence found\n";
        0
      | Some (script, ds) ->
        Printf.printf "divergence on: %s\n" (Script.to_string script);
        List.iter (fun d -> Format.printf "%a@." Differ.pp_divergence d) ds;
        1)
    | Some at, _ -> self_test ~mutate Reorder_commit ~expect:(Plane "durability") (replay at)
    | None, _ ->
      self_test ~mutate Reorder_commit ~expect:(Plane "durability")
        (first_failure ?given ~seed ~scripts ~ops (Explore.explore ~config))
  in
  let script_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "script" ] ~docv:"OPS"
          ~doc:"Explicit op script, e.g. \"create /n00; rename /n00 /n01\" (default: generate)")
  in
  let at_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "at" ] ~docv:"N" ~doc:"Replay one crash state: die after $(docv) LibFS stores")
  in
  let survive_arg =
    Arg.(
      value & opt string ""
      & info [ "survive" ] ~docv:"LINES"
          ~doc:"With --at: unflushed cachelines that survive, as page:line,... (default none)")
  in
  let budget_arg =
    Arg.(value & opt int 4096 & info [ "budget" ] ~doc:"Max crash states per script")
  in
  let samples_arg =
    Arg.(
      value & opt int 6
      & info [ "samples" ]
          ~doc:"Sampled surviving subsets per crash point with more than 6 unflushed lines")
  in
  let diff_arg =
    Arg.(
      value & flag
      & info [ "diff" ] ~doc:"Differential mode: diff scripts across all ten file systems")
  in
  let no_shrink_arg =
    Arg.(value & flag & info [ "no-shrink" ] ~doc:"Report failing scripts without minimizing")
  in
  Cmd.v
    (Cmd.info "crashcheck"
       ~doc:
         "Systematically explore crash states of op scripts (and differentially fuzz all file \
          systems)")
    Term.(
      const run $ script_arg $ at_arg $ survive_arg $ seed_arg $ scripts_arg $ ops_arg 8
      $ budget_arg $ samples_arg $ diff_arg
      $ mutate_arg
          "Enable the seeded journal-commit reordering bug (engine self-test): exit 0 only if \
           the exploration, or the --at replay, provably finds a durability violation"
      $ no_shrink_arg)

(* ------------------------------------------------------------------ *)
(* procfail: the process-failure plane (DESIGN.md §4.12) *)

let procfail_cmd =
  let run seed scripts ops kill_points hang_points timeout_ns ring mutate =
    let config = { Explore.kill_points; hang_points; timeout_ns } in
    let ring = if ring > 0 then Some ring else None in
    Option.iter (Printf.printf "ring mode: victims mount with a depth-%d submission ring\n") ring;
    self_test ~mutate Skip_gc ~expect:Accounting
      (first_failure ~seed ~scripts ~ops (Explore.explore_proc_death ~config ?ring))
  in
  let hang_arg =
    Arg.(
      value & opt int 3
      & info [ "hang-points" ] ~docv:"N" ~doc:"Sampled hang (wedge) injection points per script")
  in
  let ring_arg =
    Arg.(
      value & opt int 0
      & info [ "ring" ] ~docv:"DEPTH"
          ~doc:
            "Mount victims with a submission/completion ring of $(docv) entries (0 = \
             synchronous path): the watchdog must also tear the ring down")
  in
  Cmd.v
    (Cmd.info "procfail"
       ~doc:
         "Kill or wedge a LibFS at sampled points mid-script, then assert watchdog escalation, \
          verifier-gated reclamation and zero leaked pages from a second process")
    Term.(
      const run $ seed_arg $ scripts_arg $ ops_arg 8 $ kill_points_arg 12 $ hang_arg
      $ timeout_ns_arg $ ring_arg
      $ mutate_arg
          "Disable the orphan GC (engine self-test): exit 0 only if the leak invariant provably \
           catches it")

(* ------------------------------------------------------------------ *)
(* verifycheck: incremental-vs-full verification differential gate *)

let verifycheck_cmd =
  let module Vdiff = Trio_check.Vdiff in
  let run seeds script_seed script_len mutate =
    self_test ~mutate Drop_writes ~expect:(Plane "divergence") (fun () ->
        let v = Vdiff.differential ~seeds ~script_seed ~script_len () in
        Format.printf "%a@." Vdiff.pp_verdict v;
        match v.Vdiff.vd_diffs with
        | [] -> None
        | d :: _ ->
          Some { Explore.f_reason = Plane "divergence"; f_state = None; f_ops = []; f_detail = d })
  in
  let seeds_arg =
    Arg.(value & opt int 2 & info [ "seeds" ] ~doc:"Seeds per corruption-campaign script")
  in
  let script_seed_arg =
    Arg.(value & opt int 1 & info [ "script-seed" ] ~doc:"Seed for the exploration op script")
  in
  let script_len_arg =
    Arg.(value & opt int 6 & info [ "script-len" ] ~doc:"Ops in the exploration script")
  in
  Cmd.v
    (Cmd.info "verifycheck"
       ~doc:
         "Run the attack suite and a pinned-seed crash exploration under full and incremental \
          verification and demand byte-identical verdicts")
    Term.(
      const run $ seeds_arg $ script_seed_arg $ script_len_arg
      $ mutate_arg
          "Drop pages from the MMU write-set (gate self-test): exit 0 only if the differential \
           provably catches the sabotaged dirty tracking")

(* ------------------------------------------------------------------ *)
(* snap: whole-FS CoW snapshots — take/list/rollback/clone demo, the
   crash-during-commit exploration, and the torn-commit self-test *)

let snap_cmd =
  let module Layout = Trio_core.Layout in
  (* Reconstruct "/d/f" paths from the root's (ino, parent) graph. *)
  let paths_of_entries entries =
    let by_ino = Hashtbl.create 16 in
    List.iter
      (fun (e : Controller.snap_entry) ->
        match Controller.snapshot_entry_checkpoint e with
        | Error _ -> ()
        | Ok ck -> (
          match Layout.decode_dentry ck.Controller.ck_dentry with
          | Some (Ok (inode, name)) -> Hashtbl.replace by_ino e.Controller.e_ino (e, ck, inode, name)
          | _ -> ()))
      entries;
    let rec path_of ino =
      if ino = Controller.root_ino then ""
      else
        match Hashtbl.find_opt by_ino ino with
        | None -> "?"
        | Some (e, _, _, name) -> path_of e.Controller.e_parent ^ "/" ^ name
    in
    Hashtbl.fold (fun ino (_, ck, inode, _) acc -> (path_of ino, ck, inode) :: acc) by_ino []
    |> List.sort compare
  in
  let demo files =
    Rig.run ~nodes:2 ~cpus_per_node:4 ~pages_per_node:65536 ~store_data:true (fun rig ->
        let ctl = rig.Trio_workloads.Rig.ctl in
        let pmem = rig.Trio_workloads.Rig.pmem in
        let libfs = Rig.mount_arckfs ~delegated:false rig in
        let fs = Libfs.ops libfs in
        ok "mkdir" (fs.Fs.mkdir "/snap" 0o755);
        List.iter
          (fun i ->
            ok "write"
              (Fs.write_file fs
                 (Printf.sprintf "/snap/f%02d" i)
                 (String.make ((i * 533 mod 6000) + 32) 'v')))
          (List.init files Fun.id);
        Libfs.unmap_everything libfs;
        (* take *)
        let epoch = ok "snap take" (Controller.snapshot_take ctl) in
        let slot =
          match
            List.filter
              (fun s -> Controller.snapshot_root_status pmem ~slot:s = Some epoch)
              [ 0; 1 ]
          with
          | [ s ] -> s
          | _ ->
            Printf.eprintf "published root not found in exactly one slot\n";
            exit 1
        in
        Printf.printf "snap take: epoch %d committed to slot %d (%d payload pages pinned)\n"
          epoch slot
          (Controller.snap_pinned_count ctl);
        (* list *)
        let listed =
          match Controller.snapshot_entries ctl with
          | Error m ->
            Printf.eprintf "snap list failed: %s\n" m;
            exit 1
          | Ok (e, entries) ->
            Printf.printf "snap list: epoch %d, %d entries\n" e (List.length entries);
            let paths = paths_of_entries entries in
            List.iter
              (fun (path, (ck : Controller.checkpoint), (inode : Layout.inode)) ->
                Printf.printf "  %-24s ino %-4d %-4s size %-6d ck pages %d\n"
                  (if path = "" then "/" else path)
                  inode.Layout.ino
                  (match inode.Layout.ftype with Trio_core.Fs_types.Dir -> "dir" | _ -> "reg")
                  ck.Controller.ck_size (Trio_core.Ctl_state.Page_map.cardinal ck.Controller.ck_pages))
              paths;
            paths
        in
        (* mutate after the snapshot: an append the rollback must undo *)
        let victim = "/snap/f00" in
        let before = String.length (ok "read" (Fs.read_file fs victim)) in
        let fd = ok "reopen" (fs.Fs.open_ victim [ Trio_core.Fs_types.O_RDWR ]) in
        ignore (ok "append" (fs.Fs.append fd (Bytes.make 257 't')));
        Libfs.unmap_everything libfs;
        let mutated = String.length (ok "read" (Fs.read_file fs victim)) in
        (* rollback *)
        let ino = (ok "stat" (fs.Fs.stat victim)).Trio_core.Fs_types.st_ino in
        (match Controller.snapshot_rollback_file ctl ~proc:libfs.Libfs.proc ~ino with
        | Ok () -> ()
        | Error m ->
          Printf.eprintf "snap rollback refused: %s\n" m;
          exit 1);
        let fs2 = Libfs.ops (Rig.mount_arckfs ~delegated:false rig) in
        let after = String.length (ok "read" (Fs.read_file fs2 victim)) in
        Printf.printf
          "snap rollback: %s  %d bytes -> %d after append -> %d back at epoch %d (verifier \
           re-certified)\n"
          victim before mutated after epoch;
        if after <> before then begin
          Printf.eprintf "rollback did not restore the snapshot size\n";
          exit 1
        end;
        (* clone: materialize the listed tree under /clone *)
        ok "mkdir clone" (fs2.Fs.mkdir "/clone" 0o755);
        let cloned = ref 0 in
        List.iter
          (fun (path, (_ : Controller.checkpoint), (inode : Layout.inode)) ->
            if path <> "" then
              match inode.Layout.ftype with
              | Trio_core.Fs_types.Dir -> ok "clone mkdir" (fs2.Fs.mkdir ("/clone" ^ path) 0o755)
              | _ ->
                let data = ok "clone read" (Fs.read_file fs2 path) in
                ok "clone write" (Fs.write_file fs2 ("/clone" ^ path) data);
                incr cloned)
          listed;
        Printf.printf "snap clone: %d file(s) copied into /clone\n" !cloned;
        let gc = Controller.gc_once ctl in
        if (not gc.Controller.gc_invariant_ok) || gc.Controller.gc_leaked > 0 then begin
          Format.printf "page accounting broken: %a@." Controller.pp_gc_report gc;
          exit 1
        end;
        Printf.printf "accounting: %d page(s) snap-pinned, invariant holds, 0 leaked\n"
          gc.Controller.gc_snap_pinned;
        0)
  in
  let run seed files scripts ops kill_points mutate =
    if mutate || scripts > 0 then
      self_test ~mutate Torn_commit ~expect:(Plane "zero-roots")
        (first_failure ~seed ~scripts:(max 1 scripts) ~ops
           (Explore.explore_snapshot_commit ~config:(Explore.kills kill_points)))
    else demo files
  in
  let files_arg =
    Arg.(value & opt int 12 & info [ "files" ] ~doc:"Files to build for the take/list/rollback/clone demo")
  in
  let explore_arg =
    Arg.(
      value & opt int 0
      & info [ "explore" ] ~docv:"N"
          ~doc:
            "Instead of the demo, explore $(docv) generated scripts, killing publication at \
             every sampled point and demanding a certifiable root in every crash state")
  in
  Cmd.v
    (Cmd.info "snap"
       ~doc:
         "Whole-FS CoW snapshots: take, list, verifier-gated rollback and clone, plus the \
          crash-during-commit exploration campaign")
    Term.(
      const run $ seed_arg $ files_arg $ explore_arg $ ops_arg 5 $ kill_points_arg 12
      $ mutate_arg
          "Sabotage the commit ordering (engine self-test): exit 0 only if the exploration \
           provably observes a zero-valid-root crash state")

(* ------------------------------------------------------------------ *)
(* micro: one microbenchmark on one fs *)

let micro_cmd =
  let run fs_name op threads =
    Rig.run ~nodes:8 ~cpus_per_node:28 ~pages_per_node:(1 lsl 19) ~store_data:false (fun rig ->
        let vfs = Rig.mount_fs ~store_data:false rig fs_name in
        let bench =
          match op with
          | "create" -> Trio_workloads.Fxmark.find "MWCL"
          | "open" -> Trio_workloads.Fxmark.find "MRPL"
          | "unlink" -> Trio_workloads.Fxmark.find "MWUL"
          | "rename" -> Trio_workloads.Fxmark.find "MWRL"
          | "readdir" -> Trio_workloads.Fxmark.find "MRDL"
          | "truncate" -> Trio_workloads.Fxmark.find "DWTL"
          | other -> (
            try Trio_workloads.Fxmark.find other
            with Not_found ->
              Printf.eprintf "unknown op %s\n" other;
              exit 2)
        in
        let r =
          Trio_workloads.Fxmark.run rig vfs bench ~threads ~max_ops:12_000 ~max_ns:10.0e6 ()
        in
        Format.printf "%s %s: %a@." fs_name bench.Trio_workloads.Fxmark.name
          Trio_workloads.Runner.pp_result r;
        Format.printf "per-op latency breakdown:@.%a" Vfs.pp_breakdown vfs;
        0)
  in
  let op_arg =
    Arg.(value & opt string "create" & info [ "op" ] ~doc:"create|open|unlink|rename|readdir|truncate or an FxMark name")
  in
  let thr_arg = Arg.(value & opt int 28 & info [ "threads" ] ~doc:"Thread count") in
  Cmd.v (Cmd.info "micro" ~doc:"Run one metadata microbenchmark")
    Term.(const run $ fs_arg $ op_arg $ thr_arg)

(* ------------------------------------------------------------------ *)
(* qos: the multi-tenant QoS plane (DESIGN.md §4.17) *)

let qos_cmd =
  let module Ycsb = Trio_workloads.Ycsb in
  let module Attacks = Trio_attacks.Attacks in
  let run kill_points ops ring timeout_ns mutate =
    let config = { (Explore.kills kill_points) with timeout_ns } in
    if not mutate then begin
      (* A live multi-tenant mix first so the counters mean something:
         two honest YCSB tenants, a byzantine noisy neighbour on a
         starvation share, and a bulk tenant SIGKILLed mid-run. *)
      Rig.run ~nodes:2 ~cpus_per_node:4 ~pages_per_node:(1 lsl 14) ~store_data:true
        (fun rig ->
          let nb = Attacks.noisy_neighbor ~qos_share:0.02 rig in
          let specs =
            [
              Ycsb.spec ~share:1.0 ~ops:40 "honest-a" Ycsb.A;
              Ycsb.spec ~share:1.0 ~ops:40 "honest-c" Ycsb.C;
              Ycsb.spec ~share:0.1 ~ops:160 ~kill_after:120 "killer" Ycsb.A;
            ]
          in
          let results =
            Ycsb.run rig ~records:32 ~value_size:32 ~ring_depth:8
              ~chaos:[ Attacks.neighbor_fiber nb ] specs
          in
          List.iter (fun r -> Format.printf "%a@." Ycsb.pp_tenant_result r) results;
          Printf.printf "byzantine neighbour: %d cycle(s), %d corruption(s) rejected\n"
            nb.Attacks.nb_cycles nb.Attacks.nb_rejected;
          Format.printf "@.per-tenant shares, charges and throttling:@.%a"
            Controller.pp_qos_stats
            (Controller.qos_stats rig.Rig.ctl);
          Format.printf
            "@.ring plane (SQ-full, park/wake and producer park time per ring):@.%a@."
            Controller.pp_ring_stats
            (Controller.ring_stats rig.Rig.ctl);
          (* Reclaim the SIGKILLed tenant before the rig unmounts. *)
          Sched.delay 2.0e6;
          let escalated = Controller.watchdog_once rig.Rig.ctl ~timeout_ns:1.0e6 in
          ignore (Controller.drain_unverified rig.Rig.ctl : int);
          let gc = Controller.gc_once rig.Rig.ctl in
          Printf.printf
            "reclaim: watchdog escalated %d process(es), gc reclaimed %d page(s), ledger %s\n"
            (List.length escalated) gc.Controller.gc_reclaimed_pages
            (if gc.Controller.gc_invariant_ok then "balanced" else "IMBALANCED");
          0)
      |> ignore;
      Printf.printf "\nkill exploration: SIGKILLs inside throttled/parked states\n%!"
    end;
    self_test ~mutate Qos_bypass ~expect:Vacuous (fun () ->
        reported (Explore.explore_qos ~config ~ring ~ops ()))
  in
  let ring_arg =
    Arg.(
      value & opt int 4
      & info [ "ring" ] ~docv:"DEPTH"
          ~doc:"Victim ring depth; throttle parks at the ring mouth are kill points")
  in
  Cmd.v
    (Cmd.info "qos"
       ~doc:
         "Run a multi-tenant byzantine/SIGKILL mix, dump per-tenant QoS charges and throttle \
          counters, then SIGKILL a throttled victim at sampled points and assert reclamation")
    Term.(
      const run
      $ kill_points_arg ~doc:"Sampled kill injection points" 12
      $ ops_arg ~doc:"Write+share cycles the throttled victim runs" 10
      $ ring_arg $ timeout_ns_arg
      $ mutate_arg
          "Disable QoS charging (engine self-test): exit 0 only if the campaign provably \
           notices that the victim is never throttled")

(* ------------------------------------------------------------------ *)
(* dircheck: the ordered directory-index plane (DESIGN.md §4.18) *)

let dircheck_cmd =
  let run kill_points entries capacity timeout_ns mutate =
    let config = { (Explore.kills kill_points) with timeout_ns } in
    self_test ~mutate Skip_index ~expect:Certification (fun () ->
        reported (Explore.explore_dir_index ~config ~entries ~capacity ()))
  in
  let entries_arg =
    Arg.(
      value & opt int 16
      & info [ "entries" ] ~doc:"Creates the victim attempts (with periodic unlink/rename)")
  in
  let capacity_arg =
    Arg.(
      value & opt int 4
      & info [ "capacity" ] ~docv:"K"
          ~doc:"Forced B-link node capacity, so a handful of creates already splits (min 2)")
  in
  Cmd.v
    (Cmd.info "dircheck"
       ~doc:
         "SIGKILL a LibFS inside B-link directory-index updates at sampled points and demand \
          every crash state certifies as consistent or cleanly unindexed")
    Term.(
      const run
      $ kill_points_arg ~doc:"Sampled kill injection points inside index updates" 18
      $ entries_arg $ capacity_arg $ timeout_ns_arg
      $ mutate_arg
          "Silently drop index maintenance in the LibFS (engine self-test): exit 0 only if \
           verifier invariant I5 provably catches the divergence")

let () =
  let doc = "Trio/ArckFS userspace NVM file system simulator" in
  let main =
    Cmd.group (Cmd.info "trioctl" ~doc)
      [
        info_cmd;
        smoke_cmd;
        fsck_cmd;
        attacks_cmd;
        crashcheck_cmd;
        verifycheck_cmd;
        faults_cmd;
        scrub_cmd;
        procfail_cmd;
        snap_cmd;
        micro_cmd;
        stats_cmd;
        trace_cmd;
        qos_cmd;
        dircheck_cmd;
      ]
  in
  exit (Cmd.eval' main)
