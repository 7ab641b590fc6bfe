(* Ring-protocol test suite (DESIGN.md §4.15): SQ/CQ mechanics in
   isolation (wrap-around, backpressure, completion correspondence),
   equivalence of the batched and synchronous syscall paths over the
   same op script, ring isolation (each ring's own drain fiber and
   counters), a kill-point sweep across every Delay boundary the
   ring path crosses, and the full conformance suite with the ring
   enabled. *)

module Sched = Trio_sim.Sched
module Controller = Trio_core.Controller
module Ring = Trio_core.Controller.Ring
module Fs = Trio_core.Fs_intf
module Libfs = Arckfs.Libfs
open Trio_core.Fs_types

let timeout_ns = 1.0e6

(* ------------------------------------------------------------------ *)
(* Protocol mechanics: a bare ring driven by hand, no controller in the
   loop.  [submit]/[take_batch]/[post]/[await] are exercised directly so
   a failure pinpoints the queue logic, not the drain plane. *)

let test_wraparound () =
  (* Three full revolutions of a capacity-4 ring: sequence numbers run
     past the capacity and every slot is reused, with nothing lost. *)
  Helpers.run_sim (fun _env ->
      let r = Ring.create ~proc:7 ~capacity:4 in
      for _round = 0 to 2 do
        let seqs =
          List.init 4 (fun _ ->
              match Ring.submit r Ring.Op_lease with
              | Ok s -> s
              | Error e -> Alcotest.failf "submit: %s" (errno_to_string e))
        in
        let batch = Ring.take_batch r ~max:64 in
        Alcotest.(check int) "whole SQ drained" 4 (List.length batch);
        List.iter (fun (seq, _) -> Ring.post r ~seq (Ok false)) batch;
        List.iter
          (fun seq ->
            match Ring.await r ~seq with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "await %d: %s" seq (errno_to_string e))
          seqs
      done;
      Alcotest.(check int) "12 submitted" 12 (Ring.submitted r);
      Alcotest.(check int) "12 reaped" 12 (Ring.completed r);
      Alcotest.(check int) "SQ empty" 0 (Ring.depth r);
      Alcotest.(check int) "nothing outstanding" 0 (Ring.outstanding r))

let test_backpressure () =
  (* A producer pushing five fire-and-forget entries through a
     capacity-2 ring must park on the third and resume as the consumer
     frees slots — blocked, never failed, and no entry lost. *)
  Helpers.run_sim (fun env ->
      let sched = env.Helpers.sched in
      let r = Ring.create ~proc:7 ~capacity:2 in
      let accepted = ref 0 and producer_done = ref false in
      Sched.spawn sched (fun () ->
          for _ = 1 to 5 do
            match Ring.submit ~forget:true r Ring.Op_lease with
            | Ok _ -> incr accepted
            | Error e -> Alcotest.failf "submit: %s" (errno_to_string e)
          done;
          producer_done := true);
      Sched.delay 1.0e3;
      Alcotest.(check int) "ring full" 2 (Ring.outstanding r);
      Alcotest.(check bool) "producer parked" true (Ring.sq_parks r > 0);
      Alcotest.(check bool) "producer blocked, not failed" false !producer_done;
      (* Drain one entry at a time; backpressure releases step by step. *)
      let drained = ref 0 in
      while !drained < 5 do
        let batch = Ring.take_batch r ~max:1 in
        List.iter (fun (seq, _) -> Ring.post r ~seq (Ok false)) batch;
        drained := !drained + List.length batch;
        Sched.delay 1.0e3
      done;
      Sched.delay 1.0e3;
      Alcotest.(check bool) "producer finished" true !producer_done;
      Alcotest.(check int) "no entry lost" 5 !accepted;
      Alcotest.(check int) "all reaped" 5 (Ring.completed r);
      Alcotest.(check int) "nothing outstanding" 0 (Ring.outstanding r))

let test_interleaved_producers () =
  (* Two producers share one ring with jittered submit cadences; the
     consumer posts a parity-coded completion per sequence number.  Each
     await must surface exactly the completion posted for its own seq —
     interleaving must never cross-deliver. *)
  Helpers.run_sim (fun env ->
      let sched = env.Helpers.sched in
      let r = Ring.create ~proc:7 ~capacity:8 in
      let mismatches = ref 0 and completions = ref 0 in
      let producer jitter n =
        Sched.spawn sched (fun () ->
            for _ = 1 to n do
              Sched.delay jitter;
              match Ring.submit r Ring.Op_lease with
              | Error e -> Alcotest.failf "submit: %s" (errno_to_string e)
              | Ok seq ->
                let expect = if seq mod 2 = 0 then Ok false else Error EINVAL in
                if Ring.await r ~seq <> expect then incr mismatches;
                incr completions
            done)
      in
      producer 1.0e3 8;
      producer 1.7e3 8;
      let posted = ref 0 in
      while !posted < 16 do
        Sched.delay 0.9e3;
        List.iter
          (fun (seq, _) ->
            Ring.post r ~seq (if seq mod 2 = 0 then Ok false else Error EINVAL);
            incr posted)
          (Ring.take_batch r ~max:3)
      done;
      Sched.delay 20.0e3;
      Alcotest.(check int) "all completions observed" 16 !completions;
      Alcotest.(check int) "every await matched its seq" 0 !mismatches;
      Alcotest.(check int) "nothing outstanding" 0 (Ring.outstanding r))

(* ------------------------------------------------------------------ *)
(* Batch-drain equivalence: the same op script through a ring-mounted
   and a synchronously-mounted ArckFS must yield the same errno trace,
   the same visible namespace, and balanced books in both worlds. *)

let equivalence_script ops =
  let out = ref [] in
  let tag name r =
    out := (name ^ ":" ^ match r with Ok _ -> "ok" | Error e -> errno_to_string e) :: !out
  in
  tag "mkdir" (ops.Fs.mkdir "/eq" 0o755);
  tag "mkdir" (ops.Fs.mkdir "/eq" 0o755);
  for i = 0 to 9 do
    tag "write" (Fs.write_file ops (Printf.sprintf "/eq/f%d" i) (String.make (100 * (i + 1)) 'r'))
  done;
  tag "read" (Fs.read_file ops "/eq/f3");
  tag "read" (Fs.read_file ops "/eq/missing");
  tag "rename" (ops.Fs.rename "/eq/f0" "/eq/g0");
  tag "unlink" (ops.Fs.unlink "/eq/f1");
  tag "unlink" (ops.Fs.unlink "/eq/f1");
  tag "stat" (ops.Fs.stat "/eq/g0");
  tag "rmdir" (ops.Fs.rmdir "/eq");
  let names =
    match ops.Fs.readdir "/eq" with
    | Ok entries -> List.sort compare (List.map (fun e -> e.d_name) entries)
    | Error e -> Alcotest.failf "readdir: %s" (errno_to_string e)
  in
  (List.rev !out, names)

let run_equivalence_world ?ring () =
  Helpers.run_sim (fun env ->
      let fs = Helpers.mount ~proc:1 ?ring env in
      let labels, names = equivalence_script (Libfs.ops fs) in
      Libfs.unmap_everything fs;
      Conformance.accounting env.Helpers.ctl;
      let ring_submits =
        match Controller.ring_of env.Helpers.ctl 1 with
        | Some r -> Ring.submitted r
        | None -> 0
      in
      (labels, names, ring_submits))

let test_batch_drain_equivalence () =
  let sync_labels, sync_names, sync_submits = run_equivalence_world () in
  let ring_labels, ring_names, ring_submits = run_equivalence_world ~ring:8 () in
  Alcotest.(check int) "sync world has no ring" 0 sync_submits;
  Alcotest.(check bool) "ring world used the ring" true (ring_submits > 0);
  Alcotest.(check (list string)) "errno trace parity" sync_labels ring_labels;
  Alcotest.(check (list string)) "visible namespace parity" sync_names ring_names

(* ------------------------------------------------------------------ *)
(* Kill-point sweep: a counting pass over a ring-mounted victim fixes
   the number of Delay/cpu_work boundaries its script crosses (the ring
   submit's own kill point among them), then a fresh world per point
   kills exactly there.  Whatever the landing spot, the watchdog's
   teardown must leave the page accounting balanced. *)

let ring_victim_script ops =
  ignore (ops.Fs.mkdir "/k" 0o755);
  ignore (Fs.write_file ops "/k/a" (String.make 300 'a'));
  ignore (Fs.read_file ops "/k/a");
  ignore (ops.Fs.unlink "/k/a")

let test_kill_every_ring_point () =
  let points =
    Helpers.run_sim ~lease_ns:timeout_ns (fun env ->
        let sched = env.Helpers.sched in
        let fs = Helpers.mount ~proc:1 ~ring:4 env in
        let ops = Libfs.ops fs in
        Sched.spawn sched (fun () -> Sched.killable (fun () -> ring_victim_script ops));
        Sched.arm_count sched;
        Sched.delay 10.0e6;
        Sched.disarm sched;
        Sched.kill_points_crossed sched)
  in
  Alcotest.(check bool) "ring workload crosses kill points" true (points > 0);
  (* Sweep every boundary, thinning only if the script grows huge. *)
  let step = if points > 120 then points / 120 else 1 in
  let k = ref 0 in
  while !k < points do
    let at = !k in
    Helpers.run_sim ~lease_ns:timeout_ns (fun env ->
        let sched = env.Helpers.sched in
        let ctl = env.Helpers.ctl in
        let fs = Helpers.mount ~proc:1 ~ring:4 env in
        let ops = Libfs.ops fs in
        Sched.spawn sched (fun () -> Sched.killable (fun () -> ring_victim_script ops));
        Sched.arm_kill sched ~after:at;
        Sched.delay 10.0e6;
        Sched.disarm sched;
        (match Controller.watchdog_once ctl ~timeout_ns with
        | [] | [ 1 ] -> ()
        | l ->
          Alcotest.failf "kill@%d: unexpected escalation [%s]" at
            (String.concat ";" (List.map string_of_int l)));
        ignore (Controller.drain_unverified ctl);
        let gc = Controller.gc_once ctl in
        if not gc.Controller.gc_invariant_ok then
          Alcotest.failf "kill@%d: page accounting broken" at;
        Alcotest.(check int) (Printf.sprintf "kill@%d leaks" at) 0 gc.Controller.gc_leaked);
    k := !k + step
  done

(* ------------------------------------------------------------------ *)
(* Ring isolation: every ring has its own drain fiber, so a ring whose
   map waits out another tenant's lease holds back no other ring, not
   even one whose fiber runs on the same socket. *)

let test_lease_wait_stalls_no_other_ring () =
  let lease_ns = 1.0e6 in
  Helpers.run_sim ~lease_ns (fun env ->
      let sched = env.Helpers.sched in
      let setup = Helpers.mount ~proc:3 env in
      Helpers.check_ok "mkdir /a" ((Libfs.ops setup).Fs.mkdir "/a" 0o755);
      Helpers.check_ok "mkdir /b" ((Libfs.ops setup).Fs.mkdir "/b" 0o755);
      Libfs.unmap_everything setup;
      (* A synchronous tenant keeps /a and /a/f write-mapped under its
         lease. *)
      let held_from = Sched.now sched in
      let holder = Libfs.ops (Helpers.mount ~proc:1 env) in
      Helpers.check_ok "holder write" (Fs.write_file holder "/a/f" (String.make 64 'h'));
      (* Two ring tenants whose drain fibers both run on socket 0. *)
      let blocked = Libfs.ops (Helpers.mount ~proc:2 ~ring:4 env) in
      let other = Libfs.ops (Helpers.mount ~proc:4 ~ring:4 env) in
      let write_done = ref None and create_ns = ref None in
      Sched.spawn sched (fun () ->
          let fd = Helpers.check_ok "open /a/f" (blocked.Fs.open_ "/a/f" [ O_RDWR ]) in
          ignore (Helpers.check_ok "write /a/f" (blocked.Fs.pwrite fd (Bytes.make 64 'w') 0));
          write_done := Some (Sched.now sched));
      Sched.spawn sched (fun () ->
          Sched.delay 1.0e3;
          let t0 = Sched.now sched in
          ignore (Helpers.check_ok "create /b/g" (other.Fs.create "/b/g" 0o644));
          create_ns := Some (Sched.now sched -. t0));
      Sched.delay (3.0 *. lease_ns);
      (match !create_ns with
      | Some ns when ns < lease_ns /. 10.0 -> ()
      | Some ns -> Alcotest.failf "the other ring waited: create took %.0f ns" ns
      | None -> Alcotest.fail "the other ring's create never finished");
      match !write_done with
      | Some at when at >= held_from +. lease_ns -> ()
      | Some at -> Alcotest.failf "the write ended at %.0f ns, inside the holder's lease" at
      | None -> Alcotest.fail "the blocked write never finished")

(* The drain counters live on each ring: [ring_stats] has one record
   per ring, sorted by process, and only the ring that was drained
   moves — not even the idle ring whose fiber shares its socket. *)
let test_ring_stats_per_ring () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl in
      let busy = Libfs.ops (Helpers.mount ~proc:5 ~ring:4 env) in
      ignore (Helpers.mount ~proc:2 ~ring:4 env);
      ignore (Helpers.mount ~proc:3 ~ring:4 env);
      let before = Controller.ring_stats ctl in
      Alcotest.(check (list int))
        "one record per ring, by process" [ 2; 3; 5 ]
        (List.map (fun s -> s.Controller.rg_proc) before);
      Helpers.check_ok "mkdir /d" (busy.Fs.mkdir "/d" 0o755);
      for i = 0 to 4 do
        Helpers.check_ok "write" (Fs.write_file busy (Printf.sprintf "/d/f%d" i) "x")
      done;
      let after = Controller.ring_stats ctl in
      List.iter2
        (fun (b : Controller.ring_stat) (a : Controller.ring_stat) ->
          let name what = Printf.sprintf "ring %d %s" a.rg_proc what in
          if a.rg_proc = 5 then begin
            Alcotest.(check bool) (name "drained ops") true (a.rg_ops > b.rg_ops);
            Alcotest.(check bool) (name "took batches") true (a.rg_batches > b.rg_batches);
            Alcotest.(check bool) (name "fiber was woken") true (a.rg_wakes > b.rg_wakes)
          end
          else begin
            Alcotest.(check int) (name "ops") b.rg_ops a.rg_ops;
            Alcotest.(check int) (name "batches") b.rg_batches a.rg_batches;
            Alcotest.(check int) (name "wakes") b.rg_wakes a.rg_wakes
          end;
          let ring = Option.get (Controller.ring_of ctl a.rg_proc) in
          Alcotest.(check int) (name "ops match the ring") (Ring.ops ring) a.rg_ops;
          Alcotest.(check int)
            (name "histogram counts every batch")
            a.rg_batches
            (Array.fold_left ( + ) 0 a.rg_hist))
        before after)

(* Pausing the drain plane holds every ring's entries in its SQ;
   unpausing wakes each ring's own fiber, on both sockets. *)
let test_unpause_wakes_every_ring () =
  Helpers.run_sim (fun env ->
      let sched = env.Helpers.sched in
      let ctl = env.Helpers.ctl in
      let procs = [ 1; 2; 3; 4 ] in
      Controller.set_ring_paused ctl true;
      List.iter (fun proc -> ignore (Helpers.mount ~proc ~ring:4 env)) procs;
      let ring proc = Option.get (Controller.ring_of ctl proc) in
      let completed = Hashtbl.create 4 in
      List.iter
        (fun proc ->
          Sched.spawn sched (fun () ->
              match Ring.submit (ring proc) Ring.Op_lease with
              | Error e -> Alcotest.failf "ring %d submit: %s" proc (errno_to_string e)
              | Ok seq -> (
                match Ring.await (ring proc) ~seq with
                | Ok _ -> Hashtbl.replace completed proc ()
                | Error e -> Alcotest.failf "ring %d lease: %s" proc (errno_to_string e))))
        procs;
      Sched.delay 1.0e6;
      List.iter
        (fun proc ->
          let name what = Printf.sprintf "ring %d %s" proc what in
          Alcotest.(check bool) (name "held while paused") false (Hashtbl.mem completed proc);
          Alcotest.(check int) (name "entry waits in the SQ") 1 (Ring.depth (ring proc)))
        procs;
      Controller.set_ring_paused ctl false;
      Sched.delay 100.0e3;
      List.iter
        (fun proc ->
          let name what = Printf.sprintf "ring %d %s" proc what in
          Alcotest.(check bool) (name "completed after unpause") true (Hashtbl.mem completed proc);
          Alcotest.(check int) (name "SQ drained") 0 (Ring.depth (ring proc)))
        procs)

(* ------------------------------------------------------------------ *)
(* The shared conformance suite (including the errno-parity script every
   evaluated file system must match, and the VFS counter checks) over an
   ArckFS whose map/unmap traffic rides the ring. *)

let ring_conformance =
  ( "conformance",
    Conformance.suite ~make_fs:(fun check ->
        Helpers.run_sim (fun env ->
            let fs = Helpers.mount ~proc:1 ~ring:8 env in
            check (Trio_core.Vfs.wrap ~sched:env.Helpers.sched (Libfs.ops fs));
            Libfs.unmap_everything fs;
            Conformance.accounting env.Helpers.ctl)) )

let () =
  Alcotest.run "ring"
    [
      ( "protocol",
        [
          Alcotest.test_case "wrap-around reuses slots" `Quick test_wraparound;
          Alcotest.test_case "full SQ parks the producer" `Quick test_backpressure;
          Alcotest.test_case "interleaved producers, per-seq delivery" `Quick
            test_interleaved_producers;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "ring and sync paths agree" `Quick test_batch_drain_equivalence;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "a lease wait on one ring stalls no other ring" `Quick
            test_lease_wait_stalls_no_other_ring;
          Alcotest.test_case "stats are per ring" `Quick test_ring_stats_per_ring;
          Alcotest.test_case "unpause wakes every ring" `Quick test_unpause_wakes_every_ring;
        ] );
      ( "kill points",
        [
          Alcotest.test_case "every ring boundary, balanced books" `Quick
            test_kill_every_ring_point;
        ] );
      ring_conformance;
    ]
