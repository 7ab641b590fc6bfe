(* Process-failure plane: kill/hang injection, the controller watchdog's
   escalation ladder, the verifier gate on unverified handoffs, and the
   orphan-page GC with its accounting invariant (DESIGN.md §4.12). *)

module Sched = Trio_sim.Sched
module Pmem = Trio_nvm.Pmem
module Controller = Trio_core.Controller
module Fs = Trio_core.Fs_intf
module Libfs = Arckfs.Libfs
module Script = Trio_check.Script
module Explore = Trio_check.Explore
module Rng = Trio_util.Rng
open Trio_core.Fs_types

let timeout_ns = 1.0e6

(* Mount a victim, run [work] in a killable fiber with the injector
   armed, give the watchdog a chance, and hand the test body an intact
   world plus the victim's libfs.  [work] gets the victim's fs record. *)
let with_victim ?(arm = fun _ -> ()) ?(after = fun _ -> ()) env work =
  let sched = env.Helpers.sched in
  let fs1 = Helpers.mount ~proc:1 env in
  let ops1 = Libfs.ops fs1 in
  Sched.spawn sched (fun () -> Sched.killable (fun () -> work ops1));
  arm sched;
  Sched.delay 10.0e6;
  Sched.disarm sched;
  after fs1;
  fs1

(* ------------------------------------------------------------------ *)
(* Scheduler-level injection *)

let test_kill_injection () =
  (* Killing at point 0 stops the victim before any op completes; the
     fiber dies silently (no simulation failure). *)
  Helpers.run_sim ~lease_ns:timeout_ns (fun env ->
      let progressed = ref 0 in
      ignore
        (with_victim env
           ~arm:(fun s -> Sched.arm_kill s ~after:0)
           (fun ops1 ->
             Helpers.check_ok "create" (Fs.write_file ops1 "/a" "aaaa");
             incr progressed;
             Helpers.check_ok "create" (Fs.write_file ops1 "/b" "bbbb");
             incr progressed));
      Alcotest.(check int) "no op completed" 0 !progressed)

let test_kill_counts_points () =
  (* The counting pass sees a stable, positive number of kill points for
     a fixed workload, and a later kill index dies later. *)
  Helpers.run_sim ~lease_ns:timeout_ns (fun env ->
      let progressed = ref 0 in
      ignore
        (with_victim env ~arm:Sched.arm_count (fun ops1 ->
             Helpers.check_ok "create" (Fs.write_file ops1 "/a" "aaaa");
             incr progressed;
             Helpers.check_ok "create" (Fs.write_file ops1 "/b" "bbbb");
             incr progressed));
      let points = Sched.kill_points_crossed env.Helpers.sched in
      Alcotest.(check bool) "crossed points" true (points > 0);
      Alcotest.(check int) "completed uninjured" 2 !progressed)

let test_hang_injection () =
  (* A wedged fiber stops making progress but the simulation still
     drains; the victim keeps its resources. *)
  Helpers.run_sim ~lease_ns:timeout_ns (fun env ->
      let progressed = ref 0 in
      ignore
        (with_victim env
           ~arm:(fun s -> Sched.arm_hang s ~after:0)
           (fun ops1 ->
             Helpers.check_ok "create" (Fs.write_file ops1 "/a" "aaaa");
             incr progressed));
      Alcotest.(check int) "wedged before completing" 0 !progressed;
      Alcotest.(check int) "one fiber hung" 1 (Sched.hung_fibers env.Helpers.sched))

let test_shield_blocks_kill () =
  (* Inside a shield the injector never fires; the kill lands at the
     first unshielded point instead. *)
  Helpers.run_sim ~lease_ns:timeout_ns (fun env ->
      let shielded_done = ref false in
      ignore
        (with_victim env
           ~arm:(fun s -> Sched.arm_kill s ~after:0)
           (fun ops1 ->
             Sched.shield (fun () ->
                 Helpers.check_ok "create" (Fs.write_file ops1 "/a" "aaaa");
                 shielded_done := true);
             Helpers.check_ok "create" (Fs.write_file ops1 "/b" "bbbb");
             Alcotest.fail "survived past the first unshielded kill point"));
      Alcotest.(check bool) "shielded section completed" true !shielded_done)

(* ------------------------------------------------------------------ *)
(* Watchdog escalation ladder *)

let test_watchdog_escalates_dead () =
  Helpers.run_sim ~lease_ns:timeout_ns (fun env ->
      ignore
        (with_victim env
           ~arm:(fun s -> Sched.arm_kill s ~after:4)
           (fun ops1 -> ignore (Fs.write_file ops1 "/a" (String.make 256 'a'))));
      let ctl = env.Helpers.ctl in
      let report = Controller.make_watchdog_report () in
      let escalated = Controller.watchdog_once ~report ctl ~timeout_ns in
      Alcotest.(check (list int)) "victim escalated" [ 1 ] escalated;
      Alcotest.(check bool) "marked dead" true (Controller.process_dead ctl ~proc:1);
      (* Second scan is idempotent: already dead, nothing to do. *)
      Alcotest.(check (list int)) "idempotent" [] (Controller.watchdog_once ctl ~timeout_ns))

let test_watchdog_respects_lease () =
  (* Rung 1: a silent writer whose lease is still running is not
     escalated; after expiry it is. *)
  Helpers.run_sim ~lease_ns:50.0e6 (fun env ->
      let sched = env.Helpers.sched in
      let fs1 = Helpers.mount ~proc:1 env in
      let ops1 = Libfs.ops fs1 in
      Sched.spawn sched (fun () ->
          Sched.killable (fun () ->
              Helpers.check_ok "write" (Fs.write_file ops1 "/f" "data")));
      Sched.arm_kill sched ~after:30;
      Sched.delay 10.0e6;
      Sched.disarm sched;
      (* Stale (timeout 1ms, silent ~10ms) but the 50ms write lease on the
         mapped file still runs: benefit of the doubt. *)
      let ctl = env.Helpers.ctl in
      (match Controller.watchdog_once ctl ~timeout_ns with
      | [] -> ()
      | l ->
        Alcotest.failf "escalated during the lease: [%s]"
          (String.concat ";" (List.map string_of_int l)));
      Sched.delay 60.0e6;
      Alcotest.(check (list int)) "escalated after lease expiry" [ 1 ]
        (Controller.watchdog_once ctl ~timeout_ns))

let test_heartbeat_defers_watchdog () =
  (* A process that keeps issuing ops is never escalated, no matter how
     long it lives. *)
  Helpers.run_sim ~lease_ns:timeout_ns (fun env ->
      let fs1 = Helpers.mount ~proc:1 env in
      let ops1 = Libfs.ops fs1 in
      let ctl = env.Helpers.ctl in
      for i = 0 to 9 do
        Sched.delay (timeout_ns /. 2.0);
        Helpers.check_ok "write" (Fs.write_file ops1 (Printf.sprintf "/f%d" i) "x");
        match Controller.watchdog_once ctl ~timeout_ns with
        | [] -> ()
        | _ -> Alcotest.fail "live process escalated"
      done)

(* ------------------------------------------------------------------ *)
(* Verifier gate on unverified handoff *)

let test_gate_accepts_consistent_state () =
  (* The victim dies after completing a write; its state verifies as-is,
     so a second process reads the full content through the gate. *)
  Helpers.run_sim ~lease_ns:timeout_ns (fun env ->
      ignore
        (with_victim env (fun ops1 ->
             Helpers.check_ok "write" (Fs.write_file ops1 "/kept" "payload")));
      let ctl = env.Helpers.ctl in
      ignore (Controller.watchdog_once ctl ~timeout_ns);
      ignore (Controller.gc_once ctl);
      let fs2 = Helpers.mount ~proc:2 env in
      let ops2 = Libfs.ops fs2 in
      let got = Helpers.check_ok "read through gate" (Fs.read_file ops2 "/kept") in
      Alcotest.(check string) "content survived the death" "payload" got)

let test_gate_verifies_once () =
  (* After the first gated map the file is ordinary again: no unverified
     flag, normal access, and the dead process stays dead. *)
  Helpers.run_sim ~lease_ns:timeout_ns (fun env ->
      ignore
        (with_victim env
           ~arm:(fun s -> Sched.arm_kill s ~after:50)
           (fun ops1 ->
             Helpers.check_ok "w1" (Fs.write_file ops1 "/a" "aaaa");
             Helpers.check_ok "w2" (Fs.write_file ops1 "/b" (String.make 300 'b'))));
      let ctl = env.Helpers.ctl in
      ignore (Controller.watchdog_once ctl ~timeout_ns);
      ignore (Controller.gc_once ctl);
      let fs2 = Helpers.mount ~proc:2 env in
      let ops2 = Libfs.ops fs2 in
      (match Fs.read_file ops2 "/a" with
      | Ok _ | Error ENOENT | Error EIO -> ()
      | Error e -> Alcotest.failf "unclean errno %s" (errno_to_string e));
      Helpers.check_ok "write after gate" (Fs.write_file ops2 "/fresh" "new");
      let gc = Controller.gc_once ctl in
      Alcotest.(check bool) "invariant" true gc.Controller.gc_invariant_ok;
      Alcotest.(check int) "no leaks" 0 gc.Controller.gc_leaked)

(* ------------------------------------------------------------------ *)
(* Orphan-page GC *)

let test_gc_reclaims_orphans () =
  Helpers.run_sim ~lease_ns:timeout_ns (fun env ->
      ignore
        (with_victim env
           ~arm:(fun s -> Sched.arm_kill s ~after:10)
           (fun ops1 -> ignore (Fs.write_file ops1 "/doomed" (String.make 9000 'x'))));
      let ctl = env.Helpers.ctl in
      ignore (Controller.watchdog_once ctl ~timeout_ns);
      (* While the victim's files await the gate, its pages are deferred
         (they may hold a fresh linked file), not orphaned. *)
      let deferred = Controller.gc_once ctl in
      Alcotest.(check int) "deferred while pending" 0 deferred.Controller.gc_reclaimed_pages;
      Alcotest.(check bool) "invariant while pending" true deferred.Controller.gc_invariant_ok;
      ignore (Controller.drain_unverified ctl);
      let gc = Controller.gc_once ctl in
      (* The dead mount always orphans its allocation cache and journal
         pages, so the GC must have had work to do. *)
      Alcotest.(check bool) "reclaimed orphans" true (gc.Controller.gc_reclaimed_pages > 0);
      Alcotest.(check int) "no leaks" 0 gc.Controller.gc_leaked;
      Alcotest.(check bool) "invariant holds" true gc.Controller.gc_invariant_ok;
      (* Steady state: a second pass finds nothing. *)
      let gc2 = Controller.gc_once ctl in
      Alcotest.(check int) "second pass idle" 0 gc2.Controller.gc_reclaimed_pages)

let test_gc_invariant_after_clean_unmount () =
  (* Clean shutdown never looks like a leak: pages cached by a live
     process are accounted as cached, not orphaned. *)
  Helpers.run_sim ~lease_ns:timeout_ns (fun env ->
      let fs1 = Helpers.mount ~proc:1 env in
      let ops1 = Libfs.ops fs1 in
      Helpers.check_ok "write" (Fs.write_file ops1 "/f" "data");
      Libfs.unmap_everything fs1;
      let gc = Controller.gc_once env.Helpers.ctl in
      Alcotest.(check int) "nothing reclaimed" 0 gc.Controller.gc_reclaimed_pages;
      Alcotest.(check int) "no leaks" 0 gc.Controller.gc_leaked;
      Alcotest.(check bool) "invariant" true gc.Controller.gc_invariant_ok)

(* ------------------------------------------------------------------ *)
(* Satellite: direct seeded lease-expiry force-revoke regression *)

let test_lease_expiry_force_revoke () =
  (* An expired writer is force-unmapped when a conflicting mapping
     arrives: verification runs at revocation, the new writer proceeds,
     and the old writer's completed data survives. *)
  Helpers.run_sim ~lease_ns:1.0e6 (fun env ->
      let fs1 = Helpers.mount ~proc:1 ~uid:1000 env in
      let fs2 = Helpers.mount ~proc:2 ~uid:1000 env in
      let ops1 = Libfs.ops fs1 and ops2 = Libfs.ops fs2 in
      Helpers.check_ok "write" (Fs.write_file ops1 "/lease" "held-v1");
      (* hand off once so the controller knows the file... *)
      Libfs.unmap_everything fs1;
      (* ...then take the write mapping back and go silent *)
      let fd = Helpers.check_ok "open" (ops1.Fs.open_ "/lease" [ O_RDWR ]) in
      ignore (Helpers.check_ok "pwrite" (ops1.Fs.pwrite fd (Bytes.of_string "held-v2") 0));
      let ino =
        match ops1.Fs.stat "/lease" with
        | Ok st -> st.st_ino
        | Error _ -> Alcotest.fail "stat"
      in
      Alcotest.(check (option int)) "proc1 write-maps the file" (Some 1)
        (Controller.writer_of env.Helpers.ctl ino);
      Sched.delay 2.0e6 (* lease expired *);
      let t0 = Sched.now env.Helpers.sched in
      let got = Helpers.check_ok "read forces revoke" (Fs.read_file ops2 "/lease") in
      Alcotest.(check string) "verified content handed over" "held-v2" got;
      let waited = Sched.now env.Helpers.sched -. t0 in
      if waited > 1.0e6 then Alcotest.failf "expired lease still made the reader wait %.0fns" waited;
      Alcotest.(check (option int)) "writer revoked" None
        (Controller.writer_of env.Helpers.ctl ino);
      Alcotest.(check int) "no corruption recorded" 0
        (List.length (Controller.corruption_events env.Helpers.ctl)))

(* ------------------------------------------------------------------ *)
(* Satellite: concurrent handoff — writer killed mid-write, reader holds
   a read mapping *)

let test_reader_survives_writer_death () =
  (* The reader established a read mapping before the writer took over;
     whatever the kill timing, the reader afterwards sees old or
     verified-repaired content, never a fault escape.  The overwrite has
     the same length, so the only consistent states are old and new. *)
  let run_one kill_at =
    Helpers.run_sim ~lease_ns:timeout_ns (fun env ->
        let sched = env.Helpers.sched in
        let ctl = env.Helpers.ctl in
        let fs1 = Helpers.mount ~proc:1 ~uid:1000 env in
        let fs2 = Helpers.mount ~proc:2 ~uid:1000 env in
        let ops1 = Libfs.ops fs1 and ops2 = Libfs.ops fs2 in
        Helpers.check_ok "seed" (Fs.write_file ops1 "/shared" "vvvv-1");
        Libfs.unmap_everything fs1;
        (* reader maps and reads the handed-off state *)
        Alcotest.(check string) "pre" "vvvv-1"
          (Helpers.check_ok "read" (Fs.read_file ops2 "/shared"));
        (* writer dies mid same-length overwrite *)
        Sched.spawn sched (fun () ->
            Sched.killable (fun () ->
                match ops1.Fs.open_ "/shared" [ O_RDWR ] with
                | Ok fd -> ignore (ops1.Fs.pwrite fd (Bytes.of_string "VVVV-2") 0)
                | Error _ -> ()));
        Sched.arm_kill sched ~after:kill_at;
        Sched.delay 10.0e6;
        Sched.disarm sched;
        ignore (Controller.watchdog_once ctl ~timeout_ns);
        ignore (Controller.gc_once ctl);
        let got = Helpers.check_ok "read after death" (Fs.read_file ops2 "/shared") in
        if got <> "vvvv-1" && got <> "VVVV-2" then
          Alcotest.failf "kill@%d: torn read %S" kill_at got;
        let gc = Controller.gc_once ctl in
        Alcotest.(check bool) "invariant" true gc.Controller.gc_invariant_ok;
        Alcotest.(check int) "no leaks" 0 gc.Controller.gc_leaked)
  in
  List.iter run_one [ 0; 1; 2; 3; 5; 8; 13; 21 ]

(* ------------------------------------------------------------------ *)
(* The ring syscall plane under process failure (DESIGN.md §4.15) *)

let test_ring_dead_consumer_full_ring () =
  (* The drain plane wedges; the producer fills the SQ and parks on it.
     The watchdog counts the outstanding entries as held kernel-side
     work, tears the ring down (waking the parked producer with EIO),
     and the page accounting stays balanced throughout. *)
  Helpers.run_sim ~lease_ns:timeout_ns (fun env ->
      let sched = env.Helpers.sched in
      let ctl = env.Helpers.ctl in
      Controller.set_ring_paused ctl true;
      ignore (Helpers.mount ~proc:1 ~ring:4 env);
      let ring = Option.get (Controller.ring_of ctl 1) in
      let accepted = ref 0 and rejected = ref 0 in
      Sched.spawn sched (fun () ->
          Sched.killable (fun () ->
              for _ = 1 to 6 do
                match Controller.Ring.submit ~forget:true ring Controller.Ring.Op_lease with
                | Ok _ -> incr accepted
                | Error EIO -> incr rejected
                | Error e -> Alcotest.failf "unexpected submit errno %s" (errno_to_string e)
              done));
      Sched.delay 10.0e6;
      Alcotest.(check int) "SQ filled to capacity" 4 (Controller.Ring.outstanding ring);
      Alcotest.(check bool) "producer parked on the full ring" true
        (Controller.Ring.sq_parks ring > 0);
      Alcotest.(check (list int)) "silent holder escalated" [ 1 ]
        (Controller.watchdog_once ctl ~timeout_ns);
      Alcotest.(check bool) "teardown closed the ring" true (Controller.Ring.is_closed ring);
      Alcotest.(check int) "in-flight entries reaped" 0 (Controller.Ring.outstanding ring);
      Sched.delay 1.0e3;
      Alcotest.(check int) "accepted up to capacity" 4 !accepted;
      Alcotest.(check int) "parked producer woken with EIO" 2 !rejected;
      Controller.set_ring_paused ctl false;
      Sched.delay 1.0e3;
      ignore (Controller.drain_unverified ctl);
      let gc = Controller.gc_once ctl in
      Alcotest.(check bool) "invariant" true gc.Controller.gc_invariant_ok;
      Alcotest.(check int) "no leaks" 0 gc.Controller.gc_leaked)

let test_ring_killed_mid_enqueue () =
  (* The submit path's only kill point sits before the slot write: a
     producer SIGKILLed there has enqueued nothing, so the ring shows
     zero submissions and teardown finds balanced books. *)
  Helpers.run_sim ~lease_ns:timeout_ns (fun env ->
      let sched = env.Helpers.sched in
      let ctl = env.Helpers.ctl in
      Controller.set_ring_paused ctl true;
      ignore (Helpers.mount ~proc:1 ~ring:4 env);
      let ring = Option.get (Controller.ring_of ctl 1) in
      Sched.spawn sched (fun () ->
          Sched.killable (fun () ->
              ignore (Controller.Ring.submit ~forget:true ring Controller.Ring.Op_lease);
              Alcotest.fail "survived the kill armed at the submit boundary"));
      Sched.arm_kill sched ~after:0;
      Sched.delay 10.0e6;
      Sched.disarm sched;
      Alcotest.(check int) "nothing enqueued" 0 (Controller.Ring.submitted ring);
      Alcotest.(check int) "nothing outstanding" 0 (Controller.Ring.outstanding ring);
      Controller.set_ring_paused ctl false;
      Sched.delay 1.0e3;
      ignore (Controller.drain_unverified ctl);
      let gc = Controller.gc_once ctl in
      Alcotest.(check bool) "invariant" true gc.Controller.gc_invariant_ok;
      Alcotest.(check int) "no leaks" 0 gc.Controller.gc_leaked)

(* ------------------------------------------------------------------ *)
(* The explorer over the script corpus (pinned seeds) *)

let explore_seed seed =
  let rng = Rng.create seed in
  let ops = Script.generate rng ~len:6 in
  let report =
    Explore.explore_proc_death ~config:{ (Explore.kills 6) with hang_points = 2 } ops
  in
  (match report.Explore.k_failure with
  | None -> ()
  | Some f -> Alcotest.failf "seed %d:@.%a" seed Explore.pp_failure f);
  Alcotest.(check int) "no leaks" 0 (Explore.tally report "leaked");
  Alcotest.(check bool) "states explored" true (report.Explore.k_states > 0);
  Alcotest.(check bool) "victims escalated" true
    (Explore.tally report "escalated" >= report.Explore.k_states)

let test_explore_seed_1 () = explore_seed 1
let test_explore_seed_7 () = explore_seed 7

let test_explore_ring_seed () =
  (* Same exploration with the victim mounted over a depth-4 ring: the
     kill/hang points now include the ring submit boundary and the CQ
     park, and the accounting invariant must hold at each of them. *)
  let rng = Rng.create 11 in
  let ops = Script.generate rng ~len:5 in
  let report =
    Explore.explore_proc_death ~config:{ (Explore.kills 5) with hang_points = 2 } ~ring:4 ops
  in
  (match report.Explore.k_failure with
  | None -> ()
  | Some f -> Alcotest.failf "ring explore:@.%a" Explore.pp_failure f);
  Alcotest.(check int) "no leaks" 0 (Explore.tally report "leaked");
  Alcotest.(check bool) "states explored" true (report.Explore.k_states > 0)

(* A victim that crosses no kill point leaves nothing to sample: the
   campaign judged no state, so it proved nothing and must fail as
   vacuous rather than report that its property held.  The same goes
   for crash explorers left without a state to judge. *)
let test_empty_campaign_is_vacuous () =
  let vacuous what (r : Explore.report) =
    Alcotest.(check int) (what ^ ": no states") 0 r.k_states;
    match r.k_failure with
    | Some { f_reason = Vacuous; f_state = None; _ } -> ()
    | _ -> Alcotest.failf "%s did not fail as vacuous:@.%a" what Explore.pp_report r
  in
  let idle =
    Explore.campaign ~config:(Explore.kills 4)
      ~setup:(fun ~sched:_ ~pmem:_ ~mmu:_ -> ())
      ~victim:(fun () -> ())
      ~judge:(fun () -> Ok [ ("judged", 1) ])
      ()
  in
  Alcotest.(check int) "no kill points" 0 idle.k_points;
  vacuous "no-op victim" idle;
  let ops = [ Script.Create 0 ] in
  vacuous "zero crash-state budget"
    (Explore.explore ~config:{ Explore.default_config with max_states = 0; shrink = false } ops);
  vacuous "zero fault crash points"
    (Explore.explore_faults
       ~config:{ Explore.default_fault_config with fault_crash_points = 0 }
       ops)

let () =
  Alcotest.run "procfail"
    [
      ( "injection",
        [
          Alcotest.test_case "kill at point 0" `Quick test_kill_injection;
          Alcotest.test_case "counting pass" `Quick test_kill_counts_points;
          Alcotest.test_case "hang wedges the fiber" `Quick test_hang_injection;
          Alcotest.test_case "shield suppresses kill points" `Quick test_shield_blocks_kill;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "escalates a dead process" `Quick test_watchdog_escalates_dead;
          Alcotest.test_case "waits out a running lease" `Quick test_watchdog_respects_lease;
          Alcotest.test_case "heartbeats defer escalation" `Quick test_heartbeat_defers_watchdog;
        ] );
      ( "verifier gate",
        [
          Alcotest.test_case "accepts consistent state" `Quick test_gate_accepts_consistent_state;
          Alcotest.test_case "verifies once, then normal" `Quick test_gate_verifies_once;
        ] );
      ( "gc",
        [
          Alcotest.test_case "reclaims orphans" `Quick test_gc_reclaims_orphans;
          Alcotest.test_case "clean unmount is leak-free" `Quick
            test_gc_invariant_after_clean_unmount;
        ] );
      ( "leases",
        [
          Alcotest.test_case "expiry force-revoke" `Quick test_lease_expiry_force_revoke;
        ] );
      ( "handoff",
        [
          Alcotest.test_case "reader survives writer death" `Quick
            test_reader_survives_writer_death;
        ] );
      ( "ring",
        [
          Alcotest.test_case "dead consumer, full ring" `Quick test_ring_dead_consumer_full_ring;
          Alcotest.test_case "producer killed mid-enqueue" `Quick test_ring_killed_mid_enqueue;
        ] );
      ( "explore",
        [
          Alcotest.test_case "seed 1" `Quick test_explore_seed_1;
          Alcotest.test_case "seed 7" `Quick test_explore_seed_7;
          Alcotest.test_case "ring-mounted victims" `Quick test_explore_ring_seed;
          Alcotest.test_case "empty campaign is vacuous" `Quick test_empty_campaign_is_vacuous;
        ] );
    ]
