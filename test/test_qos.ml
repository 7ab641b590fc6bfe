(* Multi-tenant QoS plane (DESIGN.md §4.17): token-bucket admission
   control, backpressure through the ring and syscall planes, the
   retry-deadline budget, and noisy-neighbour isolation under
   concurrent byzantine + SIGKILL tenants. *)

module Sched = Trio_sim.Sched
module Pmem = Trio_nvm.Pmem
module Controller = Trio_core.Controller
module Layout = Trio_core.Layout
module Ctl_qos = Trio_core.Ctl_qos
module Fs = Trio_core.Fs_intf
module Libfs = Arckfs.Libfs
module Rig = Trio_workloads.Rig
module Ycsb = Trio_workloads.Ycsb
module Attacks = Trio_attacks.Attacks
module Explore = Trio_check.Explore
open Trio_core.Fs_types

let cred = { Trio_core.Fs_types.uid = 1000; gid = 1000 }

(* ------------------------------------------------------------------ *)
(* Token bucket (pure unit tests; no simulation needed) *)

let test_bucket_charge_and_refill () =
  let q = Ctl_qos.create () in
  Ctl_qos.set_share q ~group:1 ~now:0.0 1.0;
  let b0 = Ctl_qos.balance q ~group:1 ~now:0.0 in
  Alcotest.(check bool) "bucket starts at burst" true (b0 > 0.0);
  Ctl_qos.charge q ~group:1 ~now:0.0 Ctl_qos.Syscall;
  let b1 = Ctl_qos.balance q ~group:1 ~now:0.0 in
  Alcotest.(check (float 1e-6))
    "a syscall debits its cost"
    (Ctl_qos.cost_of Ctl_qos.Syscall)
    (b0 -. b1);
  (* a long quiet period refills to burst, never beyond *)
  let b2 = Ctl_qos.balance q ~group:1 ~now:1.0e12 in
  Alcotest.(check (float 1e-6)) "refill caps at burst" b0 b2

let test_bucket_admission_deadline () =
  let q = Ctl_qos.create () in
  Ctl_qos.set_share q ~group:1 ~now:0.0 0.5;
  Ctl_qos.set_share q ~group:2 ~now:0.0 0.5;
  (* drain group 1 well past zero *)
  for _ = 1 to 100 do
    Ctl_qos.charge q ~group:1 ~now:0.0 Ctl_qos.Verify
  done;
  Alcotest.(check bool) "balance went negative" true (Ctl_qos.balance q ~group:1 ~now:0.0 < 0.0);
  (match Ctl_qos.admission q ~group:1 ~now:0.0 with
  | None -> Alcotest.fail "overdrawn tenant was admitted"
  | Some deadline ->
    Alcotest.(check bool) "deadline is in the future" true (deadline > 0.0);
    (* by the deadline the deficit has refilled away *)
    Alcotest.(check bool)
      "admitted at the deadline" true
      (Ctl_qos.admission q ~group:1 ~now:deadline = None));
  (* the sibling tenant is unaffected *)
  Alcotest.(check bool) "sibling admitted" true (Ctl_qos.admission q ~group:2 ~now:0.0 = None)

let test_bucket_unconfigured_always_admitted () =
  let q = Ctl_qos.create () in
  for _ = 1 to 1000 do
    Ctl_qos.charge q ~group:5 ~now:0.0 Ctl_qos.Verify
  done;
  Alcotest.(check bool)
    "unconfigured tenant never throttles" true
    (Ctl_qos.admission q ~group:5 ~now:0.0 = None);
  let stats = Ctl_qos.stats q ~now:0.0 in
  let s = List.find (fun s -> s.Ctl_qos.ts_group = 5) stats in
  Alcotest.(check int) "but its usage is accounted" 1000 s.Ctl_qos.ts_verifies;
  Alcotest.(check bool) "and unshared" true (s.Ctl_qos.ts_share = None)

let test_bucket_bypass_mutation_visible () =
  let q = Ctl_qos.create () in
  Ctl_qos.set_share q ~group:1 ~now:0.0 1.0;
  let b0 = Ctl_qos.balance q ~group:1 ~now:0.0 in
  Trio_core.Mutation.with_mutation Qos_bypass @@ fun () ->
  for _ = 1 to 50 do
    Ctl_qos.charge q ~group:1 ~now:0.0 Ctl_qos.Verify
  done;
  Alcotest.(check (float 1e-6)) "bypass debits nothing" b0 (Ctl_qos.balance q ~group:1 ~now:0.0);
  Alcotest.(check bool) "bypass still admits" true (Ctl_qos.admission q ~group:1 ~now:0.0 = None)

(* ------------------------------------------------------------------ *)
(* Backpressure through the planes *)

(* Register a throttled tenant next to a big competing share and drive
   its bucket negative through release-path charges (charged, never
   delayed — so the drain is immediate and deterministic). *)
let drain_tenant_bucket ctl ~proc =
  for _ = 1 to 40 do
    ignore (Controller.free_pages ctl ~proc ~pages:[] : (unit, errno) result)
  done;
  Alcotest.(check bool)
    "bucket is overdrawn" true
    (Controller.qos_balance ctl ~group:proc < 0.0)

let test_ring_submit_parks_until_admitted () =
  Helpers.run_sim (fun env ->
      Controller.set_qos_share env.Helpers.ctl ~group:99 50.0;
      Controller.register_process env.Helpers.ctl ~proc:7 ~cred ~qos_share:0.02 ();
      let ring = Controller.ring_setup env.Helpers.ctl ~proc:7 ~depth:4 in
      drain_tenant_bucket env.Helpers.ctl ~proc:7;
      let t0 = Sched.now env.Helpers.sched in
      (match Controller.Ring.submit ring Controller.Ring.Op_lease with
      | Ok seq -> (
        match Controller.Ring.await ring ~seq with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "lease completion: %s" (errno_to_string e))
      | Error e -> Alcotest.failf "blocking submit: %s" (errno_to_string e));
      Alcotest.(check bool)
        "the producer parked at the ring mouth" true
        (Controller.Ring.throttle_parks ring >= 1);
      Alcotest.(check bool)
        "parked time was accounted" true
        (Controller.Ring.throttle_ns ring > 0.0);
      Alcotest.(check bool) "virtual time advanced" true (Sched.now env.Helpers.sched > t0))

let test_throttle_counters_in_stats () =
  Helpers.run_sim (fun env ->
      Controller.set_qos_share env.Helpers.ctl ~group:99 50.0;
      Controller.register_process env.Helpers.ctl ~proc:7 ~cred ~qos_share:0.02 ();
      drain_tenant_bucket env.Helpers.ctl ~proc:7;
      (* an acquisition syscall pays the admission delay *)
      (match Controller.alloc_pages env.Helpers.ctl ~proc:7 ~node:0 ~count:1 ~kind:Pmem.Meta with
      | Ok _ | Error _ -> ());
      let s =
        List.find (fun s -> s.Controller.ts_group = 7) (Controller.qos_stats env.Helpers.ctl)
      in
      Alcotest.(check bool) "throttle events counted" true (s.Controller.ts_throttles >= 1);
      Alcotest.(check bool) "throttled ns accumulated" true (s.Controller.ts_throttle_ns > 0.0);
      Alcotest.(check bool) "page draw accounted" true (s.Controller.ts_page_draws >= 1))

(* Every synchronous syscall enters through one prologue: exactly one
   [Syscall] unit per call, whatever the verdict, and [Page_draw] only
   for the pages a draw hands out. *)
let test_syscall_entry_charges_one_unit () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl in
      Controller.register_process ctl ~proc:7 ~cred ();
      let root = Layout.root_ino in
      (* A group shows in the stats from its first charge on. *)
      let units () =
        match List.find_opt (fun s -> s.Controller.ts_group = 7) (Controller.qos_stats ctl) with
        | Some s -> (s.Controller.ts_syscalls, s.Controller.ts_page_draws, s.Controller.ts_ring_slots)
        | None -> (0, 0, 0)
      in
      let entry name ?(draws = 0) call =
        let sys0, draws0, _ = units () in
        call ();
        let sys1, draws1, _ = units () in
        Alcotest.(check int) (name ^ ": one syscall unit") (sys0 + 1) sys1;
        Alcotest.(check int) (name ^ ": page draws") (draws0 + draws) draws1
      in
      let ignore_result r = ignore (r : (unit, errno) result) in
      entry "map_file" (fun () ->
          ignore
            (Helpers.check_ok "map root" (Controller.map_file ctl ~proc:7 ~ino:root ~write:false)
              : bool));
      entry "unmap_file" (fun () ->
          Helpers.check_ok "unmap root" (Controller.unmap_file ctl ~proc:7 ~ino:root));
      let inos = ref [] in
      entry "alloc_inos" (fun () -> inos := Controller.alloc_inos ctl ~proc:7 ~count:2);
      let pages = ref [] in
      entry "alloc_pages" ~draws:3 (fun () ->
          pages :=
            Helpers.check_ok "alloc 3 pages"
              (Controller.alloc_pages ctl ~proc:7 ~node:0 ~count:3 ~kind:Pmem.Meta));
      entry "recycle_pages" (fun () ->
          Helpers.check_ok "recycle own pages" (Controller.recycle_pages ctl ~proc:7 ~pages:!pages));
      entry "free_pages" (fun () ->
          Helpers.check_ok "free own pages" (Controller.free_pages ctl ~proc:7 ~pages:!pages));
      (* Refusals pay the same single unit: the entry charges before the
         body decides. *)
      entry "commit" (fun () ->
          Helpers.check_err "commit unmapped root" EBADF (Controller.commit ctl ~proc:7 ~ino:root));
      entry "chmod" (fun () -> ignore_result (Controller.chmod ctl ~proc:7 ~ino:root ~mode:0o700));
      entry "chown" (fun () ->
          Helpers.check_err "chown as non-root" EACCES
            (Controller.chown ctl ~proc:7 ~ino:root ~uid:1000 ~gid:1000));
      entry "free_file_tree" (fun () ->
          Helpers.check_err "free a tree never created" ENOENT
            (Controller.free_file_tree ctl ~proc:7 ~ino:(List.hd !inos)));
      let sys, _, slots = units () in
      Alcotest.(check int) "ten entries, ten units" 10 sys;
      Alcotest.(check int) "no ring slots" 0 slots)

(* An overdrawn tenant's releases are charged but pass no admission, so
   each returns after its own few microseconds of work; its next
   acquisition waits out the debt. *)
let test_releases_never_wait () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl and sched = env.Helpers.sched in
      Controller.set_qos_share ctl ~group:99 50.0;
      Controller.register_process ctl ~proc:7 ~cred ~qos_share:0.02 ();
      let root = Layout.root_ino in
      ignore
        (Helpers.check_ok "map root" (Controller.map_file ctl ~proc:7 ~ino:root ~write:false)
          : bool);
      let inos = Controller.alloc_inos ctl ~proc:7 ~count:1 in
      drain_tenant_bucket ctl ~proc:7;
      let throttled () =
        let s = List.find (fun s -> s.Controller.ts_group = 7) (Controller.qos_stats ctl) in
        (s.Controller.ts_throttles, s.Controller.ts_throttle_ns)
      in
      let timed name call =
        let t0 = Sched.now sched in
        call ();
        let ns = Sched.now sched -. t0 in
        if ns > 5.0e3 then Alcotest.failf "%s took %.0f ns" name ns
      in
      let before = throttled () in
      timed "unmap_file" (fun () ->
          Helpers.check_ok "unmap root" (Controller.unmap_file ctl ~proc:7 ~ino:root));
      timed "free_pages" (fun () ->
          Helpers.check_ok "free nothing" (Controller.free_pages ctl ~proc:7 ~pages:[]));
      timed "recycle_pages" (fun () ->
          Helpers.check_ok "recycle nothing" (Controller.recycle_pages ctl ~proc:7 ~pages:[]));
      timed "free_file_tree" (fun () ->
          Helpers.check_err "free a tree never created" ENOENT
            (Controller.free_file_tree ctl ~proc:7 ~ino:(List.hd inos)));
      Alcotest.(check (pair int (float 0.0))) "no release was throttled" before (throttled ());
      Alcotest.(check bool) "still overdrawn" true (Controller.qos_balance ctl ~group:7 < 0.0);
      let t0 = Sched.now sched in
      ignore (Controller.alloc_inos ctl ~proc:7 ~count:1 : int list);
      let waited = Sched.now sched -. t0 in
      let throttles, throttle_ns = throttled () in
      Alcotest.(check int) "the acquisition was throttled" (fst before + 1) throttles;
      Alcotest.(check bool)
        "and waited out its admission delay" true
        (throttle_ns > snd before && waited >= throttle_ns -. snd before))

(* Unenforced rigs must behave exactly as before: no parks, no delays. *)
let test_no_enforcement_no_throttle () =
  Helpers.run_sim (fun env ->
      Controller.register_process env.Helpers.ctl ~proc:7 ~cred ();
      let ring = Controller.ring_setup env.Helpers.ctl ~proc:7 ~depth:4 in
      for _ = 1 to 100 do
        ignore (Controller.free_pages env.Helpers.ctl ~proc:7 ~pages:[] : (unit, errno) result)
      done;
      (match Controller.Ring.submit ring Controller.Ring.Op_lease with
      | Ok seq -> (
        match Controller.Ring.await ring ~seq with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "lease completion: %s" (errno_to_string e))
      | Error e -> Alcotest.failf "unenforced submit refused: %s" (errno_to_string e));
      Alcotest.(check int) "no throttle parks" 0 (Controller.Ring.throttle_parks ring))

(* ------------------------------------------------------------------ *)
(* LibFS retry-deadline budget *)

let test_with_retry_etimedout () =
  Helpers.run_sim (fun env ->
      let libfs =
        Libfs.mount ~ctl:env.Helpers.ctl ~proc:1 ~cred ~retry_deadline_ns:500.0 ()
      in
      let ops = Libfs.ops libfs in
      Helpers.check_ok "create" (Fs.write_file ops "/victim" "precious");
      (* every subsequent load soft-faults: the retry loop must give up
         on the deadline budget, not spin through all 8 media retries *)
      Pmem.set_fault_injection env.Helpers.pmem ~seed:7 ~transient_read_p:1.0 ();
      (match Fs.read_file ops "/victim" with
      | Error ETIMEDOUT -> ()
      | Ok _ -> Alcotest.fail "read succeeded under a 100% transient-fault rate"
      | Error e -> Alcotest.failf "expected ETIMEDOUT, got %s" (errno_to_string e));
      (* the terminal errno is counted distinctly *)
      Pmem.set_fault_injection env.Helpers.pmem ~seed:7 ())

let test_with_retry_clean_path_unchanged () =
  Helpers.run_sim (fun env ->
      let libfs = Libfs.mount ~ctl:env.Helpers.ctl ~proc:1 ~cred () in
      let ops = Libfs.ops libfs in
      Helpers.check_ok "create" (Fs.write_file ops "/a" "aaaa");
      Alcotest.(check string)
        "read back" "aaaa"
        (Helpers.check_ok "read" (Fs.read_file ops "/a")))

(* ------------------------------------------------------------------ *)
(* Multi-tenant YCSB: byzantine + SIGKILL tenants vs honest tenants *)

let test_ycsb_isolation_under_chaos () =
  Rig.run ~nodes:2 ~cpus_per_node:4 ~pages_per_node:16384 ~store_data:true (fun rig ->
      let neighbor = Attacks.noisy_neighbor ~qos_share:0.02 rig in
      let specs =
        [
          Ycsb.spec ~share:1.0 ~ops:60 "honest-a" Ycsb.A;
          Ycsb.spec ~share:1.0 ~ops:60 "honest-c" Ycsb.C;
          Ycsb.spec ~share:0.1 ~ops:400 ~kill_after:300 "killer" Ycsb.A;
        ]
      in
      let results =
        Ycsb.run rig ~records:48 ~value_size:32 ~chaos:[ Attacks.neighbor_fiber neighbor ] specs
      in
      let find n = List.find (fun r -> r.Ycsb.y_name = n) results in
      let honest_a = find "honest-a" and honest_c = find "honest-c" in
      let killer = find "killer" in
      (* honest tenants finished their full budgets, unkilled *)
      Alcotest.(check int) "honest-a completed" 60 honest_a.Ycsb.y_ops_done;
      Alcotest.(check int) "honest-c completed" 60 honest_c.Ycsb.y_ops_done;
      Alcotest.(check bool) "honest-a alive" false honest_a.Ycsb.y_killed;
      (* the read-only tenant's reads reach the file system: a p99 of 0
         would mean every read hit the memtable and measured nothing *)
      Alcotest.(check bool) "honest-c p99 above 0" true (honest_c.Ycsb.y_p99 > 0.0);
      (* the kill-prone tenant actually died mid-run *)
      Alcotest.(check bool) "killer was killed" true killer.Ycsb.y_killed;
      Alcotest.(check bool) "byzantine cycles ran" true (neighbor.Attacks.nb_cycles > 0);
      (* watchdog escalates the dead tenant even under byzantine load.
         The kill can land mid-write, with the victim holding a running
         lease — the watchdog rightly defers while the lease shields the
         writer, so wait out the lease horizon before judging it. *)
      Sched.delay (2.0e6 +. 100.0e6);
      let wd = Controller.make_watchdog_report () in
      let escalated = Controller.watchdog_once ~report:wd rig.Rig.ctl ~timeout_ns:1.0e6 in
      Alcotest.(check bool)
        "watchdog escalated the killed tenant" true
        (List.mem killer.Ycsb.y_group escalated);
      (* page accounting balances once the carnage is reclaimed *)
      ignore (Controller.drain_unverified rig.Rig.ctl : int);
      let gc = Controller.gc_once rig.Rig.ctl in
      Alcotest.(check bool) "page accounting invariant" true gc.Controller.gc_invariant_ok;
      Alcotest.(check int) "no leaked pages" 0 gc.Controller.gc_leaked;
      (* honest tenants remain serviceable after the reclamation *)
      let probe = Rig.mount_arckfs ~delegated:false rig in
      Helpers.check_ok "post-chaos write" (Fs.write_file (Libfs.ops probe) "/after" "ok"))

(* ------------------------------------------------------------------ *)
(* Exploration: kills inside throttled/parked states *)

let test_explore_qos () =
  let r = Explore.explore_qos ~config:(Explore.kills 6) ~ops:6 () in
  (match r.Explore.k_failure with
  | None -> ()
  | Some f -> Alcotest.failf "explore_qos failed:@.%a" Explore.pp_failure f);
  Alcotest.(check bool) "sampled states" true (r.Explore.k_states > 0);
  Alcotest.(check bool) "victim was throttled" true (Explore.tally r "throttles" > 0);
  Alcotest.(check bool) "every state escalated" true
    (Explore.tally r "escalated" >= r.Explore.k_states);
  Alcotest.(check int) "no leaks at any kill point" 0 (Explore.tally r "leaked")

let () =
  Alcotest.run "qos"
    [
      ( "token bucket",
        [
          Alcotest.test_case "charge and refill" `Quick test_bucket_charge_and_refill;
          Alcotest.test_case "admission deadline" `Quick test_bucket_admission_deadline;
          Alcotest.test_case "unconfigured tenants" `Quick test_bucket_unconfigured_always_admitted;
          Alcotest.test_case "bypass hook" `Quick test_bucket_bypass_mutation_visible;
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "ring park until admitted" `Quick test_ring_submit_parks_until_admitted;
          Alcotest.test_case "throttle counters" `Quick test_throttle_counters_in_stats;
          Alcotest.test_case "unenforced is untouched" `Quick test_no_enforcement_no_throttle;
          Alcotest.test_case "one syscall unit per entry" `Quick
            test_syscall_entry_charges_one_unit;
          Alcotest.test_case "releases never wait" `Quick test_releases_never_wait;
        ] );
      ( "retry deadline",
        [
          Alcotest.test_case "ETIMEDOUT on budget expiry" `Quick test_with_retry_etimedout;
          Alcotest.test_case "clean path unchanged" `Quick test_with_retry_clean_path_unchanged;
        ] );
      ( "multi-tenant",
        [
          Alcotest.test_case "YCSB isolation under chaos" `Slow test_ycsb_isolation_under_chaos;
        ] );
      ( "exploration",
        [
          Alcotest.test_case "kills in throttled states" `Slow test_explore_qos;
        ] );
    ]
