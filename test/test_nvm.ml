(* Tests for the simulated NVM device: data plumbing, persistence and
   crash semantics, MMU enforcement, and the performance model. *)

module Sched = Trio_sim.Sched
module Pmem = Trio_nvm.Pmem
module Numa = Trio_nvm.Numa
module Perf = Trio_nvm.Perf
module Rng = Trio_util.Rng

let make ?(nodes = 2) ?(store_data = true) () =
  let sched = Sched.create () in
  let topo = Numa.create ~nodes ~cpus_per_node:4 in
  let pmem = Pmem.create ~sched ~topo ~profile:Perf.optane ~pages_per_node:1024 ~store_data () in
  (sched, pmem)

let in_fiber ?nodes ?store_data f =
  let sched, pmem = make ?nodes ?store_data () in
  let r = ref None in
  Sched.spawn sched (fun () -> r := Some (f sched pmem));
  ignore (Sched.run sched);
  Option.get !r

let actor = Pmem.kernel_actor

(* ------------------------------------------------------------------ *)

let test_read_write_roundtrip () =
  in_fiber (fun _ pm ->
      let data = Bytes.of_string "hello persistent world" in
      Pmem.write pm ~actor ~addr:8192 ~src:data;
      let back = Pmem.read pm ~actor ~addr:8192 ~len:(Bytes.length data) in
      Alcotest.(check string) "roundtrip" (Bytes.to_string data) (Bytes.to_string back))

let test_unwritten_reads_zero () =
  in_fiber (fun _ pm ->
      let b = Pmem.read pm ~actor ~addr:4096 ~len:16 in
      Alcotest.(check string) "zeros" (String.make 16 '\000') (Bytes.to_string b))

let test_cross_page_access () =
  in_fiber (fun _ pm ->
      let data = Bytes.init 8192 (fun i -> Char.chr (i mod 256)) in
      (* start mid-page so the write spans three pages *)
      Pmem.write pm ~actor ~addr:6000 ~src:data;
      let back = Pmem.read pm ~actor ~addr:6000 ~len:8192 in
      Alcotest.(check bool) "cross-page roundtrip" true (Bytes.equal data back))

let test_u64_accessors () =
  in_fiber (fun _ pm ->
      Pmem.write_u64 pm ~actor ~addr:4096 0x1122334455667788;
      Alcotest.(check int) "u64" 0x1122334455667788 (Pmem.read_u64 pm ~actor ~addr:4096))

(* ------------------------------------------------------------------ *)
(* Persistence & crash *)

let test_crash_reverts_unflushed () =
  in_fiber (fun _ pm ->
      Pmem.write_u64 pm ~actor ~addr:4096 1111;
      Pmem.persist pm ~addr:4096 ~len:8;
      Pmem.write_u64 pm ~actor ~addr:4096 2222;
      (* not persisted *)
      Pmem.crash pm;
      Alcotest.(check int) "old value survives" 1111 (Pmem.read_u64 pm ~actor ~addr:4096))

let test_crash_keeps_flushed () =
  in_fiber (fun _ pm ->
      Pmem.write_u64 pm ~actor ~addr:4096 1111;
      Pmem.persist pm ~addr:4096 ~len:8;
      Pmem.crash pm;
      Alcotest.(check int) "persisted survives" 1111 (Pmem.read_u64 pm ~actor ~addr:4096))

let test_crash_line_granularity () =
  in_fiber (fun _ pm ->
      (* two values on different cachelines; persist only one *)
      Pmem.write_u64 pm ~actor ~addr:4096 1;
      Pmem.write_u64 pm ~actor ~addr:(4096 + 64) 2;
      Pmem.persist pm ~addr:4096 ~len:8;
      Pmem.crash pm;
      Alcotest.(check int) "flushed line" 1 (Pmem.read_u64 pm ~actor ~addr:4096);
      Alcotest.(check int) "unflushed line reverted" 0 (Pmem.read_u64 pm ~actor ~addr:(4096 + 64)))

let test_crash_random_subset_is_deterministic () =
  let run seed =
    in_fiber (fun _ pm ->
        for i = 0 to 9 do
          Pmem.write_u64 pm ~actor ~addr:(4096 + (i * 64)) (i + 1)
        done;
        let rng = Rng.create seed in
        Pmem.crash ~rng pm;
        List.init 10 (fun i -> Pmem.read_u64 pm ~actor ~addr:(4096 + (i * 64))))
  in
  Alcotest.(check (list int)) "same seed, same surviving lines" (run 42) (run 42);
  (* dirty state is cleared after crash: a second crash changes nothing *)
  in_fiber (fun _ pm ->
      Pmem.write_u64 pm ~actor ~addr:4096 7;
      Pmem.crash pm;
      let v = Pmem.read_u64 pm ~actor ~addr:4096 in
      Pmem.crash pm;
      Alcotest.(check int) "stable after second crash" v (Pmem.read_u64 pm ~actor ~addr:4096))

let test_dirty_lines_accounting () =
  in_fiber (fun _ pm ->
      Alcotest.(check int) "clean" 0 (Pmem.dirty_lines pm);
      Pmem.write_u64 pm ~actor ~addr:4096 1;
      Alcotest.(check int) "one dirty line" 1 (Pmem.dirty_lines pm);
      Pmem.persist pm ~addr:4096 ~len:8;
      Alcotest.(check int) "clean again" 0 (Pmem.dirty_lines pm))

let test_redirty_same_line_counts_once () =
  in_fiber (fun _ pm ->
      (* hammering one cacheline keeps exactly one pre-image *)
      for i = 1 to 50 do
        Pmem.write_u64 pm ~actor ~addr:4096 i
      done;
      Alcotest.(check int) "one line" 1 (Pmem.dirty_lines pm);
      (* the pre-image is from before the FIRST store *)
      Pmem.crash pm;
      Alcotest.(check int) "reverts to original" 0 (Pmem.read_u64 pm ~actor ~addr:4096);
      (* persist then re-dirty: the line is tracked afresh *)
      Pmem.write_u64 pm ~actor ~addr:4096 7;
      Pmem.persist pm ~addr:4096 ~len:8;
      Pmem.write_u64 pm ~actor ~addr:4096 8;
      Alcotest.(check int) "re-dirtied after persist" 1 (Pmem.dirty_lines pm);
      Pmem.crash pm;
      Alcotest.(check int) "reverts to persisted value" 7 (Pmem.read_u64 pm ~actor ~addr:4096))

let test_dirty_accounting_across_pages () =
  in_fiber (fun _ pm ->
      (* a 3-page write dirties exactly ceil(len/64) lines, device-wide *)
      let len = 3 * 4096 in
      Pmem.write pm ~actor ~addr:8192 ~src:(Bytes.make len 'x');
      Alcotest.(check int) "lines = len/64" (len / 64) (Pmem.dirty_lines pm);
      (* persisting a sub-range clears only that range's lines *)
      Pmem.persist pm ~addr:8192 ~len:4096;
      Alcotest.(check int) "one page persisted" (2 * 4096 / 64) (Pmem.dirty_lines pm);
      Pmem.crash pm;
      Alcotest.(check int) "crash drains the counter" 0 (Pmem.dirty_lines pm))

let test_zero_copy_roundtrip () =
  in_fiber (fun _ pm ->
      (* write_from / read_into move sub-ranges of caller buffers *)
      let src = Bytes.of_string "....payload-here...." in
      Pmem.write_from pm ~actor ~addr:12288 ~src ~pos:4 ~len:12;
      let dst = Bytes.make 20 '#' in
      Pmem.read_into pm ~actor ~addr:12288 ~dst ~pos:4 ~len:12;
      Alcotest.(check string) "payload lands at pos" "####payload-here####" (Bytes.to_string dst);
      (* bounds are validated with a typed error *)
      (try
         Pmem.read_into pm ~actor ~addr:0 ~dst ~pos:16 ~len:8;
         Alcotest.fail "out-of-bounds read_into accepted"
       with Pmem.Bounds _ -> ());
      (try
         Pmem.write_from pm ~actor ~addr:0 ~src ~pos:(-1) ~len:4;
         Alcotest.fail "negative pos accepted"
       with Pmem.Bounds _ -> ());
      (* device-range violations get the same typed error, and the
         copying read/write paths agree with the zero-copy ones *)
      let total = Pmem.total_pages pm * 4096 in
      (try
         Pmem.read_into pm ~actor ~addr:(total - 4) ~dst ~pos:0 ~len:8;
         Alcotest.fail "past-end read_into accepted"
       with Pmem.Bounds _ -> ());
      (try
         ignore (Pmem.read pm ~actor ~addr:(total - 4) ~len:8);
         Alcotest.fail "past-end read accepted"
       with Pmem.Bounds _ -> ());
      try
        Pmem.write pm ~actor ~addr:(-8) ~src;
        Alcotest.fail "negative addr accepted"
      with Pmem.Bounds _ -> ())

(* ------------------------------------------------------------------ *)
(* Data-page materialization *)

let test_data_pages_not_materialized () =
  in_fiber ~store_data:false (fun _ pm ->
      Pmem.set_kind pm 2 Pmem.Data;
      let before = Pmem.materialized_pages pm in
      Pmem.write pm ~actor ~addr:8192 ~src:(Bytes.make 4096 'x');
      (* cost accounted but no storage *)
      Alcotest.(check int) "no page materialized" before (Pmem.materialized_pages pm);
      let b = Pmem.read pm ~actor ~addr:8192 ~len:8 in
      Alcotest.(check string) "reads zeros" (String.make 8 '\000') (Bytes.to_string b))

let test_meta_pages_always_materialized () =
  in_fiber ~store_data:false (fun _ pm ->
      (* default kind is Meta *)
      Pmem.write_u64 pm ~actor ~addr:12288 99;
      Alcotest.(check int) "meta stored" 99 (Pmem.read_u64 pm ~actor ~addr:12288))

(* ------------------------------------------------------------------ *)
(* MMU enforcement *)

let test_mmu_fault_on_unmapped () =
  in_fiber (fun _ pm ->
      Pmem.set_perm_check pm (fun ~actor:_ ~page:_ ~write:_ -> false);
      match Pmem.read pm ~actor:7 ~addr:4096 ~len:8 with
      | _ -> Alcotest.fail "expected MMU fault"
      | exception Pmem.Mmu_fault { actor = a; page; write } ->
        Alcotest.(check int) "actor" 7 a;
        Alcotest.(check int) "page" 1 page;
        Alcotest.(check bool) "read fault" false write)

let test_mmu_kernel_bypasses () =
  in_fiber (fun _ pm ->
      Pmem.set_perm_check pm (fun ~actor:_ ~page:_ ~write:_ -> false);
      ignore (Pmem.read pm ~actor:Pmem.kernel_actor ~addr:4096 ~len:8))

let test_mmu_write_vs_read_perm () =
  in_fiber (fun _ pm ->
      Pmem.set_perm_check pm (fun ~actor:_ ~page:_ ~write -> not write);
      ignore (Pmem.read pm ~actor:7 ~addr:4096 ~len:8);
      match Pmem.write_u64 pm ~actor:7 ~addr:4096 1 with
      | _ -> Alcotest.fail "expected write fault"
      | exception Pmem.Mmu_fault { write = true; _ } -> ())

(* ------------------------------------------------------------------ *)
(* Performance model *)

let test_write_slower_than_read () =
  let time_op write =
    in_fiber (fun sched pm ->
        let t0 = Sched.now sched in
        if write then Pmem.write pm ~actor ~addr:4096 ~src:(Bytes.make 4096 'x')
        else ignore (Pmem.read pm ~actor ~addr:4096 ~len:4096);
        Sched.now sched -. t0)
  in
  let r = time_op false and w = time_op true in
  if w <= r then Alcotest.failf "4K write (%.0fns) should cost more than read (%.0fns)" w r

let test_remote_access_penalty () =
  (* Access node 1's pages from a CPU on node 0 vs a CPU on node 1. *)
  let time_from cpu =
    let sched, pm = make () in
    let r = ref 0.0 in
    Sched.spawn ~cpu sched (fun () ->
        let t0 = Sched.now sched in
        Pmem.write pm ~actor ~addr:(1024 * 4096) ~src:(Bytes.make 4096 'x');
        r := Sched.now sched -. t0);
    ignore (Sched.run sched);
    !r
  in
  let local = time_from 4 (* node 1 *) and remote = time_from 0 (* node 0 *) in
  if remote <= local then
    Alcotest.failf "remote write (%.0fns) should cost more than local (%.0fns)" remote local

let test_write_bandwidth_collapse () =
  (* Optane writes: aggregate bandwidth at 64 threads is far below the
     4-thread peak; our curve must reproduce the collapse. *)
  let bw4 = Perf.write_bandwidth Perf.optane 4 in
  let bw64 = Perf.write_bandwidth Perf.optane 64 in
  if not (bw64 < bw4 /. 2.0) then
    Alcotest.failf "write bandwidth should collapse: bw(4)=%.1f bw(64)=%.1f" bw4 bw64

let test_read_bandwidth_saturates () =
  let bw1 = Perf.read_bandwidth Perf.optane 1 in
  let bw16 = Perf.read_bandwidth Perf.optane 16 in
  let bw224 = Perf.read_bandwidth Perf.optane 224 in
  if not (bw16 > bw1 *. 3.0) then Alcotest.fail "read bandwidth should scale up initially";
  if not (bw224 > bw16 /. 2.0) then Alcotest.fail "read bandwidth should not collapse"

let test_interp_clamps () =
  let anchors = [| (1.0, 10.0); (2.0, 20.0) |] in
  Alcotest.(check (float 0.001)) "below" 10.0 (Perf.interp anchors 0.5);
  Alcotest.(check (float 0.001)) "above" 20.0 (Perf.interp anchors 5.0);
  Alcotest.(check (float 0.001)) "between" 15.0 (Perf.interp anchors 1.5)

(* Property: the device's persistence semantics agree with a simple
   two-image model (volatile + persisted) at cacheline granularity,
   under random writes, flushes and crashes. *)
type pmem_op = P_write of int * int | P_persist of int * int | P_crash

let prop_persistence_model =
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (5, map2 (fun off len -> P_write (off, len)) (int_bound 1900) (int_range 1 140));
          (3, map2 (fun off len -> P_persist (off, len)) (int_bound 1900) (int_range 1 140));
          (1, return P_crash);
        ])
  in
  let show = function
    | P_write (o, l) -> Printf.sprintf "write(%d,%d)" o l
    | P_persist (o, l) -> Printf.sprintf "persist(%d,%d)" o l
    | P_crash -> "crash"
  in
  QCheck.Test.make ~name:"persistence agrees with the two-image model" ~count:200
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map show ops))
        Gen.(list_size (int_range 1 40) gen_op))
    (fun ops ->
      let region = 2048 in
      let base = 8192 (* page 2 *) in
      let result = ref false in
      let sched, pm = make () in
      Sched.spawn sched (fun () ->
          (* model: volatile and persisted images + dirty-line set *)
          let volatile = Bytes.make region ' ' in
          let persisted = Bytes.make region ' ' in
          let line = 64 in
          let dirty = Array.make (region / line) false in
          let counter = ref 0 in
          List.iter
            (fun op ->
              match op with
              | P_write (off, len) ->
                let len = min len (region - off) in
                incr counter;
                let v = Char.chr (!counter mod 256) in
                Pmem.write pm ~actor ~addr:(base + off) ~src:(Bytes.make len v);
                Bytes.fill volatile off len v;
                for l = off / line to (off + len - 1) / line do
                  dirty.(l) <- true
                done
              | P_persist (off, len) ->
                let len = min len (region - off) in
                Pmem.persist pm ~addr:(base + off) ~len;
                (* whole lines touched by the range become clean *)
                for l = off / line to (off + len - 1) / line do
                  let lo = l * line in
                  Bytes.blit volatile lo persisted lo line;
                  dirty.(l) <- false
                done
              | P_crash ->
                Pmem.crash pm;
                Bytes.blit persisted 0 volatile 0 region;
                Array.fill dirty 0 (Array.length dirty) false)
            ops;
          let b = Pmem.read pm ~actor ~addr:base ~len:region in
          if not (Bytes.equal b volatile) then
            Alcotest.fail "device disagrees with the model";
          result := true);
      ignore (Sched.run sched);
      !result)

let test_numa_topology () =
  let topo = Numa.paper_machine in
  Alcotest.(check int) "nodes" 8 (Numa.nodes topo);
  Alcotest.(check int) "total cpus" 224 (Numa.total_cpus topo);
  Alcotest.(check int) "cpu 0 -> node 0" 0 (Numa.node_of_cpu topo 0);
  Alcotest.(check int) "cpu 27 -> node 0" 0 (Numa.node_of_cpu topo 27);
  Alcotest.(check int) "cpu 28 -> node 1" 1 (Numa.node_of_cpu topo 28);
  Alcotest.(check int) "cpu 223 -> node 7" 7 (Numa.node_of_cpu topo 223)

(* ------------------------------------------------------------------ *)
(* Crash injector *)

let test_injector_counts_and_rearms () =
  in_fiber (fun _ pm ->
      let user = 1 in
      Pmem.fail_after_writes pm 3;
      (* kernel stores are never counted against the budget *)
      Pmem.write_u64 pm ~actor ~addr:4096 1;
      (* 3 user stores execute... *)
      for i = 1 to 3 do
        Pmem.write_u64 pm ~actor:user ~addr:(8192 + (i * 64)) i
      done;
      (* ...and the 4th raises, auto-disarming the injector *)
      (match Pmem.write_u64 pm ~actor:user ~addr:8192 9 with
      | () -> Alcotest.fail "4th user store should raise Crash_point"
      | exception Pmem.Crash_point -> ());
      Pmem.write_u64 pm ~actor:user ~addr:8192 10;
      Alcotest.(check int) "auto-disarmed" 10 (Pmem.read_u64 pm ~actor ~addr:8192);
      (* re-arming works, including at budget 0 (next store dies) *)
      Pmem.fail_after_writes pm 0;
      (match Pmem.write_u64 pm ~actor:user ~addr:8192 11 with
      | () -> Alcotest.fail "re-armed injector should raise immediately"
      | exception Pmem.Crash_point -> ());
      Pmem.write_u64 pm ~actor:user ~addr:8192 12;
      Alcotest.(check int) "second auto-disarm" 12 (Pmem.read_u64 pm ~actor ~addr:8192))

(* >64 dirty lines spread over pages, with a partial persist and
   re-dirtying in between: accounting, the dirty-line list and crash
   reverts must all stay exact (a re-dirtied line reverts to its
   persisted value, not to a pre-image from before the persist). *)
let test_many_dirty_lines_across_pages () =
  in_fiber (fun _ pm ->
      let n = 130 in
      for i = 0 to n - 1 do
        Pmem.write_u64 pm ~actor ~addr:(4096 + (i * 64)) (i + 1)
      done;
      Alcotest.(check int) "130 dirty lines" n (Pmem.dirty_lines pm);
      Alcotest.(check int) "list agrees" n (List.length (Pmem.dirty_line_list pm));
      (* persist the middle page (lines 64..127), then re-dirty two of
         its lines: their pre-images are now the persisted values *)
      Pmem.persist pm ~addr:8192 ~len:4096;
      Alcotest.(check int) "page 2 drained" (n - 64) (Pmem.dirty_lines pm);
      Pmem.write_u64 pm ~actor ~addr:8192 999;
      Pmem.write_u64 pm ~actor ~addr:(8192 + 64) 998;
      Alcotest.(check int) "re-dirtied" (n - 64 + 2) (Pmem.dirty_lines pm);
      Pmem.crash pm;
      Alcotest.(check int) "crash drains everything" 0 (Pmem.dirty_lines pm);
      Alcotest.(check bool) "list empty" true (Pmem.dirty_line_list pm = []);
      Alcotest.(check int) "page 1 reverted to zero" 0 (Pmem.read_u64 pm ~actor ~addr:4096);
      Alcotest.(check int) "page 2 reverted to persisted" 65 (Pmem.read_u64 pm ~actor ~addr:8192);
      Alcotest.(check int) "page 2 line 1 reverted to persisted" 66
        (Pmem.read_u64 pm ~actor ~addr:(8192 + 64)))

(* A flushed line leaves no record behind: after a warm-up, store +
   persist cycles on one cacheline must not grow the live heap. *)
let test_persist_leaves_no_heap () =
  in_fiber (fun _ pm ->
      let cycles n =
        for i = 1 to n do
          Pmem.write_u64 pm ~actor ~addr:4096 i;
          Pmem.persist pm ~addr:4096 ~len:8
        done
      in
      let live_words () =
        Gc.full_major ();
        (Gc.stat ()).Gc.live_words
      in
      cycles 1_000;
      let before = live_words () in
      cycles 20_000;
      let grown = live_words () - before in
      if grown >= 1_000 then
        Alcotest.failf "20,000 store+persist cycles grew the live heap by %d words" grown)

(* ------------------------------------------------------------------ *)
(* Event log and replay *)

let test_event_log_order_across_persist_ranges () =
  in_fiber (fun _ pm ->
      Pmem.set_recording pm true;
      Pmem.write_u64 pm ~actor:1 ~addr:4096 1;
      Pmem.write_u64 pm ~actor ~addr:8192 2;
      Pmem.persist_ranges pm [ (4096, 8); (8192, 8) ];
      Pmem.write_u64 pm ~actor:1 ~addr:4160 3;
      Pmem.persist pm ~addr:4160 ~len:8;
      (* the log preserves program order, one Ev_persist per fence with
         all its ranges, and kernel stores are logged but not counted *)
      (match Pmem.recorded_events pm with
      | [
       Pmem.Ev_store { actor = 1; addr = 4096; _ };
       Pmem.Ev_store { actor = 0; addr = 8192; _ };
       Pmem.Ev_persist [ (4096, 8); (8192, 8) ];
       Pmem.Ev_store { actor = 1; addr = 4160; _ };
       Pmem.Ev_persist [ (4160, 8) ];
      ] ->
        ()
      | evs -> Alcotest.failf "unexpected log shape (%d events)" (List.length evs));
      Alcotest.(check int) "user stores counted" 2 (Pmem.recorded_user_stores pm);
      Alcotest.(check int) "event count" 5 (Pmem.recorded_event_count pm))

let test_recording_requires_store_data () =
  in_fiber ~store_data:false (fun _ pm ->
      match Pmem.set_recording pm true with
      | () -> Alcotest.fail "set_recording must reject cost-only devices"
      | exception Invalid_argument _ -> ())

(* Same log => bit-identical image, and the image matches the live
   device in both content and unflushed-line set. *)
let test_replay_determinism () =
  in_fiber (fun _ pm ->
      Pmem.set_recording pm true;
      let rng = Rng.create 9 in
      for i = 0 to 199 do
        let addr = 4096 + (Rng.int rng 40 * 64) in
        Pmem.write_u64 pm ~actor:1 ~addr (i + 1);
        if Rng.int rng 3 = 0 then Pmem.persist pm ~addr ~len:8;
        if Rng.int rng 7 = 0 then Pmem.persist_ranges pm [ (4096, 512); (8192, 128) ]
      done;
      let evs = Pmem.recorded_events pm in
      let replay () =
        let img = Pmem.Replay.create () in
        Pmem.Replay.apply_all img evs;
        img
      in
      let img1 = replay () and img2 = replay () in
      Alcotest.(check (list int)) "same pages" (Pmem.Replay.pages img1) (Pmem.Replay.pages img2);
      List.iter
        (fun pg ->
          Alcotest.(check bool) "replayed pages bit-identical" true
            (Bytes.equal (Pmem.Replay.page img1 pg) (Pmem.Replay.page img2 pg)))
        (Pmem.Replay.pages img1);
      Alcotest.(check bool) "dirty set matches device" true
        (Pmem.Replay.dirty img1 = Pmem.dirty_line_list pm);
      List.iter
        (fun pg ->
          Alcotest.(check bool) "image matches device content" true
            (Bytes.equal (Pmem.Replay.page img1 pg) (Pmem.peek_page pm pg)))
        (Pmem.Replay.pages img1))

(* Power failure applied to the image and to the device with the same
   surviving-line predicate yields the same bytes. *)
let test_crash_select_matches_replay_crash () =
  in_fiber (fun _ pm ->
      Pmem.set_recording pm true;
      for i = 0 to 29 do
        Pmem.write_u64 pm ~actor:1 ~addr:(4096 + (i * 64)) (i + 100)
      done;
      Pmem.persist pm ~addr:4096 ~len:512;
      let img = Pmem.Replay.create () in
      Pmem.Replay.apply_all img (Pmem.recorded_events pm);
      let survives ~page ~line = (page + line) mod 3 = 0 in
      Pmem.Replay.crash img ~survives;
      Pmem.crash_select pm ~survives;
      Alcotest.(check bool) "device dirty drained" true (Pmem.dirty_line_list pm = []);
      Alcotest.(check bool) "image dirty drained" true (Pmem.Replay.dirty img = []);
      List.iter
        (fun pg ->
          Alcotest.(check bool) "post-crash bytes identical" true
            (Bytes.equal (Pmem.Replay.page img pg) (Pmem.peek_page pm pg)))
        (Pmem.Replay.pages img))

(* Freeing a page mid-log: the discard event keeps image and device in
   lockstep (content gone, pending pre-images dropped). *)
let test_replay_discard_parity () =
  in_fiber (fun _ pm ->
      Pmem.set_recording pm true;
      Pmem.write_u64 pm ~actor:1 ~addr:8192 77;
      Pmem.persist pm ~addr:8192 ~len:8;
      Pmem.write_u64 pm ~actor:1 ~addr:8256 78;
      Pmem.discard_page pm 2;
      let img = Pmem.Replay.create () in
      Pmem.Replay.apply_all img (Pmem.recorded_events pm);
      Alcotest.(check bool) "dirty sets agree" true
        (Pmem.Replay.dirty img = Pmem.dirty_line_list pm);
      Alcotest.(check bool) "discarded page reads as zeros" true
        (Bytes.equal (Pmem.Replay.page img 2) (Pmem.peek_page pm 2)))

(* ------------------------------------------------------------------ *)
(* Line-diffing store *)

let page2 = 2 * Pmem.page_size

(* A page whose every line differs from a constant fill. *)
let base_page () = Bytes.init Pmem.page_size (fun i -> Char.chr ((i * 7) land 0xff))

(* [b] with each of [lines] overwritten by a fill of its own. *)
let with_lines b lines =
  let b = Bytes.copy b in
  List.iter (fun l -> Bytes.fill b (l * Pmem.line_size) Pmem.line_size (Char.chr (0x80 + l))) lines;
  b

(* Page 2 holds [base_page], flushed. *)
let flushed_base pm =
  Pmem.write pm ~actor ~addr:page2 ~src:(base_page ());
  Pmem.persist pm ~addr:page2 ~len:Pmem.page_size

let bytes_written pm =
  let _, _, w = Pmem.node_stats pm 0 in
  w

let test_line_store_only_differing () =
  in_fiber (fun _ pm ->
      flushed_base pm;
      let src = with_lines (base_page ()) [ 3; 4; 10; 63 ] in
      let before = bytes_written pm in
      Pmem.write_lines pm ~actor ~addr:page2 ~src;
      Alcotest.(check (float 0.0)) "charged for four lines" 256.0 (bytes_written pm -. before);
      Alcotest.(check (list (pair int int)))
        "only the stored lines are unflushed"
        [ (2, 3); (2, 4); (2, 10); (2, 63) ]
        (Pmem.dirty_line_list pm);
      Alcotest.(check bool) "page equals the source" true (Bytes.equal src (Pmem.peek_page pm 2));
      (* a sub-page source: lines 8..10, of which only line 10 differs *)
      Pmem.persist pm ~addr:page2 ~len:Pmem.page_size;
      let part = Bytes.sub (with_lines src [ 10 ]) (8 * Pmem.line_size) (3 * Pmem.line_size) in
      Bytes.fill part (2 * Pmem.line_size) Pmem.line_size 'z';
      Pmem.write_lines pm ~actor ~addr:(page2 + (8 * Pmem.line_size)) ~src:part;
      Alcotest.(check (list (pair int int)))
        "one line of three" [ (2, 10) ] (Pmem.dirty_line_list pm);
      match Pmem.write_lines pm ~actor ~addr:(page2 + 32) ~src:(Bytes.make 64 'x') with
      | () -> Alcotest.fail "a source off the line grid was stored"
      | exception Invalid_argument _ -> ())

let test_line_store_identical_source () =
  in_fiber (fun sched pm ->
      let mmu = Trio_core.Mmu.create pm in
      flushed_base pm;
      let mark = Trio_core.Mmu.write_mark mmu in
      let before = bytes_written pm and now = Sched.now sched in
      let pages = Pmem.materialized_pages pm in
      Pmem.write_lines pm ~actor ~addr:page2 ~src:(base_page ());
      (* a page never written reads as zeros: a zero source is identical *)
      Pmem.write_lines pm ~actor ~addr:(5 * Pmem.page_size) ~src:(Bytes.make Pmem.page_size '\000');
      Alcotest.(check (float 0.0)) "nothing charged" 0.0 (bytes_written pm -. before);
      Alcotest.(check (float 0.0)) "no time passed" now (Sched.now sched);
      Alcotest.(check (list (pair int int))) "nothing unflushed" [] (Pmem.dirty_line_list pm);
      Alcotest.(check int) "no page record made" pages (Pmem.materialized_pages pm);
      List.iter
        (fun page ->
          Alcotest.(check bool) "write-set clean" true (Trio_core.Mmu.clean_since mmu ~mark ~page))
        [ 2; 5 ])

let test_line_store_replays () =
  in_fiber (fun _ pm ->
      Pmem.set_recording pm true;
      flushed_base pm;
      (* an unflushed line the store leaves alone keeps its pre-image *)
      Pmem.write_u64 pm ~actor:1 ~addr:(page2 + (5 * Pmem.line_size)) 99;
      let src = with_lines (Pmem.peek_page pm 2) [ 1; 2; 3; 9; 40 ] in
      Pmem.write_lines pm ~actor:1 ~addr:page2 ~src;
      (match List.rev (Pmem.recorded_events pm) with
      | Pmem.Ev_lines { actor = 1; runs } :: _ ->
        Alcotest.(check (list (pair int int)))
          "one event, one (addr, length) per run"
          [ (page2 + 64, 192); (page2 + (9 * 64), 64); (page2 + (40 * 64), 64) ]
          (List.map (fun (a, d) -> (a, Bytes.length d)) runs)
      | _ -> Alcotest.fail "the line store did not log one Ev_lines event");
      Alcotest.(check int) "one crash point per user store" 2 (Pmem.recorded_user_stores pm);
      let img = Pmem.Replay.create () in
      Pmem.Replay.apply_all img (Pmem.recorded_events pm);
      Alcotest.(check (list (pair int int)))
        "replayed unflushed lines match the device"
        [ (2, 1); (2, 2); (2, 3); (2, 5); (2, 9); (2, 40) ]
        (Pmem.Replay.dirty img);
      Alcotest.(check bool)
        "and the live set" true
        (Pmem.Replay.dirty img = Pmem.dirty_line_list pm);
      Alcotest.(check bool) "replayed page matches the device" true
        (Bytes.equal (Pmem.Replay.page img 2) (Pmem.peek_page pm 2)))

(* The compare runs again after the charge's delay: a store that lands
   meanwhile, here on a line the first compare found equal, is
   overwritten, so the page ends equal to the source. *)
let test_line_store_recompares_after_delay () =
  in_fiber (fun sched pm ->
      flushed_base pm;
      let src = with_lines (base_page ()) [ 3 ] in
      let landed = ref false in
      Sched.spawn sched (fun () ->
          Pmem.write_u64 pm ~actor:2 ~addr:(page2 + (8 * Pmem.line_size)) 99;
          landed := true);
      Sched.spawn sched (fun () ->
          Pmem.write_lines pm ~actor:1 ~addr:page2 ~src;
          if not !landed then Alcotest.fail "the other store did not land during the charge");
      Sched.delay 1.0e6;
      Alcotest.(check bool) "page equals the source" true (Bytes.equal src (Pmem.peek_page pm 2)))

let test_line_store_faults_leave_page () =
  in_fiber (fun _ pm ->
      flushed_base pm;
      let src = with_lines (base_page ()) [ 7 ] in
      Pmem.fail_after_writes pm 0;
      (match Pmem.write_lines pm ~actor:1 ~addr:page2 ~src with
      | () -> Alcotest.fail "armed crash point did not fire"
      | exception Pmem.Crash_point -> ());
      Pmem.set_perm_check pm (fun ~actor:_ ~page:_ ~write -> not write);
      (match Pmem.write_lines pm ~actor:1 ~addr:page2 ~src with
      | () -> Alcotest.fail "reader-only actor stored"
      | exception Pmem.Mmu_fault { write = true; page = 2; _ } -> ());
      Alcotest.(check bool)
        "page untouched" true
        (Bytes.equal (base_page ()) (Pmem.peek_page pm 2));
      Alcotest.(check (list (pair int int))) "nothing unflushed" [] (Pmem.dirty_line_list pm))

let test_line_store_poison () =
  in_fiber (fun _ pm ->
      flushed_base pm;
      Pmem.inject_poison pm ~addr:(page2 + (6 * Pmem.line_size)) ~len:Pmem.line_size;
      let src = with_lines (base_page ()) [ 6; 12 ] in
      Pmem.write_lines pm ~actor:1 ~addr:page2 ~src;
      let st = Pmem.fault_stats pm in
      Alcotest.(check int) "poisoned line healed" 0 st.Pmem.poisoned_now;
      Alcotest.(check int) "one repair" 1 st.Pmem.poison_repaired;
      Alcotest.(check bool) "rewritten" true (Bytes.equal src (Pmem.peek_page pm 2));
      Pmem.set_fault_injection pm ~seed:3 ~stuck_store_p:1.0 ();
      Pmem.write_lines pm ~actor:1 ~addr:page2 ~src:(with_lines src [ 30; 31 ]);
      Alcotest.(check int) "one stuck store" 1 (Pmem.fault_stats pm).Pmem.stuck_stores;
      Alcotest.(check (list (pair int int)))
        "only the stored lines poisoned"
        [ (2, 30); (2, 31) ]
        (Pmem.poisoned_lines pm))

(* ------------------------------------------------------------------ *)
(* Media-fault plane *)

let user = 1

let test_poison_detected_and_scrambled () =
  in_fiber (fun _ pm ->
      Pmem.write pm ~actor:user ~addr:8192 ~src:(Bytes.make 128 'a');
      Pmem.persist pm ~addr:8192 ~len:128;
      Pmem.inject_poison pm ~addr:8192 ~len:64;
      (* user loads overlapping the line fail, non-transiently *)
      (match Pmem.read pm ~actor:user ~addr:8192 ~len:128 with
      | _ -> Alcotest.fail "read through poison succeeded"
      | exception Pmem.Media_fault { transient; _ } ->
        Alcotest.(check bool) "non-transient" false transient);
      (* the data is genuinely gone: the kernel reads through and sees
         the garbage pattern, not the old payload *)
      let b = Pmem.read pm ~actor:Pmem.kernel_actor ~addr:8192 ~len:64 in
      Alcotest.(check string) "content scrambled" (String.make 64 '\222') (Bytes.to_string b);
      (* ECC read reports the poisoned line addresses without raising *)
      (match Pmem.read_ecc pm ~actor:user ~addr:8192 ~len:128 with
      | Pmem.Ecc.Ok _ -> Alcotest.fail "read_ecc missed the poison"
      | Pmem.Ecc.Poisoned bad -> Alcotest.(check (list int)) "one bad line" [ 8192 ] bad);
      let st = Pmem.fault_stats pm in
      Alcotest.(check bool) "hits counted" true (st.Pmem.poison_read_hits >= 2);
      Alcotest.(check int) "one line poisoned" 1 st.Pmem.poisoned_now)

let test_transient_faults_replay_with_seed () =
  let pattern () =
    in_fiber (fun _ pm ->
        Pmem.set_fault_injection pm ~seed:424242 ~transient_read_p:0.4 ();
        List.init 40 (fun i ->
            match Pmem.read pm ~actor:user ~addr:(4096 + (i * 64)) ~len:8 with
            | _ -> false
            | exception Pmem.Media_fault { transient = true; _ } -> true
            | exception Pmem.Media_fault { transient = false; _ } ->
              Alcotest.fail "clean line reported as poisoned"))
  in
  let p1 = pattern () and p2 = pattern () in
  Alcotest.(check (list bool)) "same seed, same fault sequence" p1 p2;
  if not (List.mem true p1) then Alcotest.fail "p=0.4 over 40 reads drew no fault";
  if not (List.mem false p1) then Alcotest.fail "p=0.4 over 40 reads failed every read"

let test_stuck_store_poisons_then_rewrite_heals () =
  in_fiber (fun _ pm ->
      Pmem.set_fault_injection pm ~seed:7 ~stuck_store_p:1.0 ();
      Pmem.write pm ~actor:user ~addr:12288 ~src:(Bytes.make 100 'x');
      let st = Pmem.fault_stats pm in
      Alcotest.(check int) "one stuck store" 1 st.Pmem.stuck_stores;
      Alcotest.(check int) "two lines poisoned" 2 st.Pmem.poisoned_now;
      (* the lost write is detected by the next read *)
      (match Pmem.read pm ~actor:user ~addr:12288 ~len:100 with
      | _ -> Alcotest.fail "lost write not detected"
      | exception Pmem.Media_fault { transient = false; _ } -> ());
      (* a later good store over the range heals the poison *)
      Pmem.clear_fault_injection pm;
      Pmem.write pm ~actor:user ~addr:12288 ~src:(Bytes.make 100 'y');
      Pmem.persist pm ~addr:12288 ~len:100;
      let st = Pmem.fault_stats pm in
      Alcotest.(check int) "healed" 0 st.Pmem.poisoned_now;
      Alcotest.(check int) "repairs counted" 2 st.Pmem.poison_repaired;
      let b = Pmem.read pm ~actor:user ~addr:12288 ~len:100 in
      Alcotest.(check string) "rewritten data readable" (String.make 100 'y') (Bytes.to_string b))

let test_kernel_actor_immune () =
  in_fiber (fun _ pm ->
      Pmem.set_fault_injection pm ~seed:9 ~transient_read_p:1.0 ~stuck_store_p:1.0 ();
      (* kernel accesses neither draw faults nor latch stores *)
      Pmem.write pm ~actor:Pmem.kernel_actor ~addr:4096 ~src:(Bytes.make 64 'k');
      ignore (Pmem.read pm ~actor:Pmem.kernel_actor ~addr:4096 ~len:64);
      let st = Pmem.fault_stats pm in
      Alcotest.(check int) "no transients" 0 st.Pmem.transient_faults;
      Alcotest.(check int) "no stuck stores" 0 st.Pmem.stuck_stores;
      Alcotest.(check int) "nothing poisoned" 0 st.Pmem.poisoned_now;
      (* and read_ecc never draws transients even for user actors *)
      match Pmem.read_ecc pm ~actor:user ~addr:4096 ~len:64 with
      | Pmem.Ecc.Ok _ -> ()
      | Pmem.Ecc.Poisoned _ -> Alcotest.fail "read_ecc drew a transient fault")

let test_poison_is_media_state () =
  in_fiber (fun _ pm ->
      Pmem.write_u64 pm ~actor:user ~addr:8192 5;
      Pmem.inject_poison pm ~addr:8192 ~len:8;
      (* poison survives a power failure... *)
      Pmem.crash pm;
      Alcotest.(check bool) "survives crash" true (Pmem.is_poisoned pm ~page:2 ~line:0);
      (* ...and surviving a page discard (the free list does not scrub) *)
      Pmem.discard_page pm 2;
      Alcotest.(check bool) "survives discard" true (Pmem.is_poisoned pm ~page:2 ~line:0);
      (* until something rewrites the line *)
      Pmem.write_u64 pm ~actor:user ~addr:8192 6;
      Alcotest.(check bool) "healed by store" false (Pmem.is_poisoned pm ~page:2 ~line:0))

let () =
  Alcotest.run "nvm"
    [
      ( "data",
        [
          Alcotest.test_case "roundtrip" `Quick test_read_write_roundtrip;
          Alcotest.test_case "zeros" `Quick test_unwritten_reads_zero;
          Alcotest.test_case "cross page" `Quick test_cross_page_access;
          Alcotest.test_case "u64" `Quick test_u64_accessors;
        ] );
      ( "crash",
        [
          Alcotest.test_case "reverts unflushed" `Quick test_crash_reverts_unflushed;
          Alcotest.test_case "keeps flushed" `Quick test_crash_keeps_flushed;
          Alcotest.test_case "line granularity" `Quick test_crash_line_granularity;
          Alcotest.test_case "random subset deterministic" `Quick
            test_crash_random_subset_is_deterministic;
          Alcotest.test_case "dirty accounting" `Quick test_dirty_lines_accounting;
          Alcotest.test_case "re-dirty counts once" `Quick test_redirty_same_line_counts_once;
          Alcotest.test_case "dirty accounting across pages" `Quick
            test_dirty_accounting_across_pages;
          Alcotest.test_case "zero-copy roundtrip" `Quick test_zero_copy_roundtrip;
          Alcotest.test_case "injector counts and re-arms" `Quick
            test_injector_counts_and_rearms;
          Alcotest.test_case "many dirty lines across pages" `Quick
            test_many_dirty_lines_across_pages;
          Alcotest.test_case "persist leaves no heap" `Quick test_persist_leaves_no_heap;
        ] );
      ( "replay",
        [
          Alcotest.test_case "event log order" `Quick test_event_log_order_across_persist_ranges;
          Alcotest.test_case "recording needs store_data" `Quick
            test_recording_requires_store_data;
          Alcotest.test_case "replay determinism" `Quick test_replay_determinism;
          Alcotest.test_case "crash_select parity" `Quick test_crash_select_matches_replay_crash;
          Alcotest.test_case "discard parity" `Quick test_replay_discard_parity;
        ] );
      ( "line store",
        [
          Alcotest.test_case "stores only differing lines" `Quick test_line_store_only_differing;
          Alcotest.test_case "identical source stores nothing" `Quick
            test_line_store_identical_source;
          Alcotest.test_case "one event replays to the device" `Quick test_line_store_replays;
          Alcotest.test_case "compares again after the charge" `Quick
            test_line_store_recompares_after_delay;
          Alcotest.test_case "crash point and MMU fault store nothing" `Quick
            test_line_store_faults_leave_page;
          Alcotest.test_case "heals and poisons only stored lines" `Quick test_line_store_poison;
        ] );
      ( "materialization",
        [
          Alcotest.test_case "data pages cost-only" `Quick test_data_pages_not_materialized;
          Alcotest.test_case "meta pages stored" `Quick test_meta_pages_always_materialized;
        ] );
      ( "faults",
        [
          Alcotest.test_case "poison detected and scrambled" `Quick
            test_poison_detected_and_scrambled;
          Alcotest.test_case "transient faults replay with seed" `Quick
            test_transient_faults_replay_with_seed;
          Alcotest.test_case "stuck store poisons, rewrite heals" `Quick
            test_stuck_store_poisons_then_rewrite_heals;
          Alcotest.test_case "kernel actor immune" `Quick test_kernel_actor_immune;
          Alcotest.test_case "poison is media state" `Quick test_poison_is_media_state;
        ] );
      ( "mmu",
        [
          Alcotest.test_case "fault on unmapped" `Quick test_mmu_fault_on_unmapped;
          Alcotest.test_case "kernel bypasses" `Quick test_mmu_kernel_bypasses;
          Alcotest.test_case "write vs read perm" `Quick test_mmu_write_vs_read_perm;
        ] );
      ( "perf",
        [
          Alcotest.test_case "write slower than read" `Quick test_write_slower_than_read;
          Alcotest.test_case "remote penalty" `Quick test_remote_access_penalty;
          Alcotest.test_case "write collapse" `Quick test_write_bandwidth_collapse;
          Alcotest.test_case "read saturates" `Quick test_read_bandwidth_saturates;
          Alcotest.test_case "interp clamps" `Quick test_interp_clamps;
          Alcotest.test_case "numa topology" `Quick test_numa_topology;
        ] );
      ("model", [ QCheck_alcotest.to_alcotest prop_persistence_model ]);
    ]
