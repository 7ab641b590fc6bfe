(* Tests for the discrete-event scheduler and simulated synchronization. *)

module Sched = Trio_sim.Sched
module Sync = Trio_sim.Sync
module Resource = Trio_sim.Resource

let run f =
  let s = Sched.create () in
  Sched.spawn s (fun () -> f s);
  ignore (Sched.run s);
  s

(* ------------------------------------------------------------------ *)
(* Scheduler *)

let test_delay_advances_time () =
  let s = Sched.create () in
  let final = ref 0.0 in
  Sched.spawn s (fun () ->
      Sched.delay 100.0;
      Sched.delay 50.0;
      final := Sched.now s);
  ignore (Sched.run s);
  Alcotest.(check (float 0.001)) "time" 150.0 !final

let test_fibers_interleave () =
  (* Two fibers with different delays must interleave by virtual time. *)
  let s = Sched.create () in
  let log = ref [] in
  Sched.spawn s (fun () ->
      Sched.delay 10.0;
      log := "a10" :: !log;
      Sched.delay 20.0;
      log := "a30" :: !log);
  Sched.spawn s (fun () ->
      Sched.delay 15.0;
      log := "b15" :: !log;
      Sched.delay 20.0;
      log := "b35" :: !log);
  ignore (Sched.run s);
  Alcotest.(check (list string)) "order" [ "a10"; "b15"; "a30"; "b35" ] (List.rev !log)

let test_determinism () =
  let trace () =
    let s = Sched.create () in
    let log = ref [] in
    for i = 0 to 9 do
      Sched.spawn s (fun () ->
          Sched.delay (float_of_int (i * 7 mod 5));
          log := i :: !log;
          Sched.yield ();
          log := (100 + i) :: !log)
    done;
    ignore (Sched.run s);
    List.rev !log
  in
  Alcotest.(check (list int)) "identical traces" (trace ()) (trace ())

let test_run_until () =
  let s = Sched.create () in
  let hits = ref 0 in
  Sched.spawn s (fun () ->
      for _ = 1 to 10 do
        Sched.delay 10.0;
        incr hits
      done);
  let reached = Sched.run ~until:35.0 s in
  Alcotest.(check (float 0.001)) "paused at deadline" 35.0 reached;
  Alcotest.(check int) "three ticks" 3 !hits;
  ignore (Sched.run s);
  Alcotest.(check int) "resumes to completion" 10 !hits

let test_exception_propagates () =
  let s = Sched.create () in
  Sched.spawn s (fun () ->
      Sched.delay 1.0;
      failwith "boom");
  Alcotest.check_raises "fiber exception" (Failure "boom") (fun () -> ignore (Sched.run s))

let test_spawn_cpu_identity () =
  let s = Sched.create () in
  let seen = ref (-1) in
  Sched.spawn ~cpu:5 s (fun () -> seen := Sched.current_cpu ());
  ignore (Sched.run s);
  Alcotest.(check int) "cpu" 5 !seen

(* ------------------------------------------------------------------ *)
(* Mutex *)

let test_mutex_exclusion () =
  let s = Sched.create () in
  let m = Sync.Mutex.create () in
  let inside = ref 0 and max_inside = ref 0 and total = ref 0 in
  for _ = 1 to 5 do
    Sched.spawn s (fun () ->
        for _ = 1 to 10 do
          Sync.Mutex.lock m;
          incr inside;
          if !inside > !max_inside then max_inside := !inside;
          Sched.delay 5.0;
          decr inside;
          incr total;
          Sync.Mutex.unlock m
        done)
  done;
  ignore (Sched.run s);
  Alcotest.(check int) "mutual exclusion" 1 !max_inside;
  Alcotest.(check int) "all critical sections ran" 50 !total;
  Alcotest.(check (float 0.001)) "serialized time" 250.0 (Sched.now s)

let test_mutex_try_lock () =
  ignore
    (run (fun _ ->
         let m = Sync.Mutex.create () in
         assert (Sync.Mutex.try_lock m);
         assert (not (Sync.Mutex.try_lock m));
         Sync.Mutex.unlock m;
         assert (Sync.Mutex.try_lock m);
         Sync.Mutex.unlock m))

(* ------------------------------------------------------------------ *)
(* Rwlock *)

let test_rwlock_readers_concurrent () =
  let s = Sched.create () in
  let l = Sync.Rwlock.create () in
  let inside = ref 0 and max_inside = ref 0 in
  for _ = 1 to 4 do
    Sched.spawn s (fun () ->
        Sync.Rwlock.read_lock l;
        incr inside;
        if !inside > !max_inside then max_inside := !inside;
        Sched.delay 10.0;
        decr inside;
        Sync.Rwlock.read_unlock l)
  done;
  ignore (Sched.run s);
  Alcotest.(check int) "readers overlap" 4 !max_inside;
  Alcotest.(check (float 0.001)) "parallel time" 10.0 (Sched.now s)

let test_rwlock_writer_excludes () =
  let s = Sched.create () in
  let l = Sync.Rwlock.create () in
  let in_write = ref false and violation = ref false in
  Sched.spawn s (fun () ->
      Sync.Rwlock.write_lock l;
      in_write := true;
      Sched.delay 10.0;
      in_write := false;
      Sync.Rwlock.write_unlock l);
  for _ = 1 to 3 do
    Sched.spawn s (fun () ->
        Sched.delay 1.0;
        Sync.Rwlock.read_lock l;
        if !in_write then violation := true;
        Sched.delay 1.0;
        Sync.Rwlock.read_unlock l)
  done;
  ignore (Sched.run s);
  Alcotest.(check bool) "no reader saw a writer" false !violation

let test_rwlock_writer_not_starved () =
  let s = Sched.create () in
  let l = Sync.Rwlock.create () in
  let writer_done_at = ref 0.0 in
  (* a stream of readers; the writer arrives at t=5 and must get in *)
  for i = 0 to 9 do
    Sched.spawn s (fun () ->
        Sched.delay (float_of_int i *. 2.0);
        Sync.Rwlock.read_lock l;
        Sched.delay 4.0;
        Sync.Rwlock.read_unlock l)
  done;
  Sched.spawn s (fun () ->
      Sched.delay 5.0;
      Sync.Rwlock.write_lock l;
      writer_done_at := Sched.now s;
      Sync.Rwlock.write_unlock l);
  ignore (Sched.run s);
  if !writer_done_at > 30.0 then
    Alcotest.failf "writer starved until %.1f" !writer_done_at

(* An uncontended lock makes no waiter queue: 1,000 locks, each taken
   and released in both modes, hold 5 words apiece (13 with two queues
   made at creation), plus the array slot that keeps them alive. *)
let test_rwlock_uncontended_no_queue () =
  let n = 1_000 in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let locks = ref [||] in
  let before = live_words () in
  ignore
    (run (fun _ ->
         locks := Array.init n (fun _ -> Sync.Rwlock.create ());
         Array.iter
           (fun l ->
             Sync.Rwlock.with_read l ignore;
             Sync.Rwlock.with_write l ignore)
           !locks));
  let per_lock = float_of_int (live_words () - before) /. float_of_int n in
  ignore (Sys.opaque_identity !locks);
  if per_lock >= 7.0 then
    Alcotest.failf "an uncontended rwlock holds %.1f heap words (at most 6 expected)" per_lock

(* ------------------------------------------------------------------ *)
(* Range lock *)

let test_range_lock_disjoint_writes () =
  let s = Sched.create () in
  let rl = Sync.Range_lock.create () in
  let active = ref 0 and max_active = ref 0 in
  for i = 0 to 3 do
    Sched.spawn s (fun () ->
        let lo = i * 100 and hi = (i * 100) + 99 in
        Sync.Range_lock.lock rl ~lo ~hi Sync.Range_lock.Write;
        incr active;
        if !active > !max_active then max_active := !active;
        Sched.delay 10.0;
        decr active;
        Sync.Range_lock.unlock rl ~lo ~hi Sync.Range_lock.Write)
  done;
  ignore (Sched.run s);
  Alcotest.(check int) "disjoint writers run in parallel" 4 !max_active

let test_range_lock_overlap_serializes () =
  let s = Sched.create () in
  let rl = Sync.Range_lock.create () in
  let active = ref 0 and max_active = ref 0 in
  for _ = 0 to 3 do
    Sched.spawn s (fun () ->
        Sync.Range_lock.lock rl ~lo:50 ~hi:150 Sync.Range_lock.Write;
        incr active;
        if !active > !max_active then max_active := !active;
        Sched.delay 10.0;
        decr active;
        Sync.Range_lock.unlock rl ~lo:50 ~hi:150 Sync.Range_lock.Write)
  done;
  ignore (Sched.run s);
  Alcotest.(check int) "overlapping writers serialize" 1 !max_active

let test_range_lock_readers_share () =
  let s = Sched.create () in
  let rl = Sync.Range_lock.create () in
  let max_active = ref 0 and active = ref 0 in
  for _ = 0 to 2 do
    Sched.spawn s (fun () ->
        Sync.Range_lock.lock rl ~lo:0 ~hi:100 Sync.Range_lock.Read;
        incr active;
        if !active > !max_active then max_active := !active;
        Sched.delay 10.0;
        decr active;
        Sync.Range_lock.unlock rl ~lo:0 ~hi:100 Sync.Range_lock.Read)
  done;
  ignore (Sched.run s);
  Alcotest.(check int) "readers share" 3 !max_active

(* ------------------------------------------------------------------ *)
(* Ivar / Chan / Waitgroup *)

let test_ivar () =
  let s = Sched.create () in
  let iv = Sync.Ivar.create () in
  let got = ref 0 in
  Sched.spawn s (fun () -> got := Sync.Ivar.read iv);
  Sched.spawn s (fun () ->
      Sched.delay 10.0;
      Sync.Ivar.fill iv 42);
  ignore (Sched.run s);
  Alcotest.(check int) "value" 42 !got

let test_chan_fifo () =
  let s = Sched.create () in
  let c = Sync.Chan.create 4 in
  let got = ref [] in
  Sched.spawn s (fun () ->
      for i = 1 to 10 do
        Sync.Chan.send c i
      done);
  Sched.spawn s (fun () ->
      for _ = 1 to 10 do
        got := Sync.Chan.recv c :: !got
      done);
  ignore (Sched.run s);
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] (List.rev !got)

let test_chan_backpressure () =
  let s = Sched.create () in
  let c = Sync.Chan.create 2 in
  let sent = ref 0 in
  Sched.spawn s (fun () ->
      for _ = 1 to 10 do
        Sync.Chan.send c ();
        incr sent
      done);
  Sched.spawn s (fun () ->
      Sched.delay 100.0;
      for _ = 1 to 10 do
        ignore (Sync.Chan.recv c)
      done);
  let _ = Sched.run ~until:50.0 s in
  (* with capacity 2, at most 3 sends can complete before any recv *)
  if !sent > 3 then Alcotest.failf "no backpressure: %d sends completed" !sent;
  ignore (Sched.run s);
  Alcotest.(check int) "all sent eventually" 10 !sent

let test_chan_close_unblocks () =
  let s = Sched.create () in
  let c = Sync.Chan.create 1 in
  let closed_seen = ref false in
  Sched.spawn s (fun () ->
      try ignore (Sync.Chan.recv c) with Sync.Chan.Closed -> closed_seen := true);
  Sched.spawn s (fun () ->
      Sched.delay 5.0;
      Sync.Chan.close c);
  ignore (Sched.run s);
  Alcotest.(check bool) "receiver unblocked" true !closed_seen

let test_waitgroup () =
  let s = Sched.create () in
  let wg = Sync.Waitgroup.create 3 in
  let done_at = ref 0.0 in
  for i = 1 to 3 do
    Sched.spawn s (fun () ->
        Sched.delay (float_of_int i *. 10.0);
        Sync.Waitgroup.done_ wg)
  done;
  Sched.spawn s (fun () ->
      Sync.Waitgroup.wait wg;
      done_at := Sched.now s);
  ignore (Sched.run s);
  Alcotest.(check (float 0.001)) "waited for slowest" 30.0 !done_at

(* ------------------------------------------------------------------ *)
(* Resource contention *)

let test_server_bandwidth_sharing () =
  (* Two concurrent equal transfers through a flat-bandwidth server must
     take about twice as long as one. *)
  let single =
    let s = Sched.create () in
    let srv = Resource.Server.create ~name:"x" ~base_latency:0.0 ~curve:(fun _ -> 1.0) in
    Sched.spawn s (fun () -> Resource.Server.access srv ~bytes:1000);
    Sched.run s
  in
  let double =
    let s = Sched.create () in
    let srv = Resource.Server.create ~name:"x" ~base_latency:0.0 ~curve:(fun _ -> 1.0) in
    Sched.spawn s (fun () -> Resource.Server.access srv ~bytes:1000);
    Sched.spawn s (fun () -> Resource.Server.access srv ~bytes:1000);
    Sched.run s
  in
  Alcotest.(check (float 1.0)) "single" 1000.0 single;
  if double < 1500.0 then Alcotest.failf "no contention: double=%f" double

let test_hotspot_contention () =
  let cost n =
    let s = Sched.create () in
    let h = Resource.Hotspot.create ~base:10.0 ~alpha:10.0 in
    for _ = 1 to n do
      Sched.spawn s (fun () -> Resource.Hotspot.touch h)
    done;
    Sched.run s
  in
  let c1 = cost 1 and c8 = cost 8 in
  if c8 <= c1 then Alcotest.fail "hotspot should get slower under contention"

(* ------------------------------------------------------------------ *)
(* Property tests *)

(* Random schedules of readers and writers never co-occupy the lock. *)
let prop_rwlock_invariant =
  QCheck.Test.make ~name:"rwlock never admits writer with others" ~count:150
    QCheck.(list_of_size (QCheck.Gen.int_range 2 25) (pair bool (int_bound 30)))
    (fun jobs ->
      let s = Sched.create () in
      let l = Sync.Rwlock.create () in
      let readers = ref 0 and writers = ref 0 and bad = ref false in
      List.iter
        (fun (is_writer, start) ->
          Sched.spawn s (fun () ->
              Sched.delay (float_of_int start);
              if is_writer then begin
                Sync.Rwlock.write_lock l;
                incr writers;
                if !writers > 1 || !readers > 0 then bad := true;
                Sched.delay 5.0;
                decr writers;
                Sync.Rwlock.write_unlock l
              end
              else begin
                Sync.Rwlock.read_lock l;
                incr readers;
                if !writers > 0 then bad := true;
                Sched.delay 5.0;
                decr readers;
                Sync.Rwlock.read_unlock l
              end))
        jobs;
      ignore (Sched.run s);
      (not !bad) && !readers = 0 && !writers = 0)

(* Range locks never admit overlapping conflicting holders. *)
let prop_range_lock_invariant =
  QCheck.Test.make ~name:"range lock admits only compatible ranges" ~count:150
    QCheck.(
      list_of_size (QCheck.Gen.int_range 2 20)
        (quad bool (int_bound 200) (int_range 1 50) (int_bound 30)))
    (fun jobs ->
      let s = Sched.create () in
      let rl = Sync.Range_lock.create () in
      let held : (int * int * Sync.Range_lock.mode) list ref = ref [] in
      let bad = ref false in
      List.iter
        (fun (is_writer, lo, len, start) ->
          let hi = lo + len - 1 in
          let mode = if is_writer then Sync.Range_lock.Write else Sync.Range_lock.Read in
          Sched.spawn s (fun () ->
              Sched.delay (float_of_int start);
              Sync.Range_lock.lock rl ~lo ~hi mode;
              List.iter
                (fun (l2, h2, m2) ->
                  let overlap = lo <= h2 && l2 <= hi in
                  if overlap && (mode = Sync.Range_lock.Write || m2 = Sync.Range_lock.Write)
                  then bad := true)
                !held;
              held := (lo, hi, mode) :: !held;
              Sched.delay 4.0;
              held := List.filter (fun r -> r <> (lo, hi, mode)) !held;
              Sync.Range_lock.unlock rl ~lo ~hi mode))
        jobs;
      ignore (Sched.run s);
      (not !bad) && !held = [])

(* Channels deliver every message exactly once, in order per sender. *)
let prop_chan_exactly_once =
  QCheck.Test.make ~name:"channel delivers exactly once" ~count:100
    QCheck.(pair (int_range 1 5) (int_range 1 40))
    (fun (consumers, n) ->
      let s = Sched.create () in
      let c = Sync.Chan.create 3 in
      let seen = Hashtbl.create 16 in
      Sched.spawn s (fun () ->
          for i = 1 to n do
            Sync.Chan.send c i
          done;
          Sync.Chan.close c);
      for _ = 1 to consumers do
        Sched.spawn s (fun () ->
            try
              while true do
                let v = Sync.Chan.recv c in
                Hashtbl.replace seen v (1 + Option.value (Hashtbl.find_opt seen v) ~default:0)
              done
            with Sync.Chan.Closed -> ())
      done;
      ignore (Sched.run s);
      Hashtbl.length seen = n && Hashtbl.fold (fun _ c acc -> acc && c = 1) seen true)

let () =
  Alcotest.run "sim"
    [
      ( "sched",
        [
          Alcotest.test_case "delay advances time" `Quick test_delay_advances_time;
          Alcotest.test_case "fibers interleave" `Quick test_fibers_interleave;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
          Alcotest.test_case "cpu identity" `Quick test_spawn_cpu_identity;
        ] );
      ( "mutex",
        [
          Alcotest.test_case "exclusion" `Quick test_mutex_exclusion;
          Alcotest.test_case "try_lock" `Quick test_mutex_try_lock;
        ] );
      ( "rwlock",
        [
          Alcotest.test_case "readers concurrent" `Quick test_rwlock_readers_concurrent;
          Alcotest.test_case "writer excludes" `Quick test_rwlock_writer_excludes;
          Alcotest.test_case "writer not starved" `Quick test_rwlock_writer_not_starved;
          Alcotest.test_case "uncontended makes no queue" `Quick test_rwlock_uncontended_no_queue;
        ] );
      ( "range_lock",
        [
          Alcotest.test_case "disjoint writes parallel" `Quick test_range_lock_disjoint_writes;
          Alcotest.test_case "overlap serializes" `Quick test_range_lock_overlap_serializes;
          Alcotest.test_case "readers share" `Quick test_range_lock_readers_share;
        ] );
      ( "ipc",
        [
          Alcotest.test_case "ivar" `Quick test_ivar;
          Alcotest.test_case "chan fifo" `Quick test_chan_fifo;
          Alcotest.test_case "chan backpressure" `Quick test_chan_backpressure;
          Alcotest.test_case "chan close" `Quick test_chan_close_unblocks;
          Alcotest.test_case "waitgroup" `Quick test_waitgroup;
        ] );
      ( "resource",
        [
          Alcotest.test_case "server bandwidth sharing" `Quick test_server_bandwidth_sharing;
          Alcotest.test_case "hotspot contention" `Quick test_hotspot_contention;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_rwlock_invariant;
          QCheck_alcotest.to_alcotest prop_range_lock_invariant;
          QCheck_alcotest.to_alcotest prop_chan_exactly_once;
        ] );
    ]
