(* Per-process submission/completion ring between a LibFS and the
   controller (DESIGN.md §4.15).

   The shape is io_uring's: the untrusted side enqueues fixed-size
   request entries into a submission queue (SQ) and reaps results from a
   completion queue (CQ); the trusted side drains a whole SQ batch under
   one shield/heartbeat, so the per-request kernel-crossing cost is paid
   once per batch instead of once per call.  In the simulation both
   queues are slot arrays indexed by a monotonically increasing sequence
   number modulo the capacity — exactly the shared-memory layout the
   real protocol would mmap, which is what makes wrap-around and
   full-ring behavior faithful.

   One bound covers both queues: an entry occupies its slot from submit
   until its completion is reaped, so

       outstanding = r_sq_tail - r_reaped  <=  r_cap

   guarantees the CQ slot [seq mod cap] is free when the drain fiber
   posts to it — no separate CQ-overflow path exists, matching
   io_uring's CQ sizing discipline.

   Failure semantics: [close] (called by the watchdog's abnormal
   teardown) drops every unconsumed entry on the floor — a submission
   never taken by the consumer, or a completion never reaped by the
   producer, counts as [dropped] and releases its slot.  Entries already
   taken by a drain fiber but not yet posted complete as no-ops: [post]
   on a closed ring only releases the slot.  Either way [outstanding]
   reaches zero, which is what lets the watchdog's page accounting
   treat the ring as empty.  Producers parked on a full SQ or on a
   pending completion are woken and observe [Error EIO].

   Each ring has one consumer, its drain fiber, which parks on the ring
   while the SQ is empty; the producer's doorbell wakes it.  This module
   moves entries and keeps both sides' counters; the drain fiber's
   controller work lives in {!Ctl_gate}. *)

module Sched = Trio_sim.Sched
module Perf = Trio_nvm.Perf
open Fs_types

type op = Op_map of { ino : int; write : bool } | Op_unmap of { ino : int } | Op_lease

(* A map's [Ok current] says whether the process' view of the file
   still holds (DESIGN.md §4.5); every other op completes [Ok false]. *)
type completion = (bool, errno) result

type t = {
  r_proc : int;
  r_cap : int;
  r_sq : (int * op) option array; (* slot = seq mod r_cap *)
  r_cq : (int * completion) option array;
  mutable r_sq_head : int; (* next seq the consumer takes *)
  mutable r_sq_tail : int; (* entries ever submitted *)
  mutable r_cq_tail : int; (* completions ever posted (or dropped) *)
  mutable r_reaped : int; (* completions ever consumed (or dropped) *)
  mutable r_closed : bool;
  mutable r_drainer : Sched.waker option; (* the drain fiber, parked on an empty SQ *)
  r_full_waiters : Sched.waker Queue.t; (* producers parked on a full SQ *)
  r_cq_waiters : (int, Sched.waker) Hashtbl.t; (* seq -> parked producer *)
  r_drain_waiters : Sched.waker Queue.t; (* producers in [drain] *)
  r_forget : (int, unit) Hashtbl.t; (* fire-and-forget seqs: auto-reap *)
  mutable r_sq_parks : int;
  mutable r_cq_parks : int;
  mutable r_wakes : int;
  mutable r_dropped : int;
  mutable r_now : unit -> float;
      (* virtual clock (installed by ring_setup): times producer parks *)
  mutable r_sq_park_ns : float; (* total producer time parked on a full SQ *)
  mutable r_gate : unit -> float option;
      (* QoS admission (installed by ring_setup): [Some deadline] while
         this proc's tenant is overdrawn; default admits everything *)
  mutable r_sleep_until : float -> unit;
      (* park the producer until an absolute virtual time *)
  mutable r_note_throttle : float -> unit; (* report parked ns to the QoS plane *)
  mutable r_throttle_parks : int;
  mutable r_throttle_ns : float;
  mutable r_batches : int; (* drain side: batches taken *)
  mutable r_ops : int; (* entries taken *)
  mutable r_fused : int; (* unmap+remap pairs annihilated in-batch *)
  r_hist : int array; (* taken-batch sizes, see [hist_bucket] *)
  mutable r_drain_wakes : int; (* wakes of the parked drain fiber *)
}

let create ~proc ~capacity =
  if capacity < 1 then invalid_arg "Ctl_ring.create: capacity < 1";
  {
    r_proc = proc;
    r_cap = capacity;
    r_sq = Array.make capacity None;
    r_cq = Array.make capacity None;
    r_sq_head = 0;
    r_sq_tail = 0;
    r_cq_tail = 0;
    r_reaped = 0;
    r_closed = false;
    r_drainer = None;
    r_full_waiters = Queue.create ();
    r_cq_waiters = Hashtbl.create 16;
    r_drain_waiters = Queue.create ();
    r_forget = Hashtbl.create 16;
    r_sq_parks = 0;
    r_cq_parks = 0;
    r_wakes = 0;
    r_dropped = 0;
    r_now = (fun () -> 0.0);
    r_sq_park_ns = 0.0;
    r_gate = (fun () -> None);
    r_sleep_until = (fun _ -> ());
    r_note_throttle = (fun _ -> ());
    r_throttle_parks = 0;
    r_throttle_ns = 0.0;
    r_batches = 0;
    r_ops = 0;
    r_fused = 0;
    r_hist = Array.make 8 0;
    r_drain_wakes = 0;
  }

let set_clock t f = t.r_now <- f

let set_qos t ~gate ~sleep_until ~note =
  t.r_gate <- gate;
  t.r_sleep_until <- sleep_until;
  t.r_note_throttle <- note
let proc t = t.r_proc
let capacity t = t.r_cap
let depth t = t.r_sq_tail - t.r_sq_head
let outstanding t = t.r_sq_tail - t.r_reaped
let submitted t = t.r_sq_tail
let completed t = t.r_cq_tail
let dropped t = t.r_dropped
let is_closed t = t.r_closed
let sq_parks t = t.r_sq_parks
let cq_parks t = t.r_cq_parks
let wakes t = t.r_wakes
let sq_park_ns t = t.r_sq_park_ns
let throttle_parks t = t.r_throttle_parks
let throttle_ns t = t.r_throttle_ns
let batches t = t.r_batches
let ops t = t.r_ops
let fused t = t.r_fused
let hist t = Array.copy t.r_hist
let drain_wakes t = t.r_drain_wakes
let note_fused t = t.r_fused <- t.r_fused + 1

(* Log-bucket index for the taken-batch histogram:
   1, 2, <=4, <=8, <=16, <=32, <=64, >64. *)
let hist_bucket n =
  let rec go b cap = if n <= cap || b = 7 then b else go (b + 1) (2 * cap) in
  go 0 1

let wake_queue q t =
  while not (Queue.is_empty q) do
    t.r_wakes <- t.r_wakes + 1;
    (Queue.pop q) ()
  done

let wake_one q t =
  match Queue.take_opt q with
  | Some w ->
    t.r_wakes <- t.r_wakes + 1;
    w ()
  | None -> ()

(* The doorbell wakes the drain fiber if it is parked on the ring.  A
   fiber mid-batch needs no wake: it re-reads [depth] before it parks. *)
let park_drainer t = Sched.park (fun wake -> t.r_drainer <- Some wake)

let wake_drainer t =
  Option.iter
    (fun wake ->
      t.r_drainer <- None;
      t.r_drain_wakes <- t.r_drain_wakes + 1;
      wake ())
    t.r_drainer

(* A slot freed: one parked producer may enqueue, and if the ring just
   emptied, quiescing producers may proceed. *)
let slot_released t =
  wake_one t.r_full_waiters t;
  if outstanding t = 0 then wake_queue t.r_drain_waiters t

(* Enqueue one request.  The [cpu_work] at the top is the ring's only
   Delay boundary on the submit path — and therefore its kill point: a
   producer killed here has written nothing, so the entry either exists
   completely or not at all (the enqueue below runs without yielding).
   Returns the sequence number to [await] on.

   The doorbell is lazy for fire-and-forget entries: nobody waits on
   their completion, so they may linger in the SQ until an awaited
   submit (or a half-full SQ, or [drain], or the backpressure parks
   below) rings it.  The lingering is what lets an unmap and the
   re-map that chases it land in one batch, where the drain fiber can
   fuse the pair away (see {!Ctl_gate}). *)
(* QoS backpressure at the ring mouth: while the tenant is overdrawn,
   park until the admission deadline.  The producer is outside any
   shield here, so kills can land inside the throttled state — the
   scenario [Explore.explore_qos] sweeps. *)
let rec throttle_wait t =
  if not t.r_closed then
    match t.r_gate () with
    | None -> ()
    | Some deadline ->
      t.r_throttle_parks <- t.r_throttle_parks + 1;
      (* Announce lazy entries before sleeping, like the full-SQ park:
         the drain fiber should not idle while we wait out a debt. *)
      if depth t > 0 then wake_drainer t;
      let t0 = t.r_now () in
      t.r_sleep_until deadline;
      let d = t.r_now () -. t0 in
      t.r_throttle_ns <- t.r_throttle_ns +. d;
      t.r_note_throttle d;
      throttle_wait t

let submit ?(forget = false) t op =
  Sched.cpu_work Perf.Cpu.ring_submit;
  if t.r_closed then Error EIO
  else begin
    throttle_wait t;
    while outstanding t >= t.r_cap && not t.r_closed do
      t.r_sq_parks <- t.r_sq_parks + 1;
      (* The SQ may be full of un-announced lazy entries: ring before
         parking or nobody will ever free a slot. *)
      wake_drainer t;
      let t0 = t.r_now () in
      Sched.park (fun waker -> Queue.push waker t.r_full_waiters);
      t.r_sq_park_ns <- t.r_sq_park_ns +. (t.r_now () -. t0)
    done;
    if t.r_closed then Error EIO
    else begin
      let seq = t.r_sq_tail in
      t.r_sq.(seq mod t.r_cap) <- Some (seq, op);
      t.r_sq_tail <- seq + 1;
      if forget then Hashtbl.replace t.r_forget seq ();
      if (not forget) || 2 * depth t >= t.r_cap then wake_drainer t;
      Ok seq
    end
  end

(* Consumer side: take up to [max] entries off the SQ head, counting
   the batch. *)
let take_batch t ~max =
  let batch = ref [] in
  let n = ref 0 in
  while !n < max && t.r_sq_head < t.r_sq_tail do
    let slot = t.r_sq_head mod t.r_cap in
    (match t.r_sq.(slot) with
    | Some entry ->
      t.r_sq.(slot) <- None;
      batch := entry :: !batch
    | None -> assert false);
    t.r_sq_head <- t.r_sq_head + 1;
    incr n
  done;
  if !n > 0 then begin
    t.r_batches <- t.r_batches + 1;
    t.r_ops <- t.r_ops + !n;
    let b = hist_bucket !n in
    t.r_hist.(b) <- t.r_hist.(b) + 1
  end;
  List.rev !batch

(* Post one completion.  Fire-and-forget entries auto-reap: nobody will
   ever [await] them, so the slot is released immediately.  On a closed
   ring the result is discarded but the slot still releases — this is
   what drives [outstanding] to zero for entries that were in flight
   when the watchdog tore the ring down. *)
let post t ~seq result =
  t.r_cq_tail <- t.r_cq_tail + 1;
  if t.r_closed then begin
    Hashtbl.remove t.r_forget seq;
    t.r_reaped <- t.r_reaped + 1;
    t.r_dropped <- t.r_dropped + 1;
    slot_released t
  end
  else if Hashtbl.mem t.r_forget seq then begin
    Hashtbl.remove t.r_forget seq;
    t.r_reaped <- t.r_reaped + 1;
    slot_released t
  end
  else begin
    t.r_cq.(seq mod t.r_cap) <- Some (seq, result);
    match Hashtbl.find_opt t.r_cq_waiters seq with
    | Some waker ->
      Hashtbl.remove t.r_cq_waiters seq;
      t.r_wakes <- t.r_wakes + 1;
      waker ()
    | None -> ()
  end

(* Producer side: park until [seq]'s completion lands, then reap it.
   The reap charges [ring_reap] — the shared-memory read plus the
   head-pointer store a real reaper would pay. *)
let rec await t ~seq =
  let slot = seq mod t.r_cap in
  match t.r_cq.(slot) with
  | Some (s, result) when s = seq ->
    t.r_cq.(slot) <- None;
    t.r_reaped <- t.r_reaped + 1;
    Sched.cpu_work Perf.Cpu.ring_reap;
    slot_released t;
    result
  | _ ->
    if t.r_closed then Error EIO
    else begin
      t.r_cq_parks <- t.r_cq_parks + 1;
      Sched.park (fun waker -> Hashtbl.replace t.r_cq_waiters seq waker);
      await t ~seq
    end

(* Producer quiesce: wait until every submitted entry has been reaped
   (all fire-and-forget work has landed in the controller).  Lazy
   entries may still be sitting un-announced in the SQ — ring the
   doorbell before parking on them. *)
let rec drain t =
  if outstanding t > 0 && not t.r_closed then begin
    if depth t > 0 then wake_drainer t;
    Sched.park (fun waker -> Queue.push waker t.r_drain_waiters);
    drain t
  end

(* Tear the ring down (watchdog path, or unmount).  Unconsumed
   submissions and unreaped completions are dropped; in-flight entries
   release their slots at [post].  Every parked producer wakes and
   observes the closed flag. *)
let close t =
  if not t.r_closed then begin
    t.r_closed <- true;
    (* Drop submissions never taken by the consumer. *)
    while t.r_sq_head < t.r_sq_tail do
      let slot = t.r_sq_head mod t.r_cap in
      (match t.r_sq.(slot) with
      | Some (seq, _) ->
        t.r_sq.(slot) <- None;
        Hashtbl.remove t.r_forget seq
      | None -> ());
      t.r_sq_head <- t.r_sq_head + 1;
      t.r_reaped <- t.r_reaped + 1;
      t.r_dropped <- t.r_dropped + 1
    done;
    (* Drop completions posted but never reaped. *)
    Array.iteri
      (fun i slot ->
        match slot with
        | Some _ ->
          t.r_cq.(i) <- None;
          t.r_reaped <- t.r_reaped + 1;
          t.r_dropped <- t.r_dropped + 1
        | None -> ())
      t.r_cq;
    wake_queue t.r_full_waiters t;
    Hashtbl.iter
      (fun _ waker ->
        t.r_wakes <- t.r_wakes + 1;
        waker ())
      t.r_cq_waiters;
    Hashtbl.reset t.r_cq_waiters;
    wake_queue t.r_drain_waiters t
  end
