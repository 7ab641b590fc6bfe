(** Per-process submission/completion ring between a LibFS and the
    controller (DESIGN.md §4.15): io_uring-shaped slot arrays indexed by
    sequence number modulo capacity, one bound ([outstanding <=
    capacity]) covering both queues.  Each ring has one consumer, its
    drain fiber, which parks on the ring while the SQ is empty; the
    producer's doorbell wakes it.  This module moves entries and keeps
    the counters — the drain fiber that executes them lives in
    {!Ctl_gate}.  Internal to [lib/core]; external code goes through the
    {!Controller} facade. *)

module Sched = Trio_sim.Sched

type op = Op_map of { ino : int; write : bool } | Op_unmap of { ino : int } | Op_lease

type completion = (bool, Fs_types.errno) result
(** A map's [Ok current]: whether every page of the file's walked set is
    unchanged since the process' view of it was current (DESIGN.md
    §4.5).  Unmaps and lease renewals complete [Ok false]. *)

type t

val create : proc:int -> capacity:int -> t

val set_clock : t -> (unit -> float) -> unit
(** Install the virtual clock used to time producer parks (ring_setup
    does this; the default clock reads 0, so park time is simply not
    measured on unwired rings). *)

val set_qos :
  t ->
  gate:(unit -> float option) ->
  sleep_until:(float -> unit) ->
  note:(float -> unit) ->
  unit
(** Install the QoS hooks (ring_setup): [gate] returns [Some deadline]
    while this proc's tenant is overdrawn, [sleep_until] parks the
    producer until an absolute virtual time, [note] reports parked ns
    back to the QoS accounting. *)

(** {2 Producer side (LibFS)} *)

val submit : ?forget:bool -> t -> op -> (int, Fs_types.errno) result
(** Enqueue one request; parks while the ring is full.  Returns the
    sequence number to {!await} on, or [Error EIO] once closed.
    [~forget:true] marks the entry fire-and-forget: its completion
    auto-reaps and must not be awaited, and its doorbell is lazy — the
    entry lingers in the SQ until an awaited submit, a half-full SQ,
    {!drain} or backpressure announces it, which is what lets the drain
    fiber see an unmap and its chasing re-map in one batch.  The
    [cpu_work] at the head of this function is the submit path's only
    kill point — a producer killed there has enqueued nothing.

    QoS backpressure: while the tenant is overdrawn the producer parks
    at the ring mouth until the admission deadline. *)

val await : t -> seq:int -> completion
(** Park until [seq]'s completion is posted, then reap it.  [Error EIO]
    if the ring closes first. *)

val drain : t -> unit
(** Park until every submitted entry has been reaped (or the ring is
    closed): the producer's quiesce barrier before unmount. *)

(** {2 Consumer side (the ring's drain fiber)} *)

val park_drainer : t -> unit

val wake_drainer : t -> unit
(** Wake the fiber parked in {!park_drainer}, if any: the producer's
    doorbell, and the drain plane's unpause. *)

val take_batch : t -> max:int -> (int * op) list
(** Take up to [max] entries off the SQ head, counting the batch. *)

val post : t -> seq:int -> completion -> unit

val note_fused : t -> unit
(** Count one unmap+remap pair annihilated in-batch. *)

val close : t -> unit
(** Tear down: drop unconsumed submissions and unreaped completions,
    wake every parked producer (they observe [Error EIO]).  In-flight
    entries release their slots when the drain fiber posts them. *)

(** {2 Accessors and counters} *)

val proc : t -> int
val capacity : t -> int

val depth : t -> int
(** Submissions not yet taken by the consumer. *)

val outstanding : t -> int
(** Submissions not yet reaped — the quantity bounded by [capacity]. *)

val submitted : t -> int
val completed : t -> int
val dropped : t -> int
val is_closed : t -> bool

val sq_parks : t -> int
val cq_parks : t -> int
val wakes : t -> int

val sq_park_ns : t -> float
(** Total producer time spent parked on a full SQ (virtual ns). *)

val throttle_parks : t -> int
val throttle_ns : t -> float
val batches : t -> int
val ops : t -> int
val fused : t -> int

val hist : t -> int array
(** Taken-batch sizes (a copy): 1, 2, <=4, <=8, <=16, <=32, <=64, >64. *)

val drain_wakes : t -> int
(** Wakes of the parked drain fiber. *)
