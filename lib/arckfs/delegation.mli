(** Opportunistic delegation (paper §4.5, following OdinFS).

    A fixed pool of delegation fibers per NUMA node — shared by every
    LibFS — performs bulk NVM accesses on behalf of application fibers,
    so the device never sees more concurrency than the pool size and
    every delegated access is node-local.  Small accesses (reads under
    32 KiB, writes under 256 B) skip the round trip.  A fault raised by
    a delegated access ([Pmem.Mmu_fault], [Media_fault], [Bounds]) is
    re-raised in the fiber that submitted it. *)

type op =
  | Op_write of Bytes.t * int  (** source buffer, offset within it *)
  | Op_read of Bytes.t * int  (** destination buffer, offset within it *)
  | Op_touch of bool  (** cost-only transfer; [true] = write (baseline models) *)

type t

val create :
  sched:Trio_sim.Sched.t ->
  pmem:Trio_nvm.Pmem.t ->
  ?threads_per_node:int ->
  ?stripe_pages:int ->
  unit ->
  t
(** Spawn the delegation fibers (pinned to their nodes); 12 per node by
    default.  [stripe_pages] is the data-striping granularity; the
    default 16 (64 KiB) makes a 2 MiB access span every node of the
    paper machine. *)

val shutdown : t -> unit
(** Close the rings; workers exit. *)

val should_delegate : t -> write:bool -> len:int -> bool

val stripe_pages : t -> int

val run_all : t -> actor:int -> write:bool -> buf:Bytes.t -> (int * int * int) list -> unit
(** [run_all t ~actor ~write ~buf runs] executes contiguous runs
    [(nvm_addr, buffer_offset, length)] in parallel across the
    delegation fibers and waits for all completions.  MMU checks apply
    with [actor]'s permissions; the first run that faulted re-raises
    its fault here once every run has completed. *)

val touch_all : t -> actor:int -> write:bool -> (int * int) list -> unit
(** Cost-only variant over [(addr, len)] runs (used by the OdinFS
    baseline model). *)

val request_count : t -> int
