(** Simulated synchronization primitives.

    All primitives operate on virtual time: acquiring a held lock parks
    the calling fiber until the holder releases it.  Ownership is handed
    off to the next waiter in FIFO order, keeping runs deterministic. *)

(** Mutual exclusion with FIFO handoff. *)
module Mutex : sig
  type t

  val create : unit -> t

  val lock : t -> unit
  (** Block (park) until the mutex is acquired. *)

  val try_lock : t -> bool
  (** Acquire without blocking; [false] if held. *)

  val unlock : t -> unit
  (** Release; ownership passes directly to the oldest waiter.
      Raises [Invalid_argument] if not locked. *)

  val with_lock : t -> (unit -> 'a) -> 'a
  (** Run under the lock, releasing on exception. *)
end

(** A spinlock behaves identically under the discrete-event model; KVFS
    uses it for its simplified per-file locking (paper §5). *)
module Spinlock = Mutex

(** Readers–writer lock with writer preference (BRAVO-style readers:
    uncontended reads carry no extra cost). *)
module Rwlock : sig
  type t

  val create : unit -> t
  val read_lock : t -> unit
  val read_unlock : t -> unit
  val write_lock : t -> unit
  val write_unlock : t -> unit

  val with_read : t -> (unit -> 'a) -> 'a
  (** Run under a read lock, releasing on exception. *)

  val with_write : t -> (unit -> 'a) -> 'a
end

(** Byte-range reader–writer lock: lets one thread extend a file while
    others write disjoint regions and many read (paper §4.2). *)
module Range_lock : sig
  type mode = Read | Write

  type t

  val create : unit -> t

  val lock : t -> lo:int -> hi:int -> mode -> unit
  (** Acquire [lo, hi] (inclusive); blocks while a conflicting range is
      held.  Waiters are admitted in FIFO order. *)

  val unlock : t -> lo:int -> hi:int -> mode -> unit
  (** Release exactly a previously acquired range. *)

  val with_range : t -> lo:int -> hi:int -> mode -> (unit -> 'a) -> 'a
  (** Run holding the range, releasing on exception. *)
end

(** Single-assignment cell with blocking read (completion futures for
    delegation requests). *)
module Ivar : sig
  type 'a t

  val create : unit -> 'a t

  val fill : 'a t -> 'a -> unit
  (** Raises [Invalid_argument] if already filled. *)

  val is_full : 'a t -> bool

  val read : 'a t -> 'a
  (** Block until filled. *)
end

(** Bounded FIFO channel: the per-application ring buffer between
    application fibers and delegation fibers (paper §4.5). *)
module Chan : sig
  type 'a t

  exception Closed

  val create : int -> 'a t
  (** [create capacity]; raises on non-positive capacity. *)

  val send : 'a t -> 'a -> unit
  (** Blocks while full; raises {!Closed} if the channel is closed. *)

  val recv : 'a t -> 'a
  (** Blocks while empty; raises {!Closed} once closed and drained. *)

  val close : 'a t -> unit
  (** Wake all waiters with {!Closed}. *)

  val length : 'a t -> int
end

(** Completion counting. *)
module Waitgroup : sig
  type t

  val create : int -> t
  val add : t -> int -> unit
  val done_ : t -> unit
  val wait : t -> unit
end
