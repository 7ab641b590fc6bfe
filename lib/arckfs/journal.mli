(** Per-CPU undo journal (paper §4.4, §4.5).

    Complex multi-location updates (rename) log the pre-images of every
    range they will modify, seal the transaction, perform the in-place
    updates, and commit.  Crash recovery rolls back uncommitted
    transactions by replaying pre-images newest-first. *)

type t

val create : pmem:Trio_nvm.Pmem.t -> actor:int -> pages:int array -> t
(** [pages.(cpu)] is the journal page of that CPU (pre-allocated by the
    LibFS on each CPU's local node). *)

val begin_tx : t -> int
(** Start a transaction on the calling CPU's journal; returns the slot
    to pass to the other operations. *)

val log : t -> int -> addr:int -> len:int -> unit
(** Append the current content of [addr, addr+len) as an undo record
    (persisted).  Raises if the journal page would overflow. *)

val seal : t -> int -> unit
(** Publish the logged entries to recovery.  Must be called once, after
    the last {!log} and before the first in-place update. *)

val commit : t -> int -> unit
(** The in-place updates are durable; discard the undo records. *)

val recover : t -> unit
(** Roll back every uncommitted transaction (the LibFS' registered
    crash-recovery program runs this). *)
