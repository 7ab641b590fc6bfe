(** Checkpoint store: verified-metadata snapshots, rollback, the delta
    lookup behind incremental verification, and a durable encoding.
    Internal to [lib/core] — external code goes through {!Controller}. *)

val take_checkpoint : ?reads:Ctl_state.reads -> Ctl_state.t -> Ctl_state.file_info -> unit
(** Snapshot the file's metadata pages.  Pages provably clean since the
    previous checkpoint reuse its bytes without a device read; after
    them, pages of the verification pass's read set [reads] that are
    clean since its mark, and the dentry from the set's page that holds
    it. *)

val rollback_to_checkpoint : Ctl_state.t -> Ctl_state.file_info -> offender:int -> unit

val restore_checkpoint :
  Ctl_state.t -> Ctl_state.file_info -> Ctl_state.checkpoint -> offender:int -> unit
(** Like [rollback_to_checkpoint] but with an explicit source — used by
    {!Ctl_snapshot} to restore a checkpoint decoded from a durable root
    (which is CRC-gated before it reaches here). *)

val checkpoint_page_bytes : Ctl_state.t -> ino:int -> page:int -> Bytes.t option

val page_snapshot : Ctl_state.t -> int -> Bytes.t option
(** Bytes of [page] from its owning file's checkpoint, when provably
    identical to the device content; [None] otherwise. *)

val delta_of : ?reads:Ctl_state.reads -> Ctl_state.t -> (int -> Bytes.t option) option
(** The delta lookup handed to {!Verifier.check_file} and the map walk:
    checkpoint pages clean since their mark, then pages of the pass's
    read set [reads] clean since its mark; [None] when the global mode
    is [Full]. *)

val encode_checkpoint : Ctl_state.checkpoint -> Bytes.t
val decode_checkpoint : Bytes.t -> (Ctl_state.checkpoint, string) result
