(** Deliberate bugs for the self-tests of the checking machinery.

    Each constructor names one seeded defect, gated at a single site in
    the code it sabotages.  A checker that cannot catch its mutation
    proves nothing, so every campaign has one: it must fail, for the
    expected reason, while the mutation is active, and pass without it.

    At most one mutation is active at a time, and only inside
    {!with_mutation}.  Nothing outside tests and the [--mutate]
    self-tests may arm one. *)

type t =
  | Reorder_commit
      (** [Journal.commit] skips its persist fence, so a power
          failure can revert a committed transaction (caught by the
          crash-state exploration). *)
  | Drop_writes
      (** The MMU stops recording content stores, so incremental
          verification trusts stale snapshots (caught by the
          full-vs-incremental verification differential). *)
  | Skip_gc
      (** The orphan-page GC reports orphans but never reclaims them
          (caught by the page-accounting invariant). *)
  | Qos_bypass
      (** QoS charges debit zero tokens, so no tenant is ever throttled
          (caught as a vacuous QoS kill campaign). *)
  | Torn_commit
      (** Snapshot publication writes the root record before its
          payload, into the live slot (caught as a kill state with zero
          valid roots). *)
  | Skip_index
      (** The LibFS drops B-link directory-index maintenance (caught by
          verifier invariant I5 at a sharing point). *)
  | Keep_handed_back
      (** The LibFS keeps every state it handed back whatever the map
          reply says, so it writes from a stale name table and free-slot
          list after another trust group wrote the directory (caught by
          the verifier at its next handoff). *)
  | Keep_faulted_ptes
      (** An unmap revokes only the PTEs a mapping made at map time and
          keeps those its faults made, so a process that handed a
          directory back can still store to it (caught when the store
          lands and an outsider's readdir sees it). *)

val all : t list
val to_string : t -> string

val active : t -> bool
(** [active m] holds while [m] is armed.  One load and one compare: it
    sits on store and commit hot paths. *)

val with_mutation : t -> (unit -> 'a) -> 'a
(** [with_mutation m f] runs [f] with [m] armed, then restores the
    previous state — also when [f] raises. *)
