(** Whole-FS copy-on-write snapshots: transactional root publication
    over the per-file checkpoints, verifier-gated rollback, and both
    crash-recovery mounts: the newest intact root, or the fsck walk
    (DESIGN.md §4.16).
    Internal to [lib/core] — external code goes through {!Controller}. *)

type entry = {
  e_ino : int;
  e_dentry_addr : int;
  e_parent : int;
  e_blob : Bytes.t;  (** serialized checkpoint, self-CRC'd *)
}

val entry_checkpoint : entry -> (Ctl_state.checkpoint, string) result

val publish : Ctl_state.t -> (int, Fs_types.errno) result
(** Commit a new snapshot root covering every file with a verified
    checkpoint (taking one on the spot for idle checkpoint-less files).
    Returns the new epoch.  Unshielded by design — crash exploration
    kills it at every Delay boundary.  The caller is responsible for
    draining the verification pipeline first if it wants the snapshot
    to cover in-flight work. *)

val entries : Ctl_state.t -> (int * entry list, string) result
(** [(epoch, entries)] of the current durable root. *)

val entry_for : Ctl_state.t -> int -> (entry * Ctl_state.checkpoint, string) result

val snapshot_page_bytes : Ctl_state.t -> ino:int -> page:int -> Bytes.t option
(** Last-verified bytes of [page] from the durable root, if the root
    holds that file and page.  All reads ECC/CRC-gated. *)

val restore_file :
  Ctl_state.t -> Ctl_state.file_info -> offender:int -> (unit, string) result
(** Roll one file back to its state in the durable root.  A poisoned or
    torn snapshot source is detected (ECC read + stream/blob CRCs) and
    reported as [Error] — never blindly written over the device. *)

val root_status : Trio_nvm.Pmem.t -> slot:int -> int option
(** [Some epoch] iff the slot holds a fully valid root: slot CRC,
    payload chain readable through ECC, stream CRC, header consistent. *)

val valid_roots :
  Trio_nvm.Pmem.t -> (int * Layout.snap_root * Bytes.t * int list) list
(** All fully valid roots as [(slot, root, stream, chain pages)],
    newest epoch first. *)

val cold_start :
  sched:Trio_sim.Sched.t ->
  pmem:Trio_nvm.Pmem.t ->
  mmu:Mmu.t ->
  ?lease_ns:float ->
  unit ->
  (Ctl_state.t, string) result
(** Crash recovery, fsck walk: rebuild full controller state from the
    core state alone, walking the tree from the root, then re-pin the
    newest valid root's payload chain so rollback sources survive
    reallocation.  [Error] on structural corruption. *)

val mount_root :
  sched:Trio_sim.Sched.t ->
  pmem:Trio_nvm.Pmem.t ->
  mmu:Mmu.t ->
  ?lease_ns:float ->
  unit ->
  (Ctl_state.t * int, string) result
(** Crash recovery, fast path: validate both slots and rebuild full
    controller state from the newest intact root (rolling the device
    back to that snapshot).  [Error] demotes the caller to
    {!cold_start}.  Both mounts adopt each file through one function. *)
