(** Media-repair primitives used by the patrol scrubber ({!Scrub}).
    Internal to [lib/core] — external code goes through {!Controller}. *)

val badblocks : Ctl_state.t -> int list
val degradation_of : Ctl_state.t -> int -> Ctl_state.degradation option
val writer_of : Ctl_state.t -> int -> int option
val record_media_event : Ctl_state.t -> ino:int -> detail:string -> unit
val degrade_file : Ctl_state.t -> ino:int -> Ctl_state.degradation -> detail:string -> unit
val quarantine_page : Ctl_state.t -> ino:int -> int -> unit

val replace_page :
  Ctl_state.t -> ino:int -> bad:int -> zero_lines:int list -> (int, Fs_types.errno) result

val rebuild_root_dentry : Ctl_state.t -> unit

(* Drop and rebuild a directory's B-link name index from its live
   dentries (the dentry pages are the source of truth; the index is a
   rebuildable accelerator).  Returns the new root page, 0 when the
   directory ends up unindexed (empty, or no pages available). *)
val rebuild_dindex : Ctl_state.t -> ino:int -> (int, Fs_types.errno) result

val dindex_member : Ctl_state.t -> ino:int -> int -> bool
