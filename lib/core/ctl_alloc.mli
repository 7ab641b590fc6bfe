(** Resource allocation: batched page/inode allocation, free, recycle.
    Internal to [lib/core] — external code goes through {!Controller}. *)

val alloc_pages :
  Ctl_state.t ->
  proc:int ->
  node:int ->
  count:int ->
  kind:Trio_nvm.Pmem.kind ->
  (int list, Fs_types.errno) result

val release_page : Ctl_state.t -> int -> unit
(** Drop ownership, discard content, return the page to its node's
    extent allocator: the one path by which an owned page becomes free.
    No-op on pages pinned by the snapshot plane. *)

val alloc_snapshot_pages : Ctl_state.t -> count:int -> int list option
(** Take [count] free pages (node 0 first) for a snapshot payload chain
    and pin them ([snap_pinned]); their page-owner entries stay [Free]. *)

val release_snapshot_pages : Ctl_state.t -> int list -> unit
(** Unpin and return a superseded root's payload pages to their nodes. *)

val pin_snapshot_page : Ctl_state.t -> int -> bool
(** Mount-time dual of [alloc_snapshot_pages]: claim one specific free
    page for the snapshot plane.  False if the page is already owned,
    already pinned, or out of range — the root candidate is then
    rejected. *)

val free_pages : Ctl_state.t -> proc:int -> pages:int list -> (unit, Fs_types.errno) result
val recycle_pages : Ctl_state.t -> proc:int -> pages:int list -> (unit, Fs_types.errno) result
val alloc_inos : Ctl_state.t -> proc:int -> count:int -> int list
val alloc_page_any_node : Ctl_state.t -> preferred:int -> int option
val free_file_tree : Ctl_state.t -> proc:int -> ino:int -> (unit, Fs_types.errno) result
