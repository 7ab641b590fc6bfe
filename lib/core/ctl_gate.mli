(** The verification gate: map/unmap, the background verification
    pipeline, commit, the dead-writer gate, namespace operations.
    Internal to [lib/core] — external code goes through {!Controller}. *)

val check_file_now :
  ?reads:Ctl_state.reads ->
  Ctl_state.t ->
  proc:int ->
  ino:int ->
  dentry_addr:int ->
  Verifier.report
(** One instrumented verification: full or incremental per the global
    mode, feeding the per-invariant stats and the observability hook.
    The pages it reads from the device join [reads]; in incremental
    mode, clean pages of [reads] serve as snapshot bytes. *)

val verify_file : Ctl_state.t -> proc:int -> f:Ctl_state.file_info -> bool
val drain_unverified : Ctl_state.t -> int

val settle : Ctl_state.t -> Ctl_state.file_info -> unit
(** Wait until the file has no queued or in-flight verification; the
    wait accumulates under the "settle" timer. *)

val drain_verification : Ctl_state.t -> unit
(** Run every queued verification inline; wait out in-flight ones.
    A no-op outside fibers (the pipeline is always empty there). *)

val start : Ctl_state.t -> unit
(** Install the MMU's fault handler (on-demand directory write maps,
    DESIGN.md §4.5) and spawn the background verifier fibers. *)

val map_file : Ctl_state.t -> proc:int -> ino:int -> write:bool -> (bool, Fs_types.errno) result
(** [Ok current]: [current] when every page of the file's walked set is
    unchanged since [proc]'s view of it was current (DESIGN.md §4.5). *)

val unmap_file : Ctl_state.t -> proc:int -> ino:int -> (unit, Fs_types.errno) result
val commit : Ctl_state.t -> proc:int -> ino:int -> (unit, Fs_types.errno) result
val unmap_all : Ctl_state.t -> proc:int -> unit
val chmod : Ctl_state.t -> proc:int -> ino:int -> mode:int -> (unit, Fs_types.errno) result

val chown :
  Ctl_state.t -> proc:int -> ino:int -> uid:int -> gid:int -> (unit, Fs_types.errno) result

val write_mapped_inos : Ctl_state.t -> proc:int -> (int * int * Fs_types.ftype) list
val dentry_addr_of : Ctl_state.t -> int -> int option
val crash_recover : Ctl_state.t -> unit

(** {2 The ring drain plane (DESIGN.md §4.15)} *)

val ring_setup : Ctl_state.t -> proc:int -> depth:int -> Ctl_ring.t
(** Create [proc]'s submission/completion ring and spawn its drain
    fiber, which drains that ring alone, on a CPU of socket
    [proc mod sockets]. *)

val set_ring_paused : Ctl_state.t -> bool -> unit
(** Test hook: paused drain fibers park instead of consuming;
    unpausing wakes every ring's fiber. *)
