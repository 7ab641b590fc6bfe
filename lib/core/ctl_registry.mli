(** Process registry and the process-failure plane: heartbeats,
    watchdog, abnormal teardown, orphan-page GC.  Internal to
    [lib/core] — external code goes through {!Controller}. *)

val register_process :
  Ctl_state.t ->
  proc:int ->
  cred:Fs_types.cred ->
  ?group:int ->
  ?qos_share:float ->
  ?fix:(int -> bool) ->
  ?recovery:(unit -> unit) ->
  unit ->
  unit
(** [?qos_share] configures the process' trust group's QoS weight and
    turns admission enforcement on for that group (DESIGN.md §4.17);
    omitted, the group is charged for observability but never
    throttled. *)

val process_dead : Ctl_state.t -> proc:int -> bool

val group_solo : Ctl_state.t -> proc:int -> bool
(** No other live process shares [proc]'s trust group.  Read-only: a
    LibFS asks before it trusts its own view of a directory's free
    dentry slots, which a same-group co-writer could be filling. *)

val reap_dead : Ctl_state.t -> int -> int
(** Release a dead process' inode numbers; returns how many. *)

type watchdog_report = {
  mutable wd_scanned : int;
  mutable wd_escalated : int list;
  mutable wd_unverified : int;
  mutable wd_revoked : int;
}

val make_watchdog_report : unit -> watchdog_report
val abnormal_teardown : ?report:watchdog_report -> Ctl_state.t -> proc:int -> unit
val watchdog_once : ?report:watchdog_report -> Ctl_state.t -> timeout_ns:float -> int list

type gc_report = {
  gc_total : int;
  gc_free : int;
  gc_snap_pinned : int;
  gc_reachable : int;
  gc_cached : int;
  gc_badblocks : int;
  gc_reclaimed_pages : int;
  gc_reclaimed_inos : int;
  gc_leaked : int;
  gc_invariant_ok : bool;
}

val pp_gc_report : Format.formatter -> gc_report -> unit
val reachable_files : Ctl_state.t -> (int, bool) Hashtbl.t
val gc_once : Ctl_state.t -> gc_report
