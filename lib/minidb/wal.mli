(** Write-ahead log over the generic FS interface.

    Every mutation is appended (and optionally fsynced) before it hits
    the memtable; on open, surviving records are replayed.  Torn tails
    after a crash are cut off by the per-record CRC. *)

type t

val create : Trio_core.Fs_intf.t -> path:string -> (t, Trio_core.Fs_types.errno) result
(** Create (or truncate) the log file. *)

val open_ : Trio_core.Fs_intf.t -> path:string -> (t, Trio_core.Fs_types.errno) result
(** Open an existing log for appending, keeping its records. *)

val put :
  t -> key:string -> value:string -> sync:bool -> (unit, Trio_core.Fs_types.errno) result

val delete : t -> key:string -> sync:bool -> (unit, Trio_core.Fs_types.errno) result

val replay :
  Trio_core.Fs_intf.t ->
  path:string ->
  apply:(kind:int -> key:string -> value:string -> unit) ->
  (int, Trio_core.Fs_types.errno) result
(** Replay valid records in order; returns how many were applied.
    A missing log replays zero records. *)

val reset : t -> (unit, Trio_core.Fs_types.errno) result
(** Truncate after a successful memtable flush. *)

val close : t -> (unit, Trio_core.Fs_types.errno) result
