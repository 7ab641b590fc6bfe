(** A miniature LevelDB: LSM tree with a memtable, write-ahead log, two
    on-FS levels of SSTables and compaction.

    Runs over any {!Trio_core.Fs_intf.t}, which is how Table 5 compares
    file systems underneath an identical application.  Like LevelDB it
    keeps one descriptor open per live SSTable and reads no table whose
    key range excludes the key, and a table's records leave the WAL only
    once the manifest lists the table.  One fiber uses a [t] at a time. *)

type options = {
  write_buffer_bytes : int;  (** memtable flush threshold *)
  l0_compaction_trigger : int;  (** #L0 tables that triggers a merge into L1 *)
  sync_writes : bool;  (** fsync the WAL on every write (db_bench "fillsync") *)
}

val default_options : options
(** 256 KiB write buffer, 4-table L0 trigger, asynchronous WAL. *)

type t

val open_db :
  ?options:options -> Trio_core.Fs_intf.t -> dir:string -> (t, Trio_core.Fs_types.errno) result
(** Open (or create) a database under [dir]: loads the manifest, opens
    the live SSTables (keeping a descriptor on each), replays the WAL into
    a fresh memtable and, if it replayed anything, flushes it to an L0
    table before truncating the log.  An open that fails leaves no
    descriptor open. *)

val put : t -> key:string -> value:string -> (unit, Trio_core.Fs_types.errno) result
(** Durable once the call returns when [sync_writes]; otherwise durable
    at the next flush (the WAL still recovers it unless the crash drops
    the unflushed tail). *)

val get : t -> key:string -> (string option, Trio_core.Fs_types.errno) result
(** Checks the memtable, then L0 newest-first, then L1, skipping every
    table whose key range excludes [key]: one [pread] per table read,
    through the table's kept descriptor. *)

val delete : t -> key:string -> (unit, Trio_core.Fs_types.errno) result
(** Writes a tombstone; space is reclaimed at the bottom-level merge. *)

val close : t -> (unit, Trio_core.Fs_types.errno) result
(** Flush the memtable, then close every table's descriptor and the
    WAL; they close even when the flush fails, whose error is then the
    one returned. *)

val stats : t -> int * int * int * int
(** [(flushes, compactions, l0_tables, l1_tables)]. *)
