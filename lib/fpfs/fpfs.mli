(** FPFS: a LibFS customized for deep directory hierarchies through
    full-path indexing (paper §5).

    Replaces ArckFS' per-component walk (auxiliary state) with a single
    global table mapping full directory paths to inos, so path
    resolution is one probe instead of one per component.  The
    documented trade-off: renaming a directory invalidates the cache
    (O(cached paths)).

    Only auxiliary state is customized — files remain plain ArckFS
    files, shareable with any other LibFS. *)

type t

val mount : Arckfs.Libfs.t -> t
(** Layer full-path indexing over an existing ArckFS LibFS. *)

val ops : t -> Trio_core.Fs_intf.t
(** The underlying LibFS's operations, each resolving its parent
    directory through the path table (with table maintenance on
    unlink/rmdir/rename). *)

val cached_paths : t -> int
(** Current size of the global path table. *)

val invalidate_all : t -> unit
(** Drop the path cache (what a directory rename does internally). *)
