(** Extent-based free-space allocator with coalescing.

    Backs the kernel controller's per-NUMA-node page allocators and the
    inode-number allocator. *)

type t

exception Out_of_space

val create : start:int -> len:int -> t
(** [create ~start ~len] manages units [start, start+len). *)

val free_units : t -> int
val used_units : t -> int

val fragments : t -> int
(** Number of free extents (fragmentation metric for the aging benches). *)

val alloc : t -> int -> int
(** [alloc t n] returns the start of a fresh contiguous run of [n] units
    (first fit). Raises {!Out_of_space}. *)

val alloc_one : t -> int

val alloc_at : t -> int -> int -> unit
(** [alloc_at t start n] claims a specific range; raises {!Out_of_space}
    if any part is already allocated. Used when rebuilding allocator state
    from the core state. *)

val is_free : t -> int -> int -> bool

val free : t -> int -> int -> unit
(** [free t start n] returns a range; raises [Invalid_argument] on double
    free. *)
