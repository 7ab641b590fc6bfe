(** Shared state of the kernel access controller: record types,
    construction, the verifier view.  The registry tables
    (page owner, ino owner, shadow inodes, files) are one per
    controller; submodules access them only through the accessors
    below.  Per-socket state is the verifier lane only, ring drains are
    per ring, and pages come straight from the per-node extent
    allocators (DESIGN.md §4.14).  Internal to [lib/core] — external
    code goes through the {!Controller} facade. *)

module Sched = Trio_sim.Sched
module Stats = Trio_sim.Stats
module Pmem = Trio_nvm.Pmem
module Numa = Trio_nvm.Numa
module Extent_alloc = Trio_util.Extent_alloc

type page_owner = Verifier.page_owner = Free | Allocated_to of int | In_file of int

type ino_owner = Verifier.ino_owner = Ino_free | Ino_allocated_to of int | Ino_in_dir of int

module Page_map : Map.S with type key = int

type checkpoint = {
  ck_dentry : Bytes.t;
  ck_pages : Bytes.t Page_map.t;  (** metadata pages by number *)
  ck_children : int list;
  ck_size : int;
  ck_index_head : int;
  ck_mark : int;
      (** MMU write-set mark at snapshot time; [Mmu.no_mark] when decoded
          from a snapshot root *)
}

val checkpoint_page : checkpoint -> int -> Bytes.t option
(** A page's bytes in the checkpoint, whether or not still clean. *)

type reads = { r_mark : int; r_pages : (int, Bytes.t) Hashtbl.t }
(** One verification pass's read set (DESIGN.md §4.13): the MMU write
    mark taken before the pass's first device read, and the whole pages
    the pass read from the device.  Passed down as an argument; it dies
    with the pass. *)

type degradation = Healthy | Degraded_ro | Failed

type file_info = {
  f_ino : int;
  mutable f_dentry_addr : int;
  mutable f_parent : int;
  mutable f_ftype : Fs_types.ftype;
  mutable f_index_pages : int list;
  mutable f_data_pages : int list;
  mutable f_dindex_pages : int list;  (** dir only: B-link index nodes (§4.18) *)
  mutable f_readers : (int, unit) Hashtbl.t;
  mutable f_writers : int list;  (** one trust group's write claim *)
  mutable f_lease_expire : float;
  mutable f_checkpoint : checkpoint option;
  mutable f_waiters : Sched.waker Queue.t;
  mutable f_quarantined_for : int option;
  mutable f_degraded : degradation;
  mutable f_unverified : int option;
  mutable f_pending : int option;
  mutable f_verifying : bool;
  mutable f_contended : bool;
      (** another waiter of an expired lease parked on the revoke in flight *)
}

(** How a process holds a file mapped (DESIGN.md §4.5). *)
type demand = {
  faultable : int list;  (** the pages that get a PTE on first touch *)
  mutable ptes : Mmu.pte list;  (** the PTEs made so far *)
}

type mapping =
  | Eager  (** a PTE on every page the controller attributes to the file *)
  | On_demand of demand  (** a directory write map granted on first touch *)

type proc_info = {
  p_id : int;
  p_cred : Fs_types.cred;
  p_group : int;
  mutable p_fix : (int -> bool) option;
  mutable p_recovery : (unit -> unit) option;
  mutable p_pages : (int, unit) Hashtbl.t;
  mutable p_inos : (int, unit) Hashtbl.t;
  mutable p_mapped : (int, mapping) Hashtbl.t;
  p_faultable : (int, int list) Hashtbl.t;
      (** page -> the directory whose on-demand mapping faults it in *)
  p_seen : (int, int) Hashtbl.t;
      (** ino -> MMU write mark at which this process' view of the file
          was current (DESIGN.md §4.5) *)
  mutable p_last_heartbeat : float;
  mutable p_dead : bool;
}

(** One NUMA socket's verifier lane (DESIGN.md §4.14). *)
type shard = {
  sh_id : int;
  sh_verify_q : int Queue.t;
  sh_vq_idle : Sched.waker Queue.t;
  mutable sh_enqueued : int;
}

type t = {
  sched : Sched.t;
  pmem : Pmem.t;
  mmu : Mmu.t;
  topo : Numa.t;
  lease_ns : float;
  node_allocs : Extent_alloc.t array;
  shards : shard array;
  page_owner : (int, page_owner) Hashtbl.t;  (** absent = [Free] *)
  ino_owner : (int, ino_owner) Hashtbl.t;  (** absent = [Ino_free] *)
  shadow : (int, Verifier.shadow) Hashtbl.t;
  files : (int, file_info) Hashtbl.t;
  pages_per_node : int;
  mutable next_ino : int;
  mutable pending_verifications : int;
  mutable unverified_files : int;
  mutable deferred_deletes : (int * int * int) list;
      (** (proc, parent ino, child ino) awaiting pipeline-idle reclaim *)
  procs : (int, proc_info) Hashtbl.t;
  stats : Stats.t;
  mutable corruption_events : (int * int * Verifier.violation list) list;
  mutable quarantine : (int * int) list;
  mutable badblocks : int list;
  mutable verify_hook : (ino:int -> incremental:bool -> dur:float -> ok:bool -> unit) option;
  rings : (int, Ctl_ring.t) Hashtbl.t;
  mutable ring_paused : bool;
      (** test hook: paused drain fibers park instead of consuming *)
  mutable ring_hook : (shard:int -> batch:int -> depth:int -> unit) option;
  snap_pinned : (int, unit) Hashtbl.t;
      (** payload pages of the current durable snapshot root, pinned
          against reuse (DESIGN.md §4.16) *)
  mutable snap_epoch : int;
  mutable snap_slot : int;
  mutable snap_pages : int list;
  snap_restored : (int, unit) Hashtbl.t;
      (** inos rolled back to the durable root since mount *)
  qos : Ctl_qos.t;
      (** per-trust-group token buckets (DESIGN.md §4.17) *)
}

type vmode = Full | Incremental

val current_verify_mode : unit -> vmode

val with_verify_mode : vmode -> (unit -> 'a) -> 'a
(** [with_verify_mode m f] runs [f] under verification mode [m] and
    restores the previous mode, even when [f] raises. *)

val page_size : int

(** {2 Routing and the registry} *)

val shard_count : t -> int
val node_of_page : t -> int -> int

val ring_find : t -> int -> Ctl_ring.t option

val owner_of : t -> int -> page_owner
val set_page_owner : t -> int -> page_owner -> unit
val clear_page_owner : t -> int -> unit
val ino_owner_of : t -> int -> ino_owner
val set_ino_owner : t -> int -> ino_owner -> unit
val clear_ino_owner : t -> int -> unit
val fold_ino_owner : t -> (int -> ino_owner -> 'a -> 'a) -> 'a -> 'a
val file_find : t -> int -> file_info option
val set_file : t -> int -> file_info -> unit
val remove_file : t -> int -> unit
val iter_files : t -> (int -> file_info -> unit) -> unit
val fold_files : t -> (int -> file_info -> 'a -> 'a) -> 'a -> 'a
val iter_files_snapshot : t -> (int -> file_info -> unit) -> unit
val file_table_size : t -> int
val shadow_find : t -> int -> Verifier.shadow option
val shadow_mem : t -> int -> bool
val set_shadow : t -> int -> Verifier.shadow -> unit
val remove_shadow : t -> int -> unit

(** {2 Free pages} *)

val take_free : t -> node:int -> count:int -> int list option
(** All [count] pages from [node]'s extent allocator, lowest first, or
    [None] (taking nothing) when the node holds fewer. *)

val put_free : t -> int -> unit
(** Return a page to its node's extent allocator; raises
    [Invalid_argument] on a double free. *)

(** {2 Snapshot-plane bookkeeping (see {!Ctl_snapshot})} *)

val snap_pinned_mem : t -> int -> bool
val snap_pinned_count : t -> int
val snapshot_epoch : t -> int
val mark_snapshot_restored : t -> int -> unit
val was_snapshot_restored : t -> int -> bool

(** {2 Construction and shared helpers} *)

val new_file :
  ino:int ->
  dentry_addr:int ->
  parent:int ->
  ftype:Fs_types.ftype ->
  ?index_pages:int list ->
  ?data_pages:int list ->
  ?dindex_pages:int list ->
  unit ->
  file_info

val make : sched:Sched.t -> pmem:Pmem.t -> mmu:Mmu.t -> lease_ns:float -> t
(** Bare state with no on-NVM side effects — the shared base of
    [create] and of {!Ctl_snapshot}'s two mounts from NVM. *)

val create : sched:Sched.t -> pmem:Pmem.t -> mmu:Mmu.t -> ?lease_ns:float -> unit -> t
val proc_info : t -> int -> proc_info
val touch : t -> int -> unit
val cred_of_proc : t -> int -> Fs_types.cred

val same_group : t -> int -> int -> bool
(** One process, or two members of one trust group. *)

(** {2 QoS plane (DESIGN.md §4.17)} *)

val qos : t -> Ctl_qos.t

val qos_max_penalty_ns : float
(** Cap on any single throttle delay/park, so deep deficits are paid in
    instalments instead of wedging a fiber. *)

val qos_charge : t -> int -> ?n:int -> Ctl_qos.kind -> unit
(** Charge [proc]'s trust group; no-op for unregistered processes. *)

val qos_admission : t -> int -> float option
(** [Some deadline] while [proc]'s group is overdrawn (deadline capped
    [qos_max_penalty_ns] ahead of now). *)

val qos_admit : t -> int -> unit
(** Synchronous-plane enforcement: delay until the balance recovers.
    Acquisition paths only — never called on release paths. *)

val syscall : t -> int -> admit:bool -> (unit -> 'a) -> 'a
(** The one syscall entry: inside a shield, the trap cost, the
    heartbeat and one [Syscall] unit, then {!qos_admit} when [~admit],
    then the body.  Release paths enter with [~admit:false]. *)

val file_info : t -> int -> file_info option

(** Pipeline temperature: true while any verification verdict is still
    outstanding (queued, running, or parked at the unverified gate).
    The unverified marker must be set/cleared through the two helpers
    so the O(1) count stays exact. *)

val pipeline_hot : t -> bool
val mark_unverified : t -> file_info -> int -> unit
val drop_unverified : t -> file_info -> unit
val view : t -> Verifier.view
val file_pages : file_info -> int list

val chain_pages :
  ?fetch:(int -> Bytes.t option) ->
  ?claim:(int -> unit) ->
  t ->
  head:int ->
  int list * int list * (unit, string) result
(** Walk an index chain with kernel reads ([fetch] may serve a page
    from a checkpoint instead): its index and data pages in chain order,
    each passed to [claim] as it is found, and the walk's verdict. *)

val open_reads : t -> reads
(** An empty read set marked now, before the pass's first read. *)

val record_read : reads -> int -> Bytes.t -> unit

val walk_file :
  ?fetch:(int -> Bytes.t option) ->
  t ->
  ino:int ->
  dentry_addr:int ->
  (Layout.inode * int list * int list * int list) option
(** (inode, index pages, data pages, directory-index pages); [fetch]
    may serve a page (the dentry's page included) from a checkpoint
    instead of the device. *)

val dir_page_is_empty : t -> int -> bool
val wake_all : file_info -> unit

(** {2 On-demand directory write maps (DESIGN.md §4.5)} *)

val add_faultable : proc_info -> ino:int -> int list -> unit
(** Make [pages] faultable for [ino]'s on-demand mapping. *)

val drop_faultable : proc_info -> ino:int -> int list -> unit

val unfaultable : t -> int -> unit
(** A freed or retired page is faultable for no process. *)

val revoke_ptes :
  t -> proc:int -> f:file_info -> mapping -> perm:Mmu.perm -> charge:bool -> unit
(** Take away the PTEs [proc]'s mapping of [f] holds. *)
