(* Shared state of the kernel access controller.

   The controller was decomposed into focused submodules (allocation,
   checkpointing, process registry, media repair, verification gate);
   this module owns what every one of them needs: the record types, the
   constructor, the verifier view and the index-chain walk.  Both
   rebuilds from NVM, the fsck walk and the snapshot mount, live in
   {!Ctl_snapshot}.  The public API is re-exported by the {!Controller}
   facade — nothing outside [lib/core] links against [Ctl_*] directly. *)

module Pmem = Trio_nvm.Pmem
module Numa = Trio_nvm.Numa
module Sched = Trio_sim.Sched
module Stats = Trio_sim.Stats
module Extent_alloc = Trio_util.Extent_alloc
open Fs_types

type page_owner = Verifier.page_owner = Free | Allocated_to of int | In_file of int

type ino_owner = Verifier.ino_owner = Ino_free | Ino_allocated_to of int | Ino_in_dir of int

module Page_map = Map.Make (Int)

type checkpoint = {
  ck_dentry : Bytes.t; (* snapshot of the file's dentry block *)
  ck_pages : Bytes.t Page_map.t; (* metadata pages by number: index (+ data for dirs) *)
  ck_children : int list; (* dir only: live child inos *)
  ck_size : int;
  ck_index_head : int;
  ck_mark : int;
      (* MMU write-set mark at snapshot time: a page unchanged since
         this mark still matches its snapshot bytes bit for bit, which
         is what lets incremental verification serve it from DRAM.  A
         checkpoint decoded from a snapshot root carries [Mmu.no_mark]. *)
}

let checkpoint_page ck pg = Page_map.find_opt pg ck.ck_pages

(* One verification pass's read set (DESIGN.md §4.13): the MMU write
   mark taken before the pass's first device read, and the whole pages
   the pass read from the device ([Ctl_checkpoint.stand_in] says when
   they may stand in for it).  A pass opens its set and passes it down
   as an argument; the set dies when the pass returns. *)
type reads = { r_mark : int; r_pages : (int, Bytes.t) Hashtbl.t }

(* Health of a file after media damage (see {!Scrub}): [Degraded_ro]
   files reject writes with EROFS but stay readable where the media
   allows; [Failed] files reject all mapping with EIO. *)
type degradation = Healthy | Degraded_ro | Failed

type file_info = {
  f_ino : int;
  mutable f_dentry_addr : int;
  mutable f_parent : int; (* parent directory ino; root points to itself *)
  mutable f_ftype : ftype;
  mutable f_index_pages : int list;
  mutable f_data_pages : int list;
  mutable f_dindex_pages : int list; (* dir only: B-link index nodes (§4.18) *)
  mutable f_readers : (int, unit) Hashtbl.t; (* proc -> () *)
  mutable f_writers : int list; (* one trust group's claim (DESIGN.md §4.5) *)
  mutable f_lease_expire : float;
  mutable f_checkpoint : checkpoint option;
  mutable f_waiters : Sched.waker Queue.t;
  mutable f_quarantined_for : int option; (* corrupt: only this proc may map *)
  mutable f_degraded : degradation;
  mutable f_unverified : int option;
      (* last writer died/wedged before verification: the next map_file
         must pass the verifier gate (as this proc) before any grant *)
  mutable f_pending : int option;
      (* queued for background verification on behalf of this proc
         (set by unmap, cleared when a verifier fiber claims the file) *)
  mutable f_verifying : bool; (* a verifier fiber is checking it right now *)
  mutable f_contended : bool;
      (* another waiter of an expired lease parked on the revoke in
         flight (see Ctl_gate.force_unmap_holders) *)
}

(* How a process holds a file mapped (DESIGN.md §4.5).  An eager
   mapping holds a PTE on every page the controller attributes to the
   file, so its revoke takes [file_pages] as they stand then.  A
   directory write map granted on first touch holds only the PTEs its
   faults made, and its revoke takes exactly those. *)
type demand = { faultable : int list; mutable ptes : Mmu.pte list }

type mapping = Eager | On_demand of demand

type proc_info = {
  p_id : int;
  p_cred : cred;
  p_group : int;
  mutable p_fix : (int -> bool) option; (* LibFS corruption-fix callback *)
  mutable p_recovery : (unit -> unit) option; (* LibFS crash-recovery program *)
  mutable p_pages : (int, unit) Hashtbl.t; (* pages Allocated_to this proc *)
  mutable p_inos : (int, unit) Hashtbl.t; (* inos Ino_allocated_to this proc *)
  mutable p_mapped : (int, mapping) Hashtbl.t; (* inos this proc has mapped *)
  p_faultable : (int, int list) Hashtbl.t;
      (* page -> the directory whose on-demand write mapping makes a
         PTE for it on first touch *)
  p_seen : (int, int) Hashtbl.t;
      (* ino -> MMU write mark at which this proc's view of the file was
         current: taken at its read grant and when its write mapping is
         revoked, dropped at its write grant (DESIGN.md §4.5) *)
  mutable p_last_heartbeat : float; (* virtual time of the last syscall *)
  mutable p_dead : bool; (* abnormally torn down by the watchdog *)
}

(* One controller shard: one NUMA socket's verifier lane (DESIGN.md
   §4.14).  Each shard runs its own verifier fibers against its own
   queue, so a busy socket's verification backlog never stalls another
   socket's.  Ring drains are per ring, and the registry tables are one
   per controller, on [t]. *)
type shard = {
  sh_id : int;
  sh_verify_q : int Queue.t; (* inos awaiting background verification *)
  sh_vq_idle : Sched.waker Queue.t; (* parked verifier fibers of this shard *)
  mutable sh_enqueued : int; (* verifications ever queued here *)
}

type t = {
  sched : Sched.t;
  pmem : Pmem.t;
  mmu : Mmu.t;
  topo : Numa.t;
  lease_ns : float;
  node_allocs : Extent_alloc.t array;
      (* free pages: one extent allocator per node, which every
         allocation draws from and every free returns to directly *)
  shards : shard array; (* one per NUMA socket *)
  page_owner : (int, page_owner) Hashtbl.t; (* absent = Free *)
  ino_owner : (int, ino_owner) Hashtbl.t; (* absent = Ino_free *)
  shadow : (int, Verifier.shadow) Hashtbl.t; (* ground-truth permissions, I4 *)
  files : (int, file_info) Hashtbl.t;
  pages_per_node : int;
  mutable next_ino : int;
  mutable pending_verifications : int;
      (* handoffs enqueued or in flight in the verification pipeline *)
  mutable unverified_files : int; (* files parked at the verifier gate *)
  mutable deferred_deletes : (int * int * int) list;
      (* (proc, parent ino, child ino): children whose dentries vanished
         from a verified directory while the pipeline was still hot.  An
         in-flight cross-directory rename looks exactly like a delete
         from the source side, so reclamation waits for pipeline idle;
         see Ctl_gate.reclaim_deferred *)
  procs : (int, proc_info) Hashtbl.t;
  stats : Stats.t;
  mutable corruption_events : (int * int * Verifier.violation list) list;
      (* (proc, ino, violations) log, most recent first *)
  mutable quarantine : (int * int) list; (* (proc, quarantine ino) *)
  mutable badblocks : int list;
      (* pages retired by the scrubber: never returned to the allocator.
         Soft state — lost on cold_start (a real deployment would log
         them durably; see DESIGN.md §4.11). *)
  mutable verify_hook : (ino:int -> incremental:bool -> dur:float -> ok:bool -> unit) option;
      (* observability tap (Vfs trace ring): fired after each check *)
  rings : (int, Ctl_ring.t) Hashtbl.t;
      (* proc -> its submission/completion ring; closed rings stay in
         the table so late posts and stats still resolve *)
  mutable ring_paused : bool;
      (* test hook: paused drain fibers park instead of consuming,
         which is how the dead-consumer/full-ring scenario is staged *)
  mutable ring_hook : (shard:int -> batch:int -> depth:int -> unit) option;
      (* observability tap (Vfs counters): fired per drained batch *)
  snap_pinned : (int, unit) Hashtbl.t;
      (* payload-chain pages of the current durable snapshot root:
         taken from the free pages but owned by the snapshot plane (owner
         stays Free, invisible to the GC sweep), pinned against reuse
         until the next root supersedes them.  The accounting invariant
         carries them as the snap_pinned term (DESIGN.md §4.16). *)
  mutable snap_epoch : int; (* newest published/adopted root; 0 = none *)
  mutable snap_slot : int; (* slot holding it (meaningful when epoch > 0) *)
  mutable snap_pages : int list; (* payload chain of the current root *)
  snap_restored : (int, unit) Hashtbl.t;
      (* inos rolled back to the durable root since mount: a LibFS
         recovery program must not replay journal records over them —
         that would resurrect the very state the verifier rejected *)
  qos : Ctl_qos.t;
      (* per-trust-group token buckets: admission control over
         syscalls, ring slots, verification and page draw
         (DESIGN.md §4.17) *)
}

(* Global verification-mode switch (differential testing flips it, only
   through [with_verify_mode]): [Incremental] serves provably clean pages
   from delta checkpoints, [Full] always walks the device. *)
type vmode = Full | Incremental

let verify_mode = ref Incremental
let current_verify_mode () = !verify_mode

let with_verify_mode m f =
  let saved = !verify_mode in
  verify_mode := m;
  Fun.protect ~finally:(fun () -> verify_mode := saved) f

let page_size = Layout.page_size

let open_reads t = { r_mark = Mmu.write_mark t.mmu; r_pages = Hashtbl.create 16 }
let record_read r pg b = Hashtbl.replace r.r_pages pg b

(* ------------------------------------------------------------------ *)
(* Routing and the registry.  Pages belong to the node of their backing
   media; the registry tables are one per controller, and no submodule
   touches them except through the accessors below. *)

let shard_count t = Array.length t.shards
let node_of_page t pg = pg / t.pages_per_node
let ring_find t proc = Hashtbl.find_opt t.rings proc
let owner_of t page = Option.value (Hashtbl.find_opt t.page_owner page) ~default:Free
let set_page_owner t page owner = Hashtbl.replace t.page_owner page owner
let clear_page_owner t page = Hashtbl.remove t.page_owner page
let ino_owner_of t ino = Option.value (Hashtbl.find_opt t.ino_owner ino) ~default:Ino_free
let set_ino_owner t ino owner = Hashtbl.replace t.ino_owner ino owner
let clear_ino_owner t ino = Hashtbl.remove t.ino_owner ino

(* Snapshot fold over the ino-owner table (GC sweep). *)
let fold_ino_owner t f acc = Hashtbl.fold f (Hashtbl.copy t.ino_owner) acc
let file_find t ino = Hashtbl.find_opt t.files ino
let set_file t ino f = Hashtbl.replace t.files ino f
let remove_file t ino = Hashtbl.remove t.files ino
let iter_files t f = Hashtbl.iter f t.files
let fold_files t f acc = Hashtbl.fold f t.files acc

(* Snapshot iteration: safe against concurrent removals by the body. *)
let iter_files_snapshot t f = Hashtbl.iter f (Hashtbl.copy t.files)
let file_table_size t = Hashtbl.length t.files
let shadow_find t ino = Hashtbl.find_opt t.shadow ino
let shadow_mem t ino = Hashtbl.mem t.shadow ino
let set_shadow t ino s = Hashtbl.replace t.shadow ino s
let remove_shadow t ino = Hashtbl.remove t.shadow ino

(* ------------------------------------------------------------------ *)
(* Free pages *)

(* Take [count] pages from [node]'s extent allocator, lowest first, or
   none when it holds fewer: the caller decides about other nodes. *)
let take_free t ~node ~count =
  let a = t.node_allocs.(node) in
  if Extent_alloc.free_units a < count then None
  else
    let rec take n acc =
      if n = 0 then List.rev acc else take (n - 1) (Extent_alloc.alloc_one a :: acc)
    in
    Some (take count [])

(* Return a page to its node's extent allocator, which raises on a
   double free. *)
let put_free t pg = Extent_alloc.free t.node_allocs.(node_of_page t pg) pg 1

(* Snapshot-plane bookkeeping (see {!Ctl_snapshot}). *)
let snap_pinned_mem t pg = Hashtbl.mem t.snap_pinned pg
let snap_pinned_count t = Hashtbl.length t.snap_pinned
let snapshot_epoch t = t.snap_epoch
let mark_snapshot_restored t ino = Hashtbl.replace t.snap_restored ino ()
let was_snapshot_restored t ino = Hashtbl.mem t.snap_restored ino

(* The one place file_info records are built: four call sites used to
   repeat this literal and two of them missed field updates over time. *)
let new_file ~ino ~dentry_addr ~parent ~ftype ?(index_pages = []) ?(data_pages = [])
    ?(dindex_pages = []) () =
  {
    f_ino = ino;
    f_dentry_addr = dentry_addr;
    f_parent = parent;
    f_ftype = ftype;
    f_index_pages = index_pages;
    f_data_pages = data_pages;
    f_dindex_pages = dindex_pages;
    f_readers = Hashtbl.create 4;
    f_writers = [];
    f_lease_expire = 0.0;
    f_checkpoint = None;
    f_waiters = Queue.create ();
    f_quarantined_for = None;
    f_degraded = Healthy;
    f_unverified = None;
    f_pending = None;
    f_verifying = false;
    f_contended = false;
  }

let make_node_allocs topo ~pages_per_node =
  Array.init (Numa.nodes topo) (fun n ->
      (* Node 0 loses its first pages to the superblock and the root
         dentry page. *)
      if n = 0 then Extent_alloc.create ~start:2 ~len:(pages_per_node - 2)
      else Extent_alloc.create ~start:(n * pages_per_node) ~len:pages_per_node)

let make_shard id =
  {
    sh_id = id;
    sh_verify_q = Queue.create ();
    sh_vq_idle = Queue.create ();
    sh_enqueued = 0;
  }

let make ~sched ~pmem ~mmu ~lease_ns =
  let topo = Pmem.topo pmem in
  let nodes = Numa.nodes topo in
  {
    sched;
    pmem;
    mmu;
    topo;
    lease_ns;
    node_allocs = make_node_allocs topo ~pages_per_node:(Pmem.pages_per_node pmem);
    shards = Array.init nodes make_shard;
    page_owner = Hashtbl.create 4096;
    ino_owner = Hashtbl.create 1024;
    shadow = Hashtbl.create 1024;
    files = Hashtbl.create 1024;
    pages_per_node = Pmem.pages_per_node pmem;
    next_ino = Layout.root_ino + 1;
    pending_verifications = 0;
    unverified_files = 0;
    deferred_deletes = [];
    procs = Hashtbl.create 16;
    stats = Stats.create ();
    corruption_events = [];
    quarantine = [];
    badblocks = [];
    verify_hook = None;
    rings = Hashtbl.create 16;
    ring_paused = false;
    ring_hook = None;
    snap_pinned = Hashtbl.create 16;
    snap_epoch = 0;
    snap_slot = 0;
    snap_pages = [];
    snap_restored = Hashtbl.create 16;
    qos = Ctl_qos.create ();
  }

let create ~sched ~pmem ~mmu ?(lease_ns = 100.0e6) () =
  let t = make ~sched ~pmem ~mmu ~lease_ns in
  Layout.mkfs pmem ~total_pages:(Pmem.total_pages pmem);
  set_page_owner t 0 (In_file Layout.root_ino);
  set_page_owner t Layout.root_dentry_page (In_file Layout.root_ino);
  set_ino_owner t Layout.root_ino (Ino_in_dir Layout.root_ino);
  set_shadow t Layout.root_ino { Verifier.s_ftype = Dir; s_mode = 0o777; s_uid = 0; s_gid = 0 };
  set_file t Layout.root_ino
    (new_file ~ino:Layout.root_ino ~dentry_addr:Layout.root_dentry_addr ~parent:Layout.root_ino
       ~ftype:Dir ());
  t

let proc_info t proc =
  match Hashtbl.find_opt t.procs proc with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Controller: unregistered process %d" proc)

(* Every syscall doubles as a heartbeat: a process that stops making
   kernel calls is indistinguishable from one that died, which is
   exactly the signal the watchdog escalates on. *)
let touch t proc =
  match Hashtbl.find_opt t.procs proc with
  | Some p -> p.p_last_heartbeat <- Sched.now t.sched
  | None -> ()

(* One process, or two members of one trust group?  An unregistered id
   (the kernel actor) is only itself. *)
let same_group t p q =
  p = q
  ||
  match (Hashtbl.find_opt t.procs p, Hashtbl.find_opt t.procs q) with
  | Some a, Some b -> a.p_group = b.p_group
  | _ -> false
let cred_of_proc t proc = (proc_info t proc).p_cred
let file_info = file_find

(* ------------------------------------------------------------------ *)
(* QoS plane (DESIGN.md §4.17).  Charges attribute to the process'
   trust group; unregistered processes (early mount, kernel fibers)
   charge nothing. *)

let qos t = t.qos

(* Longest single throttle delay/park: bounds the stall any one charge
   can cause, so a deeply overdrawn tenant pays in instalments rather
   than wedging a fiber (and a kill landing in the gap is observable
   sooner in the explorers). *)
let qos_max_penalty_ns = 2.0e6

let qos_charge t proc ?n kind =
  match Hashtbl.find_opt t.procs proc with
  | None -> ()
  | Some p -> Ctl_qos.charge t.qos ~group:p.p_group ~now:(Sched.now t.sched) ?n kind

(* Admission verdict for [proc]'s group: [Some deadline] when it is
   overdrawn (capped at [qos_max_penalty_ns] ahead). *)
let qos_admission t proc =
  match Hashtbl.find_opt t.procs proc with
  | None -> None
  | Some p ->
    let now = Sched.now t.sched in
    (match Ctl_qos.admission t.qos ~group:p.p_group ~now with
    | None -> None
    | Some deadline -> Some (Float.min deadline (now +. qos_max_penalty_ns)))

(* Synchronous-plane enforcement: delay (inside the caller's shield)
   until the tenant's balance recovers.  Only acquisition paths call
   this — release paths (unmap, free) are never delayed, since stalling
   a throttled tenant's releases would block honest waiters on whatever
   it still holds. *)
let qos_admit t proc =
  match qos_admission t proc with
  | None -> ()
  | Some deadline ->
    let now = Sched.now t.sched in
    let d = deadline -. now in
    if d > 0.0 then begin
      (match Hashtbl.find_opt t.procs proc with
      | Some p -> Ctl_qos.note_throttled t.qos ~group:p.p_group ~now ~ns:d
      | None -> ());
      Sched.delay d
    end

(* The one syscall entry, inside a shield: the trap, the heartbeat, one
   [Syscall] unit, then admission on acquisition paths ([~admit]), then
   the body. *)
let syscall t proc ~admit f =
  Sched.shield @@ fun () ->
  Sched.cpu_work Trio_nvm.Perf.Cpu.syscall;
  touch t proc;
  qos_charge t proc Ctl_qos.Syscall;
  if admit then qos_admit t proc;
  f ()

(* ------------------------------------------------------------------ *)
(* Pipeline temperature.  "Hot" means some verification verdict is still
   outstanding — queued, running, or parked at the unverified gate — so
   global conclusions ("this child was deleted, not moved") cannot be
   drawn yet.  The unverified marker is counted through these two
   helpers so the temperature check stays O(1). *)

let pipeline_hot t = t.pending_verifications > 0 || t.unverified_files > 0

let mark_unverified t (f : file_info) proc =
  if f.f_unverified = None then t.unverified_files <- t.unverified_files + 1;
  f.f_unverified <- Some proc

let drop_unverified t (f : file_info) =
  if f.f_unverified <> None then begin
    f.f_unverified <- None;
    t.unverified_files <- t.unverified_files - 1
  end

(* ------------------------------------------------------------------ *)
(* Verifier view *)

let view t =
  {
    Verifier.pmem = t.pmem;
    total_pages = Pmem.total_pages t.pmem;
    page_owner = (fun pg -> owner_of t pg);
    ino_owner = (fun ino -> ino_owner_of t ino);
    shadow = (fun ino -> shadow_find t ino);
    member = (fun ~proc p -> same_group t proc p);
    checkpoint_children =
      (fun ino ->
        match file_find t ino with
        | Some { f_checkpoint = Some ck; _ } -> Some ck.ck_children
        | _ -> None);
    is_mapped_elsewhere =
      (fun ~ino ~proc ->
        match file_find t ino with
        | None -> false
        | Some f ->
          List.exists (fun w -> w <> proc) f.f_writers
          || Hashtbl.fold (fun r () acc -> acc || r <> proc) f.f_readers false);
    write_mapped_by_other =
      (fun ~ino ~proc ->
        match file_find t ino with
        | Some f -> List.exists (fun w -> w <> proc) f.f_writers
        | None -> false);
    pages_attributed_to =
      (fun ino ->
        match file_find t ino with
        | None -> []
        | Some f -> f.f_index_pages @ f.f_data_pages @ f.f_dindex_pages);
    rename_source_ok =
      (fun ~src ~ino ~proc ->
        let member = same_group t proc in
        (match file_find t src with
        | Some { f_writers = w :: _; _ } when member w -> true
        | Some { f_pending = Some p; _ } when member p -> true
        | Some { f_verifying = true; _ } -> true
        | _ -> false)
        || List.exists
             (fun (p, parent, child) -> member p && parent = src && child = ino)
             t.deferred_deletes);
  }

(* ------------------------------------------------------------------ *)
(* Shared helpers *)

let file_pages f =
  (f.f_dentry_addr / page_size) :: (f.f_index_pages @ f.f_data_pages @ f.f_dindex_pages)

(* Walk an index chain with kernel reads, [fetch] serving pages from a
   checkpoint instead of the device: its index and data pages in chain
   order, each passed to [claim] as it is found, and the walk's verdict
   (a chain that leaves the volume or cycles yields what came before). *)
let chain_pages ?fetch ?(claim = ignore) t ~head =
  let index_pages = ref [] and data_pages = ref [] in
  let verdict =
    Layout.walk_index_chain ?fetch t.pmem ~actor:Pmem.kernel_actor ~head
      ~max_pages:(Pmem.total_pages t.pmem) (fun ~index_page ~entries ~next:_ ->
        claim index_page;
        index_pages := index_page :: !index_pages;
        Array.iter
          (fun e ->
            if e <> 0 then begin
              claim e;
              data_pages := e :: !data_pages
            end)
          entries)
  in
  (List.rev !index_pages, List.rev !data_pages, verdict)

(* Walk a file's on-NVM page tree with kernel reads, [fetch] serving
   pages (the dentry's too) from a checkpoint instead of the device.
   Used at map time to find what to grant and at rollback to
   attribute pages. *)
let walk_file ?fetch t ~ino:_ ~dentry_addr =
  let actor = Pmem.kernel_actor in
  let block =
    match Option.bind fetch (fun f -> f (dentry_addr / page_size)) with
    | Some b -> Bytes.sub b (dentry_addr mod page_size) Layout.dentry_size
    | None -> Pmem.read t.pmem ~actor ~addr:dentry_addr ~len:Layout.dentry_size
  in
  match Layout.decode_dentry block with
  | None | Some (Error _) -> None
  | Some (Ok (inode, _name)) ->
    let index_pages, data_pages, _ = chain_pages ?fetch t ~head:inode.Layout.index_head in
    (* Directory B-link index: reachable from the root page stored in
       the dentry tail word.  [Dirindex.pages] is total, so a damaged
       tree still yields its reachable nodes for attribution. *)
    let dindex_pages =
      if inode.Layout.ftype = Dir then
        Dirindex.pages ?fetch t.pmem ~actor ~root:(Layout.get_u64 block Layout.off_dindex_root)
      else []
    in
    Some (inode, index_pages, data_pages, dindex_pages)

(* Scan a directory data page for live entries; the controller refuses to
   free non-empty directory pages, which is what lets the verifier's I3
   deleted-directory check work (see DESIGN.md §4.4). *)
let dir_page_is_empty t pg =
  let b = Pmem.read t.pmem ~actor:Pmem.kernel_actor ~addr:(pg * page_size) ~len:page_size in
  let live = ref false in
  for slot = 0 to Layout.dentries_per_page - 1 do
    if Layout.get_u64 b (slot * Layout.dentry_size) <> 0 then live := true
  done;
  not !live

let wake_all f =
  while not (Queue.is_empty f.f_waiters) do
    (Queue.pop f.f_waiters) ()
  done

(* [p]'s faultable pages: each names the directories whose on-demand
   write mapping may make its PTE on first touch. *)
let add_faultable p ~ino pages =
  List.iter
    (fun pg ->
      let inos = Option.value (Hashtbl.find_opt p.p_faultable pg) ~default:[] in
      Hashtbl.replace p.p_faultable pg (ino :: inos))
    pages

let drop_faultable p ~ino pages =
  List.iter
    (fun pg ->
      match Hashtbl.find_opt p.p_faultable pg with
      | Some inos -> (
        match List.filter (fun i -> i <> ino) inos with
        | [] -> Hashtbl.remove p.p_faultable pg
        | rest -> Hashtbl.replace p.p_faultable pg rest)
      | None -> ())
    pages

(* A freed or retired page is faultable for no one, whoever it goes to
   next. *)
let unfaultable t pg = Hashtbl.iter (fun _ p -> Hashtbl.remove p.p_faultable pg) t.procs

(* Take away the PTEs [proc]'s [mapping] of [f] holds: an eager one's
   on every page the controller attributes to the file, an on-demand
   one's exactly those its faults made, after it stops faulting.
   [Mutation.Keep_faulted_ptes] revokes only those made at map time. *)
let revoke_ptes t ~proc ~(f : file_info) mapping ~perm ~charge =
  match mapping with
  | Eager ->
    let pages = file_pages f in
    if charge then Mmu.revoke t.mmu ~actor:proc ~pages ~perm
    else Mmu.revoke_free t.mmu ~actor:proc ~pages ~perm
  | On_demand d ->
    drop_faultable (proc_info t proc) ~ino:f.f_ino d.faultable;
    let ptes = if Mutation.active Keep_faulted_ptes then [] else d.ptes in
    Mmu.revoke_ptes t.mmu ~actor:proc ~ptes ~charge
