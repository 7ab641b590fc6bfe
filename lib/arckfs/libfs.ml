(* The ArckFS LibFS: a complete POSIX-like file system design living in
   the application's address space (paper §4.2).

   All data and metadata operations act directly on the mapped core
   state; the kernel controller is only involved for page/inode batch
   allocation, map/unmap, and permission changes.  The auxiliary state —
   everything in this module's [dir_state]/[file_state] — is private,
   rebuilt from the core state on demand, and freely customizable
   (KVFS and FPFS below replace parts of it).

   The members of one trust group share these states (DESIGN.md §4.5,
   "Trust groups"); how a process holds an ino stays its own.

   Concurrency (paper §4.2):
   - regular file: readers-writer inode lock + byte-range lock; one
     thread can extend the file while others write disjoint regions and
     many read;
   - directory: striped readers-writer locks over the name hash table,
     a slot-tail lock for choosing dentry slots, atomic dentry
     activation;
   - per-CPU fd allocation, per-node allocation caches, per-CPU undo
     journal. *)

module Sched = Trio_sim.Sched
module Sync = Trio_sim.Sync
module Stats = Trio_sim.Stats
module Pmem = Trio_nvm.Pmem
module Numa = Trio_nvm.Numa
module Perf = Trio_nvm.Perf
module Layout = Trio_core.Layout
module Dirindex = Trio_core.Dirindex
module Controller = Trio_core.Controller
module Mutation = Trio_core.Mutation
module Htbl = Trio_util.Htbl
module Radix = Trio_util.Radix
module Rng = Trio_util.Rng
open Trio_core.Fs_types

let page_size = Layout.page_size

type dentry_ref = { mutable e_ino : int; mutable e_addr : int; e_ftype : ftype }

type dir_state = {
  d_ino : int;
  mutable d_addr : int; (* address of this directory's own dentry block *)
  d_names : (string, dentry_ref) Htbl.t;
  d_stripes : Sync.Rwlock.t array;
  (* slot management: pages with free dentry slots + the index tail *)
  mutable d_free_slots : (int * int) list; (* (page, slot) *)
  mutable d_unscanned : int list;
      (* data pages whose free slots are not in [d_free_slots] yet,
         newest first: a skeleton lists every page, [claim_slot] scans
         them one at a time, [materialize] all at once *)
  mutable d_data_pages : int list; (* newest first: reverse index order *)
  mutable d_index_pages : int list; (* newest first *)
  mutable d_index_tail : int; (* 0 = directory has no index page yet *)
  mutable d_index_used : int; (* used entries in the tail index page *)
  d_tail_lock : Sync.Mutex.t;
  mutable d_size : int; (* cached live-entry count (the inode size field) *)
  d_size_lock : Sync.Mutex.t;
  mutable d_created : bool;
      (* created by this trust group since the kernel last saw its
         parent: held through the group's allocation grants, with no
         mapping of its own *)
  (* B-link name index over this directory (DESIGN.md §4.18).  The
     dentry pages stay the source of truth; the index is a rebuildable
     accelerator, so [d_dindex_root = 0] (unindexed) is always a legal
     state to fall back to. *)
  mutable d_dindex_root : int; (* updated under [d_index_lock]; readers are lock-free *)
  d_index_lock : Sync.Mutex.t; (* held around every update of the index *)
  d_nodes : Dirindex.mirror;
      (* the index nodes this state read or wrote, decoded: descents
         use them instead of the device while [mirror] trusts them *)
  (* Aux construction is lazy: a fresh [dir_state] knows only the page
     chain and the inode size.  [d_aux_built] marks the one full
     per-slot scan that fills [d_names] and [d_free_slots] — done on
     demand, never on the lookup path of an indexed directory. *)
  mutable d_aux_built : bool;
}

type file_state = {
  r_ino : int;
  mutable r_addr : int;
  mutable r_size : int;
  mutable r_index : int Radix.t; (* file page index -> NVM page *)
  mutable r_index_pages : int list; (* newest first *)
  mutable r_index_tail : int;
  mutable r_index_used : int;
  mutable r_npages : int;
  r_ilock : Sync.Rwlock.t;
  r_range : Sync.Range_lock.t;
  mutable r_created : bool; (* as [d_created] *)
}

(* A descriptor names the file by inode: after a lease revocation drops
   the cached [file_state], the next operation re-resolves it. *)
type fd_state = { fd_ino : int; mutable fd_addr : int }

type t = {
  ctl : Controller.t;
  pmem : Pmem.t;
  sched : Sched.t;
  topo : Numa.t;
  proc : int;
  cred : cred;
  cache : Alloc_cache.t;
  journal : Journal.t option; (* None: journal pages unavailable; rename degrades to ENOSPC *)
  delegation : Delegation.t option;
  dirs : (int, dir_state) Hashtbl.t;
  files : (int, file_state) Hashtbl.t;
  building : (int, Sync.Mutex.t) Hashtbl.t; (* ino -> lock of its map and build in flight *)
  members : t list ref; (* the trust group's, first member first; these four are shared *)
  held : (int, bool) Hashtbl.t;
      (* inos this process mapped through the controller and has not
         unmapped since, each with whether the map was writable: the
         only ones an unmap call can hand back *)
  fds : (int, fd_state) Hashtbl.t;
  fd_counters : int array; (* per-CPU fd allocation, no lock *)
  stats : Stats.t;
  unmap_after_write : bool; (* stress mode for the sharing benchmarks *)
  ring : Controller.ring option;
      (* batched syscall plane: map/unmap ride the submission ring
         instead of one shielded crossing each (DESIGN.md §4.15) *)
  mutable free_backlog : int list; (* pages to return to the kernel, batched *)
  mutable free_backlog_len : int;
  retry_deadline_ns : float; (* total [with_retry] budget before ETIMEDOUT *)
  retry_rng : Rng.t; (* jitter for the media-retry backoff *)
}

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Auxiliary-state construction (paper §4.2 "building auxiliary state") *)

let new_dir_state ~ino ~addr =
  {
    d_ino = ino;
    d_addr = addr;
    d_names = Htbl.create_string ();
    d_stripes = Array.init Htbl.stripes (fun _ -> Sync.Rwlock.create ());
    d_free_slots = [];
    d_unscanned = [];
    d_data_pages = [];
    d_index_pages = [];
    d_index_tail = 0;
    d_index_used = 0;
    d_tail_lock = Sync.Mutex.create ();
    d_size = 0;
    d_size_lock = Sync.Mutex.create ();
    d_created = false;
    d_dindex_root = 0;
    d_index_lock = Sync.Mutex.create ();
    d_nodes = Hashtbl.create 8;
    d_aux_built = false;
  }

(* Read the directory's core state and build the *skeleton* of the
   private aux state: the index-chain pages, the inode's live-entry
   count and the B-link root.  Cost is one dentry read plus one read
   per chain page — independent of the entry count.  The per-slot scan
   that fills [d_names] is deferred to [materialize] and never runs on
   the lookup path of an indexed directory; free slots are found page
   by page when a create needs one ([refill_free_slots]). *)
let build_dir_aux t ~ino ~addr =
  Stats.timed t.stats t.sched "rebuild" (fun () ->
      let d = new_dir_state ~ino ~addr in
      (match Layout.read_dentry t.pmem ~actor:t.proc ~addr with
      | Some (Ok (inode, _)) ->
        d.d_size <- inode.Layout.size;
        d.d_dindex_root <- Layout.read_dindex_root t.pmem ~actor:t.proc ~dentry_addr:addr;
        ignore
          (Layout.walk_index_chain t.pmem ~actor:t.proc ~head:inode.Layout.index_head
             ~max_pages:(Pmem.total_pages t.pmem) (fun ~index_page ~entries ~next ->
               d.d_index_pages <- index_page :: d.d_index_pages;
               if next = 0 then begin
                 d.d_index_tail <- index_page;
                 d.d_index_used <- Array.fold_left (fun acc e -> if e <> 0 then acc + 1 else acc) 0 entries
               end;
               Array.iter (fun pg -> if pg <> 0 then d.d_data_pages <- pg :: d.d_data_pages) entries))
      | _ -> ());
      d.d_unscanned <- d.d_data_pages;
      (* An empty directory's aux is trivially complete. *)
      if d.d_data_pages = [] then d.d_aux_built <- true;
      d)

(* The deferred full scan: fill [d_names] from the dentry pages, and
   [d_free_slots] from those still in [d_unscanned] (the other pages'
   free slots are listed already).  Takes every stripe write lock
   (racing name ops would otherwise interleave with the fill) — callers
   must hold none. *)
let materialize t (d : dir_state) =
  if not d.d_aux_built then begin
    Array.iter Sync.Rwlock.write_lock d.d_stripes;
    try
      if not d.d_aux_built then
      Stats.timed t.stats t.sched "rebuild" (fun () ->
          let size = ref 0 in
          let unscanned = Hashtbl.create 16 in
          List.iter (fun pg -> Hashtbl.replace unscanned pg ()) d.d_unscanned;
          List.iter
            (fun pg ->
              let list_free = Hashtbl.mem unscanned pg in
              Hashtbl.remove unscanned pg;
              (* a poisoned page contributes neither names nor free
                 slots: its dentries are unreadable but must not be
                 reused before the scrubber restores the page from the
                 controller checkpoint *)
              match
                Pmem.read_ecc t.pmem ~actor:t.proc ~addr:(pg * page_size) ~len:page_size
              with
              | Pmem.Ecc.Poisoned _ -> ()
              | Pmem.Ecc.Ok b ->
                for slot = 0 to Layout.dentries_per_page - 1 do
                  Sched.cpu_work Perf.Cpu.hash_lookup;
                  let block = Bytes.sub b (slot * Layout.dentry_size) Layout.dentry_size in
                  match Layout.decode_dentry block with
                  | None | Some (Error _) ->
                    if list_free then
                      Sync.Mutex.with_lock d.d_tail_lock (fun () ->
                          d.d_free_slots <- (pg, slot) :: d.d_free_slots)
                  | Some (Ok (child, name)) ->
                    incr size;
                    if Htbl.find d.d_names name = None then
                      Htbl.replace d.d_names name
                        {
                          e_ino = child.Layout.ino;
                          e_addr = Layout.dentry_slot_addr pg slot;
                          e_ftype = child.Layout.ftype;
                        }
                done)
            (List.rev d.d_data_pages);
          d.d_unscanned <- [];
          Sync.Mutex.lock d.d_size_lock;
          d.d_size <- !size;
          Sync.Mutex.unlock d.d_size_lock;
          d.d_aux_built <- true);
      Array.iter Sync.Rwlock.write_unlock d.d_stripes
    with e ->
      Array.iter Sync.Rwlock.write_unlock d.d_stripes;
      raise e
  end

let build_file_aux t ~ino ~addr =
  Stats.timed t.stats t.sched "rebuild" (fun () ->
      match Layout.read_dentry t.pmem ~actor:t.proc ~addr with
      | Some (Ok (inode, _)) ->
        let f =
          {
            r_ino = ino;
            r_addr = addr;
            r_size = inode.Layout.size;
            r_index = Radix.create ();
            r_index_pages = [];
            r_index_tail = 0;
            r_index_used = 0;
            r_npages = 0;
            r_ilock = Sync.Rwlock.create ();
            r_range = Sync.Range_lock.create ();
            r_created = false;
          }
        in
        let fpi = ref 0 in
        ignore
          (Layout.walk_index_chain t.pmem ~actor:t.proc ~head:inode.Layout.index_head
             ~max_pages:(Pmem.total_pages t.pmem) (fun ~index_page ~entries ~next ->
               f.r_index_pages <- index_page :: f.r_index_pages;
               if next = 0 then begin
                 f.r_index_tail <- index_page;
                 f.r_index_used <-
                   Array.fold_left (fun acc e -> if e <> 0 then acc + 1 else acc) 0 entries
               end;
               Array.iter
                 (fun pg ->
                   if pg <> 0 then begin
                     Sched.cpu_work Perf.Cpu.radix_step;
                     Radix.insert f.r_index !fpi pg;
                     incr fpi;
                     f.r_npages <- f.r_npages + 1
                   end)
                 entries));
        Ok f
      | _ -> Error EIO)

(* ------------------------------------------------------------------ *)
(* Mapping management *)

(* A file the controller does not know yet is one this LibFS created in a
   directory that has not been verified since: we already hold all its
   pages (allocation grants), so no map call is needed. *)
let known_to_kernel t ino = Option.is_some (Controller.dentry_addr_of t.ctl ino)

(* Does this process hold [ino] mapped, writable if [write]? *)
let holds t ino ~write =
  match Hashtbl.find_opt t.held ino with Some w -> w || not write | None -> false

(* Every map goes through this dispatcher: the batched path submits to
   the ring and parks on the CQ; the synchronous path is one shielded
   kernel crossing.  Either way the result is the controller's verdict
   for the same op, which is what the batch-drain equivalence tests pin
   down.  [Ok current] says whether every page of the ino's walked set
   is unchanged since this process' view of it was current. *)
let map_ctl t ~ino ~write =
  let result =
    match t.ring with
    | Some r -> Controller.ring_map r ~ino ~write
    | None -> Controller.map_file t.ctl ~proc:t.proc ~ino ~write
  in
  if Result.is_ok result then Hashtbl.replace t.held ino (write || holds t ino ~write:true);
  result

(* The map of a build or a re-hold: none for an ino the kernel does not
   know, which is this LibFS's own creation, so nobody else can have
   changed it. *)
let map_known t ~ino ~write = if known_to_kernel t ino then map_ctl t ~ino ~write else Ok true

(* A cached state serves an op while this process holds its ino with
   the op's access, or its trust group created the ino since the kernel
   last saw it.  A state handed back serves nothing until [rehold]. *)
let dir_serves t (d : dir_state) ~write = d.d_created || holds t d.d_ino ~write
let file_serves t (f : file_state) ~write = f.r_created || holds t f.r_ino ~write

(* Does another member of this trust group hold [ino] write-mapped? *)
let peer_writes t ino =
  List.exists (fun m -> m != t && Hashtbl.find_opt m.held ino = Some true) !(t.members)

(* Run [f], the one map and build of [ino] in flight, behind that ino's
   lock in [building], dropped when [f] ends.  A fiber (of any member)
   that finds one in flight waits it out and answers [None]. *)
let building t ino f =
  match Hashtbl.find_opt t.building ino with
  | Some lock ->
    Sync.Mutex.with_lock lock ignore;
    None
  | None ->
    let lock = Sync.Mutex.create () in
    Sync.Mutex.lock lock;
    Hashtbl.replace t.building ino lock;
    Some
      (Fun.protect
         ~finally:(fun () ->
           Hashtbl.remove t.building ino;
           Sync.Mutex.unlock lock)
         f)

(* The one re-hold of a state [s] this LibFS caches for [ino], for every
   kind of state (directory, file, KVFS entry): once [ready s] fails — a
   state handed back, or read-mapped when the op writes — map [ino] with
   the op's access and let the kind's [refresh] keep [s] or rebuild it
   in place under the kind's locks, given the reply's [current]. *)
let rec rehold t s ~ino ~write ~ready ~refresh =
  if ready s then Ok ()
  else
    match
      building t ino (fun () ->
          let* current = map_known t ~ino ~write in
          refresh s ~current)
    with
    | Some r -> r
    | None -> rehold t s ~ino ~write ~ready ~refresh

(* The one way this LibFS comes to hold an ino, directories (the root
   included) and files alike: a state in [table] that [serves] the op
   is used, one that does not is re-held; with none, map the ino with
   the access the caller's op needs, [build] its aux state and cache it
   in [table].  An op that will change a directory asks for the write
   mapping in its one map call; [mark] flags a state this trust group
   created, which the kernel does not know yet.  Fibers that first
   touch the same ino at once share one map and one build.  Callers
   probe [table] first, so a hit builds no closure. *)
let rec hold t table ~ino ~write ~serves ~build ~mark ~refresh =
  match Hashtbl.find_opt table ino with
  | Some s when serves s -> Ok s
  | Some s ->
    let* () = rehold t s ~ino ~write ~ready:serves ~refresh in
    Ok s
  | None -> (
    match
      building t ino (fun () ->
          let known = known_to_kernel t ino in
          let* _ = if known then map_ctl t ~ino ~write else Ok true in
          let* s = build () in
          if not known then mark s;
          Hashtbl.replace table ino s;
          Ok s)
    with
    | Some r -> r
    | None -> hold t table ~ino ~write ~serves ~build ~mark ~refresh)

(* The head of an index chain cached newest first. *)
let chain_head pages = List.fold_left (fun _ pg -> pg) 0 pages

(* May a state cached for [ino] at [addr] outlive a handoff or a read
   grant?  The map reply must vouch for it ([current]).  A state another
   member holds writable is kept as it is: its dentry may read
   mid-update.  Otherwise one read of its 256-byte dentry must still
   show the ino, size, index head and B-link root it cached.  The
   dentry sits in the parent's page, which siblings' size updates
   dirty, so the kernel leaves that page out of its answer and this
   compare covers it; it also catches a parent rollback that restores
   an old dentry block.  A state kept wrongly can only corrupt this
   group's own next handoff, which the verifier still checks.
   [Mutation.Keep_handed_back] keeps every state. *)
let still_current t ~current ~ino ~addr ~size ~index_head ~dindex_root =
  Mutation.active Keep_handed_back
  || current
     && (peer_writes t ino
        ||
        match Pmem.read_ecc t.pmem ~actor:t.proc ~addr ~len:Layout.dentry_size with
        | Pmem.Ecc.Poisoned _ -> false
        | Pmem.Ecc.Ok b -> (
          match Layout.decode_dentry b with
          | Some (Ok (inode, _)) ->
            inode.Layout.ino = ino
            && inode.Layout.size = size
            && inode.Layout.index_head = index_head
            && Layout.get_u64 b Layout.off_dindex_root = dindex_root
          | _ -> false))

(* A directory's one in-place refresh: kept when [still_current],
   otherwise rebuilt as a first map builds it, under every stripe write
   lock (as [materialize] fills it). *)
let refresh_dir t ~addr (d : dir_state) ~current =
  d.d_addr <- addr;
  if
    not
      (still_current t ~current ~ino:d.d_ino ~addr ~size:d.d_size
         ~index_head:(chain_head d.d_index_pages) ~dindex_root:d.d_dindex_root)
  then begin
    Array.iter Sync.Rwlock.write_lock d.d_stripes;
    try
      let fresh = build_dir_aux t ~ino:d.d_ino ~addr in
      Htbl.clear d.d_names;
      d.d_free_slots <- fresh.d_free_slots;
      d.d_unscanned <- fresh.d_unscanned;
      d.d_data_pages <- fresh.d_data_pages;
      d.d_index_pages <- fresh.d_index_pages;
      d.d_index_tail <- fresh.d_index_tail;
      d.d_index_used <- fresh.d_index_used;
      d.d_size <- fresh.d_size;
      d.d_dindex_root <- fresh.d_dindex_root;
      Hashtbl.reset d.d_nodes;
      d.d_aux_built <- fresh.d_aux_built;
      Array.iter Sync.Rwlock.write_unlock d.d_stripes
    with e ->
      Array.iter Sync.Rwlock.write_unlock d.d_stripes;
      raise e
  end;
  Ok ()

let get_dir t ~write ~ino ~addr =
  match Hashtbl.find_opt t.dirs ino with
  | Some d when dir_serves t d ~write:false -> Ok d
  | _ ->
    hold t t.dirs ~ino ~write ~serves:(dir_serves t ~write:false)
      ~build:(fun () -> Ok (build_dir_aux t ~ino ~addr))
      ~mark:(fun d -> d.d_created <- true)
      ~refresh:(refresh_dir t ~addr)

(* A read grant can go at any moment without the LibFS noticing: another
   trust group's write map revokes readers at once, and nothing faults
   until the pages are touched.  So aux state cached under a read grant
   is kept across the upgrade only when the write map's reply vouches
   for it. *)
let ensure_dir_writable t (d : dir_state) =
  rehold t d ~ino:d.d_ino ~write:true ~ready:(dir_serves t ~write:true)
    ~refresh:(refresh_dir t ~addr:d.d_addr)

(* A file's one in-place refresh, under the inode write lock. *)
let refresh_file t ~addr (f : file_state) ~current =
  Sync.Rwlock.with_write f.r_ilock (fun () ->
      f.r_addr <- addr;
      let* () =
        if
          still_current t ~current ~ino:f.r_ino ~addr ~size:f.r_size
            ~index_head:(chain_head f.r_index_pages) ~dindex_root:0
        then Ok ()
        else
          let* fresh = build_file_aux t ~ino:f.r_ino ~addr in
          f.r_size <- fresh.r_size;
          f.r_index <- fresh.r_index;
          f.r_index_pages <- fresh.r_index_pages;
          f.r_index_tail <- fresh.r_index_tail;
          f.r_index_used <- fresh.r_index_used;
          f.r_npages <- fresh.r_npages;
          Ok ()
      in
      Ok ())

let get_file t ~ino ~addr =
  match Hashtbl.find_opt t.files ino with
  | Some f when file_serves t f ~write:false -> Ok f
  | _ ->
    hold t t.files ~ino ~write:false ~serves:(file_serves t ~write:false)
      ~build:(fun () -> build_file_aux t ~ino ~addr)
      ~mark:(fun f -> f.r_created <- true)
      ~refresh:(refresh_file t ~addr)

let ensure_file_writable t (f : file_state) =
  rehold t f ~ino:f.r_ino ~write:true ~ready:(file_serves t ~write:true)
    ~refresh:(refresh_file t ~addr:f.r_addr)

(* Drop the cached state of a file or directory and this process' hold
   on it (after a lease revocation fault, or the unmap of an ino this
   process never mapped). *)
let drop_aux t ino =
  Hashtbl.remove t.dirs ino;
  Hashtbl.remove t.files ino;
  Hashtbl.remove t.held ino

(* Hand an ino back.  Its cached state stays for the next [hold] to
   revive, and serves this process nothing meanwhile.  An ino this
   process never mapped through the controller (a file or directory its
   trust group created since its parent's last handoff) has nothing to
   hand back: the controller would answer ENOENT before ingesting it
   and EBADF after, so no call is made and its state goes. *)
let unmap t ino =
  if Hashtbl.mem t.held ino then begin
    Hashtbl.remove t.held ino;
    match t.ring with
    | Some r ->
      (* Fire-and-forget: the entry feeds the verification pipeline when
         the drain fiber executes it; this fiber never waits.  Per-ring
         FIFO keeps a later re-map of the same file ordered behind it. *)
      Controller.ring_unmap r ~ino
    | None -> ignore (Controller.unmap_file t.ctl ~proc:t.proc ~ino)
  end
  else drop_aux t ino

(* Page frees are batched: a truncate-heavy workload (DWTL) would
   otherwise pay one kernel call per page. *)
let free_batch = 64

let flush_free_backlog t =
  if t.free_backlog <> [] then begin
    let pages = t.free_backlog in
    t.free_backlog <- [];
    t.free_backlog_len <- 0;
    (* recycle into the local pools (no MMU churn; the kernel zeroes
       each page); fall back to a real free if the kernel refuses the
       transfer *)
    match Controller.recycle_pages t.ctl ~proc:t.proc ~pages with
    | Ok () -> Alloc_cache.recycle_pages t.cache pages
    | Error _ -> ignore (Controller.free_pages t.ctl ~proc:t.proc ~pages)
  end

let free_pages_lazily t pages =
  t.free_backlog <- List.rev_append pages t.free_backlog;
  t.free_backlog_len <- t.free_backlog_len + List.length pages;
  if t.free_backlog_len >= free_batch then flush_free_backlog t

(* Retry wrapper: a revoked lease surfaces as an MMU fault; rebuild the
   affected auxiliary state and re-run the operation (paper §3.2: the
   LibFS re-requests access and rebuilds).

   Media faults are handled here too (DESIGN.md §4.11): a *transient*
   read fault is retried with exponential backoff — the soft error
   clears on a later attempt, and the backoff gives a concurrent patrol
   scrub a chance to run.  A *non-transient* fault means the access
   overlaps latently poisoned lines: retrying cannot help, so the
   operation fails cleanly with EIO and the damage is left for the
   scrubber.  A [Bounds] violation is a caller bug, not a device state:
   it surfaces as EINVAL.  Exhausted retries degrade to an errno rather
   than letting the exception escape the LibFS boundary.

   On top of the per-cause retry counts there is a *total* deadline
   budget ([retry_deadline_ns], a mount parameter): under QoS throttling
   every retried syscall crossing can park, so a retry loop that is
   individually bounded can still stretch without limit in wall-clock
   terms.  Once the budget is spent the operation fails terminally with
   ETIMEDOUT — distinct from EAGAIN (retryable, lease churn) so callers
   can tell "try again" from "your tenant is over share; back off".
   Media backoff is exponential with ±25% deterministic jitter, so
   colliding retry loops across tenants decorrelate instead of
   convoying. *)
let max_fault_retries = 16
let max_media_retries = 8
let media_backoff_ns = 200.0

let with_retry t f =
  (* Every op boundary doubles as a liveness signal: in the real system
     the watchdog reads a per-process timestamp the LibFS bumps on entry
     (no syscall), so a process that stops issuing ops goes stale. *)
  Controller.touch t.ctl t.proc;
  let deadline = Sched.now t.sched +. t.retry_deadline_ns in
  let expired () = Sched.now t.sched >= deadline in
  let timed_out () =
    Stats.incr t.stats "libfs.retry.etimedout";
    Error ETIMEDOUT
  in
  let rec go n m =
    try f () with
    | Pmem.Mmu_fault _ when expired () -> timed_out ()
    | Pmem.Mmu_fault { page; _ } when n > 0 ->
      (match Controller.page_owner_of t.ctl page with
      | Controller.In_file ino ->
        drop_aux t ino;
        (* a file's inode lives in its parent's dentry page: a file
           state built on the revoked page is stale too (a file created
           since the parent's last handoff has no mapping of its own) *)
        Hashtbl.filter_map_inplace
          (fun ino (f : file_state) ->
            if f.r_addr / page_size = page then begin
              Hashtbl.remove t.held ino;
              None
            end
            else Some f)
          t.files
      | _ ->
        (* conservative: forget everything *)
        Hashtbl.reset t.dirs;
        Hashtbl.reset t.files;
        Hashtbl.reset t.held);
      go (n - 1) m
    | Pmem.Mmu_fault _ -> Error EAGAIN
    | Pmem.Media_fault { transient = true; _ } when m > 0 && not (expired ()) ->
      Stats.incr t.stats "libfs.media.retries";
      let base = media_backoff_ns *. float_of_int (1 lsl (max_media_retries - m)) in
      (* jitter in [0.75, 1.25) * base, clipped to the remaining budget *)
      let jittered = base *. (0.75 +. Rng.float t.retry_rng 0.5) in
      Sched.delay (Float.min jittered (Float.max 0.0 (deadline -. Sched.now t.sched)));
      if expired () then timed_out () else go n (m - 1)
    | Pmem.Media_fault { transient = true; _ } when m > 0 -> timed_out ()
    | Pmem.Media_fault _ ->
      Stats.incr t.stats "libfs.media.eio";
      Error EIO
    | Pmem.Bounds _ -> Error EINVAL
  in
  go max_fault_retries max_media_retries

(* ------------------------------------------------------------------ *)
(* Name resolution: aux-table probe, then B-link index descent, then
   linear page scan (DESIGN.md §4.18).

   The descents/splits/range-scan counters live on the *controller's*
   stats (one aggregation point for `trioctl stats`), not the per-mount
   LibFS stats. *)

let kstats t = Controller.stats t.ctl

(* Read a candidate dentry and keep it only if it carries [name]
   (distinct names can share a hash; the index returns all of them). *)
let load_ref t name addr =
  match Layout.read_dentry t.pmem ~actor:t.proc ~addr with
  | Some (Ok (inode, n)) when String.equal n name ->
    Some { e_ino = inode.Layout.ino; e_addr = addr; e_ftype = inode.Layout.ftype }
  | _ -> None

(* The directory's node mirror, while this LibFS can trust it: the
   directory is write-mapped, so nobody outside its trust group writes
   its pages, and the group's members write its nodes through this one
   shared state.  The controller writes the nodes only of a directory
   no LibFS holds writable, so a reader forgets the mirror instead of
   bypassing it. *)
let mirror t (d : dir_state) =
  if dir_serves t d ~write:true then Some d.d_nodes
  else begin
    Hashtbl.reset d.d_nodes;
    None
  end

(* Descend the B-link tree for [name].  Lock-free: right-links keep
   concurrent readers safe against in-flight splits.  [Error] means the
   tree is damaged (torn or poisoned node) — callers fall back to
   scanning the dentry pages, which stay the source of truth.  A hit
   still reads the dentry it names: from a mirrored descent, that read
   is what faults on a grant revoked at lease expiry. *)
let index_find t (d : dir_state) name =
  Dirindex.lookup ?mirror:(mirror t d) ~stats:(kstats t) t.pmem ~actor:t.proc
    ~root:d.d_dindex_root ~hash:(Dirindex.hash_name name)
  |> Result.map (fun addrs -> List.find_map (load_ref t name) addrs)

(* Read-only linear fallback when the directory is unindexed or the
   tree is damaged: scan the dentry pages without touching the aux
   tables. *)
let scan_find t (d : dir_state) name =
  List.find_map
    (fun pg ->
      match Pmem.read_ecc t.pmem ~actor:t.proc ~addr:(pg * page_size) ~len:page_size with
      | Pmem.Ecc.Poisoned _ -> None
      | Pmem.Ecc.Ok b ->
        let rec go slot =
          if slot >= Layout.dentries_per_page then None
          else begin
            Sched.cpu_work Perf.Cpu.hash_lookup;
            let block = Bytes.sub b (slot * Layout.dentry_size) Layout.dentry_size in
            match Layout.decode_dentry block with
            | Some (Ok (child, n)) when String.equal n name ->
              Some
                {
                  e_ino = child.Layout.ino;
                  e_addr = Layout.dentry_slot_addr pg slot;
                  e_ftype = child.Layout.ftype;
                }
            | _ -> go (slot + 1)
          end
        in
        go 0)
    (List.rev d.d_data_pages)

(* Uncached resolution past the aux table; the table itself was already
   probed by the caller. *)
let find_slow t (d : dir_state) name =
  if d.d_aux_built then None
  else if d.d_dindex_root <> 0 then
    match index_find t d name with Ok r -> r | Error _ -> scan_find t d name
  else if d.d_size = 0 then None
  else scan_find t d name

(* Full resolution, safe to call while holding [name]'s stripe lock in
   either mode (the probe is a plain table read; tree reads are
   lock-free; nothing is cached). *)
let find_ref t (d : dir_state) name =
  Sched.cpu_work Perf.Cpu.hash_lookup;
  match Htbl.find d.d_names name with Some r -> Some r | None -> find_slow t d name

(* Resolution for callers holding no stripe lock: hits found past the
   table are cached under the stripe write lock for next time. *)
let lookup t (d : dir_state) name =
  Sched.cpu_work Perf.Cpu.hash_lookup;
  let stripe = Htbl.stripe_of_key d.d_names name in
  match Sync.Rwlock.with_read d.d_stripes.(stripe) (fun () -> Htbl.find d.d_names name) with
  | Some r -> Some r
  | None -> (
    match find_slow t d name with
    | None -> None
    | Some r ->
      Sync.Rwlock.with_write d.d_stripes.(stripe) (fun () ->
          match Htbl.find d.d_names name with
          | Some r -> Some r
          | None ->
            Htbl.replace d.d_names name r;
            Some r))

(* [write]: the caller will change the directory the path names, so
   that directory (and only it: the components on the way stay
   read-mapped) is mapped writable if this walk maps it. *)
let resolve_dir t ~write components =
  let* root =
    get_dir t ~write:(write && components = []) ~ino:Controller.root_ino
      ~addr:Controller.root_dentry_addr
  in
  let rec walk (d : dir_state) = function
    | [] -> Ok d
    | name :: rest -> (
      (* per component: aux-table probe + stripe lock + dir-state lookup *)
      Sched.cpu_work (Perf.Cpu.hash_lookup +. Perf.Cpu.lock_acquire);
      match lookup t d name with
      | None -> Error ENOENT
      | Some { e_ftype = Reg; _ } -> Error ENOTDIR
      | Some ({ e_ftype = Dir; _ } as r) ->
        let* child = get_dir t ~write:(write && rest = []) ~ino:r.e_ino ~addr:r.e_addr in
        walk child rest)
  in
  walk root components

(* Split a path into (parent directory components, basename). *)
let split_parent path =
  match dirname_basename path with
  | None -> Error EINVAL
  | Some (dir_components, name) ->
    if valid_name name then Ok (dir_components, name)
    else Error (if String.length name > Layout.name_max then ENAMETOOLONG else EINVAL)

(* Split a path into (parent directory state, basename): the parent
   resolver every op of [ops] uses unless given another. *)
let resolve_parent t ~write path =
  let* dir_components, name = split_parent path in
  let* d = resolve_dir t ~write dir_components in
  Ok (d, name)

(* ------------------------------------------------------------------ *)
(* Directory-index maintenance *)

(* Drop a damaged / unmaintainable index: persist root = 0 (unindexed
   is legal; verifier check I5 skips it) and leave the old nodes for
   the kernel to re-attribute at the next verification.  Their mirror
   goes with them. *)
let drop_index t (d : dir_state) =
  Hashtbl.reset d.d_nodes;
  if d.d_dindex_root <> 0 then begin
    Layout.write_dindex_root t.pmem ~actor:t.proc ~dentry_addr:d.d_addr 0;
    d.d_dindex_root <- 0
  end

let dindex_alloc t () =
  let node = Numa.node_of_cpu t.topo (Sched.current_cpu ()) in
  match Alloc_cache.alloc_page t.cache ~node ~kind:Pmem.Meta with
  | Ok pg -> Some pg
  | Error _ -> None

(* A page the index took and never wrote goes straight back to the
   cache; one it wrote must be zeroed first ([free_pages_lazily]). *)
let dindex_free t pg = Alloc_cache.recycle_pages t.cache [ pg ]

(* Every index update runs under the directory's index lock: the
   fibers of every member of the trust group update the tree one at a
   time. *)
let with_index_lock (d : dir_state) f = Sync.Mutex.with_lock d.d_index_lock f

(* The (hash, dentry address) keys a materialized directory's index
   must hold. *)
let index_keys (d : dir_state) =
  Htbl.fold d.d_names [] (fun acc name r -> (Dirindex.hash_name name, r.e_addr) :: acc)

(* Index a materialized directory that has no tree in one fresh tree
   and swing the root word to it; out of space, it stays unindexed and
   the nodes the build already wrote are freed to be zeroed.  The
   caller holds the index lock. *)
let build_index t (d : dir_state) =
  match
    Dirindex.build ?mirror:(mirror t d) ~stats:(kstats t) t.pmem ~actor:t.proc
      ~alloc:(dindex_alloc t)
      ~free:(fun pg -> free_pages_lazily t [ pg ])
      ~entries:(index_keys d)
  with
  | Ok (root, _) when root <> 0 ->
    Layout.write_dindex_root t.pmem ~actor:t.proc ~dentry_addr:d.d_addr root;
    d.d_dindex_root <- root
  | Ok _ | Error `Nospace | (exception Pmem.Media_fault _) -> ()

(* Insert (name -> dentry address) into the directory's index — called
   *after* the dentry itself is persisted (truth first, accelerator
   second; a crash between the two is reconciled at recovery).  A first
   insert builds the root leaf and swings the dentry's root word; into
   a directory whose tree was dropped, a tree started from this one key
   would miss the others, so a complete name table indexes them all.
   Failure is never fatal: out of space or damaged, the directory just
   drops to unindexed.  [Mutation.Skip_index] drops maintenance on
   insert and delete alike. *)
let index_insert t (d : dir_state) name addr =
  if not (Mutation.active Skip_index) then
    with_index_lock d (fun () ->
        match d.d_dindex_root with
        | 0 when d.d_aux_built && Htbl.length d.d_names > 1 -> build_index t d
        | root -> (
          match
            Dirindex.insert ?mirror:(mirror t d) ~stats:(kstats t) t.pmem ~actor:t.proc
              ~alloc:(dindex_alloc t) ~free:(dindex_free t) ~root ~hash:(Dirindex.hash_name name)
              ~addr
          with
          | Ok (root, _fresh) ->
            if root <> d.d_dindex_root then begin
              Layout.write_dindex_root t.pmem ~actor:t.proc ~dentry_addr:d.d_addr root;
              d.d_dindex_root <- root
            end
          | Error (`Nospace | `Damaged _) -> drop_index t d
          | exception Pmem.Media_fault _ ->
            (* a media fault mid-maintenance leaves the tree suspect; the
               dentry is already durable, so unindexed is the safe state *)
            drop_index t d))

(* Remove (name -> address) after the dentry tombstone is persisted. *)
let index_delete t (d : dir_state) name addr =
  if not (Mutation.active Skip_index) then
    with_index_lock d (fun () ->
        match
          let root = d.d_dindex_root in
          if root = 0 then Ok ()
          else
            Dirindex.delete ?mirror:(mirror t d) ~stats:(kstats t) t.pmem ~actor:t.proc ~root
              ~hash:(Dirindex.hash_name name) ~addr
        with
        | Ok () -> ()
        | Error _ | exception Pmem.Media_fault _ -> drop_index t d)

(* Re-index an unindexed-nonempty directory from its materialized aux
   table (scrub gave up under pressure, a snapshot restore dropped the
   tree, or a crash left it detached). *)
let rebuild_index t (d : dir_state) =
  if d.d_dindex_root = 0 && d.d_aux_built && d.d_size > 0 then
    with_index_lock d (fun () -> if d.d_dindex_root = 0 then build_index t d)

(* Mutating name ops need certainty about existence; an
   unindexed-nonempty directory only offers it through the full scan.
   Opportunistically re-index while we are at it. *)
let ensure_resolvable t (d : dir_state) =
  if (not d.d_aux_built) && d.d_dindex_root = 0 && d.d_size > 0 then begin
    materialize t d;
    rebuild_index t d
  end

(* ------------------------------------------------------------------ *)
(* Directory slot management *)

(* A skeleton starts with no free slots listed.  Before a create grows
   the directory, scan the pages not scanned yet, newest first (churn
   leaves its holes there), until one has a free slot — unless the
   live-entry count says every slot is taken.  Without this, a LibFS
   that rebuilds its aux state after every handoff would claim a fresh
   page per create and never reuse one.  A slot is free when its ino
   word is 0; a poisoned page offers none.  Caller holds
   [d_tail_lock]. *)
let refill_free_slots t (d : dir_state) =
  let worth_scanning () = d.d_free_slots = [] && d.d_unscanned <> [] in
  if worth_scanning () && List.length d.d_data_pages * Layout.dentries_per_page > d.d_size
  then
    Stats.timed t.stats t.sched "rebuild" (fun () ->
        while worth_scanning () do
          let pg = List.hd d.d_unscanned in
          let free =
            match Pmem.read_ecc t.pmem ~actor:t.proc ~addr:(pg * page_size) ~len:page_size with
            | Pmem.Ecc.Poisoned _ -> []
            | Pmem.Ecc.Ok b ->
              List.filter_map
                (fun slot ->
                  if Layout.get_u64 b (slot * Layout.dentry_size) = 0 then Some (pg, slot)
                  else None)
                (List.init Layout.dentries_per_page Fun.id)
          in
          (* unlisted only after the read: a slot freed meanwhile is
             either seen here or not released at all ([clear_entry]),
             never listed twice *)
          d.d_unscanned <- List.tl d.d_unscanned;
          d.d_free_slots <- free
        done)

(* Claim a free dentry slot, possibly growing the directory by one data
   page (and, if the index tail is full, one index page). *)
let claim_slot t (d : dir_state) =
  Sync.Mutex.with_lock d.d_tail_lock @@ fun () ->
  Sched.cpu_work Perf.Cpu.lock_acquire;
  refill_free_slots t d;
  match d.d_free_slots with
  | (pg, slot) :: rest ->
    d.d_free_slots <- rest;
    Ok (pg, slot)
  | [] -> (
    let node = Numa.node_of_cpu t.topo (Sched.current_cpu ()) in
    match Alloc_cache.alloc_page t.cache ~node ~kind:Pmem.Meta with
    | Error e -> Error e
    | Ok data_pg -> (
      (* Link the fresh dentry page into the index chain. *)
      let link_ok =
        if d.d_index_tail = 0 || d.d_index_used >= Layout.index_entries then begin
          match Alloc_cache.alloc_page t.cache ~node ~kind:Pmem.Meta with
          | Error e -> Error e
          | Ok idx_pg ->
            if d.d_index_tail = 0 then
              Layout.write_index_head t.pmem ~actor:t.proc ~dentry_addr:d.d_addr idx_pg
            else Layout.write_index_next t.pmem ~actor:t.proc ~page:d.d_index_tail idx_pg;
            d.d_index_pages <- idx_pg :: d.d_index_pages;
            d.d_index_tail <- idx_pg;
            d.d_index_used <- 0;
            Ok ()
        end
        else Ok ()
      in
      match link_ok with
      | Error e ->
        Alloc_cache.recycle_pages t.cache [ data_pg ];
        Error e
      | Ok () ->
        Layout.write_index_entry t.pmem ~actor:t.proc ~page:d.d_index_tail d.d_index_used data_pg;
        d.d_index_used <- d.d_index_used + 1;
        d.d_data_pages <- data_pg :: d.d_data_pages;
        d.d_free_slots <-
          List.init (Layout.dentries_per_page - 1) (fun i -> (data_pg, i + 1));
        Ok (data_pg, 0)))

(* Tombstone the dentry at [addr]; returns the release of its slot, to
   run once the index no longer names the address.  A slot whose page
   is still unscanned when the tombstone lands is not released: that
   page's scan will find it free. *)
let clear_entry t (d : dir_state) addr =
  let page = addr / page_size in
  let listed = not (List.mem page d.d_unscanned) in
  Layout.clear_dentry_atomic t.pmem ~actor:t.proc ~addr;
  fun () ->
    if listed then
      Sync.Mutex.with_lock d.d_tail_lock (fun () ->
          d.d_free_slots <- (page, addr mod page_size / Layout.dentry_size) :: d.d_free_slots)

(* Adjust the directory's live-entry count (its inode [size] field) with
   a read-modify-write under a lock: this is the shared hot field that
   limits create scalability in one directory (MWCM). *)
let bump_dir_size t (d : dir_state) delta =
  Sync.Mutex.lock d.d_size_lock;
  d.d_size <- d.d_size + delta;
  Layout.write_size t.pmem ~actor:t.proc ~dentry_addr:d.d_addr d.d_size;
  Sync.Mutex.unlock d.d_size_lock

(* Unlink and rename drop a file's last name.  [free_file t r] takes
   what frees the file's pages while its dentry still names them, and
   returns that free, to run once the drop is durable: the kernel frees
   a file it knows; this LibFS recycles the pages of one it created and
   never shared into its own cache, listed from its cached state or,
   with none cached, from the dentry's index chain. *)
let free_file t (r : dentry_ref) =
  if known_to_kernel t r.e_ino then fun () ->
    ignore (Controller.free_file_tree t.ctl ~proc:t.proc ~ino:r.e_ino)
  else
    let cached =
      match Hashtbl.find_opt t.files r.e_ino with
      | Some f -> Ok f
      | None -> build_file_aux t ~ino:r.e_ino ~addr:r.e_addr
    in
    let pages =
      match cached with
      | Ok f ->
        List.rev_append f.r_index_pages (Radix.fold f.r_index [] (fun acc _ pg -> pg :: acc))
      | Error _ -> []
    in
    fun () -> if pages <> [] then free_pages_lazily t pages

(* ------------------------------------------------------------------ *)
(* Create / mkdir *)

let now_ns t = int_of_float (Sched.now t.sched)

let create_entry t (d : dir_state) name ~ftype ~mode =
  let* () = ensure_dir_writable t d in
  ensure_resolvable t d;
  let stripe = Htbl.stripe_of_key d.d_names name in
  (* with_write, not bare lock/unlock: the existence probe descends the
     index, and a transient media fault unwinding through a held stripe
     lock would deadlock the retry *)
  let result =
    Sync.Rwlock.with_write d.d_stripes.(stripe) (fun () ->
        Sched.cpu_work Perf.Cpu.hash_lookup;
        if find_ref t d name <> None then Error EEXIST
        else
          let ino = Alloc_cache.alloc_ino t.cache in
          match claim_slot t d with
          | Error e -> Error e
          | Ok (pg, slot) ->
            let addr = Layout.dentry_slot_addr pg slot in
            let inode =
              {
                Layout.ino;
                ftype;
                mode = mode land 0o7777;
                uid = t.cred.uid;
                gid = t.cred.gid;
                size = 0;
                index_head = 0;
                mtime = now_ns t;
                ctime = now_ns t;
              }
            in
            Layout.write_dentry_atomic t.pmem ~actor:t.proc ~addr ~inode ~name;
            let r = { e_ino = ino; e_addr = addr; e_ftype = ftype } in
            Htbl.replace d.d_names name r;
            Ok r)
  in
  match result with
  | Ok r ->
    index_insert t d name r.e_addr;
    bump_dir_size t d 1;
    Ok r
  | Error e -> Error e

(* ------------------------------------------------------------------ *)
(* File data path *)

(* Gather the NVM runs covering [off, off+len) of the file, merging
   physically contiguous pages so large I/O is issued in few requests. *)
let collect_runs (f : file_state) ~off ~len =
  let runs = ref [] in
  let pos = ref off and remaining = ref len in
  let hole = ref false in
  while !remaining > 0 && not !hole do
    let fpi = !pos / page_size in
    Sched.cpu_work Perf.Cpu.radix_step;
    (match Radix.find f.r_index fpi with
    | None ->
      (* hole within size: the index chain is damaged (torn or media
         loss); surface EIO instead of throwing at the caller *)
      hole := true
    | Some pg ->
      let in_page = !pos mod page_size in
      let chunk = min !remaining (page_size - in_page) in
      let addr = (pg * page_size) + in_page in
      (match !runs with
      | (raddr, rpos, rlen) :: rest when raddr + rlen = addr ->
        runs := (raddr, rpos, rlen + chunk) :: rest
      | _ -> runs := (addr, !pos - off, chunk) :: !runs);
      pos := !pos + chunk;
      remaining := !remaining - chunk)
  done;
  if !hole then Error EIO else Ok (List.rev !runs)

let do_data_io t ~write ~buf runs ~len =
  Sched.cpu_work (Perf.Cpu.memcpy_per_byte *. float_of_int len);
  match t.delegation with
  | Some dlg when Delegation.should_delegate dlg ~write ~len ->
    Delegation.run_all dlg ~actor:t.proc ~write ~buf runs
  | _ ->
    List.iter
      (fun (addr, pos, chunk) ->
        if write then Pmem.write_from t.pmem ~actor:t.proc ~addr ~src:buf ~pos ~len:chunk
        else Pmem.read_into t.pmem ~actor:t.proc ~addr ~dst:buf ~pos ~len:chunk)
      runs

(* Data persistence: ArckFS persists data writes before returning (§4.4);
   the bandwidth cost was charged by the writes, a single fence drains
   every run. *)
let persist_runs t runs =
  match runs with
  | [] -> ()
  | runs -> Pmem.persist_ranges t.pmem (List.map (fun (addr, _, len) -> (addr, len)) runs)

(* Stripe placement is salted by inode so small files spread over all
   nodes instead of piling onto node 0. *)
let node_for_data_page t (f : file_state) fpi =
  match t.delegation with
  | Some dlg ->
    (f.r_ino + (fpi / Delegation.stripe_pages dlg)) mod Numa.nodes t.topo
  | None -> Numa.node_of_cpu t.topo (Sched.current_cpu ())

(* Extend the file to cover pages up to [up_to_fpi]; caller holds the
   inode write lock.

   Bulk extensions (large appends, truncate-up, fio preallocation) are
   the common case, so pages are allocated in per-node batches and the
   index entries of each index page are written as one NVM store. *)
let extend_file t (f : file_state) ~up_to_fpi =
  let start = f.r_npages in
  let count = up_to_fpi - start + 1 in
  if count <= 0 then Ok ()
  else begin
    (* allocate data pages, batching consecutive same-node requests *)
    let pages = Array.make count 0 in
    let rec allocate fpi =
      if fpi > up_to_fpi then Ok ()
      else begin
        let node = node_for_data_page t f fpi in
        let run_len = ref 1 in
        while
          fpi + !run_len <= up_to_fpi && node_for_data_page t f (fpi + !run_len) = node
        do
          incr run_len
        done;
        match Alloc_cache.alloc_pages t.cache ~node ~kind:Pmem.Data ~count:!run_len with
        | Error e -> Error e
        | Ok got ->
          List.iteri (fun i pg -> pages.(fpi - start + i) <- pg) got;
          allocate (fpi + !run_len)
      end
    in
    match allocate start with
    | Error e -> Error e
    | Ok () ->
      (* link into the index chain, one store per touched index page *)
      let i = ref 0 in
      let result = ref (Ok ()) in
      while !i < count && !result = Ok () do
        if f.r_index_tail = 0 || f.r_index_used >= Layout.index_entries then begin
          let mnode = Numa.node_of_cpu t.topo (Sched.current_cpu ()) in
          match Alloc_cache.alloc_page t.cache ~node:mnode ~kind:Pmem.Meta with
          | Error e -> result := Error e
          | Ok idx_pg ->
            if f.r_index_tail = 0 then
              Layout.write_index_head t.pmem ~actor:t.proc ~dentry_addr:f.r_addr idx_pg
            else Layout.write_index_next t.pmem ~actor:t.proc ~page:f.r_index_tail idx_pg;
            f.r_index_pages <- idx_pg :: f.r_index_pages;
            f.r_index_tail <- idx_pg;
            f.r_index_used <- 0
        end;
        if !result = Ok () then begin
          let slot = f.r_index_used in
          let span = min (count - !i) (Layout.index_entries - slot) in
          let buf = Bytes.create (span * 8) in
          for j = 0 to span - 1 do
            let pg = pages.(!i + j) in
            Layout.set_u64 buf (j * 8) pg;
            Radix.insert f.r_index (start + !i + j) pg
          done;
          Pmem.write t.pmem ~actor:t.proc ~addr:(Layout.index_entry_addr f.r_index_tail slot)
            ~src:buf;
          Pmem.persist t.pmem ~addr:(Layout.index_entry_addr f.r_index_tail slot)
            ~len:(span * 8);
          f.r_index_used <- slot + span;
          f.r_npages <- f.r_npages + span;
          i := !i + span
        end
      done;
      !result
  end

(* Growing a file past its old EOF exposes the tail of the old last
   page, which may hold stale bytes from before a shrink: zero the
   region [old_size, upto) that falls inside that page (fresh pages are
   zero by construction). *)
let zero_after_eof t (f : file_state) ~old_size ~upto =
  if old_size > 0 && old_size mod page_size <> 0 && upto > old_size then begin
    let page_end = ((old_size / page_size) + 1) * page_size in
    let zlen = min upto page_end - old_size in
    if zlen > 0 then
      match Radix.find f.r_index (old_size / page_size) with
      | Some pg ->
        let addr = (pg * page_size) + (old_size mod page_size) in
        Pmem.write t.pmem ~actor:t.proc ~addr ~src:(Bytes.make zlen '\000');
        Pmem.persist t.pmem ~addr ~len:zlen
      | None -> ()
  end

let write_at t (f : file_state) ~buf ~off =
  let len = Bytes.length buf in
  Sched.cpu_work Perf.Cpu.libfs_op;
  if len = 0 then Ok 0
  else begin
    (* any write requires the write mapping *)
    let* () = ensure_file_writable t f in
    let end_ = off + len in
    if end_ <= f.r_size then
      (* in-place write: shared inode lock + exclusive range.  The
         with_* combinators release the locks even when a revoked lease
         surfaces as an MMU fault mid-transfer. *)
      Sync.Rwlock.with_read f.r_ilock (fun () ->
          Sync.Range_lock.with_range f.r_range ~lo:off ~hi:(end_ - 1) Sync.Range_lock.Write
            (fun () ->
              let* runs = collect_runs f ~off ~len in
              do_data_io t ~write:true ~buf runs ~len;
              persist_runs t runs;
              Ok len))
    else
      Sync.Rwlock.with_write f.r_ilock (fun () ->
          let last_fpi = (end_ - 1) / page_size in
          match extend_file t f ~up_to_fpi:last_fpi with
          | Error e -> Error e
          | Ok () ->
            zero_after_eof t f ~old_size:f.r_size ~upto:off;
            let* runs = collect_runs f ~off ~len in
            do_data_io t ~write:true ~buf runs ~len;
            persist_runs t runs;
            if end_ > f.r_size then begin
              f.r_size <- end_;
              Layout.write_size t.pmem ~actor:t.proc ~dentry_addr:f.r_addr end_
            end;
            Ok len)
  end

let read_at t (f : file_state) ~buf ~off =
  let want = Bytes.length buf in
  Sched.cpu_work Perf.Cpu.libfs_op;
  Sync.Rwlock.with_read f.r_ilock (fun () ->
      let len = max 0 (min want (f.r_size - off)) in
      if len = 0 then Ok 0
      else
        Sync.Range_lock.with_range f.r_range ~lo:off ~hi:(off + len - 1) Sync.Range_lock.Read
          (fun () ->
            let* runs = collect_runs f ~off ~len in
            do_data_io t ~write:false ~buf runs ~len;
            Ok len))

(* Unlink every page past the file's first [keep]: drop them from the
   page index and zero their index entries, tail first.  Returns the
   unlinked pages; the caller decides whether to free them.  Caller holds
   the inode write lock (or the only reference to [f]). *)
let unlink_pages t (f : file_state) ~keep =
  let unlinked = ref [] in
  for fpi = keep to f.r_npages - 1 do
    match Radix.find f.r_index fpi with
    | Some pg ->
      unlinked := pg :: !unlinked;
      Radix.remove f.r_index fpi
    | None -> ()
  done;
  let index_pages = Array.of_list (List.rev f.r_index_pages) in
  let index_page i = if i < Array.length index_pages then Some index_pages.(i) else None in
  let rec zero_entries fpi =
    if fpi >= keep then begin
      let ip_idx = fpi / Layout.index_entries in
      let slot = fpi mod Layout.index_entries in
      (match index_page ip_idx with
      | Some ip -> Layout.write_index_entry t.pmem ~actor:t.proc ~page:ip slot 0
      | None -> ());
      zero_entries (fpi - 1)
    end
  in
  zero_entries (f.r_npages - 1);
  f.r_npages <- keep;
  f.r_index_tail <-
    (match index_page (max 0 ((keep - 1) / Layout.index_entries)) with
    | Some ip when keep > 0 -> ip
    | _ -> Option.value (index_page 0) ~default:0);
  f.r_index_used <- (if keep = 0 then 0 else ((keep - 1) mod Layout.index_entries) + 1);
  !unlinked

let truncate_file t (f : file_state) ~size =
  let* () = ensure_file_writable t f in
  Sync.Rwlock.with_write f.r_ilock (fun () ->
    if size > f.r_size then begin
      (* grow with zero pages *)
      let last_fpi = if size = 0 then -1 else (size - 1) / page_size in
      match extend_file t f ~up_to_fpi:last_fpi with
      | Error e -> Error e
      | Ok () ->
        zero_after_eof t f ~old_size:f.r_size ~upto:size;
        f.r_size <- size;
        Layout.write_size t.pmem ~actor:t.proc ~dentry_addr:f.r_addr size;
        Ok ()
    end
    else begin
      let keep = if size = 0 then 0 else ((size - 1) / page_size) + 1 in
      let unlinked = unlink_pages t f ~keep in
      f.r_size <- size;
      Layout.write_size t.pmem ~actor:t.proc ~dentry_addr:f.r_addr size;
      (* free the tail pages through the kernel *)
      if unlinked <> [] then free_pages_lazily t unlinked;
      Ok ()
    end
)

(* ------------------------------------------------------------------ *)
(* Crash recovery (paper §4.4): the program the controller runs for this
   LibFS after a crash.  It rebuilds with the op builders and repairs
   only what a crash can tear. *)

(* A fresh file's size and index chain can be torn by a crash: append
   links the new index entry before it bumps the size (truncate the
   reverse), so an interruption between the two persisted stores leaves
   a state that fails I1.  The kernel holds no checkpoint for a file
   created since the last access transfer, so failing verification at
   ingestion would drop its dentry outright, erasing a create that
   committed long before the crash.  Repair to the nearest consistent
   state instead: unlink the pages past the recorded size, or clamp the
   size down to the pages linked.  Unlinked pages stay allocated to this
   process and are reclaimed with it. *)
let recover_file t ~ino ~addr =
  match build_file_aux t ~ino ~addr with
  | Error _ -> ()
  | Ok f ->
    let needed = (f.r_size + page_size - 1) / page_size in
    if f.r_npages > needed then ignore (unlink_pages t f ~keep:needed : int list)
    else if f.r_size > f.r_npages * page_size then
      Layout.write_size t.pmem ~actor:t.proc ~dentry_addr:addr (f.r_npages * page_size)

(* Does the directory's B-link index hold exactly its dentries' keys? *)
let index_agrees t (d : dir_state) =
  d.d_dindex_root = 0
  ||
  let a = Dirindex.audit t.pmem ~actor:t.proc ~root:d.d_dindex_root in
  a.Dirindex.au_violations = []
  && List.sort_uniq compare a.Dirindex.au_entries = List.sort_uniq compare (index_keys d)

(* Create and unlink persist the dentry before the size, so a crash can
   leave the live-entry count stale by one; a kill between the dentry
   persist and the index update leaves the tree missing or carrying one
   key, which verification would flag as an I5 violation and roll the
   whole directory back.  The dentries are the truth: write their count,
   and drop and rebuild a tree that fails its audit or disagrees with
   them (unindexed when space is short).  Fresh children (unknown to the
   kernel, which cannot roll them back, only drop them) are repaired in
   turn. *)
let rec recover_dir t seen ~ino ~addr =
  if not (Hashtbl.mem seen ino) then begin
    Hashtbl.add seen ino ();
    let d = build_dir_aux t ~ino ~addr in
    let size_field = d.d_size in
    materialize t d;
    if d.d_size <> size_field then
      Layout.write_size t.pmem ~actor:t.proc ~dentry_addr:addr d.d_size;
    Htbl.iter d.d_names (fun _ r ->
        if not (known_to_kernel t r.e_ino) then
          match r.e_ftype with
          | Reg -> recover_file t ~ino:r.e_ino ~addr:r.e_addr
          | Dir -> recover_dir t seen ~ino:r.e_ino ~addr:r.e_addr);
    if not (index_agrees t d) then begin
      drop_index t d;
      rebuild_index t d
    end
  end

(* The journal first, then every directory this process held
   write-mapped.  A directory the controller already rolled back to the
   durable snapshot root holds a certified state: repairing it would
   resurrect exactly the bytes the verifier rejected. *)
let recover t =
  Option.iter Journal.recover t.journal;
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (ino, addr, ftype) ->
      if ftype = Dir && not (Controller.was_snapshot_restored t.ctl ino) then
        recover_dir t seen ~ino ~addr)
    (Controller.write_mapped_inos t.ctl ~proc:t.proc)

(* ------------------------------------------------------------------ *)
(* Mount *)

(* [?group] names a mounted member of the trust group this process
   joins (DESIGN.md §4.5, "Trust groups"). *)
let mount ~ctl ~proc ~cred ?group ?qos_share ?(retry_deadline_ns = 5.0e6) ?delegation
    ?(unmap_after_write = false) ?ring ?fix () =
  let pmem = Controller.pmem ctl in
  let sched = Controller.sched ctl in
  let topo = Pmem.topo pmem in
  let t_ref = ref None in
  let shared of_member fresh = match group with Some m -> of_member m | None -> fresh () in
  Controller.register_process ctl ~proc ~cred
    ?group:(Option.map (fun m -> (List.hd !(m.members)).proc) group)
    ?qos_share ?fix
    ~recovery:(fun () -> Option.iter recover !t_ref)
    ();
  (* The ring must exist before the first map: its drain fiber is what
     will execute every batched call this mount makes. *)
  let ring =
    match ring with
    | Some depth when depth > 0 -> Some (Controller.ring_setup ctl ~proc ~depth)
    | _ -> None
  in
  let cache = Alloc_cache.create ~ctl ~proc () in
  (* One journal page per CPU, each on that CPU's local node. *)
  let cpus = Numa.total_cpus topo in
  let cpus_per_node = Numa.cpus_per_node topo in
  let jpages = Array.make cpus 0 in
  let jalloc_ok = ref true in
  let jallocated = ref [] in
  for node = 0 to Numa.nodes topo - 1 do
    match Controller.alloc_pages ctl ~proc ~node ~count:cpus_per_node ~kind:Pmem.Meta with
    | Ok pages ->
      jallocated := pages @ !jallocated;
      List.iteri (fun i pg -> jpages.(Numa.cpu_of_node_local topo ~node ~local:i) <- pg) pages
    | Error _ -> jalloc_ok := false
  done;
  (* A full device is not a mount failure: mount without a journal and
     let the one operation that needs it (rename) fail with ENOSPC. *)
  let journal =
    if !jalloc_ok then Some (Journal.create ~pmem ~actor:proc ~pages:jpages)
    else begin
      if !jallocated <> [] then ignore (Controller.free_pages ctl ~proc ~pages:!jallocated);
      None
    end
  in
  let t =
    {
      ctl;
      pmem;
      sched;
      topo;
      proc;
      cred;
      cache;
      journal;
      delegation;
      dirs = shared (fun m -> m.dirs) (fun () -> Hashtbl.create 64);
      files = shared (fun m -> m.files) (fun () -> Hashtbl.create 64);
      building = shared (fun m -> m.building) (fun () -> Hashtbl.create 16);
      members = shared (fun m -> m.members) (fun () -> ref []);
      held = Hashtbl.create 64;
      fds = Hashtbl.create 64;
      fd_counters = Array.make (Numa.total_cpus topo) 0;
      stats = Stats.create ();
      unmap_after_write;
      ring;
      free_backlog = [];
      free_backlog_len = 0;
      retry_deadline_ns;
      retry_rng = Rng.create (0x51ab5 + proc);
    }
  in
  t.members := !(t.members) @ [ t ];
  t_ref := Some t;
  t

(* ------------------------------------------------------------------ *)
(* fd table *)

let alloc_fd t =
  let cpu = Sched.current_cpu () in
  Sched.cpu_work Perf.Cpu.fd_alloc;
  let n = t.fd_counters.(cpu) in
  t.fd_counters.(cpu) <- n + 1;
  (cpu * (1 lsl 20)) + n + 1

(* Resolve a descriptor to live auxiliary state, surviving aux-state
   drops after lease revocations (the dentry may also have moved if the
   file was renamed: ask the kernel for the current address). *)
let fd_file t fd =
  match Hashtbl.find_opt t.fds fd with
  | None -> Error EBADF
  | Some s ->
    (match Controller.dentry_addr_of t.ctl s.fd_ino with
    | Some addr -> s.fd_addr <- addr
    | None -> ());
    get_file t ~ino:s.fd_ino ~addr:s.fd_addr

(* ------------------------------------------------------------------ *)
(* Public operations *)

let stat_of_inode (inode : Layout.inode) =
  {
    st_ino = inode.Layout.ino;
    st_ftype = inode.Layout.ftype;
    st_mode = inode.Layout.mode;
    st_uid = inode.Layout.uid;
    st_gid = inode.Layout.gid;
    st_size = inode.Layout.size;
    st_mtime = float_of_int inode.Layout.mtime;
    st_ctime = float_of_int inode.Layout.ctime;
  }

(* Under [unmap_after_write] a namespace op hands back the directories
   it resolved for writing however it ends: one left write-mapped by a
   failed op (EEXIST, ENOENT, ENOTEMPTY) would hold every other trust
   group off until its lease expires.  The first is handed back first,
   which puts a rename's destination ahead of its source, so the
   verifier sees a moved entry arrive before the source's
   deleted-child diff (DESIGN.md). *)
let hand_back t dirs result =
  if t.unmap_after_write then List.iter (fun (d : dir_state) -> unmap t d.d_ino) dirs;
  result

let op_create t ~resolve path mode =
  with_retry t (fun () ->
      let* d, name = resolve ~write:true path in
      hand_back t [ d ]
      @@
      let* r = create_entry t d name ~ftype:Reg ~mode in
      (* the file is known empty: construct its auxiliary state directly
         rather than re-reading the dentry we just wrote *)
      let f =
        {
          r_ino = r.e_ino;
          r_addr = r.e_addr;
          r_size = 0;
          r_index = Radix.create ();
          r_index_pages = [];
          r_index_tail = 0;
          r_index_used = 0;
          r_npages = 0;
          r_ilock = Sync.Rwlock.create ();
          r_range = Sync.Range_lock.create ();
          r_created = true;
        }
      in
      Hashtbl.replace t.files r.e_ino f;
      let fd = alloc_fd t in
      Hashtbl.replace t.fds fd { fd_ino = r.e_ino; fd_addr = r.e_addr };
      Ok fd)

let op_open t ~resolve path flags =
  with_retry t (fun () ->
      let* d, name = resolve ~write:false path in
      match lookup t d name with
      | None ->
        if List.mem O_CREAT flags then
          let* r = create_entry t d name ~ftype:Reg ~mode:0o644 in
          let* _f = get_file t ~ino:r.e_ino ~addr:r.e_addr in
          let fd = alloc_fd t in
          Hashtbl.replace t.fds fd { fd_ino = r.e_ino; fd_addr = r.e_addr };
          if t.unmap_after_write then unmap t d.d_ino;
          Ok fd
        else Error ENOENT
      | Some { e_ftype = Dir; _ } -> Error EISDIR
      | Some r ->
        let* f = get_file t ~ino:r.e_ino ~addr:r.e_addr in
        let trunc = List.mem O_TRUNC flags in
        let* () = if trunc then truncate_file t f ~size:0 else Ok () in
        if trunc && t.unmap_after_write then unmap t f.r_ino;
        let fd = alloc_fd t in
        Hashtbl.replace t.fds fd { fd_ino = r.e_ino; fd_addr = r.e_addr };
        Ok fd)

let op_close t fd =
  match Hashtbl.find_opt t.fds fd with
  | None -> Error EBADF
  | Some { fd_ino; _ } ->
    Hashtbl.remove t.fds fd;
    (match Hashtbl.find_opt t.files fd_ino with
    | Some f when t.unmap_after_write && file_serves t f ~write:true -> unmap t fd_ino
    | _ -> ());
    Ok ()

let op_pread t fd buf off =
  with_retry t (fun () ->
      let* f = fd_file t fd in
      read_at t f ~buf ~off)

let op_pwrite t fd buf off =
  with_retry t (fun () ->
      let* f = fd_file t fd in
      let* n = write_at t f ~buf ~off in
      if t.unmap_after_write then unmap t f.r_ino;
      Ok n)

let op_append t fd buf =
  with_retry t (fun () ->
      let* f = fd_file t fd in
      (* the size is read after the upgrade, which rebuilds it *)
      let* () = ensure_file_writable t f in
      (* serialize appends through the inode write lock via write_at's
         extending path, using the current size as offset *)
      let* n = write_at t f ~buf ~off:f.r_size in
      if t.unmap_after_write then unmap t f.r_ino;
      Ok n)

let op_truncate t ~resolve path size =
  with_retry t (fun () ->
      let* d, name = resolve ~write:false path in
      match lookup t d name with
      | None -> Error ENOENT
      | Some { e_ftype = Dir; _ } -> Error EISDIR
      | Some r ->
        let* f = get_file t ~ino:r.e_ino ~addr:r.e_addr in
        let* () = truncate_file t f ~size in
        if t.unmap_after_write then unmap t f.r_ino;
        Ok ())

let op_unlink t ~resolve path =
  with_retry t (fun () ->
      let* d, name = resolve ~write:true path in
      hand_back t [ d ]
      @@
      let* () = ensure_dir_writable t d in
      ensure_resolvable t d;
      let stripe = Htbl.stripe_of_key d.d_names name in
      let result =
        Sync.Rwlock.with_write d.d_stripes.(stripe) (fun () ->
            Sched.cpu_work Perf.Cpu.hash_lookup;
            match find_ref t d name with
            | None -> Error ENOENT
            | Some { e_ftype = Dir; _ } -> Error EISDIR
            | Some r ->
              let free = free_file t r in
              let release = clear_entry t d r.e_addr in
              ignore (Htbl.remove d.d_names name);
              Ok (r, release, free))
      in
      match result with
      | Error e -> Error e
      | Ok (r, release, free) ->
        index_delete t d name r.e_addr;
        release ();
        bump_dir_size t d (-1);
        free ();
        Hashtbl.remove t.files r.e_ino;
        Ok ())

let op_mkdir t ~resolve path mode =
  with_retry t (fun () ->
      let* d, name = resolve ~write:true path in
      hand_back t [ d ] (Result.map ignore (create_entry t d name ~ftype:Dir ~mode)))

let op_rmdir t ~resolve path =
  with_retry t (fun () ->
      let* d, name = resolve ~write:true path in
      hand_back t [ d ]
      @@
      let* () = ensure_dir_writable t d in
      ensure_resolvable t d;
      let stripe = Htbl.stripe_of_key d.d_names name in
      let result =
        Sync.Rwlock.with_write d.d_stripes.(stripe) (fun () ->
            match find_ref t d name with
            | None -> Error ENOENT
            | Some { e_ftype = Reg; _ } -> Error ENOTDIR
            | Some r -> (
              (* the child must be empty: the live-entry count comes from
                 the child's inode, so no per-slot scan is needed even when
                 its aux state was built lazily *)
              match get_dir t ~write:false ~ino:r.e_ino ~addr:r.e_addr with
              | Error e -> Error e
              | Ok child ->
                if child.d_size > 0 then Error ENOTEMPTY
                else begin
                  let release = clear_entry t d r.e_addr in
                  ignore (Htbl.remove d.d_names name);
                  Ok (r, child, release)
                end))
      in
      match result with
      | Error e -> Error e
      | Ok (r, child, release) ->
        index_delete t d name r.e_addr;
        release ();
        bump_dir_size t d (-1);
        (if known_to_kernel t r.e_ino then begin
           if Hashtbl.mem t.held r.e_ino then begin
             Hashtbl.remove t.held r.e_ino;
             ignore (Controller.unmap_file t.ctl ~proc:t.proc ~ino:r.e_ino)
           end;
           ignore (Controller.free_file_tree t.ctl ~proc:t.proc ~ino:r.e_ino)
         end
         else begin
           (* a directory this LibFS created and never shared: recycle
              its chain, dentry and index-node pages into the cache *)
           let dindex_pages =
             if child.d_dindex_root = 0 then []
             else
               Dirindex.pages ?mirror:(mirror t child) t.pmem ~actor:t.proc
                 ~root:child.d_dindex_root
           in
           let pages =
             List.rev_append child.d_index_pages @@ List.rev_append child.d_data_pages dindex_pages
           in
           if pages <> [] then free_pages_lazily t pages
         end);
        drop_aux t r.e_ino;
        Ok ())

(* Readdir ordering contract (README): entries come back in ascending
   (name-hash, dentry-address) key order — the index's native range-scan
   order, stable across mounts and processes.  A listing from the name
   table sorts to the same order, so the contract holds either way. *)
let op_readdir t path =
  with_retry t (fun () ->
      match split_path path with
      | None -> Error EINVAL
      | Some components -> (
        let* d = resolve_dir t ~write:false components in
        let from_table () =
          materialize t d;
          let keyed =
            Htbl.fold d.d_names [] (fun acc name r ->
                Sched.cpu_work Perf.Cpu.hash_lookup;
                let entry = { d_ino = r.e_ino; d_name = name; d_ftype = r.e_ftype } in
                ((Dirindex.hash_name name, r.e_addr), entry) :: acc)
          in
          Ok (List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) keyed))
        in
        (* a complete table nobody else can change (the [mirror] rule)
           is listed with no device read *)
        if d.d_dindex_root = 0 || (d.d_aux_built && Option.is_some (mirror t d)) then
          from_table ()
        else
          (* served by an index range scan, already in key order *)
          match
            Dirindex.fold ?mirror:(mirror t d) ~stats:(kstats t) t.pmem ~actor:t.proc
              ~root:d.d_dindex_root
              ~init:[] ~f:(fun acc ~hash:_ ~addr ->
                match Layout.read_dentry t.pmem ~actor:t.proc ~addr with
                | Some (Ok (inode, name)) ->
                  { d_ino = inode.Layout.ino; d_name = name; d_ftype = inode.Layout.ftype }
                  :: acc
                | _ -> acc)
          with
          | Ok entries -> Ok (List.rev entries)
          | Error _ -> from_table () (* damaged tree: the pages are the truth *)))

let op_stat t ~resolve path =
  with_retry t (fun () ->
      match split_path path with
      | None -> Error EINVAL
      | Some [] ->
        (* stat of the root *)
        let* _ = resolve_dir t ~write:false [] in
        (match Layout.read_dentry t.pmem ~actor:t.proc ~addr:Controller.root_dentry_addr with
        | Some (Ok (inode, _)) -> Ok (stat_of_inode inode)
        | _ -> Error EIO)
      | Some _ ->
        let* d, name = resolve ~write:false path in
        (match lookup t d name with
        | None -> Error ENOENT
        | Some r -> (
          match Layout.read_dentry t.pmem ~actor:t.proc ~addr:r.e_addr with
          | Some (Ok (inode, _)) -> Ok (stat_of_inode inode)
          | _ -> Error EIO)))

let op_chmod t ~resolve path mode =
  with_retry t (fun () ->
      let* d, name = resolve ~write:false path in
      match lookup t d name with
      | None -> Error ENOENT
      | Some r ->
        if known_to_kernel t r.e_ino then Controller.chmod t.ctl ~proc:t.proc ~ino:r.e_ino ~mode
        else begin
          (* not yet ingested: update the cached inode; the shadow will be
             established from it at the next verification *)
          (match Layout.read_dentry t.pmem ~actor:t.proc ~addr:r.e_addr with
          | Some (Ok (inode, _)) ->
            Layout.write_perms t.pmem ~actor:t.proc ~dentry_addr:r.e_addr ~mode:(mode land 0o7777)
              ~uid:inode.Layout.uid ~gid:inode.Layout.gid
          | _ -> ());
          Ok ()
        end)

(* Rename: the one multi-location metadata update; uses the undo journal
   (paper §4.4). *)
let op_rename t ~resolve src dst =
  with_retry t (fun () ->
      let* sd, sname = resolve ~write:true src in
      let* dd, dname =
        match resolve ~write:true dst with
        | Ok r -> Ok r
        | Error _ as e -> hand_back t [ sd ] e
      in
      hand_back t (if sd.d_ino = dd.d_ino then [ dd ] else [ dd; sd ])
      @@
      let* () = ensure_dir_writable t sd in
      let* () = ensure_dir_writable t dd in
      ensure_resolvable t sd;
      ensure_resolvable t dd;
      (* Fine-grained locking: write-lock only the two name stripes, in
         a canonical (dir ino, stripe) order — renames of unrelated
         names in the same (even shared) directory proceed in parallel;
         no kernel-style global rename lock. *)
      Sched.cpu_work Perf.Cpu.hash_lookup;
      let s_stripe = Htbl.stripe_of_key sd.d_names sname in
      let d_stripe = Htbl.stripe_of_key dd.d_names dname in
      let locks =
        List.sort_uniq compare [ (sd.d_ino, s_stripe); (dd.d_ino, d_stripe) ]
        |> List.map (fun (ino, stripe) ->
               let d = if ino = sd.d_ino then sd else dd in
               d.d_stripes.(stripe))
      in
      List.iter Sync.Rwlock.write_lock locks;
      let finish result =
        List.iter Sync.Rwlock.write_unlock (List.rev locks);
        result
      in
      (* resolution under the held stripes can raise (transient media
         fault in the index descent): release before letting the retry
         wrapper see it, or the re-run parks on its own locks *)
      let unwind e =
        List.iter Sync.Rwlock.write_unlock (List.rev locks);
        raise e
      in
      try match find_ref t sd sname with
      | None -> finish (Error ENOENT)
      | Some _ when sd.d_ino = dd.d_ino && String.equal sname dname ->
        finish (Ok ()) (* POSIX: renaming a file onto itself is a no-op *)
      | Some src_ref -> (
        match find_ref t dd dname with
        | Some { e_ftype = Dir; _ } -> finish (Error EEXIST)
        | Some _ when src_ref.e_ftype = Dir -> finish (Error EEXIST)
        | existing -> (
          match t.journal with
          | None -> finish (Error ENOSPC) (* no journal pages: cannot rename atomically *)
          | Some journal -> (
          match claim_slot t dd with
          | Error e -> finish (Error e)
          | Ok (pg, slot) ->
            let dst_addr = Layout.dentry_slot_addr pg slot in
            (* undo-journal the blocks we are about to touch: the whole
               source dentry (it is cleared), only the ino field of the
               destination slot (it was free: undo = clear it again),
               and the size fields when two directories are involved *)
            let tx = Journal.begin_tx journal in
            Journal.log journal tx ~addr:src_ref.e_addr ~len:Layout.dentry_size;
            Journal.log journal tx ~addr:dst_addr ~len:8;
            (match existing with
            | Some er -> Journal.log journal tx ~addr:er.e_addr ~len:8
            | None -> ());
            if sd.d_ino <> dd.d_ino then begin
              Journal.log journal tx ~addr:(sd.d_addr + Layout.off_size) ~len:8;
              Journal.log journal tx ~addr:(dd.d_addr + Layout.off_size) ~len:8
            end;
            Journal.seal journal tx;
            (* copy the dentry under the new name *)
            (match Layout.read_dentry t.pmem ~actor:t.proc ~addr:src_ref.e_addr with
            | Some (Ok (inode, _)) ->
              (* a renamed directory's B-link root must travel with its
                 dentry — re-encoding from the inode alone would detach
                 the whole index *)
              let droot =
                Layout.read_dindex_root t.pmem ~actor:t.proc ~dentry_addr:src_ref.e_addr
              in
              Layout.write_dentry_atomic t.pmem ~actor:t.proc ~dindex_root:droot ~addr:dst_addr
                ~inode ~name:dname;
              (* replace an existing destination; its pages are freed
                 once the commit makes the replacement durable *)
              let free_replaced =
                match existing with
                | Some er ->
                  let free = free_file t er in
                  clear_entry t dd er.e_addr ();
                  ignore (Htbl.remove dd.d_names dname);
                  Hashtbl.remove t.files er.e_ino;
                  free
                | None -> ignore
              in
              let release_src = clear_entry t sd src_ref.e_addr in
              Journal.commit journal tx;
              free_replaced ();
              (* auxiliary state *)
              ignore (Htbl.remove sd.d_names sname);
              release_src ();
              Htbl.replace dd.d_names dname
                { e_ino = src_ref.e_ino; e_addr = dst_addr; e_ftype = src_ref.e_ftype };
              (* entry accounting: the source loses one entry; the
                 destination gains one unless an existing entry was
                 replaced.  Within one directory that nets to -1 on a
                 replace and 0 otherwise. *)
              let replaced = Option.is_some existing in
              if sd.d_ino <> dd.d_ino then begin
                bump_dir_size t sd (-1);
                if not replaced then bump_dir_size t dd 1
              end
              else if replaced then bump_dir_size t sd (-1);
              (* moved aux state must point at the new dentry *)
              (match Hashtbl.find_opt t.files src_ref.e_ino with
              | Some f -> f.r_addr <- dst_addr
              | None -> ());
              (match Hashtbl.find_opt t.dirs src_ref.e_ino with
              | Some d -> d.d_addr <- dst_addr
              | None -> ());
              (* index fixups, dentry truth already committed: the
                 source key leaves its tree, a replaced destination key
                 leaves too, and the new slot enters the destination's
                 tree.  A crash anywhere in between is reconciled by
                 mount recovery (the journal already sealed the dentry
                 moves). *)
              index_delete t sd sname src_ref.e_addr;
              (match existing with
              | Some er -> index_delete t dd dname er.e_addr
              | None -> ());
              index_insert t dd dname dst_addr;
              finish (Ok ())
            | _ -> finish (Error EIO)))))
      with e -> unwind e)

(* Data and metadata are persisted synchronously (§4.4): fsync only has
   to validate the descriptor. *)
let op_fsync t fd =
  match Hashtbl.find_opt t.fds fd with Some _ -> Ok () | None -> Error EBADF

(* ------------------------------------------------------------------ *)
(* Teardown / sharing helpers *)

(* Teardown is a sharing point: the caller expects every verification
   triggered by its unmaps to have *landed* when this returns, so after
   dropping the mappings we quiesce the background pipeline.  Per-file
   unmaps stay asynchronous.  A process with trust-group peers leaves
   the aux states to them. *)
let unmap_everything t =
  flush_free_backlog t;
  (* Quiesce the ring first: fire-and-forget unmaps still in flight
     must land before unmap_all decides what this process still holds. *)
  (match t.ring with Some r -> Controller.ring_drain r | None -> ());
  if List.for_all (fun m -> m == t) !(t.members) then begin
    Hashtbl.reset t.dirs;
    Hashtbl.reset t.files
  end;
  Hashtbl.reset t.held;
  Hashtbl.reset t.fds;
  Controller.unmap_all t.ctl ~proc:t.proc;
  Controller.drain_verification t.ctl

let commit_file t path =
  with_retry t (fun () ->
      let* d, name = resolve_parent t ~write:false path in
      match lookup t d name with
      | None -> Error ENOENT
      | Some r -> Controller.commit t.ctl ~proc:t.proc ~ino:r.e_ino)

(* Accessors for customized LibFSes (KVFS, FPFS) built on these
   internals. *)

(* The directory state this LibFS holds for [ino], if any: a state
   [with_retry] dropped is gone from here, and one it handed back is
   not served until [hold] revives it. *)
let cached_dir t ino =
  match Hashtbl.find_opt t.dirs ino with
  | Some d when dir_serves t d ~write:false -> Some d
  | _ -> None

let pmem_of t = t.pmem
let proc_of t = t.proc
let root_dir t = cached_dir t Controller.root_ino
let topo_of t = t.topo
let cache_of t = t.cache
let stats_of t = t.stats

(* The Fs_intf record for this LibFS.  [resolve] finds an op's parent
   directory (default [resolve_parent]); a customized LibFS passes its
   own resolver and reuses every op. *)
let ops ?resolve t =
  let resolve = Option.value resolve ~default:(resolve_parent t) in
  {
    Trio_core.Fs_intf.fs_name = "arckfs";
    create = (fun path mode -> op_create t ~resolve path mode);
    open_ = (fun path flags -> op_open t ~resolve path flags);
    close = (fun fd -> op_close t fd);
    pread = (fun fd buf off -> op_pread t fd buf off);
    pwrite = (fun fd buf off -> op_pwrite t fd buf off);
    append = (fun fd buf -> op_append t fd buf);
    truncate = (fun path size -> op_truncate t ~resolve path size);
    unlink = (fun path -> op_unlink t ~resolve path);
    mkdir = (fun path mode -> op_mkdir t ~resolve path mode);
    rmdir = (fun path -> op_rmdir t ~resolve path);
    readdir = (fun path -> op_readdir t path);
    stat = (fun path -> op_stat t ~resolve path);
    rename = (fun src dst -> op_rename t ~resolve src dst);
    chmod = (fun path mode -> op_chmod t ~resolve path mode);
    fsync = (fun fd -> op_fsync t fd);
  }
