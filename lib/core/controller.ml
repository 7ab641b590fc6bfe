(* The in-kernel access controller (paper §3.2, §4.3).

   The controller is the only component that:
   - allocates/frees NVM pages and inode numbers (in batches, so the
     LibFS fast path stays in userspace);
   - programs the MMU (map/unmap of a file's core-state pages);
   - maintains the global file system information used by check I2
     (which pages/inodes are in files, which are allocated to which
     LibFS);
   - maintains the shadow inode table (ground-truth permissions, I4);
   - checkpoints a file's metadata before granting write access and
     rolls back to it when verification fails (§4.3);
   - enforces leases so a LibFS cannot hold a file forever.

   It never performs metadata updates on behalf of a LibFS: LibFSes
   write dentries/index pages directly, and new files are discovered
   and ingested when the enclosing directory is verified.

   This module is a facade: the implementation lives in focused
   submodules, one per concern, each behind its own interface —

   - {!Ctl_state}       shared record types, construction, cold start
   - {!Ctl_alloc}       page/inode allocation, free, recycle
   - {!Ctl_checkpoint}  verified-metadata snapshots, rollback, the
                        incremental-verification delta lookup
   - {!Ctl_registry}    process registry, watchdog, orphan GC
   - {!Ctl_snapshot}    whole-FS CoW snapshots: root publication,
                        rollback, mount-newest-root crash recovery
   - {!Ctl_media}       scrubber repair primitives
   - {!Ctl_gate}        map/unmap, the background verification
                        pipeline, commit, namespace operations

   Everything outside [lib/core] links against this module only. *)

(* ------------------------------------------------------------------ *)
(* Types (re-exported so existing pattern matches keep compiling) *)

type page_owner = Ctl_state.page_owner = Free | Allocated_to of int | In_file of int

type ino_owner = Ctl_state.ino_owner = Ino_free | Ino_allocated_to of int | Ino_in_dir of int

type checkpoint = Ctl_state.checkpoint = {
  ck_dentry : Bytes.t;
  ck_pages : (int * Bytes.t) list;
  ck_children : int list;
  ck_size : int;
  ck_index_head : int;
  ck_mark : int;
}

type degradation = Ctl_state.degradation = Healthy | Degraded_ro | Failed

type file_info = Ctl_state.file_info
type proc_info = Ctl_state.proc_info
type t = Ctl_state.t

(* ------------------------------------------------------------------ *)
(* Construction *)

let create ~sched ~pmem ~mmu ?lease_ns () =
  let t = Ctl_state.create ~sched ~pmem ~mmu ?lease_ns () in
  Ctl_gate.start t;
  (* Epoch-1 root over the empty FS: the ≥1-valid-root property holds
     from the very first store.  Tiny devices may lack the page — then
     the first explicit snapshot publishes it. *)
  ignore (Ctl_snapshot.publish t);
  t

let cold_start ~sched ~pmem ~mmu ?lease_ns () =
  match Ctl_state.cold_start ~sched ~pmem ~mmu ?lease_ns () with
  | Error _ as e -> e
  | Ok t ->
    Ctl_snapshot.adopt_root t;
    Ctl_gate.start t;
    Ok t

(* ------------------------------------------------------------------ *)
(* Accessors *)

let stats (t : t) = t.Ctl_state.stats
let sched (t : t) = t.Ctl_state.sched
let pmem (t : t) = t.Ctl_state.pmem
let root_ino = Layout.root_ino
let root_dentry_addr = Layout.root_dentry_addr

(* The corruption log and quarantine list are verification *results*:
   drain the pipeline before exposing them, so a reader never misses a
   verdict that was still queued. *)
let corruption_events (t : t) =
  Ctl_gate.drain_verification t;
  t.Ctl_state.corruption_events

let quarantined_files (t : t) =
  Ctl_gate.drain_verification t;
  t.Ctl_state.quarantine

let touch = Ctl_state.touch
let file_info = Ctl_state.file_info
let view = Ctl_state.view
let walk_file = Ctl_state.walk_file
let page_owner_of = Ctl_state.owner_of

(* ------------------------------------------------------------------ *)
(* Verification mode and observability *)

type vmode = Ctl_state.vmode = Full | Incremental

let with_verify_mode = Ctl_state.with_verify_mode
let set_verify_hook (t : t) hook = t.Ctl_state.verify_hook <- Some hook

(* ------------------------------------------------------------------ *)
(* Resource allocation *)

let alloc_pages = Ctl_alloc.alloc_pages
let free_pages = Ctl_alloc.free_pages
let recycle_pages = Ctl_alloc.recycle_pages
let alloc_inos = Ctl_alloc.alloc_inos
let free_file_tree = Ctl_alloc.free_file_tree

(* ------------------------------------------------------------------ *)
(* Checkpoints *)

let checkpoint_page_bytes = Ctl_checkpoint.checkpoint_page_bytes
let page_snapshot = Ctl_checkpoint.page_snapshot
let encode_checkpoint = Ctl_checkpoint.encode_checkpoint
let decode_checkpoint = Ctl_checkpoint.decode_checkpoint

(* ------------------------------------------------------------------ *)
(* Whole-FS snapshots (DESIGN.md Â§4.16) *)

type snap_entry = Ctl_snapshot.entry = {
  e_ino : int;
  e_dentry_addr : int;
  e_parent : int;
  e_blob : Bytes.t;
}

(* Publish with a quiesced pipeline, so the root covers every verdict
   already in flight. *)
let snapshot_take t =
  Ctl_gate.drain_verification t;
  Ctl_snapshot.publish t

let snapshot_entries = Ctl_snapshot.entries
let snapshot_entry_checkpoint = Ctl_snapshot.entry_checkpoint
let snapshot_page_bytes = Ctl_snapshot.snapshot_page_bytes
let snapshot_epoch = Ctl_state.snapshot_epoch
let snap_pinned_count = Ctl_state.snap_pinned_count
let snap_pinned_mem = Ctl_state.snap_pinned_mem
let was_snapshot_restored = Ctl_state.was_snapshot_restored
let snapshot_root_status = Ctl_snapshot.root_status

(* Administrative rollback of one file to the durable root (trioctl
   snap rollback): restore, then force a fresh verification verdict. *)
let snapshot_rollback_file t ~proc ~ino =
  match Ctl_state.file_find t ino with
  | None -> Error "no such file"
  | Some f -> (
    match Ctl_snapshot.restore_file t f ~offender:proc with
    | Error _ as e -> e
    | Ok () ->
      if Ctl_gate.verify_file t ~proc ~f then Ok ()
      else Error "rolled-back state failed verification")

type recovery_mode = Mounted_root of int | Fsck_fallback

(* Crash recovery ladder: newest intact snapshot root first (O(root)
   validation + in-DRAM rebuild), full fsck walk as the fallback when
   both slots are damaged. *)
let recover ~sched ~pmem ~mmu ?lease_ns () =
  match Ctl_snapshot.mount_root ~sched ~pmem ~mmu ?lease_ns () with
  | Ok (t, epoch) ->
    Ctl_gate.start t;
    Ok (t, Mounted_root epoch)
  | Error _ -> (
    match cold_start ~sched ~pmem ~mmu ?lease_ns () with
    | Ok t -> Ok (t, Fsck_fallback)
    | Error _ as e -> (match e with Error m -> Error m | Ok _ -> assert false))

(* Full-mode verification sweep over every file record — the
   certification pass of the fsck fallback, and the honest baseline
   the snaprecover bench compares root mounts against.  Returns
   (files checked, files failing). *)
let audit_all (t : t) =
  Ctl_state.with_verify_mode Full @@ fun () ->
  let n = ref 0 and bad = ref 0 in
  Ctl_state.iter_files_snapshot t (fun ino (f : Ctl_state.file_info) ->
      incr n;
      let report =
        Ctl_gate.check_file_now t ~proc:Trio_nvm.Pmem.kernel_actor ~ino
          ~dentry_addr:f.Ctl_state.f_dentry_addr
      in
      if not report.Verifier.ok then incr bad);
  (!n, !bad)

(* Like {!audit_all}, but names the failures: each failing file's ino
   with its violation list, so counterexamples can say which invariant
   broke instead of just counting. *)
let audit_failures (t : t) =
  Ctl_state.with_verify_mode Full @@ fun () ->
  let bad = ref [] in
  Ctl_state.iter_files_snapshot t (fun ino (f : Ctl_state.file_info) ->
      let report =
        Ctl_gate.check_file_now t ~proc:Trio_nvm.Pmem.kernel_actor ~ino
          ~dentry_addr:f.Ctl_state.f_dentry_addr
      in
      if not report.Verifier.ok then bad := (ino, report.Verifier.violations) :: !bad);
  List.rev !bad

(* ------------------------------------------------------------------ *)
(* Verification gate and mapping *)

let drain_unverified = Ctl_gate.drain_unverified
let drain_verification = Ctl_gate.drain_verification
let map_file = Ctl_gate.map_file
let unmap_file = Ctl_gate.unmap_file
let commit = Ctl_gate.commit
let unmap_all = Ctl_gate.unmap_all
let chmod = Ctl_gate.chmod
let chown = Ctl_gate.chown
let write_mapped_inos = Ctl_gate.write_mapped_inos
let dentry_addr_of = Ctl_gate.dentry_addr_of
let crash_recover = Ctl_gate.crash_recover

(* ------------------------------------------------------------------ *)
(* The submission/completion ring plane (DESIGN.md §4.15) *)

module Ring = Ctl_ring
(* Exposed whole: the protocol tests drive submit/take_batch/post/await
   directly, below the drain plane. *)

type ring = Ctl_ring.t

let ring_setup = Ctl_gate.ring_setup
let ring_of = Ctl_gate.ring_of
let set_ring_paused = Ctl_gate.set_ring_paused
let set_ring_hook (t : t) hook = t.Ctl_state.ring_hook <- Some hook

(* Producer-side ops over an established ring.  [ring_map] is the
   batched map_file: submit, then park on the CQ.  [ring_unmap] is
   fire-and-forget — the entry feeds the verification pipeline when the
   drain fiber executes it, and the producer never looks back. *)

let ring_map r ~ino ~write =
  match Ctl_ring.submit r (Ctl_ring.Op_map { ino; write }) with
  | Error e -> Error e
  | Ok seq -> Ctl_ring.await r ~seq

let ring_unmap r ~ino = ignore (Ctl_ring.submit ~forget:true r (Ctl_ring.Op_unmap { ino }))

let ring_drain = Ctl_ring.drain

(* ------------------------------------------------------------------ *)
(* Process registry, watchdog, GC *)

let register_process = Ctl_registry.register_process
let process_dead = Ctl_registry.process_dead
let group_solo = Ctl_registry.group_solo

type watchdog_report = Ctl_registry.watchdog_report = {
  mutable wd_scanned : int;
  mutable wd_escalated : int list;
  mutable wd_unverified : int;
  mutable wd_revoked : int;
}

let make_watchdog_report = Ctl_registry.make_watchdog_report
let abnormal_teardown = Ctl_registry.abnormal_teardown
let watchdog_once = Ctl_registry.watchdog_once

type gc_report = Ctl_registry.gc_report = {
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

let pp_gc_report = Ctl_registry.pp_gc_report
let gc_once = Ctl_registry.gc_once

(* ------------------------------------------------------------------ *)
(* Per-socket shards: topology routing and observability *)

let shard_count = Ctl_state.shard_count
let node_of_page = Ctl_state.node_of_page

type shard_stat = {
  ss_id : int;
  ss_pool_refills : int;
      (** Always 0: pages come straight from the node's extent
          allocator, with no pool to refill.  Kept only because
          [benchmark/harness.ml] reads it; it goes when that harness
          moves onto one metrics registry (ROADMAP.md item 2). *)
  ss_reserve_free : int;  (** free pages left on the node *)
  ss_queue_depth : int;  (** verifications waiting on this shard *)
  ss_enqueued : int;  (** lifetime handoffs routed to this shard *)
}

let shard_stats (t : t) =
  let open Ctl_state in
  Array.to_list
    (Array.mapi
       (fun i (sh : shard) ->
         {
           ss_id = i;
           ss_pool_refills = 0;
           ss_reserve_free = Trio_util.Extent_alloc.free_units t.node_allocs.(i);
           ss_queue_depth = Queue.length sh.sh_verify_q;
           ss_enqueued = sh.sh_enqueued;
         })
       t.shards)

(** Shard-lock acquisitions and cross-shard sections: always [(0, 0)],
    since the registry is one table per controller and takes no lock.
    Kept only because [benchmark/harness.ml] reads it; it goes when
    that harness moves onto one metrics registry (ROADMAP.md item 2). *)
let lock_stats (_ : t) = (0, 0)

let pp_shard_stat ppf s =
  Format.fprintf ppf
    "shard %d: %d free pages, verify queue %d (%d enqueued)" s.ss_id s.ss_reserve_free
    s.ss_queue_depth s.ss_enqueued

let pp_shard_stats ppf stats =
  Format.pp_print_list ~pp_sep:Format.pp_print_newline pp_shard_stat ppf stats

(* Per-shard view of the ring plane: drain-side counters live on the
   shard, producer-side park/wake counters are summed over the rings the
   shard services.  This is the `trioctl stats` gate-queue-pressure
   view: before the ring plane there was no way to see queueing into the
   gate from outside ctl_gate. *)
type ring_stat = {
  rg_shard : int;
  rg_rings : int;  (** rings serviced by this shard (closed ones included) *)
  rg_depth : int;  (** submissions not yet taken by a drain fiber *)
  rg_outstanding : int;  (** submissions not yet reaped by producers *)
  rg_batches : int;  (** batches drained here, lifetime *)
  rg_ops : int;  (** ring ops executed here, lifetime *)
  rg_fused : int;  (** unmap+remap pairs annihilated in-batch *)
  rg_hist : int array;  (** drained-batch sizes: 1,2,<=4,...,<=64,>64 *)
  rg_sq_parks : int;  (** producer parks on a full SQ *)
  rg_sq_park_ns : float;  (** producer time parked on a full SQ, virtual ns *)
  rg_cq_parks : int;  (** producer parks awaiting a completion *)
  rg_wakes : int;  (** doorbell wakes into this shard's drain fibers *)
  rg_throttle_parks : int;  (** producer parks at the QoS admission gate *)
  rg_throttle_ns : float;  (** producer time parked there, virtual ns *)
}

let ring_stats (t : t) =
  let open Ctl_state in
  let shards = shard_count t in
  Array.to_list
    (Array.mapi
       (fun i (sh : shard) ->
         let rings = ref 0 and depth = ref 0 and out = ref 0 in
         let sqp = ref 0 and cqp = ref 0 in
         let sqp_ns = ref 0.0 and thp = ref 0 and th_ns = ref 0.0 in
         Hashtbl.iter
           (fun proc r ->
             if proc mod shards = i then begin
               incr rings;
               depth := !depth + Ctl_ring.depth r;
               out := !out + Ctl_ring.outstanding r;
               sqp := !sqp + Ctl_ring.sq_parks r;
               cqp := !cqp + Ctl_ring.cq_parks r;
               sqp_ns := !sqp_ns +. Ctl_ring.sq_park_ns r;
               thp := !thp + Ctl_ring.throttle_parks r;
               th_ns := !th_ns +. Ctl_ring.throttle_ns r
             end)
           t.rings;
         {
           rg_shard = i;
           rg_rings = !rings;
           rg_depth = !depth;
           rg_outstanding = !out;
           rg_batches = sh.sh_ring_batches;
           rg_ops = sh.sh_ring_ops;
           rg_fused = sh.sh_ring_fused;
           rg_hist = Array.copy sh.sh_ring_hist;
           rg_sq_parks = !sqp;
           rg_sq_park_ns = !sqp_ns;
           rg_cq_parks = !cqp;
           rg_wakes = sh.sh_ring_wakes;
           rg_throttle_parks = !thp;
           rg_throttle_ns = !th_ns;
         })
       t.Ctl_state.shards)

let pp_ring_stat ppf s =
  let hist =
    String.concat "/" (List.map string_of_int (Array.to_list s.rg_hist))
  in
  Format.fprintf ppf
    "shard %d: %d ring(s), depth %d, outstanding %d, %d batch(es) / %d op(s) drained (%d \
     fused), sizes [%s], %d sq-park(s) %.1fus parked, %d cq-park(s), %d wake(s), %d \
     throttle-park(s) %.1fus throttled"
    s.rg_shard s.rg_rings s.rg_depth s.rg_outstanding s.rg_batches s.rg_ops s.rg_fused hist
    s.rg_sq_parks (s.rg_sq_park_ns /. 1e3) s.rg_cq_parks s.rg_wakes s.rg_throttle_parks
    (s.rg_throttle_ns /. 1e3)

let pp_ring_stats ppf stats =
  Format.pp_print_list ~pp_sep:Format.pp_print_newline pp_ring_stat ppf stats

(* ------------------------------------------------------------------ *)
(* QoS plane: per-tenant token buckets (DESIGN.md §4.17) *)

type qos_kind = Ctl_qos.kind = Syscall | Ring_slot | Verify | Page_draw

type qos_tenant_stats = Ctl_qos.tenant_stats = {
  ts_group : int;
  ts_share : float option;  (** [None]: charged but unenforced *)
  ts_balance : float;
  ts_syscalls : int;
  ts_ring_slots : int;
  ts_verifies : int;
  ts_page_draws : int;
  ts_throttles : int;
  ts_throttle_ns : float;
}

(* Configure a tenant's share after registration (register_process
   [?qos_share] is the usual path). *)
let set_qos_share (t : t) ~group share =
  Ctl_qos.set_share (Ctl_state.qos t) ~group ~now:(Trio_sim.Sched.now t.Ctl_state.sched) share


let qos_balance (t : t) ~group =
  Ctl_qos.balance (Ctl_state.qos t) ~group ~now:(Trio_sim.Sched.now t.Ctl_state.sched)

let qos_stats (t : t) =
  Ctl_qos.stats (Ctl_state.qos t) ~now:(Trio_sim.Sched.now t.Ctl_state.sched)

let pp_qos_stats = Ctl_qos.pp_stats

(* ------------------------------------------------------------------ *)
(* Scrubber support *)

let badblocks = Ctl_media.badblocks
let degradation_of = Ctl_media.degradation_of
let writer_of = Ctl_media.writer_of
let degrade_file = Ctl_media.degrade_file
let quarantine_page = Ctl_media.quarantine_page
let replace_page = Ctl_media.replace_page
let rebuild_root_dentry = Ctl_media.rebuild_root_dentry
let rebuild_dindex = Ctl_media.rebuild_dindex
let dindex_member = Ctl_media.dindex_member
