(* The verification gate: everything between a LibFS unmapping a file
   and the kernel trusting its metadata again.

   Verification is *pipelined* (paper §4.3/§6): a voluntary unmap of a
   write mapping only enqueues the file on a work queue drained by
   background verifier fibers, so application work overlaps
   verification instead of serializing behind it.  The synchronization
   points are:

   - [map_file] waits (settles) when the requested file or an ancestor
     directory still has a queued or in-flight verification — an
     ancestor's verification may re-ingest this file's record;
   - lease-expiry force-revoke settles inline, charged to the waiter,
     exactly like the old synchronous handoff;
   - the read-side accessors that expose verification *results*
     (corruption events, quarantine list) drain the queue first.

   Each check runs through {!check_file_now}, which picks full or
   incremental mode ({!Ctl_checkpoint.delta_of}), feeds the
   per-invariant stats, and fires the observability hook. *)

module Pmem = Trio_nvm.Pmem
module Perf = Trio_nvm.Perf
module Sched = Trio_sim.Sched
module Stats = Trio_sim.Stats
open Fs_types
open Ctl_state

(* Preserve the offender's corrupted bytes as a private quarantine file so
   no data is silently lost (§4.3). *)
let quarantine_copy t f ~offender =
  let actor = Pmem.kernel_actor in
  let pages = f.f_index_pages @ f.f_data_pages @ f.f_dindex_pages in
  let qino = List.hd (Ctl_alloc.alloc_inos t ~proc:offender ~count:1) in
  (* Copy every current page into fresh pages owned by the offender. *)
  List.iter
    (fun pg ->
      let node = node_of_page t pg in
      match
        Ctl_alloc.alloc_pages t ~proc:offender ~node ~count:1 ~kind:(Pmem.kind_of t.pmem pg)
      with
      | Ok [ dst ] ->
        let b = Pmem.read t.pmem ~actor ~addr:(pg * page_size) ~len:page_size in
        Pmem.write t.pmem ~actor ~addr:(dst * page_size) ~src:b;
        Pmem.persist t.pmem ~addr:(dst * page_size) ~len:page_size
      | _ -> ())
    pages;
  t.quarantine <- (offender, qino) :: t.quarantine

(* ------------------------------------------------------------------ *)
(* One verification, instrumented *)

(* Run the verifier on one file: incremental when the global mode allows
   (clean pages served from delta checkpoints), full otherwise.  Also
   the single place the mode counters and the observability hook fire. *)
let check_file_now t ~proc ~ino ~dentry_addr =
  let delta = Ctl_checkpoint.delta_of t in
  let hits0 = Stats.get t.stats "verify.dirty.hits" in
  let t0 = Sched.now t.sched in
  let report = Verifier.check_file ?delta ~stats:t.stats (view t) ~proc ~ino ~dentry_addr in
  (* Label by what the check actually did, not the global mode: write-set
     overflow or a missing/stale checkpoint forces every page to a device
     read, and such a walk is full no matter what mode is configured. *)
  let incremental = Option.is_some delta && Stats.get t.stats "verify.dirty.hits" > hits0 in
  Stats.incr t.stats (if incremental then "verify.incremental" else "verify.full");
  (match t.verify_hook with
  | Some hook -> hook ~ino ~incremental ~dur:(Sched.now t.sched -. t0) ~ok:report.Verifier.ok
  | None -> ());
  report

(* ------------------------------------------------------------------ *)
(* Deferred reclamation of deleted children.

   From the source side, an in-flight cross-directory rename is
   indistinguishable from a delete: the dentry is simply gone.  While
   the pipeline is hot (any verification queued, running, or parked at
   the unverified gate), the destination directory's verification may
   still re-parent the child, so children reported deleted are only
   *recorded* here, and reclaimed once the pipeline idles.  A child
   still owned by its old parent at that point really was deleted; one
   whose ownership moved is skipped. *)

let reclaim_deleted t ~proc ~parent ~dino =
  match ino_owner_of t dino with
  | Ino_in_dir p when p = parent -> (
    match file_find t dino with
    | Some df when df.f_writer <> None || Hashtbl.length df.f_readers > 0 ->
      (* re-mapped in the window between verification and this flush:
         not safe to free under someone's feet — try again at the next
         pipeline idle *)
      t.deferred_deletes <- (proc, parent, dino) :: t.deferred_deletes
    | Some df ->
      List.iter (fun pg -> Ctl_alloc.release_page t pg)
        (df.f_index_pages @ df.f_data_pages @ df.f_dindex_pages);
      drop_unverified t df;
      remove_file t dino;
      remove_shadow t dino;
      clear_ino_owner t dino
    | None ->
      remove_shadow t dino;
      clear_ino_owner t dino)
  | _ -> () (* moved elsewhere: nothing to reclaim *)

let reclaim_deferred t =
  if (not (pipeline_hot t)) && t.deferred_deletes <> [] then begin
    let ds = t.deferred_deletes in
    t.deferred_deletes <- [];
    List.iter (fun (proc, parent, dino) -> reclaim_deleted t ~proc ~parent ~dino) ds
  end

(* ------------------------------------------------------------------ *)
(* Ingestion: after a successful verification, reconcile global info *)

let rec ingest_verified t ~proc ~(f : file_info) (report : Verifier.report) =
  let pinfo = proc_info t proc in
  (* Page attribution: everything the walk saw becomes In_file; pages that
     left the file (truncate without free) return to the proc. *)
  let new_pages =
    report.Verifier.index_pages @ report.Verifier.data_pages @ report.Verifier.dindex_pages
  in
  let old_pages = f.f_index_pages @ f.f_data_pages @ f.f_dindex_pages in
  List.iter
    (fun pg ->
      if not (List.mem pg new_pages) then begin
        set_page_owner t pg (Allocated_to proc);
        Hashtbl.replace pinfo.p_pages pg ()
      end)
    old_pages;
  List.iter
    (fun pg ->
      set_page_owner t pg (In_file f.f_ino);
      Hashtbl.remove pinfo.p_pages pg)
    new_pages;
  f.f_index_pages <- report.Verifier.index_pages;
  f.f_data_pages <- report.Verifier.data_pages;
  f.f_dindex_pages <- report.Verifier.dindex_pages;
  (* Once pages belong to a file the creator no longer holds write-mapped,
     its allocation-time grants must go: otherwise it would retain access
     after the handoff, defeating the exclusive-write policy. *)
  if f.f_writer <> Some proc then
    Mmu.revoke_free t.mmu ~actor:proc ~pages:new_pages ~perm:Mmu.P_readwrite;
  (* Children: ingest newly created files, update moved dentries. *)
  List.iter
    (fun (c : Verifier.child) ->
      match ino_owner_of t c.Verifier.c_ino with
      | Ino_allocated_to p when p = proc ->
        (* Fresh file: establish the shadow inode with the creator's
           credentials as ground truth. *)
        let cred = cred_of_proc t proc in
        let mode =
          match
            Layout.read_dentry t.pmem ~actor:Pmem.kernel_actor ~addr:c.Verifier.c_dentry_addr
          with
          | Some (Ok (inode, _)) -> inode.Layout.mode land 0o7777
          | _ -> 0o644
        in
        let child_file =
          new_file ~ino:c.Verifier.c_ino ~dentry_addr:c.Verifier.c_dentry_addr ~parent:f.f_ino
            ~ftype:c.Verifier.c_ftype ()
        in
        set_shadow t c.Verifier.c_ino
          {
            Verifier.s_ftype = c.Verifier.c_ftype;
            s_mode = mode;
            s_uid = cred.uid;
            s_gid = cred.gid;
          };
        set_ino_owner t c.Verifier.c_ino (Ino_in_dir f.f_ino);
        Hashtbl.remove pinfo.p_inos c.Verifier.c_ino;
        set_file t c.Verifier.c_ino child_file;
        (* Recursively verify and ingest the fresh subtree. *)
        let child_report =
          check_file_now t ~proc ~ino:c.Verifier.c_ino ~dentry_addr:c.Verifier.c_dentry_addr
        in
        if child_report.Verifier.ok then ingest_verified t ~proc ~f:child_file child_report
        else begin
          t.corruption_events <-
            (proc, c.Verifier.c_ino, child_report.Verifier.violations) :: t.corruption_events;
          (* A fresh file that fails verification is simply not ingested:
             remove its dentry so the namespace stays consistent.  The
             parent's walk already counted this child, so the namespace
             repair must reach everything derived from the dentry: the
             parent's size field drops by one and the child's key leaves
             the B-link index (a tree that refuses the delete is rebuilt
             from the surviving dentries).  Otherwise the checkpoint
             refreshed at the end of this ingestion would enshrine a
             stale size and a dangling index entry — a state Full
             verification rejects forever after (I1/I5). *)
          Layout.clear_dentry_atomic t.pmem ~actor:Pmem.kernel_actor
            ~addr:c.Verifier.c_dentry_addr;
          (match Layout.read_dentry t.pmem ~actor:Pmem.kernel_actor ~addr:f.f_dentry_addr with
          | Some (Ok (pinode, _)) when pinode.Layout.size > 0 ->
            Layout.write_size t.pmem ~actor:Pmem.kernel_actor ~dentry_addr:f.f_dentry_addr
              (pinode.Layout.size - 1)
          | _ -> ());
          let dindex_root =
            Layout.read_dindex_root t.pmem ~actor:Pmem.kernel_actor ~dentry_addr:f.f_dentry_addr
          in
          (if dindex_root <> 0 then
             match
               Dirindex.delete t.pmem ~actor:Pmem.kernel_actor ~root:dindex_root
                 ~hash:(Dirindex.hash_name c.Verifier.c_name) ~addr:c.Verifier.c_dentry_addr
             with
             | Ok () -> ()
             | Error _ -> ignore (Ctl_media.rebuild_dindex t ~ino:f.f_ino : (int, _) result));
          remove_file t c.Verifier.c_ino;
          remove_shadow t c.Verifier.c_ino;
          set_ino_owner t c.Verifier.c_ino (Ino_allocated_to proc)
        end
      | Ino_in_dir parent when parent = f.f_ino -> (
        (* Existing child: its dentry may have moved within the dir. *)
        match file_find t c.Verifier.c_ino with
        | Some cf -> cf.f_dentry_addr <- c.Verifier.c_dentry_addr
        | None -> ())
      | Ino_in_dir _other -> (
        (* Cross-directory move (rename): accept, since the verifier
           only lets this through when the source is write-mapped by
           the same process. *)
        set_ino_owner t c.Verifier.c_ino (Ino_in_dir f.f_ino);
        match file_find t c.Verifier.c_ino with
        | Some cf ->
          cf.f_dentry_addr <- c.Verifier.c_dentry_addr;
          cf.f_parent <- f.f_ino
        | None -> ())
      | Ino_allocated_to _ | Ino_free -> ())
    report.Verifier.children;
  (* Deleted children: record for pipeline-idle reclaim (see
     [reclaim_deferred] — a sibling's pending verification may yet
     reveal the "delete" to be a cross-directory move). *)
  List.iter
    (fun dino ->
      match ino_owner_of t dino with
      | Ino_in_dir parent when parent = f.f_ino ->
        t.deferred_deletes <- (proc, f.f_ino, dino) :: t.deferred_deletes
      | _ -> () (* moved elsewhere: nothing to reclaim *))
    report.Verifier.deleted_children;
  (* Refresh the checkpoint so it always holds the latest *verified*
     state — including for freshly ingested children, via the recursion
     above.  This is what the patrol scrubber repairs media-damaged
     metadata lines from (see {!Scrub}). *)
  Ctl_checkpoint.take_checkpoint t f

(* ------------------------------------------------------------------ *)
(* Verification driver *)

let verify_file t ~proc ~(f : file_info) =
  let report =
    Stats.timed t.stats t.sched "verify" (fun () ->
        check_file_now t ~proc ~ino:f.f_ino ~dentry_addr:f.f_dentry_addr)
  in
  if report.Verifier.ok then begin
    (* ingestion recursively verifies freshly created children, so its
       time also counts as verification *)
    Stats.timed t.stats t.sched "verify" (fun () -> ingest_verified t ~proc ~f report);
    true
  end
  else begin
    t.corruption_events <- (proc, f.f_ino, report.Verifier.violations) :: t.corruption_events;
    (* Give the LibFS a chance to fix its own corruption (with the fix
       budget modeled by the callback's own virtual time), then re-check. *)
    let fixed =
      match (proc_info t proc).p_fix with
      | Some fix_fn -> (
        match fix_fn f.f_ino with
        | true ->
          let retry = check_file_now t ~proc ~ino:f.f_ino ~dentry_addr:f.f_dentry_addr in
          if retry.Verifier.ok then begin
            ingest_verified t ~proc ~f retry;
            true
          end
          else false
        | false -> false
        | exception _ -> false)
      | None -> false
    in
    if not fixed then begin
      (* Preserve the offender's bytes, then roll the file back. *)
      quarantine_copy t f ~offender:proc;
      Ctl_checkpoint.rollback_to_checkpoint t f ~offender:proc;
      f.f_quarantined_for <- None
    end;
    fixed
  end

(* ------------------------------------------------------------------ *)
(* The background pipeline *)

let verifier_fiber_count = 2

(* Claim and run one queued verification.  Shielded: the verifier is a
   trusted kernel-side entity, not a killable LibFS fiber. *)
let run_pending t (f : file_info) =
  match f.f_pending with
  | None -> ()
  | Some proc ->
    f.f_pending <- None;
    f.f_verifying <- true;
    Sched.shield (fun () -> ignore (verify_file t ~proc ~f));
    f.f_verifying <- false;
    wake_all f;
    t.pending_verifications <- t.pending_verifications - 1;
    reclaim_deferred t

(* Wait until [f] has no queued or in-flight verification.  A queued one
   is run inline (charged to the caller — the file is being demanded
   right now); an in-flight one is waited out on the file's waiter
   queue.  Callers outside a fiber are safe: there the queue is always
   empty and nothing is in flight, so neither branch is taken. *)
let rec settle t (f : file_info) =
  if f.f_pending <> None then begin
    run_pending t f;
    settle t f
  end
  else if f.f_verifying then begin
    Sched.park (fun waker -> Queue.push waker f.f_waiters);
    settle t f
  end

(* Settle [f] and its ancestor chain, root first: a pending parent
   verification may re-ingest (or refuse) this very file. *)
let settle_chain t (f : file_info) =
  let rec up f depth acc =
    let acc = f :: acc in
    if f.f_ino = f.f_parent || depth > 64 then acc
    else
      match file_find t f.f_parent with
      | Some p -> up p (depth + 1) acc
      | None -> acc
  in
  List.iter (fun f -> settle t f) (up f 0 [])

(* Drain the whole pipeline: run every queued verification inline and
   wait out every in-flight one.  Used by the read-side accessors that
   must observe final verdicts, and by crash recovery. *)
let drain_verification t =
  let rec drain_queue (sh : shard) =
    match Queue.take_opt sh.sh_verify_q with
    | None -> ()
    | Some ino ->
      (match file_find t ino with
      | Some f when f.f_pending <> None -> run_pending t f
      | _ -> () (* stale entry: already claimed, re-mapped or deleted *));
      drain_queue sh
  in
  Array.iter drain_queue t.shards;
  let in_flight =
    fold_files t (fun _ f acc -> if f.f_verifying || f.f_pending <> None then f :: acc else acc) []
  in
  List.iter (fun f -> settle t f) in_flight;
  reclaim_deferred t

(* Handoff enqueues onto the queue of the socket that *holds the file's
   pages*: verification is read-dominated, so running it on the home
   socket keeps its device reads local and inside that socket's
   bandwidth domain. *)
let home_shard t (f : file_info) =
  let pg =
    match (f.f_data_pages, f.f_index_pages) with
    | pg :: _, _ | [], pg :: _ -> pg
    | [], [] -> f.f_dentry_addr / Trio_nvm.Pmem.page_size
  in
  t.shards.(node_of_page t pg)

let enqueue_verify t ~proc ~(f : file_info) =
  (* Verification is the most precious shared resource: whoever loads
     the pipeline pays for it, whether the enqueue came from its unmap,
     its ring batch, or a revocation it forced. *)
  qos_charge t proc Ctl_qos.Verify;
  let sh = home_shard t f in
  f.f_pending <- Some proc;
  t.pending_verifications <- t.pending_verifications + 1;
  Queue.push f.f_ino sh.sh_verify_q;
  sh.sh_enqueued <- sh.sh_enqueued + 1;
  Stats.incr t.stats "verify.queue.enqueued";
  let d =
    float_of_int (Array.fold_left (fun acc s -> acc + Queue.length s.sh_verify_q) 0 t.shards)
  in
  if d > Stats.get t.stats "verify.queue.depth.max" then begin
    let cur = Stats.get t.stats "verify.queue.depth.max" in
    Stats.add t.stats "verify.queue.depth.max" (d -. cur)
  end;
  match Queue.take_opt sh.sh_vq_idle with Some wake -> wake () | None -> ()

(* Body of a background verifier fiber: drain its shard's queue, then
   park until the next enqueue on that shard.  Parked fibers hold no
   scheduled event, so an idle pipeline never keeps the simulation
   alive. *)
let rec service t (sh : shard) =
  match Queue.take_opt sh.sh_verify_q with
  | Some ino ->
    (match file_find t ino with
    | Some f when f.f_pending <> None -> run_pending t f
    | _ -> ());
    service t sh
  | None ->
    Sched.park (fun waker -> Queue.push waker sh.sh_vq_idle);
    service t sh

(* Each shard gets its own verifier fibers, pinned to CPUs of the
   matching NUMA node so their device reads charge that socket's
   bandwidth domain. *)
let start t =
  Array.iter
    (fun (sh : shard) ->
      for i = 0 to verifier_fiber_count - 1 do
        let cpu = Numa.cpu_of_node_local t.topo ~node:sh.sh_id ~local:i in
        Sched.spawn ~cpu t.sched (fun () -> service t sh)
      done)
    t.shards

(* ------------------------------------------------------------------ *)
(* Verifier gate for files whose last writer died or wedged (§4.4 of the
   paper: crash consistency of the handoff).  The watchdog only marks
   such files unverified — it cannot run the dead process' fix callback,
   and charging verification to the next accessor keeps the failure
   plane pay-as-you-go.  Repair policy: accept the dead writer's state
   if it verifies as-is; otherwise roll back to the last verified
   checkpoint and re-check; if that fails too (or there is no DRAM
   checkpoint at all), descend one more rung and restore the file from
   the durable snapshot root; only when even the snapshot state cannot
   be certified does the file degrade to Failed and the mapping get
   refused with EIO.  Rung order matters: the DRAM checkpoint is newer
   than the snapshot, so it is always tried first. *)
let ensure_verified t ~(f : file_info) =
  match f.f_unverified with
  | None -> Ok ()
  | Some dead ->
    drop_unverified t f;
    let check () =
      Stats.timed t.stats t.sched "verify" (fun () ->
          check_file_now t ~proc:dead ~ino:f.f_ino ~dentry_addr:f.f_dentry_addr)
    in
    (* Deepest rung: the durable snapshot root.  Restoration itself can
       fail (file absent from the root, payload poisoned — never written
       back blindly), and a restored state must still earn its verdict. *)
    let try_snapshot () =
      match Ctl_snapshot.restore_file t f ~offender:dead with
      | Error _ -> false
      | Ok () ->
        let r = check () in
        if r.Verifier.ok then ingest_verified t ~proc:dead ~f r;
        r.Verifier.ok
    in
    let report = check () in
    let outcome =
      if report.Verifier.ok then begin
        ingest_verified t ~proc:dead ~f report;
        Ok ()
      end
      else begin
        t.corruption_events <- (dead, f.f_ino, report.Verifier.violations) :: t.corruption_events;
        match f.f_checkpoint with
        | None ->
          if try_snapshot () then Ok ()
          else begin
            f.f_degraded <- Failed;
            Error EIO
          end
        | Some _ ->
          Ctl_checkpoint.rollback_to_checkpoint t f ~offender:dead;
          let retry = check () in
          if retry.Verifier.ok then begin
            ingest_verified t ~proc:dead ~f retry;
            Ok ()
          end
          else if try_snapshot () then Ok ()
          else begin
            f.f_degraded <- Failed;
            Error EIO
          end
      end
    in
    (* Ingestion/rollback may have returned stray pages to the dead
       process' pool; release its inode numbers now and leave the pages
       for the orphan GC to sweep. *)
    ignore (Ctl_registry.reap_dead t dead);
    reclaim_deferred t;
    outcome

(* Force the verifier gate for every file still pending (fsck/admin
   path).  Afterwards the GC owes nothing to the gate and may reclaim
   every stray page of the dead processes.  Returns how many files were
   drained. *)
let drain_unverified t =
  drain_verification t;
  let pending =
    fold_files t (fun _ f acc -> if f.f_unverified <> None then f :: acc else acc) []
  in
  List.iter (fun f -> ignore (ensure_verified t ~f)) pending;
  List.length pending

(* ------------------------------------------------------------------ *)
(* Map / unmap *)

let revoke_mapping t ~proc ~(f : file_info) ~was_writer =
  let pages = file_pages f in
  let perm = if was_writer then Mmu.P_readwrite else Mmu.P_read in
  Stats.timed t.stats t.sched "unmap" (fun () -> Mmu.revoke t.mmu ~actor:proc ~pages ~perm);
  Hashtbl.remove (proc_info t proc).p_mapped f.f_ino;
  if was_writer then begin
    f.f_writer <- None;
    (* The pipelining win: the write handoff only queues verification;
       a background fiber picks it up while the LibFS moves on. *)
    enqueue_verify t ~proc ~f
  end
  else Hashtbl.remove f.f_readers proc;
  wake_all f

(* The op body, shared by the synchronous syscall below and the ring
   drain plane (which pays the kernel-crossing cost once per batch). *)
let unmap_file_body t ~proc ~ino =
  match file_find t ino with
  | None -> Error ENOENT
  | Some f ->
    if f.f_writer = Some proc then begin
      revoke_mapping t ~proc ~f ~was_writer:true;
      Ok ()
    end
    else if Hashtbl.mem f.f_readers proc then begin
      revoke_mapping t ~proc ~f ~was_writer:false;
      Ok ()
    end
    else Error EBADF

let unmap_file t ~proc ~ino =
  Sched.shield @@ fun () ->
  Sched.cpu_work Perf.Cpu.syscall;
  touch t proc;
  (* Release path: charged but never delayed — stalling a throttled
     tenant's unmap would block honest waiters on the lease it holds. *)
  qos_charge t proc Ctl_qos.Syscall;
  unmap_file_body t ~proc ~ino

(* Force-unmap the current holder(s) after lease expiry; charged to the
   fiber that requests the conflicting access — including the
   verification of the revoked writer's state, which is settled inline
   rather than left to the background fibers (the waiter needs the
   verdict before it can be granted anything). *)
let force_unmap_holders t ~(f : file_info) ~for_writer =
  (match f.f_writer with
  | Some holder -> revoke_mapping t ~proc:holder ~f ~was_writer:true
  | None -> ());
  settle t f;
  if for_writer then
    Hashtbl.iter
      (fun r () -> revoke_mapping t ~proc:r ~f ~was_writer:false)
      (Hashtbl.copy f.f_readers)

let conflicts t ~proc ~(f : file_info) ~write =
  let my_group = group_of t proc in
  let writer_conflict =
    match f.f_writer with None -> false | Some w -> w <> proc && group_of t w <> my_group
  in
  if write then
    writer_conflict
    || Hashtbl.fold
         (fun r () acc -> acc || (r <> proc && group_of t r <> my_group))
         f.f_readers false
  else writer_conflict

let rec wait_for_access t ~proc ~(f : file_info) ~write =
  if conflicts t ~proc ~f ~write then begin
    (* Readers are revoked immediately for a writer: a read mapping
       needs no verification on teardown, and the reader transparently
       re-maps on its next access.  Leases only protect writers, whose
       handoff requires verification. *)
    let my_group = group_of t proc in
    let writer_conflict =
      match f.f_writer with None -> false | Some w -> w <> proc && group_of t w <> my_group
    in
    if write && not writer_conflict then force_unmap_holders t ~f ~for_writer:true
    else begin
      let expire = f.f_lease_expire in
      let now = Sched.now t.sched in
      if now >= expire then force_unmap_holders t ~f ~for_writer:write
      else begin
        (* Sleep until the lease expires or the holder unmaps. *)
        Sched.park (fun waker ->
            Queue.push waker f.f_waiters;
            Sched.schedule t.sched expire waker);
        if conflicts t ~proc ~f ~write && Sched.now t.sched >= f.f_lease_expire then
          force_unmap_holders t ~f ~for_writer:write
      end
    end;
    wait_for_access t ~proc ~f ~write
  end

(* Acquire: wait out conflicting holders, then settle any verification
   their unmap queued (charged to us — we demanded the file).  Settling
   parks, so a rival may slip in; re-check until both conditions hold
   at once. *)
let rec acquire t ~proc ~(f : file_info) ~write =
  wait_for_access t ~proc ~f ~write;
  settle t f;
  if conflicts t ~proc ~f ~write then acquire t ~proc ~f ~write

(* Cheap health checks that precede even the permission check — a
   quarantined or media-degraded file reports its own condition no
   matter who asks. *)
let media_checks ~proc ~(f : file_info) ~write =
  match f.f_quarantined_for with
  | Some p when p <> proc -> Error EIO
  | _ -> (
    (* Media-degraded files: Failed rejects everything, Degraded_ro
       rejects write mappings (graceful degradation, not a panic). *)
    match f.f_degraded with
    | Failed -> Error EIO
    | Degraded_ro when write -> Error EROFS
    | _ -> Ok ())

(* Health + shadow-permission gate for a mapping request.  Runs twice in
   [map_file]: once on pre-settle state so a request that is going to be
   refused triggers no verification or checkpoint work at all, and again
   after settling, because a settled verification may have changed what
   these checks observe (quarantine set or cleared by rollback, shadow
   inode of a refused fresh child removed, I4 repairs applied). *)
let gate_checks t ~proc ~(f : file_info) ~write =
  match media_checks ~proc ~f ~write with
  | Error e -> Error e
  | Ok () -> (
    let cred = cred_of_proc t proc in
    match shadow_find t f.f_ino with
    | None -> Error ENOENT
    | Some s ->
      if
        Fs_types.permits ~cred ~uid:s.Verifier.s_uid ~gid:s.Verifier.s_gid
          ~mode:s.Verifier.s_mode ~want_read:true ~want_write:write
      then Ok ()
      else Error EACCES)

(* Is [f] still the live record for its ino?  Settling — and any park
   inside [acquire] — can run the parent directory's pending
   verification, whose deleted-children handling removes the file from
   [t.files] and frees its pages back to the allocator.  Continuing with
   the stale record would grant access to freed (possibly reused) pages,
   so every settle/park on the map path is followed by this re-check. *)
let still_current t (f : file_info) =
  match file_find t f.f_ino with Some f' -> f' == f | None -> false

(* Could a verification still in the pipeline make [ino] appear in
   [t.files]?  Only a fresh, not-yet-ingested file qualifies, and such
   an ino is still [Ino_allocated_to] its creator — ingestion is what
   moves it to [Ino_in_dir].  Any other owner state means the miss is a
   genuine ENOENT, and a stream of probes on bad inos must not turn the
   lookup path into a global pipeline quiesce point.  Every shard's
   queue must be consulted: a fresh file is ingested by its *parent
   directory's* verification, queued on the socket of the parent's
   pages. *)
let may_be_in_pipeline t ino =
  Array.exists (fun (sh : shard) -> not (Queue.is_empty sh.sh_verify_q)) t.shards
  && match ino_owner_of t ino with Ino_allocated_to _ -> true | Ino_free | Ino_in_dir _ -> false

(* Look a file up, giving the background pipeline a chance to ingest it
   first: a freshly created file only becomes known to the kernel when
   its parent directory's verification lands. *)
let find_file t ino =
  match file_find t ino with
  | Some f -> Some f
  | None ->
    if not (may_be_in_pipeline t ino) then None
    else begin
      drain_verification t;
      file_find t ino
    end

let map_file_body t ~proc ~ino ~write =
  match find_file t ino with
  | None -> Error ENOENT
  | Some f -> (
    (* Permission/health checks against pre-settle state run before any
       verification or checkpoint work: a mapping that is going to fail
       with EACCES must trigger neither. *)
    match gate_checks t ~proc ~f ~write with
    | Error e -> Error e
    | Ok ()
      when (write && f.f_writer = Some proc)
           || ((not write) && (f.f_writer = Some proc || Hashtbl.mem f.f_readers proc)) ->
      (* Idempotent re-map: the process already holds a sufficient
         mapping, so there is nothing to hand off, verify, walk or
         grant — renew the lease and return.  The synchronous path
         rarely hits this (a LibFS tracks its mappings and does not
         re-map); it is load-bearing for the ring drain plane, where a
         fused unmap+remap leaves the original mapping standing and
         every later re-map is exactly this renewal. *)
      f.f_lease_expire <- Sched.now t.sched +. t.lease_ns;
      Ok ()
    | Ok () ->
      (* Block only while this file — or an ancestor directory whose
         verification may re-ingest it — is still in the pipeline. *)
      settle_chain t f;
      (* The settled verifications may have deleted the file outright
         (stale record — the old synchronous controller said ENOENT
         here) or changed what the gate checks observe; redo both
         against the settled state before trusting the record. *)
      if not (still_current t f) then Error ENOENT
      else (
        match gate_checks t ~proc ~f ~write with
        | Error e -> Error e
        | Ok () -> (
          match ensure_verified t ~f with
          | Error e -> Error e
          | Ok () ->
          acquire t ~proc ~f ~write;
          (* Acquire parks, and fibers that ran meanwhile may have
             verified this file's parent away — re-check liveness. *)
          if not (still_current t f) then Error ENOENT
          else begin
          (* Claim the mapping before the (slow) walk/checkpoint/grant so
             no other fiber slips in during those delays. *)
          if write then begin
            f.f_writer <- Some proc;
            (* read-to-write upgrade: the earlier read grants must go,
               or revoking the write mapping later would leave access *)
            if Hashtbl.mem f.f_readers proc then begin
              Hashtbl.remove f.f_readers proc;
              Mmu.revoke_free t.mmu ~actor:proc ~pages:(file_pages f) ~perm:Mmu.P_read
            end
          end
          else Hashtbl.replace f.f_readers proc ();
          f.f_lease_expire <- Sched.now t.sched +. t.lease_ns;
          (* Walk the file to find the page set. *)
          (match walk_file t ~ino ~dentry_addr:f.f_dentry_addr with
          | Some (_, index_pages, data_pages, dindex_pages) ->
            f.f_index_pages <- index_pages;
            f.f_data_pages <- data_pages;
            f.f_dindex_pages <- dindex_pages
          | None -> ());
          if write then Ctl_checkpoint.take_checkpoint t f;
          let pages = file_pages f in
          Stats.timed t.stats t.sched "map" (fun () ->
              Mmu.grant t.mmu ~actor:proc ~pages
                ~perm:(if write then Mmu.P_readwrite else Mmu.P_read));
          f.f_lease_expire <- Sched.now t.sched +. t.lease_ns;
          Hashtbl.replace (proc_info t proc).p_mapped ino ();
          Ok ()
          end)))

let map_file t ~proc ~ino ~write =
  Sched.shield @@ fun () ->
  Sched.cpu_work Perf.Cpu.syscall;
  touch t proc;
  charge_syscall t proc;
  map_file_body t ~proc ~ino ~write

(* Commit: re-verify now and, on success, replace the checkpoint so a
   later rollback cannot lose the committed changes (§4.3).  Stays
   synchronous — the caller asked for the verdict. *)
let commit t ~proc ~ino =
  Sched.shield @@ fun () ->
  Sched.cpu_work Perf.Cpu.syscall;
  touch t proc;
  charge_syscall t proc;
  match file_find t ino with
  | None -> Error ENOENT
  | Some f ->
    if f.f_writer <> Some proc then Error EBADF
    else begin
      let report =
        Stats.timed t.stats t.sched "verify" (fun () ->
            check_file_now t ~proc ~ino ~dentry_addr:f.f_dentry_addr)
      in
      if report.Verifier.ok then begin
        ingest_verified t ~proc ~f report;
        Ctl_checkpoint.take_checkpoint t f;
        reclaim_deferred t;
        Ok ()
      end
      else Error EIO
    end

(* Release everything a process has mapped (process teardown). *)
let unmap_all t ~proc =
  let p = proc_info t proc in
  let inos = Hashtbl.fold (fun ino () acc -> ino :: acc) p.p_mapped [] in
  List.iter (fun ino -> ignore (unmap_file t ~proc ~ino)) inos

(* ------------------------------------------------------------------ *)
(* Namespace / permission operations *)

(* Permission changes go through the kernel: the shadow inode is the
   ground truth (I4). *)
let chmod t ~proc ~ino ~mode =
  Sched.shield @@ fun () ->
  Sched.cpu_work Perf.Cpu.syscall;
  touch t proc;
  charge_syscall t proc;
  match (shadow_find t ino, file_find t ino) with
  | Some s, Some f ->
    let cred = cred_of_proc t proc in
    if cred.uid <> 0 && cred.uid <> s.Verifier.s_uid then Error EACCES
    else begin
      let s' = { s with Verifier.s_mode = mode land 0o7777 } in
      set_shadow t ino s';
      Layout.write_perms t.pmem ~actor:Pmem.kernel_actor ~dentry_addr:f.f_dentry_addr
        ~mode:s'.Verifier.s_mode ~uid:s'.Verifier.s_uid ~gid:s'.Verifier.s_gid;
      Ok ()
    end
  | _ -> Error ENOENT

let chown t ~proc ~ino ~uid ~gid =
  Sched.shield @@ fun () ->
  Sched.cpu_work Perf.Cpu.syscall;
  touch t proc;
  charge_syscall t proc;
  match (shadow_find t ino, file_find t ino) with
  | Some s, Some f ->
    let cred = cred_of_proc t proc in
    if cred.uid <> 0 then Error EACCES
    else begin
      let s' = { s with Verifier.s_uid = uid; s_gid = gid } in
      set_shadow t ino s';
      Layout.write_perms t.pmem ~actor:Pmem.kernel_actor ~dentry_addr:f.f_dentry_addr
        ~mode:s'.Verifier.s_mode ~uid ~gid;
      Ok ()
    end
  | _ -> Error ENOENT

(* Files currently write-mapped by [proc]; a LibFS recovery program uses
   this to know what it must repair after a crash. *)
let write_mapped_inos t ~proc =
  fold_files t
    (fun ino (f : file_info) acc ->
      if f.f_writer = Some proc then (ino, f.f_dentry_addr, f.f_ftype) :: acc else acc)
    []

let dentry_addr_of t ino =
  match file_find t ino with
  | Some f -> Some f.f_dentry_addr
  | None ->
    (* A file created moments ago may still be riding the pipeline
       inside its parent's queued verification. *)
    if not (may_be_in_pipeline t ino) then None
    else begin
      drain_verification t;
      Option.map (fun (f : file_info) -> f.f_dentry_addr) (file_find t ino)
    end

(* After a crash: any verification still in the pipeline runs against
   the post-crash state first, then every LibFS-registered recovery
   program runs (undo journals etc.), then every file that was
   write-mapped at crash time is verified (§4.4). *)
let crash_recover t =
  drain_verification t;
  Hashtbl.iter
    (fun _ p -> match p.p_recovery with Some recovery -> recovery () | None -> ())
    t.procs;
  iter_files_snapshot t (fun _ (f : file_info) ->
      match f.f_writer with
      | Some proc ->
        ignore (verify_file t ~proc ~f);
        let pages = file_pages f in
        Mmu.revoke_free t.mmu ~actor:proc ~pages ~perm:Mmu.P_readwrite;
        Hashtbl.remove (proc_info t proc).p_mapped f.f_ino;
        f.f_writer <- None;
        wake_all f
      | None -> ());
  reclaim_deferred t

(* ------------------------------------------------------------------ *)
(* The ring drain plane (DESIGN.md §4.15).

   Each registered ring gets one drain fiber, pinned to a CPU of the
   shard ([proc mod shards]) that services it — but the fibers of a
   shard pull from a *shared* work queue of rings-with-pending-entries,
   so any fiber can drain any of its shard's rings and a ring whose
   fiber is stuck behind a lease wait does not stall its neighbors.
   FIFO per ring is preserved by the [busy] guard: only one fiber runs
   a given ring's batch at a time, so a producer's unmap-then-remap of
   the same directory executes in program order.

   The batch is the unit of cost: one kernel crossing and one heartbeat
   cover up to [ring_batch_limit] operations, which is the protocol's
   entire point. *)

let ring_batch_limit = 64

(* Log-bucket index for the drained-batch histogram:
   1, 2, <=4, <=8, <=16, <=32, <=64, >64. *)
let hist_bucket n =
  if n <= 1 then 0
  else if n = 2 then 1
  else if n <= 4 then 2
  else if n <= 8 then 3
  else if n <= 16 then 4
  else if n <= 32 then 5
  else if n <= 64 then 6
  else 7

let run_ring_op t ~proc = function
  | Ctl_ring.Op_map { ino; write } -> map_file_body t ~proc ~ino ~write
  | Ctl_ring.Op_unmap { ino } -> unmap_file_body t ~proc ~ino
  | Ctl_ring.Op_lease -> Ok () (* the batch's touch below is the point *)

(* Batch fusion: an unmap chased by a re-map of the same file by the
   same process, both visible in one batch, annihilate — the mapping
   was never torn down, so there is no handoff, hence no revoke, no
   verification, no walk, no re-grant.  Sound because the pair
   executes atomically with respect to the file: nobody observed the
   unmapped state, so the result is indistinguishable from the process
   simply not unmapping (which it is always free to do).  A read
   re-map fuses against a standing write mapping — the writer keeps
   its (strictly stronger) grant and the controller's bookkeeping is
   unchanged.  Fuse only while the holder is unchallenged and the
   re-map could not have failed — a parked waiter, a pending
   verification, degraded media or a failed permission gate all force
   the real unmap/map pair, i.e. a genuine handoff with its full
   verification.  This is the batched plane's structural advantage:
   the synchronous path must execute an unmap before it can know that
   a re-map follows. *)
let try_fuse_remap t ~proc ~ino ~write =
  match file_find t ino with
  | Some f
    when Queue.is_empty f.f_waiters
         && f.f_unverified = None
         && f.f_degraded = Healthy
         && f.f_quarantined_for = None
         && (match f.f_writer with
            | Some w -> w = proc (* a write grant satisfies either mode *)
            | None -> (not write) && Hashtbl.mem f.f_readers proc)
         && gate_checks t ~proc ~f ~write = Ok () ->
    f.f_lease_expire <- Sched.now t.sched +. t.lease_ns;
    true
  | _ -> false

(* Pair up fusable entries: for each [Op_unmap ino], the next entry
   touching [ino] — if it is an [Op_map], defer the unmap to the map's
   position and let [try_fuse_remap] decide there.  Same-ino program
   order is preserved; a deferred fire-and-forget unmap may slip past
   later entries for *other* inos, which io_uring-style unlinked
   entries do not promise anyway. *)
let plan_fusion batch =
  let arr = Array.of_list batch in
  let n = Array.length arr in
  let partner = Array.make n (-1) in
  let deferred = Array.make n false in
  for i = 0 to n - 1 do
    match arr.(i) with
    | _, Ctl_ring.Op_unmap { ino } when not deferred.(i) ->
      let rec scan j =
        if j < n then
          match arr.(j) with
          | _, Ctl_ring.Op_map { ino = ino'; _ } when ino' = ino ->
            if partner.(j) = -1 then begin
              partner.(j) <- i;
              deferred.(i) <- true
            end
          | _, Ctl_ring.Op_unmap { ino = ino' } when ino' = ino -> ()
          | _ -> scan (j + 1)
      in
      scan (i + 1)
    | _ -> ()
  done;
  (arr, partner, deferred)

let drain_one_ring t (sh : shard) ring =
  let proc = Ctl_ring.proc ring in
  match Ctl_ring.take_batch ring ~max:ring_batch_limit with
  | [] -> ()
  | batch ->
    let n = List.length batch in
    sh.sh_ring_batches <- sh.sh_ring_batches + 1;
    sh.sh_ring_ops <- sh.sh_ring_ops + n;
    sh.sh_ring_hist.(hist_bucket n) <- sh.sh_ring_hist.(hist_bucket n) + 1;
    (match t.ring_hook with
    | Some hook -> hook ~shard:sh.sh_id ~batch:n ~depth:(Ctl_ring.depth ring)
    | None -> ());
    let arr, partner, deferred = plan_fusion batch in
    Sched.shield (fun () ->
        Sched.cpu_work Perf.Cpu.syscall;
        touch t proc;
        (* Ring slots are charged at batch granularity when drained —
           never delayed here: a drain fiber serves every tenant on this
           shard, so it must not stall on one tenant's debt.  The debt
           instead gates the debtor's next submit at the ring mouth. *)
        qos_charge t proc ~n Ctl_qos.Ring_slot;
        Array.iteri
          (fun idx (seq, op) ->
            (* Re-check liveness per op: the watchdog may tear the
               producer down while an earlier op of this very batch is
               settling a verification. *)
            let dead () = Ctl_ring.is_closed ring || (proc_info t proc).p_dead in
            if deferred.(idx) then () (* settled at its partner map *)
            else if partner.(idx) >= 0 then begin
              let useq, uop = arr.(partner.(idx)) in
              if dead () then begin
                Ctl_ring.post ring ~seq:useq (Error EIO);
                Ctl_ring.post ring ~seq (Error EIO)
              end
              else if
                match op with
                | Ctl_ring.Op_map { ino; write } -> try_fuse_remap t ~proc ~ino ~write
                | _ -> false
              then begin
                sh.sh_ring_fused <- sh.sh_ring_fused + 1;
                Ctl_ring.post ring ~seq:useq (Ok ());
                Ctl_ring.post ring ~seq (Ok ())
              end
              else begin
                (* Real handoff: run the deferred unmap, then the map. *)
                Ctl_ring.post ring ~seq:useq (run_ring_op t ~proc uop);
                let result = if dead () then Error EIO else run_ring_op t ~proc op in
                Ctl_ring.post ring ~seq result
              end
            end
            else begin
              let result = if dead () then Error EIO else run_ring_op t ~proc op in
              Ctl_ring.post ring ~seq result
            end)
          arr)

(* Weighted round-robin across tenants: with QoS active, serve the
   queued proc whose trust group has the highest token balance (the most
   under-served tenant) instead of strict FIFO, so one tenant's 64-op
   batches cannot starve others out of the drain plane.  Safe to
   reorder: each proc appears at most once in the queue (is_queued
   dedup) and its own ring still drains in submission order.  Without
   any enforced tenant this is exact FIFO, preserving the ring plane's
   existing behavior. *)
let pick_ring_proc t (sh : shard) =
  if (not (Ctl_qos.enforced (qos t))) || Queue.length sh.sh_ring_q < 2 then
    Queue.take_opt sh.sh_ring_q
  else begin
    let now = Sched.now t.sched in
    let procs = List.of_seq (Queue.to_seq sh.sh_ring_q) in
    let balance p =
      match Hashtbl.find_opt t.procs p with
      | Some pi -> Ctl_qos.balance (qos t) ~group:pi.p_group ~now
      | None -> neg_infinity
    in
    let best =
      List.fold_left
        (fun acc p ->
          match acc with
          | Some (_, b) when b >= balance p -> acc
          | _ -> Some (p, balance p))
        None procs
    in
    match best with
    | None -> None
    | Some (p, _) ->
      Queue.clear sh.sh_ring_q;
      List.iter (fun q -> if q <> p then Queue.push q sh.sh_ring_q) procs;
      Some p
  end

let rec ring_service t (sh : shard) =
  if t.ring_paused then begin
    Sched.park (fun waker -> Queue.push waker sh.sh_rq_idle);
    ring_service t sh
  end
  else
    match pick_ring_proc t sh with
    | Some proc ->
      (match ring_find t proc with
      | Some ring when not (Ctl_ring.is_busy ring) ->
        Ctl_ring.set_queued ring false;
        Ctl_ring.set_busy ring true;
        drain_one_ring t sh ring;
        Ctl_ring.set_busy ring false;
        (* Entries that arrived mid-batch saw [queued = false] only if
           their doorbell fired before we cleared it — re-check. *)
        if Ctl_ring.depth ring > 0 && not (Ctl_ring.is_queued ring) then begin
          Ctl_ring.set_queued ring true;
          Queue.push proc sh.sh_ring_q
        end
      | Some ring ->
        (* Another fiber is mid-batch on this ring; it re-checks depth
           when it finishes, so dropping the queue entry loses nothing. *)
        Ctl_ring.set_queued ring false
      | None -> ());
      ring_service t sh
    | None ->
      Sched.park (fun waker -> Queue.push waker sh.sh_rq_idle);
      ring_service t sh

let ring_setup t ~proc ~depth =
  if Hashtbl.mem t.rings proc then invalid_arg "Controller.ring_setup: ring exists";
  let sh = ring_shard t proc in
  let ring = Ctl_ring.create ~proc ~capacity:depth in
  Ctl_ring.set_notify ring (fun () ->
      if not (Ctl_ring.is_queued ring) then begin
        Ctl_ring.set_queued ring true;
        Queue.push proc sh.sh_ring_q;
        sh.sh_ring_wakes <- sh.sh_ring_wakes + 1;
        match Queue.take_opt sh.sh_rq_idle with Some wake -> wake () | None -> ()
      end);
  Ctl_ring.set_clock ring (fun () -> Sched.now t.sched);
  Ctl_ring.set_qos ring
    ~gate:(fun () -> qos_admission t proc)
    ~sleep_until:(fun deadline ->
      Sched.park (fun waker -> Sched.schedule t.sched deadline waker))
    ~note:(fun ns ->
      match Hashtbl.find_opt t.procs proc with
      | Some pi ->
        Ctl_qos.note_throttled (qos t) ~group:pi.p_group ~now:(Sched.now t.sched) ~ns
      | None -> ());
  Hashtbl.replace t.rings proc ring;
  let local = sh.sh_ring_fibers in
  sh.sh_ring_fibers <- local + 1;
  let cpu = Trio_nvm.Numa.cpu_of_node_local t.topo ~node:sh.sh_id ~local in
  Sched.spawn ~cpu t.sched (fun () -> ring_service t sh);
  ring

let ring_of t proc = ring_find t proc

(* Test hook: a paused drain plane parks instead of consuming — the
   staging ground for the dead-consumer/full-ring failure scenario. *)
let set_ring_paused t b =
  t.ring_paused <- b;
  if not b then
    Array.iter
      (fun (sh : shard) ->
        while not (Queue.is_empty sh.sh_rq_idle) do
          (Queue.pop sh.sh_rq_idle) ()
        done)
      t.shards
