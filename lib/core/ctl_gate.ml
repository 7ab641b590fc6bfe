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
   per-invariant stats, and fires the observability hook.

   A verification pass — [verify_file], [commit], [ensure_verified] —
   opens one read set ({!Ctl_state.reads}) before its first read and
   passes it down: the verifier records the pages it reads from the
   device, the fresh-children checks of the same ingestion see them as
   snapshot bytes, and the checkpoint that ends each ingestion takes
   them without a second read.  The set dies when the pass returns. *)

module Pmem = Trio_nvm.Pmem
module Perf = Trio_nvm.Perf
module Sched = Trio_sim.Sched
module Stats = Trio_sim.Stats
open Fs_types
open Ctl_state

(* Preserve the offender's corrupted bytes as a private quarantine file so
   no data is silently lost (§4.3).  It runs inside a verification, often
   in a verifier fiber the socket's tenants share, so it allocates through
   the bodies, not the offender's syscall entry: no trap, heartbeat,
   charge or admission wait on the offender's behalf. *)
let quarantine_copy t f ~offender =
  let actor = Pmem.kernel_actor in
  let pages = f.f_index_pages @ f.f_data_pages @ f.f_dindex_pages in
  let qino = List.hd (Ctl_alloc.grant_inos t ~proc:offender ~count:1) in
  (* Copy every current page into fresh pages owned by the offender. *)
  List.iter
    (fun pg ->
      let node = node_of_page t pg in
      match
        Ctl_alloc.grant_pages t ~proc:offender ~node ~count:1 ~kind:(Pmem.kind_of t.pmem pg)
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
   (clean pages served from delta checkpoints and the pass's read set
   [reads]), full otherwise; either way the pages read from the device
   join [reads].  Also the single place the mode counters and the
   observability hook fire. *)
let check_file_now ?reads t ~proc ~ino ~dentry_addr =
  let delta = Ctl_checkpoint.delta_of ?reads t in
  let hits0 = Stats.get t.stats "verify.dirty.hits" in
  let t0 = Sched.now t.sched in
  let report =
    Verifier.check_file ?delta ?record:(Option.map record_read reads) ~stats:t.stats (view t)
      ~proc ~ino ~dentry_addr
  in
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
    | Some df when df.f_writers <> [] || Hashtbl.length df.f_readers > 0 ->
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

let rec ingest_verified t ~reads ~proc ~(f : file_info) (report : Verifier.report) =
  let pinfo = proc_info t proc in
  (* Page attribution: everything the walk saw becomes In_file; pages that
     left the file (truncate without free) return to the proc. *)
  let new_pages =
    report.Verifier.index_pages @ report.Verifier.data_pages @ report.Verifier.dindex_pages
  in
  let is_new = Hashtbl.create 64 in
  List.iter (fun pg -> Hashtbl.replace is_new pg ()) new_pages;
  let old_pages = f.f_index_pages @ f.f_data_pages @ f.f_dindex_pages in
  List.iter
    (fun pg ->
      if not (Hashtbl.mem is_new pg) then begin
        set_page_owner t pg (Allocated_to proc);
        Hashtbl.replace pinfo.p_pages pg ()
      end)
    old_pages;
  (* A page a member of the group allocated leaves that member's pool.
     Once it belongs to a file the member no longer holds write-mapped,
     its allocation-time grant must go: otherwise the member would
     retain access after the handoff, defeating the exclusive-write
     policy.  A member still mapping it (a commit, crash recovery) keeps
     the grant: an on-demand mapping takes it over, to revoke it with
     the rest, and an eager one's revoke covers the file's pages. *)
  List.iter
    (fun pg ->
      (match owner_of t pg with
      | Allocated_to q -> (
        let qinfo = proc_info t q in
        Hashtbl.remove qinfo.p_pages pg;
        if not (List.mem q f.f_writers) then
          Mmu.revoke_free t.mmu ~actor:q ~pages:[ pg ] ~perm:Mmu.P_readwrite
        else
          match Hashtbl.find_opt qinfo.p_mapped f.f_ino with
          | Some (On_demand d)
            when not (List.exists (fun (pte : Mmu.pte) -> pte.pte_page = pg) d.ptes) ->
            Option.iter (fun pte -> d.ptes <- pte :: d.ptes) (Mmu.pte_of t.mmu ~actor:q ~page:pg)
          | _ -> ())
      | In_file _ | Free -> ());
      set_page_owner t pg (In_file f.f_ino))
    new_pages;
  f.f_index_pages <- report.Verifier.index_pages;
  f.f_data_pages <- report.Verifier.data_pages;
  f.f_dindex_pages <- report.Verifier.dindex_pages;
  (* Children: ingest newly created files, update moved dentries. *)
  List.iter
    (fun (c : Verifier.child) ->
      match ino_owner_of t c.Verifier.c_ino with
      | Ino_allocated_to creator when same_group t proc creator ->
        (* Fresh file: establish the shadow inode with the creator's
           credentials as ground truth. *)
        let cred = cred_of_proc t creator in
        let child_file =
          new_file ~ino:c.Verifier.c_ino ~dentry_addr:c.Verifier.c_dentry_addr ~parent:f.f_ino
            ~ftype:c.Verifier.c_ftype ()
        in
        set_shadow t c.Verifier.c_ino
          {
            Verifier.s_ftype = c.Verifier.c_ftype;
            s_mode = c.Verifier.c_mode land 0o7777;
            s_uid = cred.uid;
            s_gid = cred.gid;
          };
        set_ino_owner t c.Verifier.c_ino (Ino_in_dir f.f_ino);
        Hashtbl.remove (proc_info t creator).p_inos c.Verifier.c_ino;
        set_file t c.Verifier.c_ino child_file;
        (* Recursively verify and ingest the fresh subtree. *)
        let child_report =
          check_file_now ~reads t ~proc ~ino:c.Verifier.c_ino
            ~dentry_addr:c.Verifier.c_dentry_addr
        in
        if child_report.Verifier.ok then ingest_verified t ~reads ~proc ~f:child_file child_report
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
          set_ino_owner t c.Verifier.c_ino (Ino_allocated_to creator)
        end
      | Ino_in_dir parent when parent = f.f_ino -> (
        (* Existing child: its dentry may have moved within the dir. *)
        match file_find t c.Verifier.c_ino with
        | Some cf -> cf.f_dentry_addr <- c.Verifier.c_dentry_addr
        | None -> ())
      | Ino_in_dir _other -> (
        (* Cross-directory move (rename): accept, since the verifier
           only lets this through when the source is write-mapped by
           the same trust group. *)
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
  Ctl_checkpoint.take_checkpoint ~reads t f

(* ------------------------------------------------------------------ *)
(* Verification driver *)

let verify_file t ~proc ~(f : file_info) =
  let reads = open_reads t in
  let report =
    Stats.timed t.stats t.sched "verify" (fun () ->
        check_file_now ~reads t ~proc ~ino:f.f_ino ~dentry_addr:f.f_dentry_addr)
  in
  if report.Verifier.ok then begin
    (* ingestion recursively verifies freshly created children, so its
       time also counts as verification *)
    Stats.timed t.stats t.sched "verify" (fun () -> ingest_verified t ~reads ~proc ~f report);
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
          let retry = check_file_now ~reads t ~proc ~ino:f.f_ino ~dentry_addr:f.f_dentry_addr in
          if retry.Verifier.ok then begin
            ingest_verified t ~reads ~proc ~f retry;
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
   empty and nothing is in flight, so neither branch is taken.  The
   wait accumulates under "settle". *)
let settle t (f : file_info) =
  let rec wait () =
    if f.f_pending <> None then begin
      run_pending t f;
      wait ()
    end
    else if f.f_verifying then begin
      Sched.park (fun waker -> Queue.push waker f.f_waiters);
      wait ()
    end
  in
  Stats.timed t.stats t.sched "settle" wait

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

(* Run a queued verification of [ino], unless the entry is stale: the
   file was already claimed, re-mapped or deleted. *)
let run_queued t ino =
  match file_find t ino with Some f when f.f_pending <> None -> run_pending t f | _ -> ()

(* Drain the whole pipeline: run every queued verification inline and
   wait out every in-flight one.  Used by the read-side accessors that
   must observe final verdicts, and by crash recovery. *)
let drain_verification t =
  let rec drain_queue (sh : shard) =
    match Queue.take_opt sh.sh_verify_q with
    | None -> ()
    | Some ino ->
      run_queued t ino;
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
    run_queued t ino;
    service t sh
  | None ->
    Sched.park (fun waker -> Queue.push waker sh.sh_vq_idle);
    service t sh

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
    let reads = open_reads t in
    let check () =
      Stats.timed t.stats t.sched "verify" (fun () ->
          check_file_now ~reads t ~proc:dead ~ino:f.f_ino ~dentry_addr:f.f_dentry_addr)
    in
    (* Deepest rung: the durable snapshot root.  Restoration itself can
       fail (file absent from the root, payload poisoned — never written
       back blindly), and a restored state must still earn its verdict. *)
    let try_snapshot () =
      match Ctl_snapshot.restore_file t f ~offender:dead with
      | Error _ -> false
      | Ok () ->
        let r = check () in
        if r.Verifier.ok then ingest_verified t ~reads ~proc:dead ~f r;
        r.Verifier.ok
    in
    let report = check () in
    let outcome =
      if report.Verifier.ok then begin
        ingest_verified t ~reads ~proc:dead ~f report;
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
            ingest_verified t ~reads ~proc:dead ~f retry;
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

(* Revoke [proc]'s mapping of [f].  A write mapping is revoked once:
   the revoke claims it before its PTE edits take their time, so a
   second revoker (another waiter at the same lease expiry, or the
   holder's own unmap) finds it gone.  A revoked write mapping leaves
   the process' view current as of now: every store it made landed
   before this mark, and any later one dirties a page past it (see
   [view_current]).  It takes only [proc] out of the claim, whose
   other members hold on; the last member's revoke ends the claim and
   queues its one verification.  A read mapping needs no verification,
   and a second revoke of one only repeats its PTE edits. *)
let revoke_mapping t ~proc ~(f : file_info) ~was_writer =
  let p = proc_info t proc in
  match Hashtbl.find_opt p.p_mapped f.f_ino with
  | None when was_writer -> ()
  | mapping ->
    Hashtbl.remove p.p_mapped f.f_ino;
    let mapping = Option.value mapping ~default:Eager in
    let perm = if was_writer then Mmu.P_readwrite else Mmu.P_read in
    Stats.timed t.stats t.sched "unmap" (fun () ->
        revoke_ptes t ~proc ~f mapping ~perm ~charge:true);
    if was_writer then begin
      Hashtbl.replace p.p_seen f.f_ino (Mmu.write_mark t.mmu);
      f.f_writers <- List.filter (( <> ) proc) f.f_writers;
      (* The pipelining win: the write handoff only queues verification;
         a background fiber picks it up while the LibFS moves on. *)
      if f.f_writers = [] then enqueue_verify t ~proc ~f
    end
    else Hashtbl.remove f.f_readers proc;
    wake_all f

(* The op body, shared by the synchronous syscall below and the ring
   drain plane (which pays the kernel-crossing cost once per batch). *)
let unmap_file_body t ~proc ~ino =
  match file_find t ino with
  | None -> Error ENOENT
  | Some f ->
    if List.mem proc f.f_writers then begin
      revoke_mapping t ~proc ~f ~was_writer:true;
      Ok ()
    end
    else if Hashtbl.mem f.f_readers proc then begin
      revoke_mapping t ~proc ~f ~was_writer:false;
      Ok ()
    end
    else Error EBADF

(* Release path: charged but never delayed — stalling a throttled
   tenant's unmap would block honest waiters on the lease it holds. *)
let unmap_file t ~proc ~ino = syscall t proc ~admit:false (fun () -> unmap_file_body t ~proc ~ino)

(* Force-unmap the current holder(s) after lease expiry; charged to the
   fiber that requests the conflicting access — including the
   verification of the revoked writer's state, which is settled inline
   rather than left to the background fibers (the waiter needs the
   verdict before it can be granted anything).

   Every waiter parked on an expiring lease wakes here at once.  The
   first to reach each member of the claim revokes it, once; a member
   whose mapping is already claimed has its revoke in flight in
   another fiber, which wakes the waiters when it ends (DESIGN.md
   §4.5, "The takeover").  The last member's revoke queues the claim's
   verification.
   Readers are revoked by every waiter that finds them, as before.
   The revoke and the verification serve every waiter of the expired
   lease, so they buy the one that ran them no head start: when others
   parked on its revoke, it yields once the verdict is in, and the
   waiters the verification woke take the file in wake order. *)
let force_unmap_holders t ~(f : file_info) ~for_writer =
  let claimed proc = not (Hashtbl.mem (proc_info t proc).p_mapped f.f_ino) in
  let holders = List.filter (fun w -> not (claimed w)) f.f_writers in
  let revoker = holders <> [] in
  if revoker then f.f_contended <- false;
  List.iter (fun holder -> revoke_mapping t ~proc:holder ~f ~was_writer:true) holders;
  settle t f;
  if revoker && f.f_contended then Sched.yield ();
  if for_writer then
    Hashtbl.iter
      (fun r () -> revoke_mapping t ~proc:r ~f ~was_writer:false)
      (Hashtbl.copy f.f_readers);
  (* checked and parked on with no yield between, so no wake is lost *)
  if List.exists claimed f.f_writers then begin
    f.f_contended <- true;
    Sched.park (fun waker -> Queue.push waker f.f_waiters)
  end

(* A write claim held by another trust group. *)
let writer_conflict t ~proc ~(f : file_info) =
  match f.f_writers with w :: _ -> not (same_group t w proc) | [] -> false

(* A writer additionally conflicts with readers of other trust groups. *)
let conflicts t ~proc ~(f : file_info) ~write =
  writer_conflict t ~proc ~f
  || (write && Hashtbl.fold (fun r () acc -> acc || not (same_group t proc r)) f.f_readers false)

let rec wait_for_access t ~proc ~(f : file_info) ~write =
  if conflicts t ~proc ~f ~write then begin
    (* Readers are revoked immediately for a writer: a read mapping
       needs no verification on teardown, and the reader transparently
       re-maps on its next access.  Leases only protect writers, whose
       handoff requires verification. *)
    if write && not (writer_conflict t ~proc ~f) then force_unmap_holders t ~f ~for_writer:true
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

(* The map reply's answer (DESIGN.md §4.5): is every index-chain, data
   and B-link page of [f]'s walked set unchanged since the mark at which
   [proc]'s view of it was current?  The write-set already sees every
   store (other processes', ingestion repairs, rollbacks, scrub writes,
   page discards, poison), and an overflow fails old marks.  The
   dentry's page is left out: siblings' size updates dirty it, so the
   LibFS compares its own dentry instead.  The answer only decides
   whether a LibFS re-reads its own state; nothing here trusts it. *)
let view_current t ~proc (f : file_info) =
  match Hashtbl.find_opt (proc_info t proc).p_seen f.f_ino with
  | None -> false
  | Some mark ->
    let clean page = Mmu.clean_since t.mmu ~mark ~page in
    List.for_all clean f.f_index_pages
    && List.for_all clean f.f_data_pages
    && List.for_all clean f.f_dindex_pages

(* May [proc]'s write map of [f] make each PTE on first touch instead
   of all of them now (DESIGN.md §4.5)?  A steady-state handoff stores
   to 3 pages of its directory, while a file write touches most of its
   file, and a fault (a kernel entry and a PTE edit) costs more than an
   eager PTE: so directories only.  A view the LibFS will rebuild reads
   every page, so only one the reply vouches for; and an upgrade keeps
   its eager grant. *)
let on_demand ~(f : file_info) ~current ~upgrade = f.f_ftype = Dir && current && not upgrade

(* Resolve a first touch of a faultable page: one kernel entry and one
   PTE edit, timed under "map", then one read-write PTE that the
   mapping records.  Only for a page the controller attributes to the
   mapped directory (its dentry's page, or a page of its own) while the
   process still holds the mapping, checked again after the fault's
   delay: a force-unmap, a free or a reattribution in the meantime
   refuses it, and the access faults. *)
let resolve_fault t ~actor:proc ~page ~write:_ =
  let demand () =
    match Hashtbl.find_opt t.procs proc with
    | None -> None
    | Some p ->
      let of_ino ino =
        match (file_find t ino, Hashtbl.find_opt p.p_mapped ino) with
        | Some f, Some (On_demand d)
          when List.mem proc f.f_writers
               && (page = f.f_dentry_addr / page_size || owner_of t page = In_file ino) ->
          Some d
        | _ -> None
      in
      List.find_map of_ino (Option.value (Hashtbl.find_opt p.p_faultable page) ~default:[])
  in
  match demand () with
  | None -> false
  | Some _ -> (
    Sched.shield (fun () ->
        Stats.timed t.stats t.sched "map" (fun () ->
            Sched.delay (Perf.Cpu.syscall +. Perf.Cpu.page_table_op)));
    match demand () with
    | None -> false
    | Some d ->
      (* a sibling fiber's fault may have made it during the delay *)
      if not (Mmu.permits t.mmu ~actor:proc ~page ~write:true) then
        d.ptes <- Mmu.make_pte t.mmu ~actor:proc ~page :: d.ptes;
      true)

let map_file_body t ~proc ~ino ~write =
  match find_file t ino with
  | None -> Error ENOENT
  | Some f -> (
    (* Permission/health checks against pre-settle state run before any
       verification or checkpoint work: a mapping that is going to fail
       with EACCES must trigger neither. *)
    match gate_checks t ~proc ~f ~write with
    | Error e -> Error e
    | Ok () when List.mem proc f.f_writers || ((not write) && Hashtbl.mem f.f_readers proc) ->
      (* Idempotent re-map: the process already holds a sufficient
         mapping, so there is nothing to hand off, verify, walk or
         grant — renew the lease and return.  The synchronous path
         rarely hits this (a LibFS tracks its mappings and does not
         re-map); it is load-bearing for the ring drain plane, where a
         fused unmap+remap leaves the original mapping standing and
         every later re-map is exactly this renewal.  The mapping never
         went away, so the view it was read under still holds. *)
      f.f_lease_expire <- Sched.now t.sched +. t.lease_ns;
      Ok true
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
          let upgrade = write && Hashtbl.mem f.f_readers proc in
          let p = proc_info t proc in
          (* A member of this process' trust group holds [f] writable
             ([acquire] let no other group's claim stand): this map
             joins the group's claim, which keeps the page set walked
             and the checkpoint taken when it began, and the view it
             hands over is the group's own, current. *)
          let joining = f.f_writers <> [] in
          (* recorded at the claim, so a revoke always finds what to undo *)
          Hashtbl.replace p.p_mapped ino Eager;
          if write then begin
            f.f_writers <- proc :: f.f_writers;
            (* read-to-write upgrade: the earlier read grants must go,
               or revoking the write mapping later would leave access *)
            if upgrade then begin
              Hashtbl.remove f.f_readers proc;
              Mmu.revoke_free t.mmu ~actor:proc ~pages:(file_pages f) ~perm:Mmu.P_read
            end
          end
          else Hashtbl.replace f.f_readers proc ();
          f.f_lease_expire <- Sched.now t.sched +. t.lease_ns;
          if not joining then begin
            (* Walk the file to find the page set: a settled file's
               clean pages come from its checkpoint, under the rule
               incremental verification follows (the device in [Full]
               mode). *)
            Stats.timed t.stats t.sched "map.walk" (fun () ->
                match
                  walk_file ?fetch:(Ctl_checkpoint.delta_of t) t ~ino ~dentry_addr:f.f_dentry_addr
                with
                | Some (_, index_pages, data_pages, dindex_pages) ->
                  f.f_index_pages <- index_pages;
                  f.f_data_pages <- data_pages;
                  f.f_dindex_pages <- dindex_pages
                | None -> ());
            if write then
              Stats.timed t.stats t.sched "map.checkpoint" (fun () ->
                  Ctl_checkpoint.take_checkpoint t f)
          end;
          (* Answered after the settle, so the handback's own
             verification and ingestion have landed, and before the
             grant, which it shapes. *)
          let current = joining || view_current t ~proc f in
          let pages = file_pages f in
          let mapping =
            if write && on_demand ~f ~current ~upgrade then begin
              add_faultable p ~ino pages;
              On_demand { faultable = pages; ptes = [] }
            end
            else begin
              Stats.timed t.stats t.sched "map" (fun () ->
                  Mmu.grant t.mmu ~actor:proc ~pages
                    ~perm:(if write then Mmu.P_readwrite else Mmu.P_read));
              Eager
            end
          in
          f.f_lease_expire <- Sched.now t.sched +. t.lease_ns;
          (* unless a takeover revoked it while the grant took its time *)
          if Hashtbl.mem p.p_mapped ino then Hashtbl.replace p.p_mapped ino mapping;
          (* A read grant makes the view current now; a writer's is
             dropped, since it will write, and taken again when its
             mapping goes. *)
          if write then Hashtbl.remove p.p_seen ino
          else Hashtbl.replace p.p_seen ino (Mmu.write_mark t.mmu);
          Ok current
          end)))

let map_file t ~proc ~ino ~write =
  syscall t proc ~admit:true (fun () -> map_file_body t ~proc ~ino ~write)

(* Start the controller's kernel side: the MMU's fault handler, and
   each shard's verifier fibers, pinned to CPUs of the matching NUMA
   node so their device reads charge that socket's bandwidth domain. *)
let start t =
  Mmu.set_fault_handler t.mmu (resolve_fault t);
  Array.iter
    (fun (sh : shard) ->
      for i = 0 to verifier_fiber_count - 1 do
        let cpu = Numa.cpu_of_node_local t.topo ~node:sh.sh_id ~local:i in
        Sched.spawn ~cpu t.sched (fun () -> service t sh)
      done)
    t.shards

(* Commit: re-verify now and, on success, replace the checkpoint so a
   later rollback cannot lose the committed changes (§4.3).  Stays
   synchronous — the caller asked for the verdict. *)
let commit t ~proc ~ino =
  syscall t proc ~admit:true @@ fun () ->
  match file_find t ino with
  | None -> Error ENOENT
  | Some f ->
    if not (List.mem proc f.f_writers) then Error EBADF
    else begin
      let reads = open_reads t in
      let report =
        Stats.timed t.stats t.sched "verify" (fun () ->
            check_file_now ~reads t ~proc ~ino ~dentry_addr:f.f_dentry_addr)
      in
      if report.Verifier.ok then begin
        (* ingestion ends with the fresh checkpoint *)
        ingest_verified t ~reads ~proc ~f report;
        reclaim_deferred t;
        Ok ()
      end
      else Error EIO
    end

(* Release everything a process has mapped (process teardown). *)
let unmap_all t ~proc =
  let p = proc_info t proc in
  let inos = Hashtbl.fold (fun ino _ acc -> ino :: acc) p.p_mapped [] in
  List.iter (fun ino -> ignore (unmap_file t ~proc ~ino)) inos

(* ------------------------------------------------------------------ *)
(* Namespace / permission operations *)

(* Permission changes go through the kernel: the shadow inode is the
   ground truth (I4). *)
let chmod t ~proc ~ino ~mode =
  syscall t proc ~admit:true @@ fun () ->
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
  syscall t proc ~admit:true @@ fun () ->
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
      if List.mem proc f.f_writers then (ino, f.f_dentry_addr, f.f_ftype) :: acc else acc)
    []

(* A file created moments ago may still be riding the pipeline inside
   its parent's queued verification: [find_file] lets it land. *)
let dentry_addr_of t ino = Option.map (fun (f : file_info) -> f.f_dentry_addr) (find_file t ino)

(* After a crash: any verification still in the pipeline runs against
   the post-crash state first, then every LibFS-registered recovery
   program runs (undo journals etc.), then every file that was
   write-mapped at crash time is verified once, for its claim, and
   every member of the claim is revoked (§4.4). *)
let crash_recover t =
  drain_verification t;
  Hashtbl.iter
    (fun _ p -> match p.p_recovery with Some recovery -> recovery () | None -> ())
    t.procs;
  iter_files_snapshot t (fun _ (f : file_info) ->
      match f.f_writers with
      | proc :: _ ->
        ignore (verify_file t ~proc ~f);
        List.iter
          (fun w ->
            let p = proc_info t w in
            let mapping = Option.value (Hashtbl.find_opt p.p_mapped f.f_ino) ~default:Eager in
            Hashtbl.remove p.p_mapped f.f_ino;
            revoke_ptes t ~proc:w ~f mapping ~perm:Mmu.P_readwrite ~charge:false)
          f.f_writers;
        f.f_writers <- [];
        wake_all f
      | [] -> ());
  reclaim_deferred t

(* ------------------------------------------------------------------ *)
(* The ring drain plane (DESIGN.md §4.15).

   Each registered ring gets one drain fiber, pinned to a CPU of socket
   [proc mod sockets], and that fiber drains that ring alone: it takes
   batches while the SQ holds entries and parks on the ring when it is
   empty, until the producer's doorbell wakes it.  One consumer keeps
   the ring FIFO, so a producer's unmap-then-remap of the same
   directory executes in program order, and a fiber stuck behind a
   lease wait stalls only its own ring.

   The batch is the unit of cost: one kernel crossing and one heartbeat
   cover up to [ring_batch_limit] operations, which is the protocol's
   entire point. *)

let ring_batch_limit = 64

let run_ring_op t ~proc = function
  | Ctl_ring.Op_map { ino; write } -> map_file_body t ~proc ~ino ~write
  | Ctl_ring.Op_unmap { ino } -> Result.map (fun () -> false) (unmap_file_body t ~proc ~ino)
  | Ctl_ring.Op_lease -> Ok false (* the batch's touch below is the point *)

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
   a re-map follows.  The re-map answers that the process' view holds:
   its mapping never went away. *)
let try_fuse_remap t ~proc ~ino ~write =
  match file_find t ino with
  | Some f
    when Queue.is_empty f.f_waiters
         && f.f_unverified = None
         && f.f_degraded = Healthy
         && f.f_quarantined_for = None
         && (List.mem proc f.f_writers (* a write grant satisfies either mode *)
            || ((not write) && Hashtbl.mem f.f_readers proc))
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

(* Called only while the ring has entries, so the batch is never empty. *)
let drain_one_ring t ring =
  let proc = Ctl_ring.proc ring in
  let batch = Ctl_ring.take_batch ring ~max:ring_batch_limit in
  let n = List.length batch in
  (match t.ring_hook with
  | Some hook -> hook ~shard:(proc mod shard_count t) ~batch:n ~depth:(Ctl_ring.depth ring)
  | None -> ());
  let arr, partner, deferred = plan_fusion batch in
  Sched.shield (fun () ->
      Sched.cpu_work Perf.Cpu.syscall;
      touch t proc;
      (* Ring slots are charged at batch granularity when drained —
         never delayed here: every entry was already admitted at the
         ring mouth, and the debt this charge leaves gates the
         debtor's next submit there.  Delaying the drain as well
         would make the tenant wait out one debt twice. *)
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
              Ctl_ring.note_fused ring;
              Ctl_ring.post ring ~seq:useq (Ok false);
              Ctl_ring.post ring ~seq (Ok true)
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

(* Body of a ring's drain fiber: drain while the ring has entries, park
   on it when it is empty (or while the plane is paused). *)
let rec ring_service t ring =
  if (not t.ring_paused) && Ctl_ring.depth ring > 0 then drain_one_ring t ring
  else Ctl_ring.park_drainer ring;
  ring_service t ring

let ring_setup t ~proc ~depth =
  if Hashtbl.mem t.rings proc then invalid_arg "Controller.ring_setup: ring exists";
  let ring = Ctl_ring.create ~proc ~capacity:depth in
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
  (* Rings are never removed: counting the socket's rings gives this
     fiber the socket's next CPU. *)
  let node = proc mod shard_count t in
  let on_node p _ n = if p mod shard_count t = node then n + 1 else n in
  let cpu = Numa.cpu_of_node_local t.topo ~node ~local:(Hashtbl.fold on_node t.rings 0) in
  Hashtbl.replace t.rings proc ring;
  Sched.spawn ~cpu t.sched (fun () -> ring_service t ring);
  ring

(* Test hook: paused drain fibers park instead of consuming — the
   staging ground for the dead-consumer/full-ring failure scenario. *)
let set_ring_paused t b =
  t.ring_paused <- b;
  if not b then Hashtbl.iter (fun _ ring -> Ctl_ring.wake_drainer ring) t.rings
