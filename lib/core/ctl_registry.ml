(* Process registry and the process-failure plane: heartbeats, watchdog,
   abnormal teardown, orphan-page GC.

   A LibFS that dies or wedges mid-operation never unmaps cleanly: its
   write-mapped files hold torn intermediate state and its allocation
   cache holds pages nobody will ever link.  The watchdog notices the
   silence (no syscalls = no heartbeats), waits out any running write
   lease, then escalates: force-revoke every mapping, mark each file the
   process could write as unverified (the map_file gate verifies before
   the next grant), and tear the address space down.  Orphaned pages are
   reclaimed by {!gc_once}. *)

module Pmem = Trio_nvm.Pmem
module Perf = Trio_nvm.Perf
module Sched = Trio_sim.Sched
module Extent_alloc = Trio_util.Extent_alloc
open Ctl_state

(* A live member of trust group [group] other than [proc], if any. *)
let live_member t ~group ~proc =
  Seq.find_map
    (fun (id, (p : proc_info)) ->
      if id <> proc && p.p_group = group && not p.p_dead then Some id else None)
    (Hashtbl.to_seq t.procs)

let register_process t ~proc ~cred ?group ?qos_share ?fix ?recovery () =
  if proc = Pmem.kernel_actor then invalid_arg "Controller.register_process: reserved id";
  if Hashtbl.mem t.procs proc then invalid_arg "Controller.register_process: already registered";
  let info =
    {
      p_id = proc;
      p_cred = cred;
      p_group = Option.value group ~default:proc;
      p_fix = fix;
      p_recovery = recovery;
      p_pages = Hashtbl.create 64;
      p_inos = Hashtbl.create 64;
      p_mapped = Hashtbl.create 16;
      p_faultable = Hashtbl.create 16;
      p_seen = Hashtbl.create 16;
      p_last_heartbeat = Sched.now t.sched;
      p_dead = false;
    }
  in
  (* A process joining a trust group with a live member shares its page
     table (DESIGN.md §4.5, "Trust groups"). *)
  Option.iter
    (fun member -> Mmu.share_table t.mmu ~actor:proc ~member)
    (live_member t ~group:info.p_group ~proc);
  Hashtbl.replace t.procs proc info;
  (* Configuring a share turns QoS enforcement on for this process'
     whole trust group; without it the group is charged (observability)
     but never throttled. *)
  (match qos_share with
  | Some share ->
    Ctl_qos.set_share (Ctl_state.qos t) ~group:info.p_group ~now:(Sched.now t.sched) share
  | None -> ());
  (* Every process can read the superblock and the root dentry page. *)
  Mmu.grant_free t.mmu ~actor:proc ~pages:[ 0; Layout.root_dentry_page ] ~perm:Mmu.P_read

let process_dead t ~proc =
  match Hashtbl.find_opt t.procs proc with Some p -> p.p_dead | None -> false

(* Release the inode numbers a dead process still holds.  Its cached
   *pages* are deliberately left attributed (Allocated_to) for the
   orphan GC: routing all page reclamation through {!gc_once} keeps it
   observable in the accounting invariant, which is how the skip-GC
   mutation stays provably catchable.  Effect-free. *)
let reap_dead t proc =
  match Hashtbl.find_opt t.procs proc with
  | Some p when p.p_dead ->
    let inos = Hashtbl.fold (fun ino () acc -> ino :: acc) p.p_inos [] in
    List.iter
      (fun ino ->
        clear_ino_owner t ino;
        Hashtbl.remove p.p_inos ino)
      inos;
    List.length inos
  | _ -> 0

type watchdog_report = {
  mutable wd_scanned : int; (* live processes examined *)
  mutable wd_escalated : int list; (* processes abnormally torn down *)
  mutable wd_unverified : int; (* files marked for the verifier gate *)
  mutable wd_revoked : int; (* mappings force-revoked *)
}

let make_watchdog_report () =
  { wd_scanned = 0; wd_escalated = []; wd_unverified = 0; wd_revoked = 0 }

(* A dead member's pools pass to [heir], a live member of its group:
   the group's directories may link what it drew. *)
let bequeath t (p : proc_info) ~heir =
  let h = proc_info t heir in
  Hashtbl.iter
    (fun pg () ->
      set_page_owner t pg (Allocated_to heir);
      Hashtbl.replace h.p_pages pg ())
    p.p_pages;
  Hashtbl.iter
    (fun ino () ->
      set_ino_owner t ino (Ino_allocated_to heir);
      Hashtbl.replace h.p_inos ino ())
    p.p_inos;
  Hashtbl.reset p.p_pages;
  Hashtbl.reset p.p_inos

(* The ladder's last rung.  Unlike unmap_file this never verifies
   inline: the process is gone, so the kernel neither trusts nor runs
   its callbacks — files are only marked unverified and verification is
   charged to whoever maps them next; a claim other members of its
   trust group still hold goes on.  MMU teardown is wholesale, but a
   member whose peers live loses only its own mappings' grants, and its
   pools pass to a live member. *)
let abnormal_teardown ?report t ~proc =
  let p = proc_info t proc in
  if not p.p_dead then begin
    let heir = live_member t ~group:p.p_group ~proc in
    let bump g = match report with Some r -> g r | None -> () in
    (* Close the ring first: unconsumed submissions and unreaped
       completions drop, parked producer fibers wake with EIO, and any
       batch a drain fiber already took completes as no-ops.  The ring
       holds no pages — the mappings its executed ops created are
       revoked right below, the rest never existed — so the accounting
       invariant owes it nothing. *)
    (match ring_find t proc with Some r -> Ctl_ring.close r | None -> ());
    Hashtbl.iter
      (fun ino mapping ->
        match file_find t ino with
        | None -> ()
        | Some f ->
          bump (fun r -> r.wd_revoked <- r.wd_revoked + 1);
          let writer = List.mem proc f.f_writers in
          if writer then begin
            f.f_writers <- List.filter (( <> ) proc) f.f_writers;
            if f.f_writers = [] then begin
              mark_unverified t f proc;
              bump (fun r -> r.wd_unverified <- r.wd_unverified + 1)
            end
          end
          else Hashtbl.remove f.f_readers proc;
          if Option.is_some heir then
            revoke_ptes t ~proc ~f mapping
              ~perm:(if writer then Mmu.P_readwrite else Mmu.P_read)
              ~charge:false;
          wake_all f)
      (Hashtbl.copy p.p_mapped);
    (* A verification the dead process queued but no verifier fiber
       claimed yet cannot run its fix callback any more: demote it to
       the unverified gate (the stale queue entry is skipped when a
       fiber finds f_pending cleared). *)
    iter_files t (fun _ f ->
        if f.f_pending = Some proc then begin
          f.f_pending <- None;
          t.pending_verifications <- t.pending_verifications - 1;
          mark_unverified t f proc;
          bump (fun r -> r.wd_unverified <- r.wd_unverified + 1)
        end);
    Option.iter (fun heir -> bequeath t p ~heir) heir;
    Hashtbl.reset p.p_mapped;
    Hashtbl.reset p.p_faultable;
    Hashtbl.reset p.p_seen;
    p.p_fix <- None;
    p.p_recovery <- None;
    p.p_dead <- true;
    Mmu.revoke_actor t.mmu ~actor:proc;
    bump (fun r -> r.wd_escalated <- proc :: r.wd_escalated)
  end

(* One watchdog scan.  A process is escalated when it has been silent
   longer than [timeout_ns] while still holding resources — except that
   a silent writer whose lease is still running gets the benefit of the
   doubt until the lease expires (rung 1 of the ladder: lease-expiry
   force-revoke, same policy as force_unmap_holders). *)
let watchdog_once ?report t ~timeout_ns =
  let now = Sched.now t.sched in
  let escalated = ref [] in
  Hashtbl.iter
    (fun proc (p : proc_info) ->
      if not p.p_dead then begin
        (match report with Some r -> r.wd_scanned <- r.wd_scanned + 1 | None -> ());
        let stale = now -. p.p_last_heartbeat > timeout_ns in
        let holds =
          Hashtbl.length p.p_mapped > 0
          || Hashtbl.length p.p_pages > 0
          || Hashtbl.length p.p_inos > 0
          (* Ring entries nobody will ever drain (dead consumer, or a
             producer that died mid-protocol) also pin kernel-side
             work: escalation is what closes the ring and reaps them. *)
          || (match ring_find t proc with
             | Some r -> Ctl_ring.outstanding r > 0
             | None -> false)
        in
        let lease_running =
          Hashtbl.fold
            (fun ino _ acc ->
              acc
              ||
              match file_find t ino with
              | Some f -> List.mem proc f.f_writers && now < f.f_lease_expire
              | None -> false)
            p.p_mapped false
        in
        if stale && holds && not lease_running then begin
          abnormal_teardown ?report t ~proc;
          escalated := proc :: !escalated
        end
      end)
    (Hashtbl.copy t.procs);
  List.rev !escalated

(* ------------------------------------------------------------------ *)
(* Orphan-page GC and the page-accounting invariant.

   Mark: a file is reachable when its parent chain ends at the root and
   the shadow inode table (ground truth) still knows it.  Sweep: every
   device page is either free (per the extent allocators), attributed to
   a reachable file, cached by a live process (allocation caches,
   journals), or a retired badblock — anything else is an orphan left by
   a dead process and is reclaimed.  With the snapshot plane's pinned
   payload pages as their own term, the invariant, summed over every
   node, is
       free + snap_pinned + reachable + cached + badblocks = device pages
   computed from scratch each run and exposed in the report.

   Ordering against the verifier gate: while a dead process still has
   files awaiting gate verification, pages it holds may in fact be
   linked — a freshly created file lives in Allocated_to pages until its
   first verification attributes them In_file.  The GC therefore defers
   (counts as cached) a dead process' pages until its unverified set
   drains — via the next map_file or drain_unverified — and only then
   treats the leftovers as orphans. *)

type gc_report = {
  gc_total : int; (* device pages *)
  gc_free : int; (* per the node extent allocators *)
  gc_snap_pinned : int; (* payload chain of the durable snapshot root *)
  gc_reachable : int; (* In_file pages of root-reachable files *)
  gc_cached : int; (* Allocated_to a live process *)
  gc_badblocks : int; (* retired by the scrubber *)
  gc_reclaimed_pages : int; (* orphans swept this run *)
  gc_reclaimed_inos : int;
  gc_leaked : int; (* orphans still present after the sweep *)
  gc_invariant_ok : bool;
      (* free + snap_pinned + reachable + cached + badblocks = total,
         summed over every node *)
}

let pp_gc_report ppf r =
  Format.fprintf ppf
    "total %d = free %d + snap_pinned %d + reachable %d + cached %d + badblocks %d%s; reclaimed \
     %d page(s) %d ino(s), leaked %d [%s]"
    r.gc_total r.gc_free r.gc_snap_pinned r.gc_reachable r.gc_cached r.gc_badblocks
    (if r.gc_invariant_ok then "" else " (MISMATCH)")
    r.gc_reclaimed_pages r.gc_reclaimed_inos r.gc_leaked
    (if r.gc_invariant_ok && r.gc_leaked = 0 then "ok" else "LEAK")

let reachable_files t =
  let memo = Hashtbl.create (max 16 (file_table_size t)) in
  let rec reach ino seen =
    match Hashtbl.find_opt memo ino with
    | Some v -> v
    | None ->
      let v =
        if ino = Layout.root_ino then shadow_mem t ino
        else if List.mem ino seen then false
        else
          shadow_mem t ino
          &&
          match file_find t ino with
          | None -> false
          | Some f -> reach f.f_parent (ino :: seen)
      in
      Hashtbl.replace memo ino v;
      v
  in
  iter_files t (fun ino _ -> ignore (reach ino []));
  memo

(* Effect-free (no virtual-time cost, kernel-only reads of soft state)
   so tests can also run it after the simulation drains. *)
let gc_once t =
  let reach = reachable_files t in
  let live proc =
    match Hashtbl.find_opt t.procs proc with Some p -> not p.p_dead | None -> false
  in
  (* Dead processes with files still awaiting the verifier gate — or a
     queued background verification — keep their pages deferred, not
     orphaned (see the section comment). *)
  let pending = Hashtbl.create 8 in
  iter_files t (fun _ f ->
      (match f.f_unverified with Some p -> Hashtbl.replace pending p () | None -> ());
      match f.f_pending with Some p -> Hashtbl.replace pending p () | None -> ());
  let total = Pmem.total_pages t.pmem in
  let reachable = ref 0 and cached = ref 0 in
  let orphans = ref [] in
  for pg = 0 to total - 1 do
    match owner_of t pg with
    | Free -> ()
    | In_file ino ->
      if Option.value (Hashtbl.find_opt reach ino) ~default:false then incr reachable
      else orphans := pg :: !orphans
    | Allocated_to p ->
      if live p || Hashtbl.mem pending p then incr cached else orphans := pg :: !orphans
  done;
  let reclaimed_pages = ref 0 and leaked = ref 0 in
  (* [Mutation.Skip_gc]: a GC that never reclaims must be provably caught
     by the report. *)
  let skip = Mutation.active Skip_gc in
  if skip then leaked := List.length !orphans
  else begin
    List.iter
      (fun pg ->
        (match owner_of t pg with
        | Allocated_to p -> (
          match Hashtbl.find_opt t.procs p with
          | Some pi -> Hashtbl.remove pi.p_pages pg
          | None -> ())
        | _ -> ());
        Ctl_alloc.release_page t pg;
        incr reclaimed_pages)
      !orphans;
    Mmu.revoke_everyone_on_pages t.mmu ~pages:!orphans
  end;
  (* Orphan inode numbers: allocated to a process that no longer exists
     (or is dead) and never linked into a directory. *)
  let reclaimed_inos = ref 0 in
  if not skip then
    fold_ino_owner t
      (fun ino owner () ->
        match owner with
        | Ino_allocated_to p when (not (live p)) && not (Hashtbl.mem pending p) ->
          clear_ino_owner t ino;
          (match Hashtbl.find_opt t.procs p with
          | Some pi -> Hashtbl.remove pi.p_inos ino
          | None -> ());
          incr reclaimed_inos
        | _ -> ())
      ();
  let free = Array.fold_left (fun acc a -> acc + Extent_alloc.free_units a) 0 t.node_allocs in
  let snap_pinned = snap_pinned_count t in
  let badblocks = List.length t.badblocks in
  {
    gc_total = total;
    gc_free = free;
    gc_snap_pinned = snap_pinned;
    gc_reachable = !reachable;
    gc_cached = !cached;
    gc_badblocks = badblocks;
    gc_reclaimed_pages = !reclaimed_pages;
    gc_reclaimed_inos = !reclaimed_inos;
    gc_leaked = !leaked;
    gc_invariant_ok = free + snap_pinned + !reachable + !cached + badblocks = total;
  }
