(* Resource allocation: batched page/inode allocation, free, recycle.

   These are the controller's "give the LibFS raw material" syscalls —
   everything here manipulates the per-node free pages, the ownership
   maps and the MMU, but never the verification plane.

   Free pages live in one extent allocator per NUMA node (DESIGN.md
   §4.14): a draw takes its pages from the requested node, and only
   when that node cannot cover the whole draw does it spill to the
   other nodes.  A freed page goes straight back to its node's
   allocator.  Batching is the LibFS's job, in its allocation cache. *)

module Pmem = Trio_nvm.Pmem
module Extent_alloc = Trio_util.Extent_alloc
open Fs_types
open Ctl_state

(* Take [count] pages near [node]: all from [node] if it has them,
   else all from the first other node that does, round-robin. *)
let take_pages t ~node ~count =
  let n_nodes = Array.length t.node_allocs in
  let rec spill i =
    if i >= n_nodes then None
    else
      match take_free t ~node:((node + i) mod n_nodes) ~count with
      | Some pages -> Some pages
      | None -> spill (i + 1)
  in
  spill 0

(* Hand [count] pages near [node] to [proc]: take them, record the
   owner, grant the mapping.  The body of [alloc_pages], which the
   quarantine copy also calls without entering as the offender. *)
let grant_pages t ~proc ~node ~count ~kind =
  let p = proc_info t proc in
  match take_pages t ~node ~count with
  | None -> Error ENOSPC
  | Some pages ->
    List.iter
      (fun pg ->
        set_page_owner t pg (Allocated_to proc);
        Hashtbl.replace p.p_pages pg ();
        Pmem.set_kind t.pmem pg kind)
      pages;
    Mmu.grant_extent t.mmu ~actor:proc ~pages ~perm:Mmu.P_readwrite;
    Ok pages

(* The drawing tenant pays one [Page_draw] per page drawn, before
   admission. *)
let alloc_pages t ~proc ~node ~count ~kind =
  syscall t proc ~admit:false @@ fun () ->
  qos_charge t proc ~n:count Ctl_qos.Page_draw;
  qos_admit t proc;
  grant_pages t ~proc ~node ~count ~kind

(* Free a page back to its node, dropping ownership.  A page pinned by
   the snapshot plane never reaches here through a sound path (pinned
   pages are owned by no file and no process), but the guard makes
   reuse structurally impossible: the current durable root must stay
   readable until the next root supersedes it. *)
let release_page t pg =
  if not (snap_pinned_mem t pg) then begin
    unfaultable t pg;
    clear_page_owner t pg;
    Pmem.discard_page t.pmem pg;
    put_free t pg
  end

(* ------------------------------------------------------------------ *)
(* Snapshot payload pages (DESIGN.md §4.16).

   Taken from the free pages like any allocation, but owned by the
   snapshot plane: the page-owner entry stays [Free] (the GC sweep skips
   them by construction) and the page is tracked in [t.snap_pinned],
   which is its own term of the accounting invariant:

       free + snap_pinned + reachable + cached + badblocks = device pages *)

let alloc_snapshot_pages t ~count =
  match take_pages t ~node:0 ~count with
  | None -> None
  | Some pages ->
    List.iter (fun pg -> Hashtbl.replace t.snap_pinned pg ()) pages;
    Some pages

(* Unpin the payload chain of a superseded root and return its pages to
   their nodes. *)
let release_snapshot_pages t pages =
  List.iter
    (fun pg ->
      if snap_pinned_mem t pg then begin
        Hashtbl.remove t.snap_pinned pg;
        Pmem.discard_page t.pmem pg;
        put_free t pg
      end)
    pages

(* Claim a specific (currently free) page for the snapshot plane while
   rebuilding state from NVM — the mount-time dual of
   [alloc_snapshot_pages].  False when the page is already spoken for,
   which fails the root candidate. *)
let pin_snapshot_page t pg =
  if pg <= Layout.root_dentry_page || pg >= Pmem.total_pages t.pmem then false
  else if owner_of t pg <> Free || snap_pinned_mem t pg then false
  else
    match Extent_alloc.alloc_at t.node_allocs.(node_of_page t pg) pg 1 with
    | () ->
      Hashtbl.replace t.snap_pinned pg ();
      true
    | exception Extent_alloc.Out_of_space -> false

(* Release path: charged, never delayed (see Ctl_state.qos_admit). *)
let free_pages t ~proc ~pages =
  syscall t proc ~admit:false @@ fun () ->
  let p = proc_info t proc in
  let check pg =
    match owner_of t pg with
    | Allocated_to q when q = proc -> Ok ()
    | In_file ino -> (
      match file_find t ino with
      | Some f when List.mem proc f.f_writers ->
        (* Freeing a directory data page requires it to be empty. *)
        if f.f_ftype = Dir && List.mem pg f.f_data_pages && not (dir_page_is_empty t pg) then
          Error EACCES
        else Ok ()
      | _ -> Error EACCES)
    | Allocated_to _ | Free -> Error EACCES
  in
  let rec validate = function
    | [] -> Ok ()
    | pg :: rest -> ( match check pg with Ok () -> validate rest | Error e -> Error e)
  in
  match validate pages with
  | Error e -> Error e
  | Ok () ->
    List.iter
      (fun pg ->
        (match owner_of t pg with
        | In_file ino -> (
          match file_find t ino with
          | Some f ->
            f.f_index_pages <- List.filter (fun q -> q <> pg) f.f_index_pages;
            f.f_data_pages <- List.filter (fun q -> q <> pg) f.f_data_pages;
            f.f_dindex_pages <- List.filter (fun q -> q <> pg) f.f_dindex_pages
          | None -> ())
        | _ -> ());
        Hashtbl.remove p.p_pages pg;
        release_page t pg)
      pages;
    Mmu.revoke_everyone_charged t.mmu ~pages;
    Ok ()

(* Return pages of a write-mapped file, or pages the process already
   holds, to the calling process' allocation pool *without* touching
   the MMU: the LibFS keeps its existing access and reuses the pages
   directly (the fast truncate / unlink path; the ownership change is
   what keeps check I2 sound).  Each page comes back zeroed with its
   kind kept, as [release_page] would leave it: a fresh page reads as
   zero wherever it came from. *)
let recycle_pages t ~proc ~pages =
  syscall t proc ~admit:false @@ fun () ->
  let p = proc_info t proc in
  let check pg =
    match owner_of t pg with
    | Allocated_to q when q = proc -> true
    | In_file ino -> (
      match file_find t ino with
      | Some f ->
        List.mem proc f.f_writers && not (f.f_ftype = Dir && List.mem pg f.f_data_pages)
      | None -> false)
    | Allocated_to _ | Free -> false
  in
  if not (List.for_all check pages) then Error EACCES
  else begin
    List.iter
      (fun pg ->
        (match owner_of t pg with
        | In_file ino -> (
          match file_find t ino with
          | Some f ->
            f.f_index_pages <- List.filter (fun q -> q <> pg) f.f_index_pages;
            f.f_data_pages <- List.filter (fun q -> q <> pg) f.f_data_pages;
            f.f_dindex_pages <- List.filter (fun q -> q <> pg) f.f_dindex_pages
          | None -> ())
        | _ -> ());
        set_page_owner t pg (Allocated_to proc);
        Hashtbl.replace p.p_pages pg ();
        let kind = Pmem.kind_of t.pmem pg in
        Pmem.discard_page t.pmem pg;
        Pmem.set_kind t.pmem pg kind)
      pages;
    Ok ()
  end

(* Hand [count] fresh inos to [proc]: the body of [alloc_inos]. *)
let grant_inos t ~proc ~count =
  let p = proc_info t proc in
  let inos = List.init count (fun i -> t.next_ino + i) in
  t.next_ino <- t.next_ino + count;
  List.iter
    (fun ino ->
      set_ino_owner t ino (Ino_allocated_to proc);
      Hashtbl.replace p.p_inos ino ())
    inos;
  inos

let alloc_inos t ~proc ~count =
  syscall t proc ~admit:true (fun () -> grant_inos t ~proc ~count)

(* Single-page allocation that may land on any node (scrub migration). *)
let alloc_page_any_node t ~preferred =
  match take_pages t ~node:preferred ~count:1 with Some [ pg ] -> Some pg | _ -> None

(* Free every page of a (just-unlinked) file and drop its records.  The
   caller must hold a write mapping on the file's parent directory —
   that is the permission unlink itself required. *)
let free_file_tree t ~proc ~ino =
  syscall t proc ~admit:false @@ fun () ->
  match file_find t ino with
  | None -> Error ENOENT
  | Some f -> (
    match file_find t f.f_parent with
    | Some parent when List.mem proc parent.f_writers ->
      if f.f_ftype = Dir && not (List.for_all (dir_page_is_empty t) f.f_data_pages) then
        Error ENOTEMPTY
      else begin
        let pages = f.f_index_pages @ f.f_data_pages @ f.f_dindex_pages in
        List.iter (fun pg -> release_page t pg) pages;
        Mmu.revoke_everyone_on_pages t.mmu ~pages;
        drop_unverified t f;
        remove_file t ino;
        remove_shadow t ino;
        clear_ino_owner t ino;
        Ok ()
      end
    | _ -> Error EACCES)
