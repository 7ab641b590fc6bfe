(* Simulated MMU: per-process page permissions, enforced on the NVM data
   path.

   The kernel controller is the only component that programs the MMU
   (grant/revoke); LibFSes hit it implicitly on every load/store.  This
   is the hardware mechanism that lets Trio avoid metadata-update
   mediation: the trusted entity controls *which pages* a LibFS can
   touch, not *what* it writes there.

   Grants are reference-counted per (process, page, kind): mappings
   overlap (a dentry page belongs to both the file's mapping and the
   parent directory's), so a revoke must only undo its own grant. *)

module Pmem = Trio_nvm.Pmem
module Sched = Trio_sim.Sched
module Perf = Trio_nvm.Perf

type perm = P_read | P_readwrite

type entry = { mutable readers : int; mutable writers : int }

(* One NUMA node's slice of the dirty-page write-set.  An overflow
   resets only this slice, so checkpoints of files living on other
   sockets keep their incremental-verification fast path. *)
type wpart = {
  wp_set : (int, int) Hashtbl.t; (* page -> mark of its last mutation *)
  mutable wp_capacity : int;
  mutable wp_overflow_mark : int;
}

type t = {
  pmem : Pmem.t;
  (* actor -> page -> grant counts *)
  tables : (int, (int, entry) Hashtbl.t) Hashtbl.t;
  mutable pte_ops : int;
  (* --- dirty-page write-set (incremental verification, §4.3/§6) ---
     [wmark] is a monotonic device-wide store counter; the page->mark
     table is partitioned per NUMA node ([wp_set] of the node owning
     the page, fed by {!Pmem.set_store_hook}, so poison, crash reverts
     and page discards count as writes too).  When a partition outgrows
     [wp_capacity] it is reset and [wp_overflow_mark] records the loss:
     any checkpoint taken before that mark can no longer prove a page
     *of that node* clean and must fall back to a full verification
     walk — pages of other nodes are untouched. *)
  parts : wpart array;
  pages_per_node : int;
  mutable wmark : int;
}

let part_of t pg = t.parts.(pg / t.pages_per_node mod Array.length t.parts)

(* Under [Mutation.Drop_writes] content stores stop being recorded, so
   incremental verification trusts stale snapshots. *)
let record_store t pg =
  if not (Mutation.active Drop_writes) then begin
    t.wmark <- t.wmark + 1;
    let p = part_of t pg in
    Hashtbl.replace p.wp_set pg t.wmark;
    if Hashtbl.length p.wp_set > p.wp_capacity then begin
      Hashtbl.reset p.wp_set;
      p.wp_overflow_mark <- t.wmark
    end
  end

let write_mark t = t.wmark

(* Has every store to [page]'s node since [mark] been kept? *)
let writes_tracked_since t ~mark ~page = mark >= (part_of t page).wp_overflow_mark

(* Sound only when [writes_tracked_since ~mark ~page] holds: an absent
   entry then means the page was not touched since the overflow, and
   the overflow itself predates [mark]. *)
let dirty_since t ~mark ~page =
  let p = part_of t page in
  match Hashtbl.find_opt p.wp_set page with
  | Some m -> m > mark
  | None -> mark < p.wp_overflow_mark

let set_write_set_capacity t n =
  if n < 1 then invalid_arg "Mmu.set_write_set_capacity";
  Array.iter
    (fun p ->
      p.wp_capacity <- n;
      if Hashtbl.length p.wp_set > n then begin
        Hashtbl.reset p.wp_set;
        p.wp_overflow_mark <- t.wmark
      end)
    t.parts

let create pmem =
  let nodes = Trio_nvm.Numa.nodes (Pmem.topo pmem) in
  let t =
    {
      pmem;
      tables = Hashtbl.create 16;
      pte_ops = 0;
      parts =
        Array.init nodes (fun _ ->
            { wp_set = Hashtbl.create 4096; wp_capacity = 1 lsl 16; wp_overflow_mark = 0 });
      pages_per_node = Pmem.pages_per_node pmem;
      wmark = 0;
    }
  in
  Pmem.set_perm_check pmem (fun ~actor ~page ~write ->
      match Hashtbl.find_opt t.tables actor with
      | None -> false
      | Some table -> (
        match Hashtbl.find_opt table page with
        | Some e -> if write then e.writers > 0 else e.writers > 0 || e.readers > 0
        | None -> false));
  Pmem.set_store_hook pmem (fun pg -> record_store t pg);
  t

let table_of t actor =
  match Hashtbl.find_opt t.tables actor with
  | Some table -> table
  | None ->
    let table = Hashtbl.create 256 in
    Hashtbl.add t.tables actor table;
    table

let grant_one table page perm =
  let e =
    match Hashtbl.find_opt table page with
    | Some e -> e
    | None ->
      let e = { readers = 0; writers = 0 } in
      Hashtbl.add table page e;
      e
  in
  match perm with
  | P_read -> e.readers <- e.readers + 1
  | P_readwrite -> e.writers <- e.writers + 1

let revoke_one table page perm =
  match Hashtbl.find_opt table page with
  | None -> ()
  | Some e ->
    (match perm with
    | P_read -> if e.readers > 0 then e.readers <- e.readers - 1
    | P_readwrite -> if e.writers > 0 then e.writers <- e.writers - 1);
    if e.readers = 0 && e.writers = 0 then Hashtbl.remove table page

(* Mapping a freshly allocated *contiguous* extent is one VMA insert
   plus a linear populate — far cheaper per page than mapping the
   scattered pages of an existing file. *)
let grant_extent t ~actor ~pages ~perm =
  let table = table_of t actor in
  let n = List.length pages in
  t.pte_ops <- t.pte_ops + n;
  Sched.delay (600.0 +. (Perf.Cpu.page_table_bulk *. float_of_int n));
  List.iter (fun page -> grant_one table page perm) pages

(* Grant permission on a set of (scattered) pages.  Charges the
   page-table programming cost to the calling fiber — the dominant term
   of the file-sharing cost for large files (Fig. 8). *)
let grant t ~actor ~pages ~perm =
  let table = table_of t actor in
  let n = List.length pages in
  t.pte_ops <- t.pte_ops + n;
  Sched.delay (Perf.Cpu.page_table_op *. float_of_int n);
  List.iter (fun page -> grant_one table page perm) pages

let revoke t ~actor ~pages ~perm =
  match Hashtbl.find_opt t.tables actor with
  | None -> ()
  | Some table ->
    let n = List.length pages in
    t.pte_ops <- t.pte_ops + n;
    Sched.delay (Perf.Cpu.page_table_op *. float_of_int n);
    List.iter (fun page -> revoke_one table page perm) pages

(* Zero-cost variants for setup paths (mkfs, registration, reconcile). *)
let grant_free t ~actor ~pages ~perm =
  let table = table_of t actor in
  List.iter (fun page -> grant_one table page perm) pages

let revoke_free t ~actor ~pages ~perm =
  match Hashtbl.find_opt t.tables actor with
  | None -> ()
  | Some table -> List.iter (fun page -> revoke_one table page perm) pages

(* Tear down a process' whole address space (abnormal process death):
   every grant it holds disappears at once, refcounts and all.  Free —
   the kernel reclaims a dead process' page tables wholesale. *)
let revoke_actor t ~actor = Hashtbl.remove t.tables actor

(* A page returning to the free pool must not be accessible to anyone. *)
let revoke_everyone_on_pages t ~pages =
  Hashtbl.iter
    (fun _actor table -> List.iter (fun page -> Hashtbl.remove table page) pages)
    t.tables

let pte_ops t = t.pte_ops
