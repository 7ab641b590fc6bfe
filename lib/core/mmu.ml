(* Simulated MMU: per-process page permissions, enforced on the NVM data
   path.

   The kernel controller is the only component that programs the MMU
   (grant/revoke); LibFSes hit it implicitly on every load/store.  This
   is the hardware mechanism that lets Trio avoid metadata-update
   mediation: the trusted entity controls *which pages* a LibFS can
   touch, not *what* it writes there.

   Grants are reference-counted per (process, page, kind): mappings
   overlap (a dentry page belongs to both the file's mapping and the
   parent directory's), so a revoke must only undo its own grant, also
   in the one table the members of a trust group share.

   A page the controller marked faultable is mapped on first touch: an
   access that finds no grant asks the fault handler, which may make
   the PTE and let the access through ({!set_fault_handler}).  A PTE
   made that way is a {!pte}, which its mapping revokes later only if
   the grant is still the one it made.

   The MMU also keeps the device's one dirty-page write-set: a single
   page -> mark table that incremental verification asks, through
   [clean_since], whether a page changed since a checkpoint's mark. *)

module Pmem = Trio_nvm.Pmem
module Sched = Trio_sim.Sched
module Perf = Trio_nvm.Perf

type perm = P_read | P_readwrite

type entry = { mutable readers : int; mutable writers : int }

(* One PTE a mapping made: a revoke undoes it only while the page's
   grant record is still [pte_entry], so a page freed (every grant
   dropped) and granted again is never revoked on a stale claim. *)
type pte = { pte_page : int; pte_entry : entry }

type t = {
  pmem : Pmem.t;
  (* actor -> page -> grant counts *)
  tables : (int, (int, entry) Hashtbl.t) Hashtbl.t;
  mutable pte_ops : int;
  mutable faults : int; (* PTEs made on first touch *)
  mutable fault : actor:int -> page:int -> write:bool -> bool;
      (* asked when an access finds no grant: true once it made one *)
  (* --- dirty-page write-set (incremental verification, §4.3/§6) ---
     [wmark] is a monotonic device-wide store counter and [wset] maps
     each page to the mark of its last content mutation, fed by
     {!Pmem.set_store_hook} (so poison, crash reverts and page discards
     count as writes too).  When the table outgrows [wcapacity] it is
     reset and [overflow_mark] records the loss: no mark taken before
     it can prove any page clean. *)
  wset : (int, int) Hashtbl.t;
  mutable wcapacity : int;
  mutable overflow_mark : int;
  mutable wmark : int;
}

let overflow t =
  Hashtbl.reset t.wset;
  t.overflow_mark <- t.wmark

(* Under [Mutation.Drop_writes] content stores stop being recorded, so
   incremental verification trusts stale snapshots. *)
let record_store t pg =
  if not (Mutation.active Drop_writes) then begin
    t.wmark <- t.wmark + 1;
    Hashtbl.replace t.wset pg t.wmark;
    if Hashtbl.length t.wset > t.wcapacity then overflow t
  end

let write_mark t = t.wmark

(* A mark no write-set vouches for: it predates every overflow mark,
   so [clean_since] rejects it for every page. *)
let no_mark = -1

(* Is [page] provably unchanged since [mark]?  Only if the write-set
   has tracked every store since the mark (no overflow after it) and
   the page's last recorded store is no newer than the mark. *)
let clean_since t ~mark ~page =
  mark >= t.overflow_mark
  && (match Hashtbl.find_opt t.wset page with Some m -> m <= mark | None -> true)

let set_write_set_capacity t n =
  if n < 1 then invalid_arg "Mmu.set_write_set_capacity";
  t.wcapacity <- n;
  if Hashtbl.length t.wset > n then overflow t

let permits t ~actor ~page ~write =
  match Hashtbl.find_opt t.tables actor with
  | None -> false
  | Some table -> (
    match Hashtbl.find_opt table page with
    | Some e -> if write then e.writers > 0 else e.writers > 0 || e.readers > 0
    | None -> false)

let create pmem =
  let t =
    {
      pmem;
      tables = Hashtbl.create 16;
      pte_ops = 0;
      faults = 0;
      fault = (fun ~actor:_ ~page:_ ~write:_ -> false);
      wset = Hashtbl.create 4096;
      wcapacity = 1 lsl 16;
      overflow_mark = 0;
      wmark = 0;
    }
  in
  Pmem.set_perm_check pmem (fun ~actor ~page ~write ->
      permits t ~actor ~page ~write || t.fault ~actor ~page ~write);
  Pmem.set_store_hook pmem (fun pg -> record_store t pg);
  t

let set_fault_handler t f = t.fault <- f

let table_of t actor =
  match Hashtbl.find_opt t.tables actor with
  | Some table -> table
  | None ->
    let table = Hashtbl.create 256 in
    Hashtbl.add t.tables actor table;
    table

(* A joining trust-group member's actor aliases [member]'s table: the
   permission check stays one lookup. *)
let share_table t ~actor ~member = Hashtbl.replace t.tables actor (table_of t member)

let grant_one table page perm =
  let e =
    match Hashtbl.find_opt table page with
    | Some e -> e
    | None ->
      let e = { readers = 0; writers = 0 } in
      Hashtbl.add table page e;
      e
  in
  (match perm with
  | P_read -> e.readers <- e.readers + 1
  | P_readwrite -> e.writers <- e.writers + 1);
  e

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
  List.iter (fun page -> ignore (grant_one table page perm)) pages

(* Grant permission on a set of (scattered) pages.  Charges the
   page-table programming cost to the calling fiber — the dominant term
   of the file-sharing cost for large files (Fig. 8). *)
let grant t ~actor ~pages ~perm =
  let table = table_of t actor in
  let n = List.length pages in
  t.pte_ops <- t.pte_ops + n;
  Sched.delay (Perf.Cpu.page_table_op *. float_of_int n);
  List.iter (fun page -> ignore (grant_one table page perm)) pages

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
  List.iter (fun page -> ignore (grant_one table page perm)) pages

(* The PTE a first touch makes: one read-write grant, counted as one PTE
   op and one fault.  The fault handler charged its time already. *)
let make_pte t ~actor ~page =
  t.pte_ops <- t.pte_ops + 1;
  t.faults <- t.faults + 1;
  { pte_page = page; pte_entry = grant_one (table_of t actor) page P_readwrite }

(* The read-write grant [actor] holds on [page] now, as a {!pte}: the
   handle a mapping takes over when a page it will revoke joins it. *)
let pte_of t ~actor ~page =
  match Hashtbl.find_opt t.tables actor with
  | None -> None
  | Some table -> (
    match Hashtbl.find_opt table page with
    | Some e when e.writers > 0 -> Some { pte_page = page; pte_entry = e }
    | _ -> None)

(* Is [pte] still the grant on its page? *)
let live table pte =
  match Hashtbl.find_opt table pte.pte_page with Some e -> e == pte.pte_entry | None -> false

(* Revoke the PTEs a mapping made, one PTE op each for those still
   live; a page freed since holds none.  [~charge:false] is the free
   variant of the setup and recovery paths. *)
let revoke_ptes t ~actor ~ptes ~charge =
  match Hashtbl.find_opt t.tables actor with
  | None -> ()
  | Some table ->
    let ptes = List.filter (live table) ptes in
    if charge then begin
      let n = List.length ptes in
      t.pte_ops <- t.pte_ops + n;
      Sched.delay (Perf.Cpu.page_table_op *. float_of_int n)
    end;
    List.iter (fun pte -> if live table pte then revoke_one table pte.pte_page P_readwrite) ptes

let revoke_free t ~actor ~pages ~perm =
  match Hashtbl.find_opt t.tables actor with
  | None -> ()
  | Some table -> List.iter (fun page -> revoke_one table page perm) pages

(* Tear down a process' whole address space (abnormal process death):
   every grant it holds disappears at once, refcounts and all.  Free —
   the kernel reclaims a dead process' page tables wholesale (a table
   shared with live trust-group members stays theirs). *)
let revoke_actor t ~actor = Hashtbl.remove t.tables actor

(* A page returning to the free pool must not be accessible to anyone. *)
let revoke_everyone_on_pages t ~pages =
  Hashtbl.iter
    (fun _actor table -> List.iter (fun page -> Hashtbl.remove table page) pages)
    t.tables

(* The same revoke, charged one PTE op per page to the calling fiber.
   Every grant goes before the delay: a page released by the caller can
   be handed to another fiber during it, and a later revoke would strip
   the new owner's grant. *)
let revoke_everyone_charged t ~pages =
  revoke_everyone_on_pages t ~pages;
  let n = List.length pages in
  t.pte_ops <- t.pte_ops + n;
  Sched.delay (Perf.Cpu.page_table_op *. float_of_int n)

let pte_ops t = t.pte_ops
let faults t = t.faults
