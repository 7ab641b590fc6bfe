(* The integrity verifier: a trusted process that checks a single file's
   core state online, when its write access is transferred (paper §4.3).

   The checks mirror the paper's invariants:

   I1  fields in each inode and directory entry are valid (file type,
       name charset/length, no duplicate names, mode range, size
       consistent with the page count);
   I2  a file's inode number, index pages and data pages are valid:
       every page belongs to this file or was freshly allocated to the
       LibFS that had the file write-mapped, or to a member of its
       trust group; nothing is referenced twice; chains do not cycle;
   I3  the directory hierarchy stays a connected tree: a child directory
       deleted since the checkpoint must be unmapped, empty, and own no
       pages;
   I4  access permissions are enforced: the permission bits cached in
       the NVM inode must agree with the kernel's shadow inode table
       (the ground truth); mismatches are repaired from the shadow, not
       trusted.

   The verifier only reads through [Pmem] with the kernel actor, so its
   inspection costs are charged to the sharing path — that is the
   "Verifier" slice of Fig. 8.

   Incremental mode (§4.3/§6): the caller may pass [delta], a lookup
   that returns a page's bytes from a DRAM delta-checkpoint snapshot
   when the page is provably clean (no content mutation recorded by the
   MMU write-set since the snapshot was taken).  Snapshot bytes are
   bit-identical to the device by construction, and the verifier runs
   the exact same checks over them — verdicts are byte-identical to a
   full walk; only the inspection cost drops, because clean pages skip
   the media read and pay a spot-check CPU charge instead of the full
   per-entry scan (the byte-format validation of those entries was
   already vouched for when the checkpoint was taken).

   Read set (DESIGN.md §4.13): the caller may pass [record], which
   receives every whole page the verifier reads from the device —
   dentry pages, index-chain pages and B-link nodes — with the bytes
   it read.  The controller keeps them for the rest of the verification
   pass, so ingestion checkpoints them without reading them again.
   Recording changes no verdict: it only observes reads the checks
   make anyway. *)

module Pmem = Trio_nvm.Pmem
module Perf = Trio_nvm.Perf
module Sched = Trio_sim.Sched
module Stats = Trio_sim.Stats

type shadow = { s_ftype : Fs_types.ftype; s_mode : int; s_uid : int; s_gid : int }

type page_owner = Free | Allocated_to of int | In_file of int

type ino_owner = Ino_free | Ino_allocated_to of int | Ino_in_dir of int

(* The verifier's read-only window onto the kernel controller's global
   file system information (paper §4.3, check I2). *)
type view = {
  pmem : Pmem.t;
  total_pages : int;
  page_owner : int -> page_owner;
  ino_owner : int -> ino_owner;
  shadow : int -> shadow option;
  member : proc:int -> int -> bool; (* [p] is [proc] or a peer in its trust group *)
  checkpoint_children : int -> int list option;
      (* child inos of a directory at its last checkpoint *)
  is_mapped_elsewhere : ino:int -> proc:int -> bool;
  write_mapped_by_other : ino:int -> proc:int -> bool;
      (* a child currently write-mapped by another process is being
         legitimately modified; it will be verified at its own unmap *)
  pages_attributed_to : int -> int list; (* pages still recorded as In_file ino *)
  rename_source_ok : src:int -> ino:int -> proc:int -> bool;
      (* the child's recorded parent is mid-handoff on behalf of this
         process — still write-mapped, queued or running in the
         verification pipeline, or already verified with the child
         observed missing (deferred delete).  These are the shapes an
         in-flight cross-directory rename takes on the source side. *)
      (* true when [proc] holds a write mapping on directory [dir]: a
         child found under a different parent is a legitimate in-flight
         rename only if its recorded parent is simultaneously
         write-mapped by the same process. *)
}

(* I5 (DESIGN.md §4.18) extends the paper's set: when a directory is
   indexed (its dentry carries a B-link root), the index must agree
   with the dentry pages — every live dentry reachable at its hash, no
   dangling entries, node ordering/fanout/CRC valid.  An unindexed
   directory (root 0) is legal: the index is an accelerator, and its
   absence just means the LibFS falls back to page scans.

   [`Media] is not one of the paper's invariants: it records an
   unrepairable media fault found by the patrol scrubber (see {!Scrub}),
   reusing the same corruption-event plumbing. *)
type violation = { check : [ `I1 | `I2 | `I3 | `I4 | `I5 | `Media ]; detail : string }

type child = {
  c_ino : int;
  c_ftype : Fs_types.ftype;
  c_mode : int; (* as the dentry holds it: a fresh child's shadow takes it *)
  c_dentry_addr : int;
  c_name : string;
}

type report = {
  ok : bool;
  violations : violation list;
  fixed : string list; (* I4 repairs applied *)
  index_pages : int list;
  data_pages : int list;
  dindex_pages : int list; (* B-link index nodes (directories only) *)
  children : child list; (* live children (directories only) *)
  deleted_children : int list; (* inos gone since the checkpoint *)
  size : int;
}

let empty_report =
  {
    ok = true;
    violations = [];
    fixed = [];
    index_pages = [];
    data_pages = [];
    dindex_pages = [];
    children = [];
    deleted_children = [];
    size = 0;
  }

(* ------------------------------------------------------------------ *)
(* Incremental-mode plumbing *)

let no_delta : int -> Bytes.t option = fun _ -> None
let no_record : int -> Bytes.t -> unit = fun _ _ -> ()

let count stats name = match stats with Some s -> Stats.incr s name | None -> ()

(* Per-invariant observability: a phase switcher that attributes elapsed
   virtual time exclusively to the current phase, so the four timers sum
   to the whole verification with no double counting.  It keeps the
   current phase's cell, so staying in a phase hashes no name. *)
type phaser = {
  mutable ph : string;
  mutable cell : float ref;
  mutable t0 : float;
  st : Stats.t;
  sc : Sched.t;
}

let make_phaser view stats =
  Option.map (fun st -> { ph = ""; cell = ref 0.0; t0 = 0.0; st; sc = Pmem.sched view.pmem }) stats

let phase p name =
  match p with
  | None -> ()
  | Some p ->
    let now = Sched.now p.sc in
    p.cell := !(p.cell) +. (now -. p.t0);
    let name = Option.value name ~default:"" in
    if not (String.equal name p.ph) then begin
      p.ph <- name;
      p.cell <- (if name = "" then ref 0.0 else Stats.cell p.st name)
    end;
    p.t0 <- now

(* A whole page from the device, handed to [record]. *)
let read_device view ~record ~actor page =
  let b = Pmem.read view.pmem ~actor ~addr:(page * Layout.page_size) ~len:Layout.page_size in
  record page b;
  b

(* Read a whole (meta)data page, serving clean pages from the delta
   checkpoint.  Returns the bytes and whether they came from a
   snapshot. *)
let fetch_page view ~delta ~record ~stats ~actor page =
  match delta page with
  | Some b ->
    count stats "verify.dirty.hits";
    (b, true)
  | None ->
    count stats "verify.dirty.misses";
    (read_device view ~record ~actor page, false)

let check_name ~check name seen violations =
  if not (Fs_types.valid_name name) then
    violations := { check; detail = Printf.sprintf "invalid name %S" name } :: !violations
  else if Hashtbl.mem seen name then
    violations := { check; detail = Printf.sprintf "duplicate name %S" name } :: !violations
  else Hashtbl.add seen name ()

(* Validate one page reference for I2 and record it in [refs].  A valid
   page either already belongs to the file or was allocated to [proc]'s
   group. *)
let check_page view ~proc ~ino ~refs ~violations page what =
  if page <= Layout.root_dentry_page || page >= view.total_pages then
    violations :=
      { check = `I2; detail = Printf.sprintf "%s points outside the volume: page %d" what page }
      :: !violations
  else if Hashtbl.mem refs page then
    violations :=
      { check = `I2; detail = Printf.sprintf "%s doubly referenced: page %d" what page }
      :: !violations
  else begin
    Hashtbl.add refs page ();
    match view.page_owner page with
    | In_file owner when owner = ino -> ()
    | Allocated_to p when view.member ~proc p -> ()
    | In_file owner ->
      violations :=
        {
          check = `I2;
          detail = Printf.sprintf "%s references page %d owned by inode %d" what page owner;
        }
        :: !violations
    | Allocated_to p ->
      violations :=
        {
          check = `I2;
          detail = Printf.sprintf "%s references page %d allocated to process %d" what page p;
        }
        :: !violations
    | Free ->
      violations :=
        { check = `I2; detail = Printf.sprintf "%s references free page %d" what page }
        :: !violations
  end

(* Walk the file's index chain collecting index and data pages; bails out
   on cycles (chain longer than the volume).  [refs] is shared across a
   whole verification so pages referenced by two files (or twice within
   one) are caught.  Clean index pages come from the delta checkpoint:
   same bytes, a spot-check CPU charge instead of the full 511-entry
   scan, and no media read.  Whether a page is a snapshot hit is
   decided once, when it is fetched: a page read from the device joins
   [record]'s set, where a second [delta] lookup would find it.  An
   empty chain (head 0) has nothing to walk. *)
let collect_pages ?refs ~delta ~record ?stats view ~actor ~proc ~ino ~head ~violations =
  if head = 0 then ([], [])
  else
    let refs = match refs with Some r -> r | None -> Hashtbl.create 64 in
    let index_pages = ref [] and data_pages = ref [] in
    let from_snapshot = Hashtbl.create 8 in
    let fetch pg =
      match delta pg with
      | Some b ->
        Hashtbl.replace from_snapshot pg ();
        Some b
      | None -> Some (read_device view ~record ~actor pg)
    in
    let result =
      Layout.walk_index_chain ~fetch view.pmem ~actor ~head ~max_pages:view.total_pages
        (fun ~index_page ~entries ~next:_ ->
          check_page view ~proc ~ino ~refs ~violations index_page "index page";
          index_pages := index_page :: !index_pages;
          if Hashtbl.mem from_snapshot index_page then begin
            count stats "verify.dirty.hits";
            Sched.cpu_work (Perf.Cpu.index_entry_check *. 8.0)
          end
          else begin
            count stats "verify.dirty.misses";
            Sched.cpu_work (Perf.Cpu.index_entry_check *. float_of_int Layout.index_entries)
          end;
          Array.iter
            (fun entry ->
              if entry <> 0 then begin
                check_page view ~proc ~ino ~refs ~violations entry "data page";
                (* only in-range pages may be dereferenced later *)
                if entry > Layout.root_dentry_page && entry < view.total_pages then
                  data_pages := entry :: !data_pages
              end)
            entries)
    in
    (match result with
    | Ok () -> ()
    | Error msg -> violations := { check = `I2; detail = msg } :: !violations);
    (List.rev !index_pages, List.rev !data_pages)

(* I4 on one inode: permission fields must agree with the shadow inode
   table; mismatches are repaired in place from the shadow. *)
let check_perms view ~actor ~fixed ~violations ~(inode : Layout.inode) ~dentry_addr =
  match view.shadow inode.ino with
  | None ->
    violations :=
      { check = `I2; detail = Printf.sprintf "inode %d unknown to the kernel" inode.ino }
      :: !violations
  | Some s ->
    if s.s_ftype <> inode.ftype then
      violations :=
        {
          check = `I1;
          detail = Printf.sprintf "inode %d: file type does not match the kernel record" inode.ino;
        }
        :: !violations;
    if s.s_mode <> inode.mode || s.s_uid <> inode.uid || s.s_gid <> inode.gid then begin
      Layout.write_perms view.pmem ~actor ~dentry_addr ~mode:s.s_mode ~uid:s.s_uid ~gid:s.s_gid;
      fixed :=
        Printf.sprintf "inode %d: permissions restored from shadow inode" inode.ino :: !fixed
    end

let check_size_consistency ~violations ~(inode : Layout.inode) ~npages =
  let max_size = npages * Layout.page_size in
  let min_size = if npages = 0 then 0 else ((npages - 1) * Layout.page_size) + 1 in
  if inode.size < min_size || inode.size > max_size then
    violations :=
      {
        check = `I1;
        detail =
          Printf.sprintf "inode %d: size %d inconsistent with %d data pages" inode.ino inode.size
            npages;
      }
      :: !violations

(* Check a regular file rooted at [inode].  [ph] is the (optional)
   phase switcher of the enclosing check_file. *)
let check_regular ~delta ~record ?stats ~ph view ~actor ~proc ~(inode : Layout.inode) ~violations
    =
  phase ph (Some "verify.i2");
  let index_pages, data_pages =
    collect_pages ~delta ~record ?stats view ~actor ~proc ~ino:inode.ino ~head:inode.index_head
      ~violations
  in
  phase ph (Some "verify.i1");
  check_size_consistency ~violations ~inode ~npages:(List.length data_pages);
  (index_pages, data_pages)

(* A directory writer could corrupt the inode fields of every child
   (they live in the directory's data pages): validate the child's page
   tree and size field here.  Children held write-mapped by another
   process are skipped (they are verified at their own unmap); fresh
   children are fully verified at ingestion. *)
let check_child_tree ~delta ~record ?stats view ~refs ~actor ~proc ~(child : Layout.inode)
    ~violations =
  if not (view.write_mapped_by_other ~ino:child.ino ~proc) then begin
    let _, data_pages =
      collect_pages ~refs ~delta ~record ?stats view ~actor ~proc ~ino:child.ino
        ~head:child.index_head ~violations
    in
    match child.ftype with
    | Fs_types.Reg -> check_size_consistency ~violations ~inode:child ~npages:(List.length data_pages)
    | Fs_types.Dir ->
      (* recount the child's live entries against its size field; the
         entry contents themselves were not writable through this
         directory's mapping, so no recursion is needed *)
      let live = ref 0 in
      List.iter
        (fun pg ->
          let b, _ = fetch_page view ~delta ~record ~stats ~actor pg in
          for slot = 0 to Layout.dentries_per_page - 1 do
            if Layout.get_u64 b (slot * Layout.dentry_size) <> 0 then incr live
          done)
        data_pages;
      if !live <> child.size then
        violations :=
          {
            check = `I1;
            detail =
              Printf.sprintf "directory %d: size field %d does not match %d live entries"
                child.ino child.size !live;
          }
          :: !violations
  end

(* I5: index <-> dentry-page agreement (DESIGN.md §4.18).  The audit
   walks the whole tree checking structure (CRCs, ordering, fanout,
   seams, parent/child agreement); its leaf entries are then matched —
   both ways — against the live dentries the I1 walk produced.  Node
   pages join the shared [refs] set so the index can never smuggle in a
   page the file does not own (I2 discipline), and clean nodes served
   from the delta checkpoint pay a spot-check charge like I1–I4. *)
let check_dindex ~delta ~record ?stats view ~refs ~actor ~proc ~(inode : Layout.inode) ~root
    ~(children : child list) ~violations =
  if root = 0 then []
  else begin
    let bad detail =
      count stats "verify.i5.violations";
      violations := { check = `I5; detail } :: !violations
    in
    let fetch pg =
      match delta pg with
      | Some b ->
        count stats "verify.dirty.hits";
        Sched.cpu_work (Perf.Cpu.index_entry_check *. 8.0);
        Some b
      | None ->
        count stats "verify.dirty.misses";
        Sched.cpu_work (Perf.Cpu.index_entry_check *. float_of_int Layout.dnode_capacity);
        Some (read_device view ~record ~actor pg)
    in
    let a = Dirindex.audit ~fetch view.pmem ~actor ~root in
    List.iter
      (fun pg -> check_page view ~proc ~ino:inode.ino ~refs ~violations pg "index node")
      a.Dirindex.au_pages;
    List.iter bad a.Dirindex.au_violations;
    let tree = Hashtbl.create 64 in
    List.iter (fun k -> Hashtbl.replace tree k ()) a.Dirindex.au_entries;
    List.iter
      (fun (c : child) ->
        let key = (Dirindex.hash_name c.c_name, c.c_dentry_addr) in
        if Hashtbl.mem tree key then Hashtbl.remove tree key
        else
          bad
            (Printf.sprintf "live dentry %S (inode %d) not reachable in the index" c.c_name
               c.c_ino))
      children;
    Hashtbl.iter
      (fun (h, addr) () ->
        bad (Printf.sprintf "dangling index entry (hash %d, dentry address %d)" h addr))
      tree;
    List.filter (fun pg -> pg > Layout.root_dentry_page && pg < view.total_pages) a.Dirindex.au_pages
  end

(* Check a directory: every live dentry is validated (I1), children are
   accounted (I2), the deleted-child rule is enforced (I3), and an
   indexed directory's B-link tree, rooted at [root], must agree with
   its dentries (I5). *)
let check_directory ~delta ~record ?stats ~ph view ~actor ~proc ~(inode : Layout.inode) ~root
    ~fixed ~violations =
  let refs = Hashtbl.create 64 in
  phase ph (Some "verify.i2");
  let index_pages, data_pages =
    collect_pages ~refs ~delta ~record ?stats view ~actor ~proc ~ino:inode.ino
      ~head:inode.index_head ~violations
  in
  phase ph (Some "verify.i1");
  let seen_names = Hashtbl.create 64 in
  let seen_inos = Hashtbl.create 64 in
  let children = ref [] in
  List.iter
    (fun page ->
      phase ph (Some "verify.i1");
      let page_bytes, from_snapshot = fetch_page view ~delta ~record ~stats ~actor page in
      (* A snapshot-served directory page pays one spot-check charge; a
         device read is validated slot by slot. *)
      if from_snapshot then Sched.cpu_work Perf.Cpu.dentry_check;
      for slot = 0 to Layout.dentries_per_page - 1 do
        phase ph (Some "verify.i1");
        if not from_snapshot then Sched.cpu_work Perf.Cpu.dentry_check;
        let block = Bytes.sub page_bytes (slot * Layout.dentry_size) Layout.dentry_size in
        let dentry_addr = Layout.dentry_slot_addr page slot in
        match Layout.decode_dentry block with
        | None -> ()
        | Some (Error msg) ->
          violations :=
            { check = `I1; detail = Printf.sprintf "dentry at page %d slot %d: %s" page slot msg }
            :: !violations
        | Some (Ok (child, name)) ->
          check_name ~check:`I1 name seen_names violations;
          if child.mode land lnot 0o7777 <> 0 then
            violations :=
              { check = `I1; detail = Printf.sprintf "inode %d: invalid mode %o" child.ino child.mode }
              :: !violations;
          if Hashtbl.mem seen_inos child.ino then
            violations :=
              { check = `I2; detail = Printf.sprintf "inode %d appears twice in directory" child.ino }
              :: !violations
          else begin
            Hashtbl.add seen_inos child.ino ();
            (* A fresh child (inode allocated to the mapping process'
               group) has no shadow inode yet: the kernel establishes
               it, with the creator's credentials, at ingestion.  Known
               children must agree with their shadow (I4). *)
            let fresh =
              match view.ino_owner child.ino with
              | Ino_allocated_to p -> view.member ~proc p
              | _ -> false
            in
            if not fresh then begin
              phase ph (Some "verify.i4");
              check_perms view ~actor ~fixed ~violations ~inode:child ~dentry_addr;
              phase ph (Some "verify.i2");
              check_child_tree ~delta ~record ?stats view ~refs ~actor ~proc ~child ~violations;
              phase ph (Some "verify.i1")
            end;
            (match view.ino_owner child.ino with
            | Ino_in_dir parent when parent = inode.ino -> ()
            | Ino_allocated_to p when view.member ~proc p -> ()
            | Ino_in_dir parent when view.rename_source_ok ~src:parent ~ino:child.ino ~proc -> ()
              (* in-flight rename out of a directory this process is
                 handing off (or already handed off, with the child seen
                 missing there) *)
            | Ino_in_dir parent ->
              violations :=
                {
                  check = `I2;
                  detail =
                    Printf.sprintf "inode %d belongs to directory %d, found in %d" child.ino parent
                      inode.ino;
                }
                :: !violations
            | Ino_allocated_to p ->
              violations :=
                {
                  check = `I2;
                  detail = Printf.sprintf "inode %d was allocated to process %d" child.ino p;
                }
                :: !violations
            | Ino_free ->
              violations :=
                { check = `I2; detail = Printf.sprintf "inode %d is not a valid inode" child.ino }
                :: !violations);
            children :=
              {
                c_ino = child.ino;
                c_ftype = child.ftype;
                c_mode = child.mode;
                c_dentry_addr = dentry_addr;
                c_name = name;
              }
              :: !children
          end
      done)
    data_pages;
  phase ph (Some "verify.i1");
  let children = List.rev !children in
  if inode.size <> List.length children then
    violations :=
      {
        check = `I1;
        detail =
          Printf.sprintf "directory %d: size field %d does not match %d live entries" inode.ino
            inode.size (List.length children);
      }
      :: !violations;
  (* I3: deleted children must leave no trace. *)
  phase ph (Some "verify.i3");
  let deleted =
    match view.checkpoint_children inode.ino with
    | None -> []
    | Some old_children ->
      List.filter (fun ino -> not (Hashtbl.mem seen_inos ino)) old_children
  in
  let deleted =
    (* A child whose recorded parent is already another directory was
       moved (rename), not deleted. *)
    List.filter
      (fun ino ->
        match view.ino_owner ino with
        | Ino_in_dir p when p <> inode.ino -> false
        | _ -> true)
      deleted
  in
  List.iter
    (fun ino ->
      if view.is_mapped_elsewhere ~ino ~proc then
        violations :=
          { check = `I3; detail = Printf.sprintf "deleted inode %d is still mapped" ino }
          :: !violations;
      match view.pages_attributed_to ino with
      | [] -> ()
      | pages -> (
        match view.shadow ino with
        | Some { s_ftype = Fs_types.Dir; _ } ->
          violations :=
            {
              check = `I3;
              detail =
                Printf.sprintf "deleted directory %d still owns %d pages (non-empty rmdir?)" ino
                  (List.length pages);
            }
            :: !violations
        | _ -> () (* regular file pages are reclaimed by the controller *)))
    deleted;
  (* I5: the ordered index must agree with the dentry truth. *)
  phase ph (Some "verify.i5");
  let dindex_pages =
    check_dindex ~delta ~record ?stats view ~refs ~actor ~proc ~inode ~root ~children ~violations
  in
  (index_pages, data_pages, dindex_pages, children, deleted)

(* Entry point: verify the file whose dentry block sits at [dentry_addr],
   which process [proc] had write-mapped.  [delta] enables incremental
   mode and [record] receives the pages read from the device (see the
   module comment); [stats] enables the per-invariant timers and
   dirty-hit counters. *)
let check_file ?(delta = no_delta) ?(record = no_record) ?stats view ~proc ~ino ~dentry_addr :
    report =
  let actor = Pmem.kernel_actor in
  let violations = ref [] in
  let fixed = ref [] in
  let ph = make_phaser view stats in
  phase ph (Some "verify.i1");
  let block =
    (* The file's own dentry lives in a parent data page: serve it from
       the snapshot when that page is clean.  The block is read once:
       the B-link root word (I5) comes from it too. *)
    match delta (dentry_addr / Layout.page_size) with
    | Some page_bytes ->
      count stats "verify.dirty.hits";
      Bytes.sub page_bytes (dentry_addr mod Layout.page_size) Layout.dentry_size
    | None ->
      count stats "verify.dirty.misses";
      Pmem.read view.pmem ~actor ~addr:dentry_addr ~len:Layout.dentry_size
  in
  let root = Layout.get_u64 block Layout.off_dindex_root in
  let finish report =
    phase ph None;
    report
  in
  match Layout.decode_dentry block with
  | None ->
    (* The file itself was deleted while write-mapped; the parent's
       verification will run the deleted-child checks. *)
    finish { empty_report with ok = true }
  | Some (Error msg) ->
    finish { empty_report with ok = false; violations = [ { check = `I1; detail = msg } ] }
  | Some (Ok (inode, _name)) ->
    if inode.ino <> ino then
      violations :=
        {
          check = `I2;
          detail = Printf.sprintf "dentry holds inode %d where %d was mapped" inode.ino ino;
        }
        :: !violations;
    phase ph (Some "verify.i4");
    check_perms view ~actor ~fixed ~violations ~inode ~dentry_addr;
    let index_pages, data_pages, dindex_pages, children, deleted =
      match inode.ftype with
      | Fs_types.Reg ->
        let ip, dp = check_regular ~delta ~record ?stats ~ph view ~actor ~proc ~inode ~violations in
        (* A regular file must not carry a directory-index root. *)
        phase ph (Some "verify.i5");
        if root <> 0 then begin
          count stats "verify.i5.violations";
          violations :=
            {
              check = `I5;
              detail = Printf.sprintf "regular file %d carries a directory-index root" inode.ino;
            }
            :: !violations
        end;
        (ip, dp, [], [], [])
      | Fs_types.Dir ->
        check_directory ~delta ~record ?stats ~ph view ~actor ~proc ~inode ~root ~fixed ~violations
    in
    finish
      {
        ok = !violations = [];
        violations = List.rev !violations;
        fixed = List.rev !fixed;
        index_pages;
        data_pages;
        dindex_pages;
        children;
        deleted_children = deleted;
        size = inode.size;
      }

let pp_violation ppf v =
  let tag =
    match v.check with
    | `I1 -> "I1"
    | `I2 -> "I2"
    | `I3 -> "I3"
    | `I4 -> "I4"
    | `I5 -> "I5"
    | `Media -> "MEDIA"
  in
  Fmt.pf ppf "[%s] %s" tag v.detail
