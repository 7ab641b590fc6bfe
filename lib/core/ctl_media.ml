(* Scrubber support (the patrol loop itself lives in {!Scrub}).

   The controller owns every piece of state the scrubber repairs from —
   checkpoints of verified metadata, the shadow inode table, the page
   attribution map — so the primitives live here and {!Scrub} is pure
   policy. *)

module Pmem = Trio_nvm.Pmem
module Extent_alloc = Trio_util.Extent_alloc
module Stats = Trio_sim.Stats
open Ctl_state

let page_size = Layout.page_size
let badblocks t = t.badblocks
let degradation_of t ino = Option.map (fun f -> f.f_degraded) (file_find t ino)
let writer_of t ino =
  Option.bind (file_find t ino) (fun f -> match f.f_writers with w :: _ -> Some w | [] -> None)

let record_media_event t ~ino ~detail =
  t.corruption_events <-
    (Pmem.kernel_actor, ino, [ { Verifier.check = `Media; detail } ]) :: t.corruption_events

(* Degradation is monotonic: a file never silently recovers to a better
   level (an operator decision, not a scrubber one). *)
let degrade_file t ~ino level ~detail =
  match file_find t ino with
  | None -> ()
  | Some f ->
    let worse =
      match (f.f_degraded, level) with
      | Healthy, (Degraded_ro | Failed) | Degraded_ro, Failed -> true
      | _ -> false
    in
    if worse then begin
      f.f_degraded <- level;
      record_media_event t ~ino ~detail
    end

(* Permanently retire [pg]: off the owner map, never back into the
   extent allocators, onto the badblock list.  Content and poison are
   left in place — the media there is unreliable by definition. *)
let retire_page_raw t pg =
  unfaultable t pg;
  clear_page_owner t pg;
  if not (List.mem pg t.badblocks) then t.badblocks <- pg :: t.badblocks;
  Mmu.revoke_everyone_on_pages t.mmu ~pages:[ pg ]

(* Retire a page that could not be migrated, dropping it from its
   owner's page lists (the file is expected to be degraded too). *)
let quarantine_page t ~ino pg =
  retire_page_raw t pg;
  match file_find t ino with
  | None -> ()
  | Some f ->
    f.f_index_pages <- List.filter (fun q -> q <> pg) f.f_index_pages;
    f.f_data_pages <- List.filter (fun q -> q <> pg) f.f_data_pages;
    f.f_dindex_pages <- List.filter (fun q -> q <> pg) f.f_dindex_pages

(* Migrate the salvageable bytes of media-damaged page [bad] (owned by
   file [ino]) to a freshly allocated page: patch the single on-NVM
   reference to it (the dentry's index head, an index entry, or an
   index page's next link), copy the content with the damaged
   [zero_lines] zeroed, retire [bad] and re-attribute everything.
   Returns the replacement page number. *)
let replace_page t ~ino ~bad ~zero_lines =
  let actor = Pmem.kernel_actor in
  match file_find t ino with
  | None -> Error Fs_types.ENOENT
  | Some f -> (
    match Ctl_alloc.alloc_page_any_node t ~preferred:(bad / Pmem.pages_per_node t.pmem) with
    | None -> Error Fs_types.ENOSPC
    | Some fresh ->
      let patched =
        match Layout.read_dentry t.pmem ~actor ~addr:f.f_dentry_addr with
        | Some (Ok (inode, _)) when inode.Layout.index_head = bad ->
          Layout.write_index_head t.pmem ~actor ~dentry_addr:f.f_dentry_addr fresh;
          true
        | Some (Ok (inode, _)) ->
          (* walk the chain for an entry or next-link equal to [bad];
             cycle-bounded like Layout.walk_index_chain *)
          let found = ref false in
          let max_pages = Pmem.total_pages t.pmem in
          let rec go page seen =
            if page <> 0 && page > Layout.root_dentry_page && page < max_pages && seen <= max_pages
            then begin
              let entries, next = Layout.read_index_page t.pmem ~actor ~page in
              Array.iteri
                (fun i e ->
                  if (not !found) && e = bad then begin
                    Layout.write_index_entry t.pmem ~actor ~page i fresh;
                    found := true
                  end)
                entries;
              if not !found then
                if next = bad then begin
                  Layout.write_index_next t.pmem ~actor ~page fresh;
                  found := true
                end
                else go next (seen + 1)
            end
          in
          go inode.Layout.index_head 0;
          !found
        | _ -> false
      in
      if not patched then begin
        put_free t fresh;
        Error Fs_types.EIO
      end
      else begin
        Pmem.set_kind t.pmem fresh (Pmem.kind_of t.pmem bad);
        let b = Pmem.read t.pmem ~actor ~addr:(bad * page_size) ~len:page_size in
        List.iter
          (fun line -> Bytes.fill b (line * Pmem.line_size) Pmem.line_size '\000')
          zero_lines;
        Pmem.write t.pmem ~actor ~addr:(fresh * page_size) ~src:b;
        Pmem.persist t.pmem ~addr:(fresh * page_size) ~len:page_size;
        set_page_owner t fresh (In_file ino);
        (* dentries living on a migrated directory page move with it *)
        iter_files t (fun _ (cf : file_info) ->
            if cf.f_dentry_addr / page_size = bad then
              cf.f_dentry_addr <- (fresh * page_size) + (cf.f_dentry_addr mod page_size));
        let remap q = if q = bad then fresh else q in
        f.f_index_pages <- List.map remap f.f_index_pages;
        f.f_data_pages <- List.map remap f.f_data_pages;
        f.f_dindex_pages <- List.map remap f.f_dindex_pages;
        (match f.f_checkpoint with
        | Some ck ->
          f.f_checkpoint <-
            Some
              {
                ck with
                ck_pages =
                  Page_map.fold (fun p b m -> Page_map.add (remap p) b m) ck.ck_pages Page_map.empty;
              }
        | None -> ());
        retire_page_raw t bad;
        Ok fresh
      end)

(* The root dentry lives at a fixed address (no parent directory to
   checkpoint it): rebuild it from the controller's soft state — shadow
   permissions, attributed pages, recounted live entries. *)
let rebuild_root_dentry t =
  let actor = Pmem.kernel_actor in
  match (file_find t Layout.root_ino, shadow_find t Layout.root_ino) with
  | Some f, Some s ->
    let size =
      List.fold_left
        (fun acc pg ->
          let b = Pmem.read t.pmem ~actor ~addr:(pg * page_size) ~len:page_size in
          let live = ref 0 in
          for slot = 0 to Layout.dentries_per_page - 1 do
            if Layout.get_u64 b (slot * Layout.dentry_size) <> 0 then incr live
          done;
          acc + !live)
        0 f.f_data_pages
    in
    let index_head = match f.f_index_pages with pg :: _ -> pg | [] -> 0 in
    let inode =
      {
        Layout.ino = Layout.root_ino;
        ftype = Fs_types.Dir;
        mode = s.Verifier.s_mode;
        uid = s.Verifier.s_uid;
        gid = s.Verifier.s_gid;
        size;
        index_head;
        mtime = 0;
        ctime = 0;
      }
    in
    (* Preserve the directory-index root when the old value still points
       at a page attributed to the root directory's index; anything else
       (torn byte range, stale value) resets to 0 — an unindexed
       directory is legal and the index is rebuildable from the leaves. *)
    let old_root = Layout.read_dindex_root t.pmem ~actor ~dentry_addr:Layout.root_dentry_addr in
    let dindex_root = if List.mem old_root f.f_dindex_pages then old_root else 0 in
    let b = Layout.encode_dentry ~dindex_root ~inode ~name:"/" () in
    Pmem.write t.pmem ~actor ~addr:Layout.root_dentry_addr ~src:b;
    Pmem.persist t.pmem ~addr:Layout.root_dentry_addr ~len:Layout.dentry_size;
    if dindex_root = 0 && f.f_dindex_pages <> [] then begin
      let stale = f.f_dindex_pages in
      f.f_dindex_pages <- [];
      List.iter (fun pg -> Ctl_alloc.release_page t pg) stale;
      Mmu.revoke_everyone_on_pages t.mmu ~pages:stale
    end
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Directory-index rebuild (DESIGN.md §4.18).

   The B-link index over a directory's name hashes is a rebuildable
   accelerator: the dentry pages are the source of truth.  When patrol
   scrub finds an uncorrectable index node — or anyone finds the tree
   structurally damaged — we do not try to patch pointers inside the
   tree; we drop the whole tree and rebuild it bottom-up from the live
   dentries.  Crash discipline: the dentry's root word is zeroed
   (persisted) before any old page is freed and only swung to the new
   root after the new tree is fully persisted, so a kill at any point
   leaves either the old tree, an unindexed directory, or the new
   tree — never a dangling root. *)

let rebuild_dindex t ~ino =
  let actor = Pmem.kernel_actor in
  match file_find t ino with
  | None -> Error Fs_types.ENOENT
  | Some f when f.f_ftype <> Fs_types.Dir -> Error Fs_types.ENOTDIR
  | Some f ->
    (* Detach: unindexed is always a safe intermediate state. *)
    Layout.write_dindex_root t.pmem ~actor ~dentry_addr:f.f_dentry_addr 0;
    let stale = f.f_dindex_pages in
    f.f_dindex_pages <- [];
    List.iter (fun pg -> Ctl_alloc.release_page t pg) stale;
    Mmu.revoke_everyone_on_pages t.mmu ~pages:stale;
    (* Collect live (hash, slot address) pairs from the dentry pages.
       Poisoned dentry blocks contribute nothing — their entries come
       back once the data page itself is repaired. *)
    let entries = ref [] in
    List.iter
      (fun pg ->
        for slot = 0 to Layout.dentries_per_page - 1 do
          let addr = Layout.dentry_slot_addr pg slot in
          match Layout.read_dentry t.pmem ~actor ~addr with
          | Some (Ok (_inode, name)) ->
            entries := (Dirindex.hash_name name, addr) :: !entries
          | Some (Error _) | None -> ()
        done)
      f.f_data_pages;
    let alloc () =
      Ctl_alloc.alloc_page_any_node t
        ~preferred:(f.f_dentry_addr / page_size / Pmem.pages_per_node t.pmem)
    in
    let free pg = put_free t pg in
    (match Dirindex.build ~stats:t.stats t.pmem ~actor ~alloc ~free ~entries:!entries with
    | Error `Nospace ->
      (* No room for an index: the directory stays unindexed (legal
         under I5) and every lookup falls back to the linear scan. *)
      Ok 0
    | Ok (root, pages) ->
      List.iter
        (fun pg ->
          set_page_owner t pg (In_file ino);
          Pmem.set_kind t.pmem pg Pmem.Meta)
        pages;
      f.f_dindex_pages <- pages;
      Layout.write_dindex_root t.pmem ~actor ~dentry_addr:f.f_dentry_addr root;
      Stats.incr t.stats "verify.dindex.rebuilds";
      Ok root)

(* Is [pg] attributed to [ino]'s directory index?  The scrubber asks
   this to pick the rebuild rung over page migration. *)
let dindex_member t ~ino pg =
  match file_find t ino with Some f -> List.mem pg f.f_dindex_pages | None -> false
