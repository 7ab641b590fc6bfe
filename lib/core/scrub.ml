(* Background patrol scrubber (DESIGN.md §4.11).

   Periodically sweeps the device for poisoned cachelines and tries to
   bring the core state back to health without ever panicking:

   - free / LibFS-allocated pages: the damaged lines carried no ingested
     state; they are zero-filled in place (the rewrite heals the line).
   - pages of a file with a checkpoint: the damaged lines are rewritten
     from the last *verified* checkpoint copy the controller holds — a
     true repair, no data lost.
   - the root dentry (fixed location, no parent to checkpoint it): the
     block is rebuilt from the controller's soft state + shadow inode.
   - anything else: the page is migrated to a fresh page (salvageable
     lines copied, damaged lines zeroed), the dead page is retired to
     the badblock list, and the owning file is degraded to read-only —
     or to Failed when even migration is impossible.  Either way a
     [`Media] corruption event is recorded.

   Pages whose file is currently write-mapped are skipped this round
   (the writer's own stores heal lines as they land; whatever remains is
   caught by a later patrol, after verification refreshed the
   checkpoint).  Badblocked pages are skipped forever: that media is
   known bad.

   The scrubber runs as a kernel actor, whose accesses neither draw
   injected faults nor trip on poison — it *detects* poison through the
   ECC interface ({!Pmem.page_poisoned_lines}) like a real patrol read
   would. *)

module Pmem = Trio_nvm.Pmem

type stats = {
  mutable rounds : int;
  mutable scanned : int; (* poisoned pages examined *)
  mutable lines_detected : int;
  mutable repaired : int; (* lines restored from a checkpoint / rebuilt *)
  mutable scrubbed : int; (* lines zero-filled on free/allocated pages *)
  mutable migrated : int; (* pages migrated to a replacement *)
  mutable quarantined : int; (* pages retired to the badblock list *)
  mutable deferred : int; (* pages skipped: file write-mapped *)
  mutable degraded : int; (* files degraded this scrubber's lifetime *)
}

let make_stats () =
  {
    rounds = 0;
    scanned = 0;
    lines_detected = 0;
    repaired = 0;
    scrubbed = 0;
    migrated = 0;
    quarantined = 0;
    deferred = 0;
    degraded = 0;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "rounds %d  pages scanned %d  lines detected %d  repaired %d  scrubbed %d  migrated %d  \
     quarantined %d  deferred %d  files degraded %d"
    s.rounds s.scanned s.lines_detected s.repaired s.scrubbed s.migrated s.quarantined s.deferred
    s.degraded

let line_size = Pmem.line_size
let page_size = Pmem.page_size

(* Group the device-wide poisoned-line list by page. *)
let poisoned_by_page pmem =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (pg, line) ->
      let prev = Option.value (Hashtbl.find_opt tbl pg) ~default:[] in
      Hashtbl.replace tbl pg (line :: prev))
    (Pmem.poisoned_lines pmem);
  Hashtbl.fold (fun pg lines acc -> (pg, List.sort compare lines) :: acc) tbl []
  |> List.sort compare

let zero_fill pmem ~page ~lines =
  let actor = Pmem.kernel_actor in
  let zeros = Bytes.make line_size '\000' in
  List.iter
    (fun line ->
      let addr = (page * page_size) + (line * line_size) in
      Pmem.write pmem ~actor ~addr ~src:zeros;
      Pmem.persist pmem ~addr ~len:line_size)
    lines

(* Rewrite the damaged lines of [page] from the checkpoint copy. *)
let repair_from_checkpoint pmem ~page ~lines ~snapshot =
  let actor = Pmem.kernel_actor in
  List.iter
    (fun line ->
      let off = line * line_size in
      let src = Bytes.sub snapshot off line_size in
      Pmem.write pmem ~actor ~addr:((page * page_size) + off) ~src;
      Pmem.persist pmem ~addr:((page * page_size) + off) ~len:line_size)
    lines

(* The root dentry block occupies the first [dentry_size] bytes of the
   root dentry page. *)
let root_block_lines = Layout.dentry_size / line_size

let scrub_root_page ctl st ~lines =
  let pmem = Controller.pmem ctl in
  let in_block, outside = List.partition (fun l -> l < root_block_lines) lines in
  if outside <> [] then begin
    zero_fill pmem ~page:Layout.root_dentry_page ~lines:outside;
    st.scrubbed <- st.scrubbed + List.length outside
  end;
  if in_block <> [] then begin
    Controller.rebuild_root_dentry ctl;
    st.repaired <- st.repaired + List.length in_block
  end

(* Handle one poisoned page owned by file [ino]. *)
let scrub_file_page ctl st ~ino ~page ~lines =
  let pmem = Controller.pmem ctl in
  match Controller.writer_of ctl ino with
  | Some _ -> st.deferred <- st.deferred + 1
  | None -> (
    match
      (* Repair-source ladder: DRAM checkpoint first (newest verified
         bytes), then the durable snapshot root (survives controller
         restarts; every byte ECC + CRC gated on the way out). *)
      match Controller.checkpoint_page_bytes ctl ~ino ~page with
      | Some s -> Some s
      | None -> Controller.snapshot_page_bytes ctl ~ino ~page
    with
    | Some snapshot ->
      repair_from_checkpoint pmem ~page ~lines ~snapshot;
      st.repaired <- st.repaired + List.length lines
    | None ->
      if Controller.dindex_member ctl ~ino page then begin
        (* A directory-index node with no verified copy is not worth
           patching line by line: the index is a rebuildable accelerator
           (DESIGN.md §4.18), the dentry pages are the source of truth.
           Rebuild the whole tree from the live dentries, then zero-fill
           the damaged lines of the now-free page so the media heals
           before the allocator hands it out again.  No migration, no
           degradation, nothing lost. *)
        (match Controller.rebuild_dindex ctl ~ino with
        | Ok _ ->
          zero_fill pmem ~page ~lines;
          st.repaired <- st.repaired + List.length lines
        | Error _ ->
          Controller.quarantine_page ctl ~ino page;
          st.quarantined <- st.quarantined + 1)
      end
      else if page = Layout.root_dentry_page then scrub_root_page ctl st ~lines
      else begin
        (* No good copy anywhere: migrate what survives, retire the
           page, degrade the file. *)
        let detail =
          Printf.sprintf "media: page %d lost %d cacheline(s)" page (List.length lines)
        in
        match Controller.replace_page ctl ~ino ~bad:page ~zero_lines:lines with
        | Ok _fresh ->
          st.migrated <- st.migrated + 1;
          st.quarantined <- st.quarantined + 1;
          st.degraded <- st.degraded + 1;
          Controller.degrade_file ctl ~ino Controller.Degraded_ro ~detail
        | Error _ ->
          Controller.quarantine_page ctl ~ino page;
          st.quarantined <- st.quarantined + 1;
          st.degraded <- st.degraded + 1;
          Controller.degrade_file ctl ~ino Controller.Failed ~detail
      end)

(* One full patrol pass.  Returns the number of poisoned lines seen.
   The scrubber repairs from *verified* checkpoints, so it quiesces the
   verification pipeline first: a queued verification may still have to
   ingest a fresh file or refresh the checkpoint it repairs from. *)
let patrol_once ?(stats = make_stats ()) ctl =
  Controller.drain_verification ctl;
  let pmem = Controller.pmem ctl in
  let bad = Controller.badblocks ctl in
  stats.rounds <- stats.rounds + 1;
  List.iter
    (fun (page, lines) ->
      (* Snapshot payload pages look [Free] but hold the only copy of
         the durable root: zero-filling them would destroy it.  Poison
         there is left for root validation to reject (the chain read
         goes through ECC) — there is no older copy to repair from. *)
      if not (List.mem page bad) && not (Controller.snap_pinned_mem ctl page) then begin
        stats.scanned <- stats.scanned + 1;
        stats.lines_detected <- stats.lines_detected + List.length lines;
        match Controller.page_owner_of ctl page with
        | Controller.In_file ino -> scrub_file_page ctl stats ~ino ~page ~lines
        | Controller.Free | Controller.Allocated_to _ ->
          (* nothing ingested lives here; the damaged lines' content was
             already lost, so zero-filling is the honest repair *)
          zero_fill pmem ~page ~lines;
          stats.scrubbed <- stats.scrubbed + List.length lines
      end)
    (poisoned_by_page pmem);
  stats
