(* Whole-FS copy-on-write snapshots (DESIGN.md §4.16).

   A snapshot is a durable root record naming a payload chain of pages
   that carries every file's last *verified* checkpoint (the per-file
   delta checkpoints of {!Ctl_checkpoint}, serialized with their own
   CRCs).  Publication is transactional: the payload is written first
   into freshly allocated pages, then a 64-byte root record — one
   cacheline, a single-line store under the crash model — commits the
   snapshot into the slot NOT holding the current root.  Until that
   store persists, the previous root is untouched, so a crash at any
   Delay boundary of publication leaves at least one intact root.

   Payload pages are pinned ([Ctl_state.snap_pinned]) until the next
   root supersedes them: their page-owner entries stay [Free] (the GC
   sweep never visits them) and they are their own term of the
   accounting invariant.

   Publication is deliberately NOT shielded: the crash-exploration
   campaigns kill it at every Delay boundary and assert the ≥1-valid-
   root property.  Callers wanting a quiesced pipeline drain it first
   (the {!Controller} facade does). *)

module Pmem = Trio_nvm.Pmem
module Sched = Trio_sim.Sched
module Crc32 = Trio_util.Crc32
module Extent_alloc = Trio_util.Extent_alloc
open Ctl_state

let page_size = Layout.page_size

(* Each payload page carries [page_size - 8] stream bytes; the last 8
   bytes hold the next chain page number (0 = end of chain). *)
let payload_per_page = page_size - 8
let stream_magic = "TRSP"

type entry = {
  e_ino : int;
  e_dentry_addr : int;
  e_parent : int;
  e_blob : Bytes.t;  (** [Ctl_checkpoint.encode_checkpoint] output, self-CRC'd *)
}

let entry_checkpoint e = Ctl_checkpoint.decode_checkpoint e.e_blob

(* ------------------------------------------------------------------ *)
(* Stream encoding.  All integers u64-in-8-bytes little endian:

     magic "TRSP" | epoch | nfiles
     | (ino | dentry addr | parent | blob len | blob)*

   The root record carries a CRC32 of the whole stream; each blob
   additionally carries its own, so single-file damage is localized. *)

let parse_stream b =
  let fail msg = Error ("snapshot stream: " ^ msg) in
  let len = Bytes.length b in
  if len < String.length stream_magic + 16 then fail "truncated"
  else if Bytes.sub_string b 0 (String.length stream_magic) <> stream_magic then fail "bad magic"
  else begin
    let pos = ref (String.length stream_magic) in
    let u64 () =
      if !pos + 8 > len then failwith "truncated";
      let v = Int64.to_int (Bytes.get_int64_le b !pos) in
      pos := !pos + 8;
      v
    in
    let bytes n =
      if n < 0 || !pos + n > len then failwith "truncated";
      let v = Bytes.sub b !pos n in
      pos := !pos + n;
      v
    in
    match
      let epoch = u64 () in
      let nfiles = u64 () in
      if nfiles < 0 || nfiles > len then failwith "bad file count";
      let entries =
        List.init nfiles (fun _ ->
            let e_ino = u64 () in
            let e_dentry_addr = u64 () in
            let e_parent = u64 () in
            let e_blob = bytes (u64 ()) in
            { e_ino; e_dentry_addr; e_parent; e_blob })
      in
      if !pos <> len then failwith "trailing garbage";
      (epoch, entries)
    with
    | v -> Ok v
    | exception Failure msg -> fail msg
  end

(* ------------------------------------------------------------------ *)
(* Static root validation — pure functions of the device, usable by
   crash recovery and the exploration campaigns before any controller
   state exists.  Payload reads go through the ECC path: a poisoned
   chain page invalidates the root rather than feeding garbage (or a
   fault) into recovery. *)

let read_payload pm ~head ~npages ~len =
  let total = Pmem.total_pages pm in
  if npages <= 0 || len < 0 || len > npages * payload_per_page then
    Error "implausible payload geometry"
  else begin
    let buf = Bytes.create (npages * payload_per_page) in
    let rec go page i acc =
      if i = npages then
        if page = 0 then Ok (Bytes.sub buf 0 len, List.rev acc)
        else Error "payload chain longer than declared"
      else if page <= Layout.root_dentry_page || page >= total then
        Error "payload chain page outside the volume"
      else if List.mem page acc then Error "payload chain cycle"
      else
        match
          Pmem.read_ecc pm ~actor:Pmem.kernel_actor ~addr:(page * page_size) ~len:page_size
        with
        | Pmem.Ecc.Poisoned _ -> Error "payload page poisoned"
        | Pmem.Ecc.Ok b ->
          Bytes.blit b 0 buf (i * payload_per_page) payload_per_page;
          go (Layout.get_u64 b (page_size - 8)) (i + 1) (page :: acc)
    in
    go head 0 []
  end

(* A fully valid root: slot CRC, payload chain readable, stream CRC,
   stream header consistent with the slot.  Anything less and the slot
   does not exist as far as recovery is concerned. *)
let validate_slot pm ~slot =
  match Layout.read_snap_root pm ~slot with
  | None -> None
  | Some r -> (
    match read_payload pm ~head:r.Layout.sr_head ~npages:r.Layout.sr_npages ~len:r.Layout.sr_payload_len with
    | Error _ -> None
    | Ok (stream, pages) ->
      if Crc32.of_bytes stream <> r.Layout.sr_payload_crc then None
      else (
        match parse_stream stream with
        | Ok (epoch, _) when epoch = r.Layout.sr_epoch -> Some (r, stream, pages)
        | _ -> None))

let root_status pm ~slot =
  match validate_slot pm ~slot with Some (r, _, _) -> Some r.Layout.sr_epoch | None -> None

(* Valid roots, newest epoch first. *)
let valid_roots pm =
  List.filter_map
    (fun slot ->
      match validate_slot pm ~slot with
      | Some (r, stream, pages) -> Some (slot, r, stream, pages)
      | None -> None)
    (List.init Layout.snap_slots Fun.id)
  |> List.sort (fun (_, a, _, _) (_, b, _, _) -> compare b.Layout.sr_epoch a.Layout.sr_epoch)

(* ------------------------------------------------------------------ *)
(* Publication *)

(* A published dir page must only name children the same snapshot
   carries, each at the slot the child's own entry claims — files the
   snapshot skipped (active writers with no checkpoint yet) and slots
   stale after a rename are tombstoned in the *emitted copy* (the
   device page is never touched).  This keeps every root
   self-consistent: mounting it can never surface a dentry whose inode
   the snapshot does not describe. *)
let ck_data_pages t ck =
  let _, data_pages, _ = chain_pages ~fetch:(checkpoint_page ck) t ~head:ck.ck_index_head in
  data_pages

let sanitize_dir_ck t ~emitted (f : file_info) ck =
  let dentry_pages = ck_data_pages t ck in
  let tombstoned = ref false in
  let ck_pages =
    Page_map.mapi
      (fun pg b ->
        if not (List.mem pg dentry_pages) then b
        else begin
          let b = Bytes.copy b in
          for slot = 0 to Layout.dentries_per_page - 1 do
            let off = slot * Layout.dentry_size in
            let ino = Layout.get_u64 b off in
            if ino <> 0 then begin
              match Hashtbl.find_opt emitted ino with
              | Some da when da = Layout.dentry_slot_addr pg slot -> ()
              | _ ->
                Bytes.fill b off Layout.dentry_size '\000';
                tombstoned := true
            end
          done;
          b
        end)
      ck.ck_pages
  in
  let ck_children = List.filter (Hashtbl.mem emitted) ck.ck_children in
  if not !tombstoned then { ck with ck_pages; ck_children }
  else begin
    (* Tombstoning made the emitted dentry pages disagree with the
       directory's B-link index (dangling entries — an I5 violation on
       restore).  Drop the index from the emitted copy instead:
       unindexed is legal, and a mount of this root rebuilds the tree
       lazily from the dentries it actually carries. *)
    let ck_dentry = Bytes.copy ck.ck_dentry in
    Layout.set_u64 ck_dentry Layout.off_dindex_root 0;
    let ck_pages = Page_map.filter (fun pg _ -> not (List.mem pg f.f_dindex_pages)) ck_pages in
    { ck with ck_dentry; ck_pages; ck_children }
  end

(* Publish a new whole-FS snapshot root.  Incremental by construction:
   files whose checkpoint is current contribute their existing bytes
   (take_checkpoint reuses provably-clean pages without device reads);
   only files with no checkpoint and no active writer are checkpointed
   on the spot.  Files mid-write or failed are skipped — a snapshot
   carries verified states only. *)
let publish t =
  let files =
    fold_files t (fun ino f acc -> (ino, f) :: acc) []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (_, f) ->
      if
        f.f_checkpoint = None && f.f_writers = [] && f.f_unverified = None
        && (not f.f_verifying) && f.f_degraded = Healthy
      then Ctl_checkpoint.take_checkpoint t f)
    files;
  let chosen =
    List.filter_map
      (fun (ino, f) ->
        match f.f_checkpoint with
        | Some ck when f.f_degraded <> Failed -> Some (ino, f, ck)
        | _ -> None)
      files
  in
  let emitted = Hashtbl.create (List.length chosen) in
  List.iter (fun (ino, f, _) -> Hashtbl.replace emitted ino f.f_dentry_addr) chosen;
  let epoch = t.snap_epoch + 1 in
  let buf = Buffer.create 4096 in
  let u64 n =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int n);
    Buffer.add_bytes buf b
  in
  Buffer.add_string buf stream_magic;
  u64 epoch;
  u64 (List.length chosen);
  List.iter
    (fun (ino, f, ck) ->
      let ck = if f.f_ftype = Fs_types.Dir then sanitize_dir_ck t ~emitted f ck else ck in
      let blob = Ctl_checkpoint.encode_checkpoint ck in
      u64 ino;
      u64 f.f_dentry_addr;
      u64 f.f_parent;
      u64 (Bytes.length blob);
      Buffer.add_bytes buf blob)
    chosen;
  let stream = Buffer.to_bytes buf in
  let len = Bytes.length stream in
  let npages = max 1 ((len + payload_per_page - 1) / payload_per_page) in
  match Ctl_alloc.alloc_snapshot_pages t ~count:npages with
  | None -> Error Fs_types.ENOSPC
  | Some pages ->
    let actor = Pmem.kernel_actor in
    let root =
      {
        Layout.sr_epoch = epoch;
        sr_head = List.hd pages;
        sr_npages = npages;
        sr_payload_len = len;
        sr_payload_crc = Crc32.of_bytes stream;
      }
    in
    let write_payload () =
      List.iteri
        (fun i pg ->
          let b = Bytes.make page_size '\000' in
          let off = i * payload_per_page in
          let chunk = max 0 (min payload_per_page (len - off)) in
          if chunk > 0 then Bytes.blit stream off b 0 chunk;
          Layout.set_u64 b (page_size - 8)
            (match List.nth_opt pages (i + 1) with Some p -> p | None -> 0);
          Pmem.write t.pmem ~actor ~addr:(pg * page_size) ~src:b;
          Pmem.persist t.pmem ~addr:(pg * page_size) ~len:page_size)
        pages
    in
    (* [Mutation.Torn_commit] writes the root BEFORE the payload, into
       the LIVE slot: a kill in the window leaves zero valid roots. *)
    let torn = Mutation.active Torn_commit in
    let slot =
      if torn then t.snap_slot
      else if t.snap_epoch = 0 then 0
      else 1 - t.snap_slot
    in
    if torn then begin
      (* BUG ON PURPOSE (gated): root first, payload second, live slot. *)
      Layout.write_snap_root t.pmem ~slot root;
      write_payload ()
    end
    else begin
      write_payload ();
      (* The commit point: one persisted cacheline store. *)
      Layout.write_snap_root t.pmem ~slot root
    end;
    let superseded = t.snap_pages in
    t.snap_pages <- pages;
    t.snap_epoch <- epoch;
    t.snap_slot <- slot;
    Ctl_alloc.release_snapshot_pages t superseded;
    Ok epoch

(* ------------------------------------------------------------------ *)
(* Lookup into the current durable root *)

let entries t =
  if t.snap_epoch = 0 then Error "no snapshot published"
  else
    match validate_slot t.pmem ~slot:t.snap_slot with
    | None -> Error "current snapshot root unreadable"
    | Some (r, stream, _) -> (
      match parse_stream stream with
      | Error e -> Error e
      | Ok (_, entries) -> Ok (r.Layout.sr_epoch, entries))

let entry_for t ino =
  match entries t with
  | Error e -> Error e
  | Ok (_, es) -> (
    match List.find_opt (fun e -> e.e_ino = ino) es with
    | None -> Error "file not in snapshot"
    | Some e -> (
      match entry_checkpoint e with
      | Error msg -> Error msg
      | Ok ck -> Ok (e, ck)))

(* Last-verified bytes of [page] from the durable root — the scrubber's
   deepest repair source when DRAM checkpoints are gone. *)
let snapshot_page_bytes t ~ino ~page =
  match entry_for t ino with
  | Error _ -> None
  | Ok (_, ck) -> checkpoint_page ck page

(* Roll one file back to its state in the durable root — the rung
   below DRAM-checkpoint rollback on the recovery ladder.  Every byte
   comes through the ECC + CRC gauntlet (payload chain read_ecc, stream
   CRC, per-blob CRC): a poisoned or torn snapshot is *detected* and
   reported, never blindly written over the device. *)
let restore_file t f ~offender =
  match entry_for t f.f_ino with
  | Error e ->
    Ctl_media.record_media_event t ~ino:f.f_ino ~detail:("snapshot restore failed: " ^ e);
    Error e
  | Ok (e, ck) ->
    if e.e_dentry_addr <> f.f_dentry_addr then Error "file moved since snapshot"
    else begin
      Ctl_checkpoint.restore_checkpoint t f ck ~offender;
      (* The restored checkpoint becomes the file's live one; a decoded
         checkpoint carries no mark, so [Mmu.clean_since] stays false
         and every later read honestly hits the device. *)
      f.f_checkpoint <- Some ck;
      mark_snapshot_restored t f.f_ino;
      Ok ()
    end

(* ------------------------------------------------------------------ *)
(* Mounting from NVM.  Both mounts rebuild the whole controller state:
   the fsck walk from the core state alone, the root mount from the
   newest intact snapshot root.  They share the superblock check, the
   empty starting state and the adoption of each file. *)

let check_superblock pmem =
  match Layout.read_superblock pmem ~actor:Pmem.kernel_actor with
  | Error e -> Error e
  | Ok (total_pages, page_size', root_ino', root_addr) ->
    if total_pages <> Pmem.total_pages pmem || page_size' <> page_size then
      Error "superblock geometry mismatch"
    else if root_ino' <> Layout.root_ino || root_addr <> Layout.root_dentry_addr then
      Error "unexpected root location"
    else Ok ()

(* A state holding only the superblock and root dentry pages. *)
let empty_state ~sched ~pmem ~mmu ~lease_ns =
  let t = make ~sched ~pmem ~mmu ~lease_ns in
  set_page_owner t 0 (In_file Layout.root_ino);
  set_page_owner t Layout.root_dentry_page (In_file Layout.root_ino);
  t

(* Register one file read from NVM: its ino owner, shadow inode and
   [next_ino], every page its index chain and B-link tree reach (each
   claimed once, inside the volume), and its record.  [fetch] serves
   pages from the snapshot's checkpoint instead of the device.  The
   index root is read ([dindex_root]) for a directory only, after its
   chain.  Raises [Failure] on anything an intact tree cannot hold. *)
let adopt ?fetch t ~parent ~dentry_addr ~dindex_root (inode : Layout.inode) =
  let ino = inode.Layout.ino in
  if ino_owner_of t ino <> Ino_free then failwith (Printf.sprintf "inode %d appears twice" ino);
  set_ino_owner t ino (Ino_in_dir parent);
  set_shadow t ino
    {
      Verifier.s_ftype = inode.Layout.ftype;
      s_mode = inode.Layout.mode land 0o7777;
      s_uid = inode.Layout.uid;
      s_gid = inode.Layout.gid;
    };
  if ino >= t.next_ino then t.next_ino <- ino + 1;
  let claim pg =
    if pg <= Layout.root_dentry_page || pg >= Pmem.total_pages t.pmem then
      failwith (Printf.sprintf "page %d out of range" pg)
    else if Hashtbl.mem t.page_owner pg || snap_pinned_mem t pg then
      failwith (Printf.sprintf "page %d doubly referenced" pg)
    else begin
      set_page_owner t pg (In_file ino);
      Extent_alloc.alloc_at t.node_allocs.(node_of_page t pg) pg 1
    end
  in
  let index_pages, data_pages, verdict =
    chain_pages ?fetch ~claim t ~head:inode.Layout.index_head
  in
  (match verdict with Ok () -> () | Error e -> failwith e);
  let dindex_pages =
    if inode.Layout.ftype = Fs_types.Dir then
      Dirindex.pages ?fetch t.pmem ~actor:Pmem.kernel_actor ~root:(dindex_root ())
    else []
  in
  List.iter claim dindex_pages;
  let f =
    new_file ~ino ~dentry_addr ~parent ~ftype:inode.Layout.ftype ~index_pages ~data_pages
      ~dindex_pages ()
  in
  set_file t ino f;
  f

(* After the fsck walk, re-pin the newest valid root's payload chain so
   its pages cannot be handed out — otherwise the first allocation storm
   would destroy the very state a later rollback needs.  A chain page
   the walk claimed for a file means the root is stale beyond use: it
   stays unpinned and the next publish supersedes the slots. *)
let pin_newest_root t =
  match valid_roots t.pmem with
  | [] -> ()
  | (slot, root, _, pages) :: _ -> (
    let rec pin acc = function
      | [] -> Some (List.rev acc)
      | pg :: rest ->
        if Ctl_alloc.pin_snapshot_page t pg then pin (pg :: acc) rest
        else begin
          Ctl_alloc.release_snapshot_pages t acc;
          None
        end
    in
    match pin [] pages with
    | None -> ()
    | Some pages ->
      t.snap_epoch <- root.Layout.sr_epoch;
      t.snap_slot <- slot;
      t.snap_pages <- pages)

(* The fsck walk: rebuild page/inode ownership, shadow inodes, file
   records and free space purely from the core state on NVM, walking the
   whole tree from the root — the deepest consequence of the paper's
   state separation: everything the trusted entities keep in DRAM is
   soft state (§3.2).  [Error] on structural corruption. *)
let cold_start ~sched ~pmem ~mmu ?(lease_ns = 100.0e6) () =
  match check_superblock pmem with
  | Error e -> Error ("cold_start: " ^ e)
  | Ok () -> (
    let t = empty_state ~sched ~pmem ~mmu ~lease_ns in
    let actor = Pmem.kernel_actor in
    let rec walk ~parent ~dentry_addr =
      match Layout.read_dentry pmem ~actor ~addr:dentry_addr with
      | None -> ()
      | Some (Error e) -> failwith ("undecodable dentry: " ^ e)
      | Some (Ok (inode, _name)) ->
        let f =
          adopt t ~parent ~dentry_addr inode ~dindex_root:(fun () ->
              Layout.read_dindex_root pmem ~actor ~dentry_addr)
        in
        if f.f_ftype = Fs_types.Dir then
          List.iter
            (fun pg ->
              let b = Pmem.read pmem ~actor ~addr:(pg * page_size) ~len:page_size in
              for slot = 0 to Layout.dentries_per_page - 1 do
                if Layout.get_u64 b (slot * Layout.dentry_size) <> 0 then
                  walk ~parent:f.f_ino ~dentry_addr:(Layout.dentry_slot_addr pg slot)
              done)
            f.f_data_pages
    in
    match walk ~parent:Layout.root_ino ~dentry_addr:Layout.root_dentry_addr with
    | exception Failure msg -> Error ("cold_start: " ^ msg)
    | () ->
      pin_newest_root t;
      Ok t)

(* Rebuild a full controller state from a validated root, with NO
   device reads besides the payload chain itself: page attribution
   comes from walking each entry's checkpointed index pages in DRAM.
   Claims happen before any device write, so a failed candidate leaves
   the device untouched for the next candidate / the fsck fallback. *)
let build_state ~sched ~pmem ~mmu ~lease_ns (slot, root, stream, chain) =
  match parse_stream stream with
  | Error e -> Error e
  | Ok (_, raw_entries) -> (
    try
      let decoded =
        List.map
          (fun e ->
            match entry_checkpoint e with
            | Ok ck -> (e, ck)
            | Error msg -> failwith msg)
          raw_entries
      in
      let t = empty_state ~sched ~pmem ~mmu ~lease_ns in
      List.iter
        (fun pg ->
          if not (Ctl_alloc.pin_snapshot_page t pg) then
            failwith (Printf.sprintf "payload page %d conflicts" pg))
        chain;
      (* Phase 1: claim pages and register records (device untouched).
         A directory's B-link index pages ride the checkpoint too: they
         are claimed so the restored tree stays attributed (and the
         verifier's I5 audit can hold it to the dentries). *)
      List.iter
        (fun (e, ck) ->
          let inode =
            match Layout.decode_dentry ck.ck_dentry with
            | Some (Ok (inode, _)) -> inode
            | _ -> failwith (Printf.sprintf "undecodable snapshot dentry for inode %d" e.e_ino)
          in
          if inode.Layout.ino <> e.e_ino then failwith "dentry/entry inode mismatch";
          let f =
            adopt ~fetch:(checkpoint_page ck) t ~parent:e.e_parent ~dentry_addr:e.e_dentry_addr
              inode ~dindex_root:(fun () -> Layout.get_u64 ck.ck_dentry Layout.off_dindex_root)
          in
          f.f_checkpoint <- Some ck)
        decoded;
      if file_find t Layout.root_ino = None then failwith "snapshot carries no root directory";
      (* Phase 2: roll the device back to the snapshot — metadata pages
         first, then dentries (a child's own dentry, possibly newer
         than its parent's page copy, must win).  Kernel writes heal
         any poison on the way. *)
      let actor = Pmem.kernel_actor in
      let restore_bytes addr src =
        let len = Bytes.length src in
        let differs =
          match Pmem.read_ecc pmem ~actor ~addr ~len with
          | Pmem.Ecc.Ok b -> not (Bytes.equal b src)
          | Pmem.Ecc.Poisoned _ -> true
        in
        if differs then begin
          Pmem.write pmem ~actor ~addr ~src;
          Pmem.persist pmem ~addr ~len
        end
      in
      List.iter
        (fun (_, ck) ->
          Page_map.iter (fun pg b -> restore_bytes (pg * page_size) b) ck.ck_pages)
        decoded;
      List.iter (fun (e, ck) -> restore_bytes e.e_dentry_addr ck.ck_dentry) decoded;
      List.iter (fun (e, _) -> mark_snapshot_restored t e.e_ino) decoded;
      t.snap_epoch <- root.Layout.sr_epoch;
      t.snap_slot <- slot;
      t.snap_pages <- chain;
      Ok t
    with Failure msg -> Error ("mount_root: " ^ msg))

(* O(1)-ish crash mount: validate the two root slots, mount the newest
   one whose payload checks out end to end.  [Error] sends the caller
   down the ladder to the fsck walk ({!cold_start}). *)
let mount_root ~sched ~pmem ~mmu ?(lease_ns = 100.0e6) () =
  match check_superblock pmem with
  | Error e -> Error ("mount_root: " ^ e)
  | Ok () ->
    let rec try_all = function
      | [] -> Error "mount_root: no intact snapshot root"
      | ((_, root, _, _) as cand) :: rest -> (
        match build_state ~sched ~pmem ~mmu ~lease_ns cand with
        | Ok t -> Ok (t, root.Layout.sr_epoch)
        | Error _ when rest <> [] -> try_all rest
        | Error e -> Error e)
    in
    try_all (valid_roots pmem)
