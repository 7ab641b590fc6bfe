(* Checkpoint store: verified-metadata snapshots, rollback, and the
   delta lookup behind incremental verification.

   A checkpoint holds the last *verified* bytes of a file's metadata
   pages together with the MMU write-set mark current when they were
   read.  While a page has no recorded content mutation past that mark,
   the snapshot bytes equal the device bytes bit for bit — so they can
   be (a) reused when the next checkpoint is taken and (b) served to
   the verifier in incremental mode (see {!Verifier}).  Any doubt —
   write-set overflow, no checkpoint, dirty page, a checkpoint decoded
   from a durable root — falls back to the device read, never the other
   way around. *)

module Pmem = Trio_nvm.Pmem
module Crc32 = Trio_util.Crc32
open Ctl_state

let page_size = Layout.page_size

let take_checkpoint t (f : file_info) =
  let actor = Pmem.kernel_actor in
  (* Capture the mark before any read: stores racing the snapshot then
     land after the mark and invalidate what they touched. *)
  let mark = Mmu.write_mark t.mmu in
  let old_ck = f.f_checkpoint in
  let reuse pg =
    match old_ck with
    | Some ck when Mmu.clean_since t.mmu ~mark:ck.ck_mark ~page:pg ->
      List.assoc_opt pg ck.ck_pages
    | _ -> None
  in
  let dentry = Pmem.read t.pmem ~actor ~addr:f.f_dentry_addr ~len:Layout.dentry_size in
  let meta_pages =
    match f.f_ftype with
    | Fs_types.Reg -> f.f_index_pages
    | Fs_types.Dir -> f.f_index_pages @ f.f_data_pages @ f.f_dindex_pages
  in
  let ck_pages =
    List.map
      (fun pg ->
        match reuse pg with
        | Some b -> (pg, b)
        | None -> (pg, Pmem.read t.pmem ~actor ~addr:(pg * page_size) ~len:page_size))
      meta_pages
  in
  let children =
    if f.f_ftype = Fs_types.Dir then
      List.concat_map
        (fun pg ->
          (* the snapshot just built holds every dir data page *)
          let b = List.assoc pg ck_pages in
          List.filter_map
            (fun slot ->
              let ino = Layout.get_u64 b (slot * Layout.dentry_size) in
              if ino = 0 then None else Some ino)
            (List.init Layout.dentries_per_page Fun.id))
        f.f_data_pages
    else []
  in
  let inode =
    match Layout.decode_dentry dentry with
    | Some (Ok (inode, _)) -> inode
    | _ ->
      (* unreadable dentry: checkpoint what we can *)
      {
        Layout.ino = f.f_ino;
        ftype = f.f_ftype;
        mode = 0;
        uid = 0;
        gid = 0;
        size = 0;
        index_head = 0;
        mtime = 0;
        ctime = 0;
      }
  in
  f.f_checkpoint <-
    Some
      {
        ck_dentry = dentry;
        ck_pages;
        ck_children = children;
        ck_size = inode.Layout.size;
        ck_index_head = inode.Layout.index_head;
        ck_mark = mark;
      }

(* Restore a file's metadata to the given checkpoint: the
   corruption-recovery policy of §4.3.  Pages referenced now but not at
   checkpoint time fall back to the offending process' allocation pool.
   [ck] may be the file's live checkpoint or one decoded from a durable
   snapshot root (see {!Ctl_snapshot}); durable sources are CRC-gated
   before they reach here, so the bytes written are never torn. *)
let restore_checkpoint t f ck ~offender =
  begin
    let actor = Pmem.kernel_actor in
    Pmem.write t.pmem ~actor ~addr:f.f_dentry_addr ~src:ck.ck_dentry;
    Pmem.persist t.pmem ~addr:f.f_dentry_addr ~len:Layout.dentry_size;
    List.iter
      (fun (pg, snapshot) ->
        Pmem.write t.pmem ~actor ~addr:(pg * page_size) ~src:snapshot;
        Pmem.persist t.pmem ~addr:(pg * page_size) ~len:page_size)
      ck.ck_pages;
    (* Pages added since the checkpoint return to the offender. *)
    let ck_set = List.map fst ck.ck_pages in
    let offender_info = proc_info t offender in
    List.iter
      (fun pg ->
        if not (List.mem pg ck_set) then begin
          set_page_owner t pg (Allocated_to offender);
          Hashtbl.replace offender_info.p_pages pg ()
        end)
      (f.f_index_pages @ f.f_data_pages @ f.f_dindex_pages);
    (* Recompute attribution by re-walking the restored metadata. *)
    (match walk_file t ~ino:f.f_ino ~dentry_addr:f.f_dentry_addr with
    | Some (_inode, index_pages, data_pages, dindex_pages) ->
      f.f_index_pages <- index_pages;
      f.f_data_pages <- data_pages;
      f.f_dindex_pages <- dindex_pages;
      List.iter
        (fun pg ->
          set_page_owner t pg (In_file f.f_ino);
          Hashtbl.remove offender_info.p_pages pg)
        (index_pages @ data_pages @ dindex_pages)
    | None -> ())
  end

let rollback_to_checkpoint t f ~offender =
  match f.f_checkpoint with
  | None -> ()
  | Some ck -> restore_checkpoint t f ck ~offender

let checkpoint_page_bytes t ~ino ~page =
  match file_find t ino with
  | Some { f_checkpoint = Some ck; _ } -> List.assoc_opt page ck.ck_pages
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Delta lookup for incremental verification *)

(* Serve [pg] from its *owning* file's checkpoint when provably clean.
   The lookup is global, not per-verified-file: a directory walk reads
   pages of child files too, and each is covered by its own file's
   checkpoint.  Returning [None] is always safe (device read). *)
let page_snapshot t pg =
  match owner_of t pg with
  | In_file ino -> (
    match file_find t ino with
    | Some { f_checkpoint = Some ck; _ } when Mmu.clean_since t.mmu ~mark:ck.ck_mark ~page:pg ->
      List.assoc_opt pg ck.ck_pages
    | _ -> None)
  | Free | Allocated_to _ -> None

let delta_of t =
  match current_verify_mode () with
  | Full -> None
  | Incremental -> Some (fun pg -> page_snapshot t pg)

(* ------------------------------------------------------------------ *)
(* Durable encoding.  Checkpoints are DRAM soft state; serializing them
   into a snapshot root must round-trip exactly and detect torn
   records, hence the trailing CRC.  Layout, all integers
   u64-in-8-bytes little endian:

     magic "TRCK" | version | ck_size | ck_index_head
     | dentry len + bytes | npages | (page no + page bytes)*
     | nchildren | child ino* | crc32 of everything above

   The write mark is not encoded: it means something only to the MMU
   that issued it, and a recovered controller runs on a fresh one.  A
   decoded checkpoint carries {!Mmu.no_mark}, so its bytes can restore
   a file but never stand in for the device. *)

let magic = "TRCK"
let version = 2

let encode_checkpoint (ck : checkpoint) =
  let buf = Buffer.create (256 + (List.length ck.ck_pages * (page_size + 8))) in
  let u64 n =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int n);
    Buffer.add_bytes buf b
  in
  Buffer.add_string buf magic;
  u64 version;
  u64 ck.ck_size;
  u64 ck.ck_index_head;
  u64 (Bytes.length ck.ck_dentry);
  Buffer.add_bytes buf ck.ck_dentry;
  u64 (List.length ck.ck_pages);
  List.iter
    (fun (pg, b) ->
      u64 pg;
      u64 (Bytes.length b);
      Buffer.add_bytes buf b)
    ck.ck_pages;
  u64 (List.length ck.ck_children);
  List.iter u64 ck.ck_children;
  let body = Buffer.to_bytes buf in
  u64 (Crc32.of_bytes body);
  Buffer.to_bytes buf

let decode_checkpoint b =
  let fail msg = Error ("decode_checkpoint: " ^ msg) in
  let len = Bytes.length b in
  if len < String.length magic + 8 then fail "truncated"
  else begin
    let crc_off = len - 8 in
    let stored_crc = Int64.to_int (Bytes.get_int64_le b crc_off) in
    if Crc32.of_bytes ~pos:0 ~len:crc_off b <> stored_crc then fail "bad crc"
    else if Bytes.sub_string b 0 (String.length magic) <> magic then fail "bad magic"
    else begin
      let pos = ref (String.length magic) in
      let u64 () =
        if !pos + 8 > crc_off then failwith "truncated";
        let v = Int64.to_int (Bytes.get_int64_le b !pos) in
        pos := !pos + 8;
        v
      in
      let bytes n =
        if n < 0 || !pos + n > crc_off then failwith "truncated";
        let v = Bytes.sub b !pos n in
        pos := !pos + n;
        v
      in
      match
        let v = u64 () in
        if v <> version then failwith "bad version";
        let ck_size = u64 () in
        let ck_index_head = u64 () in
        let ck_dentry = bytes (u64 ()) in
        let npages = u64 () in
        let ck_pages =
          List.init npages (fun _ ->
              let pg = u64 () in
              let b = bytes (u64 ()) in
              (pg, b))
        in
        let nchildren = u64 () in
        let ck_children = List.init nchildren (fun _ -> u64 ()) in
        if !pos <> crc_off then failwith "trailing garbage";
        { ck_dentry; ck_pages; ck_children; ck_size; ck_index_head; ck_mark = Mmu.no_mark }
      with
      | ck -> Ok ck
      | exception Failure msg -> fail msg
    end
  end
