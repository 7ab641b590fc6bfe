(* Checkpoint store: verified-metadata snapshots, rollback, and the
   delta lookup behind incremental verification.

   A checkpoint holds the last *verified* bytes of a file's metadata
   pages together with the MMU write-set mark current when they were
   read.  While a page has no recorded content mutation past that mark,
   the snapshot bytes equal the device bytes bit for bit — so they can
   be (a) reused when the next checkpoint is taken, (b) served to the
   verifier in incremental mode (see {!Verifier}) and (c) served to the
   map walk.  A verification pass's read set ({!Ctl_state.reads}) obeys
   the same rule against its own mark, so the checkpoint that ends an
   ingestion takes the pages the verifier just read without reading
   them again.  Any doubt — write-set overflow, no checkpoint, dirty
   page, a checkpoint decoded from a durable root — falls back to the
   device read, never the other way around. *)

module Pmem = Trio_nvm.Pmem
module Crc32 = Trio_util.Crc32
open Ctl_state

let page_size = Layout.page_size

(* The bytes that may stand in for a device read of page [pg]: [ck]'s
   while the page is clean since the checkpoint's mark, else those of
   the pass's read set [reads] while it is clean since the set's mark.
   Both tests are made now, as the bytes are used: ingestion itself
   stores after the verifier read (a refused child's dentry, a size
   field, an index entry, I4 repairs).  [None]: read the device. *)
let stand_in t ?ck ?reads pg =
  let clean mark = Mmu.clean_since t.mmu ~mark ~page:pg in
  let from_ck = match ck with Some ck when clean ck.ck_mark -> checkpoint_page ck pg | _ -> None in
  if Option.is_some from_ck then from_ck
  else
    match reads with Some r when clean r.r_mark -> Hashtbl.find_opt r.r_pages pg | _ -> None

let take_checkpoint ?reads t (f : file_info) =
  let actor = Pmem.kernel_actor in
  (* Capture the mark before any read: stores racing the snapshot then
     land after the mark and invalidate what they touched. *)
  let mark = Mmu.write_mark t.mmu in
  let ck = f.f_checkpoint in
  let dentry =
    match stand_in t ?reads (f.f_dentry_addr / page_size) with
    | Some b -> Bytes.sub b (f.f_dentry_addr mod page_size) Layout.dentry_size
    | None -> Pmem.read t.pmem ~actor ~addr:f.f_dentry_addr ~len:Layout.dentry_size
  in
  let meta_pages =
    match f.f_ftype with
    | Fs_types.Reg -> f.f_index_pages
    | Fs_types.Dir -> f.f_index_pages @ f.f_data_pages @ f.f_dindex_pages
  in
  let ck_pages =
    List.fold_left
      (fun m pg ->
        let b =
          match stand_in t ?ck ?reads pg with
          | Some b -> b
          | None -> Pmem.read t.pmem ~actor ~addr:(pg * page_size) ~len:page_size
        in
        Page_map.add pg b m)
      Page_map.empty meta_pages
  in
  let children =
    if f.f_ftype = Fs_types.Dir then
      List.concat_map
        (fun pg ->
          (* the snapshot just built holds every dir data page *)
          let b = Page_map.find pg ck_pages in
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
    Page_map.iter
      (fun pg snapshot ->
        Pmem.write t.pmem ~actor ~addr:(pg * page_size) ~src:snapshot;
        Pmem.persist t.pmem ~addr:(pg * page_size) ~len:page_size)
      ck.ck_pages;
    (* Pages added since the checkpoint return to the offender. *)
    let offender_info = proc_info t offender in
    List.iter
      (fun pg ->
        if not (Page_map.mem pg ck.ck_pages) then begin
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
  | Some { f_checkpoint = Some ck; _ } -> checkpoint_page ck page
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Delta lookup for incremental verification *)

(* Serve [pg] from its *owning* file's checkpoint when provably clean.
   The lookup is global, not per-verified-file: a directory walk reads
   pages of child files too, and each is covered by its own file's
   checkpoint.  Returning [None] is always safe (device read). *)
let owner_checkpoint t pg =
  match owner_of t pg with
  | In_file ino -> Option.bind (file_find t ino) (fun f -> f.f_checkpoint)
  | Free | Allocated_to _ -> None

let page_snapshot t pg = stand_in t ?ck:(owner_checkpoint t pg) pg

let delta_of ?reads t =
  match current_verify_mode () with
  | Full -> None
  | Incremental -> Some (fun pg -> stand_in t ?ck:(owner_checkpoint t pg) ?reads pg)

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
  let buf = Buffer.create (256 + (Page_map.cardinal ck.ck_pages * (page_size + 8))) in
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
  u64 (Page_map.cardinal ck.ck_pages);
  Page_map.iter
    (fun pg b ->
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
        let ck_pages = ref Page_map.empty in
        for _ = 1 to npages do
          let pg = u64 () in
          ck_pages := Page_map.add pg (bytes (u64 ())) !ck_pages
        done;
        let nchildren = u64 () in
        let ck_children = List.init nchildren (fun _ -> u64 ()) in
        if !pos <> crc_off then failwith "trailing garbage";
        {
          ck_dentry;
          ck_pages = !ck_pages;
          ck_children;
          ck_size;
          ck_index_head;
          ck_mark = Mmu.no_mark;
        }
      with
      | ck -> Ok ck
      | exception Failure msg -> fail msg
    end
  end
