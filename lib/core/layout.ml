(* On-NVM layout of the Trio core state (paper §4.1).

   This layout is the "single core state" shared as common knowledge by
   every LibFS, the kernel controller and the integrity verifier.  It is
   deliberately minimal:

   - superblock (page 0): file system geometry;
   - a file's inode is co-located with its directory entry inside the
     parent directory's data pages (one 256-byte dentry block), so there
     are no "." / ".." entries and stat/create/delete need only the
     parent's pages;
   - index pages: 511 page pointers + a next-index-page link in the last
     slot; they index data pages for regular files and dentry pages for
     directories;
   - the root directory's dentry block lives at a fixed location
     (page 1, slot 0) since it has no parent.

   All multi-byte fields are little-endian.  The [ino] field of a dentry
   block is 8-byte-aligned so creation/deletion can use the 16-byte
   atomic-update discipline of §4.4: fully write and persist the block
   with [ino = 0], then atomically store the real inode number. *)

module Pmem = Trio_nvm.Pmem
module Crc32 = Trio_util.Crc32

let page_size = Pmem.page_size

(* Dentry blocks *)
let dentry_size = 256
let dentries_per_page = page_size / dentry_size (* 16 *)
let name_max = 180

(* Field offsets inside a dentry block. *)
let off_ino = 0
let off_ftype = 8
let off_mode = 9
let off_uid = 11
let off_gid = 15
let off_size = 19
let off_index_head = 27
let off_mtime = 35
let off_ctime = 43
let off_name_len = 64
let off_name = 66

(* Directory dentries keep the page number of the root node of their
   hash index (DESIGN.md §4.18) in the 8-aligned tail word of the block
   (the name field ends at 246, so 248..255 is spare).  0 = directory
   not indexed (empty, or the index is being rebuilt).  Like [off_ino],
   the field is only ever updated with a single atomic persisted
   store — swinging the root after a split is crash-atomic. *)
let off_dindex_root = 248

(* Index pages *)
let index_entries = (page_size / 8) - 1 (* 511 payload slots *)
let index_next_off = index_entries * 8 (* last slot links the next index page *)

(* Superblock (page 0) *)
let sb_magic = 0x545249_4F465331 (* "TRIOFS1" *)
let sb_off_magic = 0
let sb_off_total_pages = 8
let sb_off_page_size = 16
let sb_off_root_ino = 24
let sb_off_root_dentry = 32

let root_ino = 1
let root_dentry_page = 1
let root_dentry_addr = root_dentry_page * page_size

type inode = {
  ino : int;
  ftype : Fs_types.ftype;
  mode : int;
  uid : int;
  gid : int;
  size : int; (* bytes for regular files; live entry count for dirs *)
  index_head : int; (* page number of the first index page; 0 = none *)
  mtime : int;
  ctime : int;
}

(* ------------------------------------------------------------------ *)
(* Bytes-level encoding helpers *)

let get_u64 b off = Int64.to_int (Bytes.get_int64_le b off)
let set_u64 b off v = Bytes.set_int64_le b off (Int64.of_int v)
let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF
let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let get_u16 b off = Char.code (Bytes.get b off) lor (Char.code (Bytes.get b (off + 1)) lsl 8)

let set_u16 b off v =
  Bytes.set b off (Char.chr (v land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xff))

let get_u8 b off = Char.code (Bytes.get b off)
let set_u8 b off v = Bytes.set b off (Char.chr (v land 0xff))

(* Decode a dentry block already in DRAM.  Returns [None] for a free slot
   (ino = 0); [Error] for undecodable garbage (the verifier reports it as
   an I1 violation, regular readers treat it as corruption). *)
let decode_dentry (b : Bytes.t) : (inode * string, string) result option =
  let ino = get_u64 b off_ino in
  if ino = 0 then None
  else
    Some
      (let ftype_code = get_u8 b off_ftype in
       match Fs_types.ftype_of_code ftype_code with
       | None -> Error (Printf.sprintf "invalid file type %d" ftype_code)
       | Some ftype ->
         let name_len = get_u16 b off_name_len in
         if name_len = 0 || name_len > name_max then
           Error (Printf.sprintf "invalid name length %d" name_len)
         else begin
           let name = Bytes.sub_string b off_name name_len in
           let inode =
             {
               ino;
               ftype;
               mode = get_u16 b off_mode;
               uid = get_u32 b off_uid;
               gid = get_u32 b off_gid;
               size = get_u64 b off_size;
               index_head = get_u64 b off_index_head;
               mtime = get_u64 b off_mtime;
               ctime = get_u64 b off_ctime;
             }
           in
           Ok (inode, name)
         end)

let encode_dentry ?(dindex_root = 0) ~(inode : inode) ~name () : Bytes.t =
  if String.length name > name_max then invalid_arg "Layout.encode_dentry: name too long";
  let b = Bytes.make dentry_size '\000' in
  set_u64 b off_ino inode.ino;
  set_u64 b off_dindex_root dindex_root;
  set_u8 b off_ftype (Fs_types.ftype_code inode.ftype);
  set_u16 b off_mode inode.mode;
  set_u32 b off_uid inode.uid;
  set_u32 b off_gid inode.gid;
  set_u64 b off_size inode.size;
  set_u64 b off_index_head inode.index_head;
  set_u64 b off_mtime inode.mtime;
  set_u64 b off_ctime inode.ctime;
  set_u16 b off_name_len (String.length name);
  Bytes.blit_string name 0 b off_name (String.length name);
  b

(* ------------------------------------------------------------------ *)
(* NVM accessors.  [actor] is the accessing process: MMU-checked. *)

(* Metadata reads go through the ECC-checked path for userspace actors:
   an uncorrectable (poisoned) block degrades to a decode error instead
   of a machine-check-style exception — lookups fail with a clean errno
   and the patrol scrubber repairs or quarantines the page later.  The
   kernel keeps the raw path: the verifier audits scrambled content
   directly and must never have it masked. *)
let read_dentry pm ~actor ~addr =
  if actor = Pmem.kernel_actor then decode_dentry (Pmem.read pm ~actor ~addr ~len:dentry_size)
  else
    match Pmem.read_ecc pm ~actor ~addr ~len:dentry_size with
    | Pmem.Ecc.Ok b -> decode_dentry b
    | Pmem.Ecc.Poisoned _ -> Some (Error "dentry block poisoned (uncorrectable media error)")

(* Write a dentry block following the crash-consistent create protocol:
   persist everything with ino = 0, then persist the 8-byte ino store.
   [dindex_root] is written with the body: rename uses it to carry a
   directory's index root to the destination dentry. *)
let write_dentry_atomic ?dindex_root pm ~actor ~addr ~(inode : inode) ~name =
  let b = encode_dentry ?dindex_root ~inode ~name () in
  let ino = inode.ino in
  set_u64 b off_ino 0;
  Pmem.write pm ~actor ~addr ~src:b;
  Pmem.persist pm ~addr ~len:dentry_size;
  Pmem.write_u64 pm ~actor ~addr:(addr + off_ino) ino;
  Pmem.persist pm ~addr:(addr + off_ino) ~len:8

(* Tombstone a dentry (unlink/rmdir): a single atomic, persisted store. *)
let clear_dentry_atomic pm ~actor ~addr =
  Pmem.write_u64 pm ~actor ~addr:(addr + off_ino) 0;
  Pmem.persist pm ~addr:(addr + off_ino) ~len:8

(* Field-wise updates (each is a single atomic store + flush). *)
let write_size pm ~actor ~dentry_addr size =
  Pmem.write_u64 pm ~actor ~addr:(dentry_addr + off_size) size;
  Pmem.persist pm ~addr:(dentry_addr + off_size) ~len:8

let write_index_head pm ~actor ~dentry_addr page =
  Pmem.write_u64 pm ~actor ~addr:(dentry_addr + off_index_head) page;
  Pmem.persist pm ~addr:(dentry_addr + off_index_head) ~len:8

(* Userspace actors read the root word through ECC like every other
   metadata read: a poisoned word reads as 0 (unindexed), the legal
   fallback, instead of raising. *)
let read_dindex_root pm ~actor ~dentry_addr =
  let addr = dentry_addr + off_dindex_root in
  if actor = Pmem.kernel_actor then Pmem.read_u64 pm ~actor ~addr
  else
    match Pmem.read_ecc pm ~actor ~addr ~len:8 with
    | Pmem.Ecc.Ok b -> get_u64 b 0
    | Pmem.Ecc.Poisoned _ -> 0

let write_dindex_root pm ~actor ~dentry_addr page =
  Pmem.write_u64 pm ~actor ~addr:(dentry_addr + off_dindex_root) page;
  Pmem.persist pm ~addr:(dentry_addr + off_dindex_root) ~len:8

let write_perms pm ~actor ~dentry_addr ~mode ~uid ~gid =
  let b = Bytes.make 10 '\000' in
  set_u16 b 0 mode;
  set_u32 b 2 uid;
  set_u32 b 6 gid;
  Pmem.write pm ~actor ~addr:(dentry_addr + off_mode) ~src:b;
  Pmem.persist pm ~addr:(dentry_addr + off_mode) ~len:10

(* ------------------------------------------------------------------ *)
(* Index pages *)

let index_entry_addr page i =
  if i < 0 || i >= index_entries then invalid_arg "Layout.index_entry_addr";
  (page * page_size) + (i * 8)

let read_index_entry pm ~actor ~page i = Pmem.read_u64 pm ~actor ~addr:(index_entry_addr page i)

let write_index_entry pm ~actor ~page i v =
  Pmem.write_u64 pm ~actor ~addr:(index_entry_addr page i) v;
  Pmem.persist pm ~addr:(index_entry_addr page i) ~len:8

let write_index_next pm ~actor ~page v =
  Pmem.write_u64 pm ~actor ~addr:((page * page_size) + index_next_off) v;
  Pmem.persist pm ~addr:((page * page_size) + index_next_off) ~len:8

let decode_index_page b =
  let entries = Array.init index_entries (fun i -> get_u64 b (i * 8)) in
  let next = get_u64 b index_next_off in
  (entries, next)

(* Read a whole index page at once (one NVM access) and decode it.
   Userspace actors use the ECC path: a poisoned index page reads as
   empty with no successor — the file appears truncated (reads hit
   holes, clean EIO) until the scrubber restores the page from the
   controller checkpoint. *)
let read_index_page pm ~actor ~page =
  if actor = Pmem.kernel_actor then
    decode_index_page (Pmem.read pm ~actor ~addr:(page * page_size) ~len:page_size)
  else
    match Pmem.read_ecc pm ~actor ~addr:(page * page_size) ~len:page_size with
    | Pmem.Ecc.Ok b -> decode_index_page b
    | Pmem.Ecc.Poisoned _ -> (Array.make index_entries 0, 0)

(* Walk the index-page chain of a file, calling [f ~index_page ~entries
   ~next] per page.  Cycle-safe: stops (returning [Error]) if a chain
   longer than the device could possibly hold is observed — this is how
   the verifier survives the "loop within index pages" attack.  [fetch
   page] may supply the page's bytes from a DRAM snapshot (the
   incremental verifier's delta checkpoint); [None] reads the device. *)
let walk_index_chain ?fetch pm ~actor ~head ~max_pages f =
  (* Each page is read once per walk and memoized: the walk observes a
     point-in-time snapshot of every index page it visits.  A cycle
     (same page revisited until the bound trips) therefore yields the
     same verdict regardless of how concurrent repairs interleave with
     the walk — and costs one media read, not [max_pages]. *)
  let memo = Hashtbl.create 8 in
  let read page =
    match Hashtbl.find_opt memo page with
    | Some decoded -> decoded
    | None ->
      let decoded =
        match fetch with
        | Some fetch -> (
          match fetch page with
          | Some b -> decode_index_page b
          | None -> read_index_page pm ~actor ~page)
        | None -> read_index_page pm ~actor ~page
      in
      Hashtbl.add memo page decoded;
      decoded
  in
  let rec go page seen =
    if page = 0 then Ok ()
    else if page <= root_dentry_page || page >= max_pages then
      Error (Printf.sprintf "index page %d outside the volume" page)
    else if seen > max_pages then Error "index page chain too long (cycle?)"
    else begin
      let entries, next = read page in
      f ~index_page:page ~entries ~next;
      go next (seen + 1)
    end
  in
  go head 0

let dentry_slot_addr page slot =
  if slot < 0 || slot >= dentries_per_page then invalid_arg "Layout.dentry_slot_addr";
  (page * page_size) + (slot * dentry_size)

(* ------------------------------------------------------------------ *)
(* Directory-index nodes (DESIGN.md §4.18).

   One B-link-tree node per page.  Keys are (name hash, dentry address)
   pairs compared lexicographically: the address component makes every
   key unique, so hash collisions never straddle a split ambiguously —
   equal-hash entries are simply adjacent in key order.

     magic u32 | level u8 | nkeys u16 | right-sibling page u64
     | high hash u64 | high addr u64 | entry slots (162 x 24 bytes)
     | zero fill | slot map (162 x u8, growing down from the crc)
     | crc u64 (CRC32 of everything before it)

   The slot map lists, in key order, the physical slot of each of the
   node's [nkeys] entries: map position p is the byte p + 1 below the
   CRC.  An entry keeps its slot for as long as it stays in the node,
   so an insert or delete moves map bytes and fills or clears one slot
   instead of shifting every entry after it; a free slot is all zero.
   Every update stores the header line and the CRC line, and those two
   lines also hold slot 0 and the first 56 map positions, so an update
   of a one-entry node stores only them.  A leaf entry is (hash, dentry
   addr, 0); an internal entry is (separator hash, separator addr,
   child page) where the child covers keys strictly below its separator
   and the node's high key equals the last separator.  The rightmost
   node at each level has high key (max_int, max_int) and no right
   sibling.

   The CRC covers the whole page body, so a torn node write decodes as
   an error — readers fall back to the dentry-page scan and the index
   is rebuilt from its leaves (the dentry pages stay the source of
   truth; the tree is an accelerator).  So does a map that names a slot
   twice or past the capacity, and a node of the older DIX1 format,
   which fails the magic check. *)

let dnode_magic = 0x44495832 (* "DIX2" *)
let dnode_hdr_size = 32
let dnode_entry_size = 24
let dnode_crc_off = page_size - 8

(* The most entries whose slots and map fit between the header and the
   CRC: 32 + 162 x 24 = 3,920 <= 4,088 - 162. *)
let dnode_capacity = 162
let dnode_slots_off = dnode_hdr_size
let dnode_map_byte p = dnode_crc_off - 1 - p

let dn_off_magic = 0
let dn_off_level = 4
let dn_off_nkeys = 6
let dn_off_right = 8
let dn_off_high_hash = 16
let dn_off_high_addr = 24

type dnode = {
  dn_level : int; (* 0 = leaf *)
  dn_right : int; (* right-sibling page; 0 = rightmost at this level *)
  dn_high_hash : int; (* exclusive upper bound of this node's key space *)
  dn_high_addr : int;
  dn_entries : (int * int * int) array; (* key order *)
  dn_slots : int array; (* physical slot of each entry, parallel to [dn_entries] *)
}

let dnode_slot_off slot = dnode_slots_off + (slot * dnode_entry_size)

let encode_dnode (n : dnode) : Bytes.t =
  let nkeys = Array.length n.dn_entries in
  if nkeys > dnode_capacity || Array.length n.dn_slots <> nkeys then
    invalid_arg "Layout.encode_dnode: bad entry or slot count";
  let b = Bytes.make page_size '\000' in
  set_u32 b dn_off_magic dnode_magic;
  set_u8 b dn_off_level n.dn_level;
  set_u16 b dn_off_nkeys nkeys;
  set_u64 b dn_off_right n.dn_right;
  set_u64 b dn_off_high_hash n.dn_high_hash;
  set_u64 b dn_off_high_addr n.dn_high_addr;
  for i = 0 to nkeys - 1 do
    let slot = n.dn_slots.(i) and h, a, x = n.dn_entries.(i) in
    if slot < 0 || slot >= dnode_capacity then invalid_arg "Layout.encode_dnode: bad slot";
    set_u8 b (dnode_map_byte i) slot;
    let off = dnode_slot_off slot in
    set_u64 b off h;
    set_u64 b (off + 8) a;
    set_u64 b (off + 16) x
  done;
  set_u64 b dnode_crc_off (Crc32.of_bytes ~pos:0 ~len:dnode_crc_off b);
  b

exception Bad_map of string

(* One pass over the map reads the entries through it; each slot must
   be inside the capacity and named once. *)
let decode_dnode (b : Bytes.t) : (dnode, string) result =
  if Bytes.length b <> page_size then Error "index node: wrong page size"
  else if get_u32 b dn_off_magic <> dnode_magic then Error "index node: bad magic"
  else if get_u64 b dnode_crc_off <> Crc32.of_bytes ~pos:0 ~len:dnode_crc_off b then
    Error "index node: bad crc"
  else begin
    let nkeys = get_u16 b dn_off_nkeys in
    if nkeys > dnode_capacity then Error "index node: bad key count"
    else begin
      let seen = Bytes.make dnode_capacity '\000' in
      let slots = Array.make nkeys 0 in
      let entry i =
        let slot = get_u8 b (dnode_map_byte i) in
        if slot >= dnode_capacity then raise_notrace (Bad_map "index node: slot past capacity");
        if Bytes.get seen slot <> '\000' then
          raise_notrace (Bad_map "index node: slot mapped twice");
        Bytes.set seen slot '\001';
        slots.(i) <- slot;
        let off = dnode_slot_off slot in
        (get_u64 b off, get_u64 b (off + 8), get_u64 b (off + 16))
      in
      match Array.init nkeys entry with
      | exception Bad_map e -> Error e
      | entries ->
        Ok
          {
            dn_level = get_u8 b dn_off_level;
            dn_right = get_u64 b dn_off_right;
            dn_high_hash = get_u64 b dn_off_high_hash;
            dn_high_addr = get_u64 b dn_off_high_addr;
            dn_entries = entries;
            dn_slots = slots;
          }
    end
  end

(* ------------------------------------------------------------------ *)
(* Superblock / mkfs *)

let write_superblock pm ~total_pages =
  let actor = Pmem.kernel_actor in
  let b = Bytes.make 64 '\000' in
  set_u64 b sb_off_magic sb_magic;
  set_u64 b sb_off_total_pages total_pages;
  set_u32 b sb_off_page_size page_size;
  set_u64 b sb_off_root_ino root_ino;
  set_u64 b sb_off_root_dentry root_dentry_addr;
  Pmem.write pm ~actor ~addr:0 ~src:b;
  Pmem.persist pm ~addr:0 ~len:64

let read_superblock pm ~actor =
  let b = Pmem.read pm ~actor ~addr:0 ~len:64 in
  if get_u64 b sb_off_magic <> sb_magic then Error "bad superblock magic"
  else
    Ok
      ( get_u64 b sb_off_total_pages,
        get_u32 b sb_off_page_size,
        get_u64 b sb_off_root_ino,
        get_u64 b sb_off_root_dentry )

(* ------------------------------------------------------------------ *)
(* Snapshot root slots (DESIGN.md §4.16).

   Two 64-byte slots in page 0 — one cacheline each, so a slot update
   is a single-line store with respect to the crash model.  A whole-FS
   snapshot commits by writing its root record into the slot NOT
   holding the current root (alternating pair): until that store
   persists, the previous root stays untouched and fully valid, so a
   crash at any point of publication leaves at least one intact root.

   A slot is self-validating (trailing CRC over its own fields) and
   names a payload chain of pages whose stream CRC it also carries;
   torn or damaged roots fail one of the two checks and recovery falls
   back to the other slot, then to the fsck walk. *)

let snap_magic = 0x54524F53_4E503136 (* "TROSNP16" *)
let snap_slots = 2
let snap_slot_size = 64

let snap_slot_addr slot =
  if slot < 0 || slot >= snap_slots then invalid_arg "Layout.snap_slot_addr";
  256 + (slot * snap_slot_size)

type snap_root = {
  sr_epoch : int; (* monotone publication counter, 1-based *)
  sr_head : int; (* first payload page; 0 = empty payload *)
  sr_npages : int;
  sr_payload_len : int; (* stream bytes, excluding per-page next links *)
  sr_payload_crc : int; (* CRC32 of the payload stream *)
}

let sr_off_magic = 0
let sr_off_epoch = 8
let sr_off_head = 16
let sr_off_npages = 24
let sr_off_len = 32
let sr_off_crc = 40
let sr_off_slot_crc = 48

let encode_snap_root (r : snap_root) =
  let b = Bytes.make snap_slot_size '\000' in
  set_u64 b sr_off_magic snap_magic;
  set_u64 b sr_off_epoch r.sr_epoch;
  set_u64 b sr_off_head r.sr_head;
  set_u64 b sr_off_npages r.sr_npages;
  set_u64 b sr_off_len r.sr_payload_len;
  set_u64 b sr_off_crc r.sr_payload_crc;
  set_u64 b sr_off_slot_crc (Crc32.of_bytes ~pos:0 ~len:sr_off_slot_crc b);
  b

(* [None] for an empty, torn or garbage slot — a slot never decodes to
   an error, because an invalid slot is a normal state of the commit
   protocol (the fallback root is what matters). *)
let decode_snap_root (b : Bytes.t) : snap_root option =
  if Bytes.length b <> snap_slot_size then None
  else if get_u64 b sr_off_magic <> snap_magic then None
  else if get_u64 b sr_off_slot_crc <> Crc32.of_bytes ~pos:0 ~len:sr_off_slot_crc b then None
  else
    Some
      {
        sr_epoch = get_u64 b sr_off_epoch;
        sr_head = get_u64 b sr_off_head;
        sr_npages = get_u64 b sr_off_npages;
        sr_payload_len = get_u64 b sr_off_len;
        sr_payload_crc = get_u64 b sr_off_crc;
      }

let write_snap_root pm ~slot (r : snap_root) =
  let addr = snap_slot_addr slot in
  Pmem.write pm ~actor:Pmem.kernel_actor ~addr ~src:(encode_snap_root r);
  Pmem.persist pm ~addr ~len:snap_slot_size

(* Read through ECC even as the kernel: a poisoned slot must read as
   invalid, not mask the damage. *)
let read_snap_root pm ~slot =
  match
    Pmem.read_ecc pm ~actor:Pmem.kernel_actor ~addr:(snap_slot_addr slot) ~len:snap_slot_size
  with
  | Pmem.Ecc.Ok b -> decode_snap_root b
  | Pmem.Ecc.Poisoned _ -> None

(* Initialize an empty file system: superblock + root directory with no
   entries.  Called by the controller at format time. *)
let mkfs pm ~total_pages =
  let actor = Pmem.kernel_actor in
  write_superblock pm ~total_pages;
  let root =
    {
      ino = root_ino;
      ftype = Fs_types.Dir;
      mode = 0o777;
      uid = 0;
      gid = 0;
      size = 0;
      index_head = 0;
      mtime = 0;
      ctime = 0;
    }
  in
  write_dentry_atomic pm ~actor ~addr:root_dentry_addr ~inode:root ~name:"/"
