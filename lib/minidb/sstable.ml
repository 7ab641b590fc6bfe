(* Immutable sorted string tables.

   File layout:
     records ...                (Record_format, sorted by key)
     index: for each block, [ klen u32 | first_key | off u32 | len u32 ]
     footer: [ index_off u32 | index_len u32 | count u32 | magic u32 ]

   Records are grouped into ~4 KiB blocks.  A table keeps one read-only
   descriptor for its life, as LevelDB's table cache does: [open_] keeps
   the one it reads the footer and index with, a table this process
   built opens on its first read, and [close] releases it (the DB closes
   a retired table before unlinking its file).  The index and the largest
   key stay in DRAM, so a point lookup for a key outside the table's
   range (below the first block's first key or above [largest]) does no
   I/O at all and any other one reads a single block.  [open_] learns
   [largest] from the last block: the format stores no key range. *)

module Fs = Trio_core.Fs_intf
module R = Record_format

let block_target = 4096
let magic = 0x55AA1234
let footer_size = 16

type index_entry = { first_key : string; off : int; len : int }

type t = {
  fs : Fs.t;
  path : string;
  index : index_entry array;
  count : int;
  largest : string;
  mutable fd : Fs.fd option; (* opened on the first read, kept until [close] *)
}

let ( let* ) = Result.bind

(* Build an SSTable from a sorted (key, mutation) sequence.  Tombstones
   are retained (they shadow older levels) unless [drop_tombstones]. *)
let build fs ~path ?(drop_tombstones = false) entries =
  let buf = Buffer.create 4096 in
  let index = ref [] in
  let block_start = ref 0 in
  let block_first = ref None in
  let count = ref 0 in
  let largest = ref None in
  let flush_block () =
    match !block_first with
    | None -> ()
    | Some key ->
      index := { first_key = key; off = !block_start; len = Buffer.length buf - !block_start } :: !index;
      block_start := Buffer.length buf;
      block_first := None
  in
  List.iter
    (fun (key, mutation) ->
      let keep = match mutation with Memtable.Put _ -> true | Memtable.Delete -> not drop_tombstones in
      if keep then begin
        let kind, value =
          match mutation with Memtable.Put v -> (R.t_put, v) | Memtable.Delete -> (R.t_delete, "")
        in
        if !block_first = None then block_first := Some key;
        largest := Some key;
        Buffer.add_bytes buf (R.encode ~kind ~key ~value);
        incr count;
        if Buffer.length buf - !block_start >= block_target then flush_block ()
      end)
    entries;
  flush_block ();
  let index = List.rev !index in
  let index_off = Buffer.length buf in
  List.iter
    (fun e ->
      let klen = String.length e.first_key in
      let b = Bytes.create (12 + klen) in
      R.set_u32 b 0 klen;
      Bytes.blit_string e.first_key 0 b 4 klen;
      R.set_u32 b (4 + klen) e.off;
      R.set_u32 b (8 + klen) e.len;
      Buffer.add_bytes buf b)
    index;
  let index_len = Buffer.length buf - index_off in
  let footer = Bytes.create footer_size in
  R.set_u32 footer 0 index_off;
  R.set_u32 footer 4 index_len;
  R.set_u32 footer 8 !count;
  R.set_u32 footer 12 magic;
  Buffer.add_bytes buf footer;
  (* write the table through the FS, over any orphan a crash left at
     this path before the manifest listed it *)
  let* fd = Fs.create_or_truncate fs path 0o644 in
  let* _ = fs.Fs.append fd (Buffer.to_bytes buf) in
  let* () = fs.Fs.fsync fd in
  let* () = fs.Fs.close fd in
  Ok
    {
      fs;
      path;
      index = Array.of_list index;
      count = !count;
      largest = Option.value !largest ~default:"";
      fd = None;
    }

(* Decode a block's records in order, stopping at the first invalid one. *)
let iter_block buf f =
  let rec go pos =
    match R.decode buf pos with
    | None -> ()
    | Some (kind, k, v, next) ->
      f k (if kind = R.t_put then Memtable.Put v else Memtable.Delete);
      go next
  in
  go 0

(* Open an existing table: read footer, index and last block through the
   descriptor it keeps. *)
let open_ fs ~path =
  let* st = fs.Fs.stat path in
  let size = st.Trio_core.Fs_types.st_size in
  if size < footer_size then Error Trio_core.Fs_types.EIO
  else begin
    let* fd = fs.Fs.open_ path [ Trio_core.Fs_types.O_RDONLY ] in
    let load () =
      let footer = Bytes.create footer_size in
      let* _ = fs.Fs.pread fd footer (size - footer_size) in
      if R.get_u32 footer 12 <> magic then Error Trio_core.Fs_types.EIO
      else begin
        let index_off = R.get_u32 footer 0 in
        let index_len = R.get_u32 footer 4 in
        let count = R.get_u32 footer 8 in
        let ibuf = Bytes.create index_len in
        let* _ = fs.Fs.pread fd ibuf index_off in
        let entries = ref [] in
        let pos = ref 0 in
        while !pos < index_len do
          let klen = R.get_u32 ibuf !pos in
          let first_key = Bytes.sub_string ibuf (!pos + 4) klen in
          let off = R.get_u32 ibuf (!pos + 4 + klen) in
          let len = R.get_u32 ibuf (!pos + 8 + klen) in
          entries := { first_key; off; len } :: !entries;
          pos := !pos + 12 + klen
        done;
        let index = Array.of_list (List.rev !entries) in
        let* largest =
          match index with
          | [||] -> Ok ""
          | ix ->
            let last = ix.(Array.length ix - 1) in
            let buf = Bytes.create last.len in
            let* _ = fs.Fs.pread fd buf last.off in
            let largest = ref last.first_key in
            iter_block buf (fun k _ -> largest := k);
            Ok !largest
        in
        Ok { fs; path; index; count; largest; fd = Some fd }
      end
    in
    match load () with
    | Ok t -> Ok t
    | Error e ->
      ignore (fs.Fs.close fd);
      Error e
  end

let descriptor t =
  match t.fd with
  | Some fd -> Ok fd
  | None ->
    let* fd = t.fs.Fs.open_ t.path [ Trio_core.Fs_types.O_RDONLY ] in
    t.fd <- Some fd;
    Ok fd

(* Largest index block whose first key <= key (binary search). *)
let find_block t key =
  let n = Array.length t.index in
  if n = 0 || key < t.index.(0).first_key then None
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if t.index.(mid).first_key <= key then lo := mid else hi := mid - 1
    done;
    Some t.index.(!lo)
  end

(* Point lookup: [None] = key not in this table; [Some mutation]
   otherwise (tombstones included).  A key outside the table's range
   costs no I/O. *)
let get t key =
  if key > t.largest then Ok None
  else
    match find_block t key with
    | None -> Ok None
    | Some block ->
      let* fd = descriptor t in
      let buf = Bytes.create block.len in
      let* _ = t.fs.Fs.pread fd buf block.off in
      let rec scan pos =
        match R.decode buf pos with
        | None -> None
        | Some (kind, k, v, next) ->
          if k = key then Some (if kind = R.t_put then Memtable.Put v else Memtable.Delete)
          else if k > key then None
          else scan next
      in
      Ok (scan 0)

(* Full scan in key order (compaction input). *)
let iter_all t f =
  let* fd = descriptor t in
  let data_len = match t.index with [||] -> 0 | ix -> ix.(Array.length ix - 1).off + ix.(Array.length ix - 1).len in
  let buf = Bytes.create data_len in
  let* _ = t.fs.Fs.pread fd buf 0 in
  iter_block buf f;
  Ok ()

(* Release the descriptor; a later read reopens the file. *)
let close t =
  match t.fd with
  | None -> Ok ()
  | Some fd ->
    t.fd <- None;
    t.fs.Fs.close fd

let entry_count t = t.count
let path t = t.path
