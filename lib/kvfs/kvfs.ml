(* KVFS: a LibFS customized for many small files (paper §5).

   This is the customization case study the paper borrows from Aerie:
   applications such as mail servers operate on huge numbers of small
   files, for which a generic POSIX LibFS pays for file descriptors,
   radix-tree index walks and fine-grained locking on every access.

   KVFS replaces these parts of ArckFS' *auxiliary state* — the core
   state is untouched, which is exactly what Trio's customization
   contract allows without any privilege:

   - [get]/[set] interfaces keyed by file name; no file descriptors;
   - a fixed 8-slot page array instead of the radix tree (files are
     capped at [max_file_size] = 32 KiB);
   - one simple spinlock per file instead of the inode + range locks
     (contention on a single small file is assumed rare).

   Because only auxiliary state changed, KVFS files remain ordinary
   ArckFS files: any other LibFS can open them through the normal POSIX
   path after a sharing handoff. *)

module Sched = Trio_sim.Sched
module Sync = Trio_sim.Sync
module Pmem = Trio_nvm.Pmem
module Numa = Trio_nvm.Numa
module Perf = Trio_nvm.Perf
module Layout = Trio_core.Layout
module Libfs = Arckfs.Libfs
module Alloc_cache = Arckfs.Alloc_cache
module Htbl = Trio_util.Htbl
open Trio_core.Fs_types

let max_pages = 8
let max_file_size = max_pages * Layout.page_size (* 32 KiB *)

type entry = {
  k_ino : int;
  k_addr : int; (* dentry address *)
  mutable k_index_page : int; (* single index page; 0 = none yet *)
  k_pages : int array; (* fixed-size page array: the customized index *)
  mutable k_npages : int;
  mutable k_size : int;
  k_lock : Sync.Spinlock.t; (* the customized, coarse lock *)
  mutable k_write_mapped : bool;
}

type t = {
  fs : Libfs.t;
  dir_ino : int; (* the directory's state lives in the LibFS's cache *)
  dir_components : string list;
  dir_path : string;
  entries : (string, entry) Htbl.t;
  entries_lock : Sync.Mutex.t;
}

let ( let* ) = Result.bind

(* Mount KVFS over one directory of an existing ArckFS namespace. *)
let mount fs ~dir:path =
  match split_path path with
  | None -> Error EINVAL
  | Some components ->
    let* d =
      match Libfs.resolve_dir fs ~write:true components with
      | Ok d -> Ok d
      | Error ENOENT ->
        let* () = (Libfs.ops fs).Trio_core.Fs_intf.mkdir path 0o755 in
        Libfs.resolve_dir fs ~write:true components
      | Error e -> Error e
    in
    let* () = Libfs.ensure_dir_writable fs d in
    Ok
      {
        fs;
        dir_ino = d.Libfs.d_ino;
        dir_components = components;
        dir_path = path;
        entries = Htbl.create_string ();
        entries_lock = Sync.Mutex.create ();
      }

(* The directory through the LibFS's cache: a state the LibFS dropped
   (a revoked grant, a handoff) is walked to and mapped again. *)
let dir t ~write =
  match Libfs.cached_dir t.fs t.dir_ino with
  | Some d -> Ok d
  | None -> Libfs.resolve_dir t.fs ~write t.dir_components

(* Read a small file's size and fixed page array from its core state. *)
let read_entry t e =
  match Layout.read_dentry (Libfs.pmem_of t.fs) ~actor:(Libfs.proc_of t.fs) ~addr:e.k_addr with
  | Some (Ok (inode, _)) ->
    e.k_index_page <- inode.Layout.index_head;
    e.k_size <- inode.Layout.size;
    Array.fill e.k_pages 0 max_pages 0;
    e.k_npages <- 0;
    if inode.Layout.index_head <> 0 then begin
      let entries, _next =
        Layout.read_index_page (Libfs.pmem_of t.fs) ~actor:(Libfs.proc_of t.fs)
          ~page:inode.Layout.index_head
      in
      Array.iteri
        (fun i pg ->
          if i < max_pages && pg <> 0 then begin
            e.k_pages.(i) <- pg;
            e.k_npages <- max e.k_npages (i + 1)
          end)
        entries
    end;
    Ok ()
  | _ -> Error EIO

(* Build the fixed-array auxiliary state of one small file, read-mapping
   it first if the kernel knows it. *)
let build_entry t (r : Libfs.dentry_ref) =
  let* _ = Libfs.map_known t.fs ~ino:r.Libfs.e_ino ~write:false in
  let e =
    {
      k_ino = r.Libfs.e_ino;
      k_addr = r.Libfs.e_addr;
      k_index_page = 0;
      k_pages = Array.make max_pages 0;
      k_npages = 0;
      k_size = 0;
      k_lock = Sync.Spinlock.create ();
      k_write_mapped = false;
    }
  in
  let* () = read_entry t e in
  if not (Libfs.known_to_kernel t.fs e.k_ino) then e.k_write_mapped <- true;
  Ok e

(* The LibFS's one re-hold, with the entry's in-place refresh under its
   lock: kept when the write map's reply and the dentry vouch for it. *)
let ensure_writable t e =
  Libfs.rehold t.fs e ~ino:e.k_ino ~write:true
    ~ready:(fun e -> e.k_write_mapped)
    ~refresh:(fun e ~current ->
      Sync.Spinlock.with_lock e.k_lock (fun () ->
          let* () =
            if
              Libfs.still_current t.fs ~current ~ino:e.k_ino ~addr:e.k_addr ~size:e.k_size
                ~index_head:e.k_index_page ~dindex_root:0
            then Ok ()
            else read_entry t e
          in
          e.k_write_mapped <- true;
          Ok ()))

let remember t name e =
  Sync.Mutex.with_lock t.entries_lock (fun () -> Htbl.replace t.entries name e)

let forget t name =
  Sync.Mutex.with_lock t.entries_lock (fun () -> ignore (Htbl.remove t.entries name))

(* Every op runs under the LibFS's retry wrapper.  An MMU fault means a
   grant some cached state was built under is gone: the wrapper drops
   the LibFS's state, and the key's entry goes too, so the retry maps
   and builds both again. *)
let with_key t name f =
  Libfs.with_retry t.fs (fun () ->
      try f () with
      | Pmem.Mmu_fault _ as e ->
        forget t name;
        raise e)

(* [write]: the caller may create the key, so a directory it has to map
   is mapped writable. *)
let lookup_entry t ~write name =
  Sched.cpu_work Perf.Cpu.hash_lookup;
  match Htbl.find t.entries name with
  | Some e -> Ok (Some e)
  | None -> (
    let* d = dir t ~write in
    match Libfs.lookup t.fs d name with
    | None -> Ok None
    | Some { Libfs.e_ftype = Dir; _ } -> Error EISDIR
    | Some r ->
      let* e = build_entry t r in
      remember t name e;
      Ok (Some e))

(* set: create if needed, then write [data] from offset 0 (the KVFS
   interface always operates on whole values). *)
let set t name data =
  let len = Bytes.length data in
  if len > max_file_size then Error EINVAL
  else
    with_key t name @@ fun () ->
    let* existing = lookup_entry t ~write:true name in
    let* e =
      match existing with
      | Some e -> Ok e
      | None ->
        let* d = dir t ~write:true in
        let* r = Libfs.create_entry t.fs d name ~ftype:Reg ~mode:0o644 in
        let* e = build_entry t r in
        remember t name e;
        Ok e
    in
    let* () = ensure_writable t e in
    let pmem = Libfs.pmem_of t.fs and proc = Libfs.proc_of t.fs in
    Sync.Spinlock.with_lock e.k_lock @@ fun () ->
    Sched.cpu_work Perf.Cpu.lock_acquire;
    let needed = (len + Layout.page_size - 1) / Layout.page_size in
    (* allocate the index page lazily, then data pages *)
    let rec ensure_pages () =
      if e.k_npages >= needed then Ok ()
      else begin
        let node = Numa.node_of_cpu (Libfs.topo_of t.fs) (Sched.current_cpu ()) in
        let* () =
          if e.k_index_page = 0 then begin
            let* ip = Alloc_cache.alloc_page (Libfs.cache_of t.fs) ~node ~kind:Pmem.Meta in
            Layout.write_index_head pmem ~actor:proc ~dentry_addr:e.k_addr ip;
            e.k_index_page <- ip;
            Ok ()
          end
          else Ok ()
        in
        let* pg = Alloc_cache.alloc_page (Libfs.cache_of t.fs) ~node ~kind:Pmem.Data in
        Layout.write_index_entry pmem ~actor:proc ~page:e.k_index_page e.k_npages pg;
        e.k_pages.(e.k_npages) <- pg;
        e.k_npages <- e.k_npages + 1;
        ensure_pages ()
      end
    in
    let* () = ensure_pages () in
    (* write the value page by page *)
    let pos = ref 0 in
    while !pos < len do
      let i = !pos / Layout.page_size in
      let chunk = min (len - !pos) Layout.page_size in
      Pmem.write_sub pmem ~actor:proc ~addr:(e.k_pages.(i) * Layout.page_size) ~src:data
        ~pos:!pos ~len:chunk;
      pos := !pos + chunk
    done;
    Sched.cpu_work (Perf.Cpu.memcpy_per_byte *. float_of_int len);
    if len > 0 then Pmem.persist pmem ~addr:(e.k_pages.(0) * Layout.page_size) ~len;
    if e.k_size <> len then begin
      e.k_size <- len;
      Layout.write_size pmem ~actor:proc ~dentry_addr:e.k_addr len
    end;
    Ok ()

(* Read the whole value of [e] into [dst] (which must be large enough);
   returns the value length. *)
let read_value t e ~dst =
  let pmem = Libfs.pmem_of t.fs and proc = Libfs.proc_of t.fs in
  Sync.Spinlock.with_lock e.k_lock @@ fun () ->
  Sched.cpu_work Perf.Cpu.lock_acquire;
  let pos = ref 0 in
  while !pos < e.k_size do
    let i = !pos / Layout.page_size in
    let chunk = min (e.k_size - !pos) Layout.page_size in
    Pmem.read_into pmem ~actor:proc ~addr:(e.k_pages.(i) * Layout.page_size) ~dst ~pos:!pos
      ~len:chunk;
    pos := !pos + chunk
  done;
  Sched.cpu_work (Perf.Cpu.memcpy_per_byte *. float_of_int e.k_size);
  e.k_size

(* get: read the whole value. *)
let get t name =
  with_key t name @@ fun () ->
  let* found = lookup_entry t ~write:false name in
  match found with
  | None -> Error ENOENT
  | Some e ->
    let buf = Bytes.create e.k_size in
    ignore (read_value t e ~dst:buf);
    Ok buf

(* get_into: zero-copy [get] — the value lands in the caller's buffer
   (no per-call allocation); returns the value length. *)
let get_into t name dst =
  with_key t name @@ fun () ->
  let* found = lookup_entry t ~write:false name in
  match found with
  | None -> Error ENOENT
  | Some e -> if Bytes.length dst < e.k_size then Error EINVAL else Ok (read_value t e ~dst)

let delete t name =
  forget t name;
  (Libfs.ops t.fs).Trio_core.Fs_intf.unlink (t.dir_path ^ "/" ^ name)

let exists t name =
  match with_key t name (fun () -> lookup_entry t ~write:false name) with
  | Ok (Some _) -> true
  | _ -> false
