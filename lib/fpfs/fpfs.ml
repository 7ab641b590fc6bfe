(* FPFS: a LibFS customized for deep directory hierarchies (paper §5),
   based on full-path indexing.

   A generic file system resolves "/a/b/c/d/e/f" with one directory
   lookup per component; at depth 20 that is 20 hash probes and 20
   auxiliary-state touches per operation.  FPFS replaces the walk with
   one global hash table mapping a *full directory path* to that
   directory's ino, whose state the LibFS caches, so resolution is a
   single probe.  FPFS is only this parent resolver: every operation
   is the LibFS's own.

   The well-known cost of full-path indexing is renaming a directory:
   every cached descendant path changes.  FPFS implements it by
   invalidating the global table (O(cached paths)) — the documented
   trade-off; applications that rename directories frequently should
   use plain ArckFS.

   Only auxiliary state is customized: the core state stays ArckFS', so
   files created through FPFS remain shareable with any other LibFS. *)

module Sched = Trio_sim.Sched
module Sync = Trio_sim.Sync
module Perf = Trio_nvm.Perf
module Libfs = Arckfs.Libfs
module Htbl = Trio_util.Htbl
open Trio_core.Fs_types

type t = {
  fs : Libfs.t;
  (* full directory path -> that directory's ino.  A hit counts only
     while the LibFS still caches the directory: a state the LibFS
     dropped (a revoked grant, a handoff) is walked to and mapped
     again, as the generic resolver would. *)
  dirs : (string, int) Htbl.t;
  stripes : Sync.Rwlock.t array;
}

let ( let* ) = Result.bind

let mount fs =
  {
    fs;
    dirs = Htbl.create_string ~initial_size:1024 ();
    stripes = Array.init Htbl.stripes (fun _ -> Sync.Rwlock.create ());
  }

let path_of components = "/" ^ String.concat "/" components

(* The customized parent resolver: one global-hash probe; on a miss,
   the component walk, whose result is cached.  [write]: the caller
   will change the parent, so a walk that maps it maps it writable
   (see [Libfs.resolve_dir]). *)
let resolve_parent t ~write path =
  let* dir_components, name = Libfs.split_parent path in
  let dir_path = path_of dir_components in
  Sched.cpu_work Perf.Cpu.hash_lookup;
  let stripe = Htbl.stripe_of_key t.dirs dir_path in
  let cached =
    Sync.Rwlock.with_read t.stripes.(stripe) (fun () -> Htbl.find t.dirs dir_path)
  in
  match Option.bind cached (Libfs.cached_dir t.fs) with
  | Some d -> Ok (d, name)
  | None ->
    let* d = Libfs.resolve_dir t.fs ~write dir_components in
    Sync.Rwlock.with_write t.stripes.(stripe) (fun () ->
        Htbl.replace t.dirs dir_path d.Libfs.d_ino);
    Ok (d, name)

let forget t path =
  match split_path path with
  | None -> ()
  | Some components ->
    let path = path_of components in
    let stripe = Htbl.stripe_of_key t.dirs path in
    Sync.Rwlock.with_write t.stripes.(stripe) (fun () -> ignore (Htbl.remove t.dirs path))

(* Directory renames move whole subtrees: every cached path under the
   old prefix is stale.  FPFS simply drops the cache (the documented
   full-path-indexing trade-off). *)
let invalidate_all t =
  Sched.cpu_work (Perf.Cpu.hash_lookup *. float_of_int (Htbl.length t.dirs));
  Htbl.clear t.dirs

(* ------------------------------------------------------------------ *)
(* The FPFS ops record: every LibFS op with the fast parent resolver,
   plus path-table maintenance where an op removes or moves a path. *)

let ops t =
  let base = Libfs.ops ~resolve:(resolve_parent t) t.fs in
  let forget_if_ok path r =
    if Result.is_ok r then forget t path;
    r
  in
  {
    base with
    fs_name = "fpfs";
    unlink = (fun path -> forget_if_ok path (base.unlink path));
    rmdir = (fun path -> forget_if_ok path (base.rmdir path));
    rename =
      (fun src dst ->
        let is_dir = match base.stat src with Ok st -> st.st_ftype = Dir | _ -> false in
        let r = base.rename src dst in
        if Result.is_ok r then if is_dir then invalidate_all t else forget t src;
        r);
  }

let cached_paths t = Htbl.length t.dirs
