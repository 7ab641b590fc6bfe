(* FPFS: a LibFS customized for deep directory hierarchies (paper §5),
   based on full-path indexing.

   A generic file system resolves "/a/b/c/d/e/f" with one directory
   lookup per component; at depth 20 that is 20 hash probes and 20
   auxiliary-state touches per operation.  FPFS replaces the
   per-directory hash tables in ArckFS' auxiliary state with one global
   hash table mapping a *full path* to its location in the core state,
   so resolution is a single probe.

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
  (* full path -> parent dir state * name.  Caching the parent (rather
     than the file) keeps every Libfs entry operation available while
     still skipping the component walk. *)
  parents : (string, Libfs.dir_state) Htbl.t;
  stripes : Sync.Rwlock.t array;
  mutable generation : int; (* bumped by directory renames *)
}

let ( let* ) = Result.bind

let mount fs =
  {
    fs;
    parents = Htbl.create_string ~initial_size:1024 ();
    stripes = Array.init Htbl.stripes (fun _ -> Sync.Rwlock.create ());
    generation = 0;
  }

let dirname path =
  match String.rindex_opt path '/' with
  | None | Some 0 -> "/"
  | Some i -> String.sub path 0 i

(* The customized resolution: one global-hash probe; on a miss, fall
   back to the component walk and cache the result.  [write]: the
   caller will change the parent, so a walk that maps it maps it
   writable (see [Libfs.resolve_dir]). *)
let resolve_parent t ~write path =
  match dirname_basename path with
  | None -> Error EINVAL
  | Some (dir_components, name) ->
    if not (valid_name name) then Error EINVAL
    else begin
      let dir_path = dirname path in
      Sched.cpu_work Perf.Cpu.hash_lookup;
      let stripe = Htbl.stripe_of_key t.parents dir_path in
      let cached =
        Sync.Rwlock.with_read t.stripes.(stripe) (fun () -> Htbl.find t.parents dir_path)
      in
      match cached with
      | Some d -> Ok (d, name)
      | None ->
        let* d = Libfs.resolve_dir t.fs ~write dir_components in
        Sync.Rwlock.with_write t.stripes.(stripe) (fun () -> Htbl.replace t.parents dir_path d);
        Ok (d, name)
    end

(* Directory renames move whole subtrees: every cached path under the
   old prefix is stale.  FPFS simply drops the cache (the documented
   full-path-indexing trade-off). *)
let invalidate_all t =
  Sched.cpu_work (Perf.Cpu.hash_lookup *. float_of_int (Htbl.length t.parents));
  Htbl.clear t.parents;
  t.generation <- t.generation + 1

(* ------------------------------------------------------------------ *)
(* The FPFS ops record: entry operations reuse Libfs internals with the
   fast resolver; everything else defers to the generic LibFS. *)

let ops t =
  let base = Libfs.ops t.fs in
  let open Trio_core.Fs_intf in
  {
    base with
    fs_name = "fpfs";
    create =
      (fun path mode ->
        Libfs.with_retry t.fs (fun () ->
            let* d, name = resolve_parent t ~write:true path in
            let* r = Libfs.create_entry t.fs d name ~ftype:Reg ~mode in
            let* f = Libfs.get_file t.fs ~ino:r.Libfs.e_ino ~addr:r.Libfs.e_addr in
            let fd = Libfs.alloc_fd t.fs in
            Libfs.register_fd t.fs fd f;
            Ok fd));
    open_ =
      (fun path flags ->
        Libfs.with_retry t.fs (fun () ->
            let* d, name = resolve_parent t ~write:false path in
            match Libfs.lookup t.fs d name with
            | None ->
              if List.mem O_CREAT flags then
                let* r = Libfs.create_entry t.fs d name ~ftype:Reg ~mode:0o644 in
                let* f = Libfs.get_file t.fs ~ino:r.Libfs.e_ino ~addr:r.Libfs.e_addr in
                let fd = Libfs.alloc_fd t.fs in
                Libfs.register_fd t.fs fd f;
                Ok fd
              else Error ENOENT
            | Some { Libfs.e_ftype = Dir; _ } -> Error EISDIR
            | Some r ->
              let* f = Libfs.get_file t.fs ~ino:r.Libfs.e_ino ~addr:r.Libfs.e_addr in
              let* () =
                if List.mem O_TRUNC flags then Libfs.truncate_file t.fs f ~size:0 else Ok ()
              in
              let fd = Libfs.alloc_fd t.fs in
              Libfs.register_fd t.fs fd f;
              Ok fd));
    stat =
      (fun path ->
        Libfs.with_retry t.fs (fun () ->
            let* d, name = resolve_parent t ~write:false path in
            match Libfs.lookup t.fs d name with
            | None -> Error ENOENT
            | Some r -> Libfs.stat_dentry t.fs r));
    unlink =
      (fun path ->
        (* also drop any cached parent mapping of the removed subtree *)
        let r = base.unlink path in
        (match r with
        | Ok () ->
          let stripe = Htbl.stripe_of_key t.parents path in
          Sync.Rwlock.with_write t.stripes.(stripe) (fun () ->
              ignore (Htbl.remove t.parents path))
        | Error _ -> ());
        r);
    rename =
      (fun src dst ->
        let is_dir = match base.stat src with Ok st -> st.st_ftype = Dir | _ -> false in
        let r = base.rename src dst in
        (match r with
        | Ok () when is_dir -> invalidate_all t
        | Ok () ->
          let stripe = Htbl.stripe_of_key t.parents src in
          Sync.Rwlock.with_write t.stripes.(stripe) (fun () ->
              ignore (Htbl.remove t.parents src))
        | Error _ -> ());
        r);
    rmdir =
      (fun path ->
        let r = base.rmdir path in
        (match r with
        | Ok () ->
          let stripe = Htbl.stripe_of_key t.parents path in
          Sync.Rwlock.with_write t.stripes.(stripe) (fun () ->
              ignore (Htbl.remove t.parents path))
        | Error _ -> ());
        r);
  }

let cached_paths t = Htbl.length t.parents
