(* The LSM key-value store: memtable + WAL + two on-FS levels with
   compaction.  Functionally equivalent to the slice of LevelDB that
   db_bench exercises; runs over any [Fs_intf.t], which is how Table 5
   compares the file systems underneath an identical application. *)

module Fs = Trio_core.Fs_intf
module Sched = Trio_sim.Sched

type options = {
  write_buffer_bytes : int; (* memtable flush threshold *)
  l0_compaction_trigger : int; (* #L0 tables that triggers a merge into L1 *)
  sync_writes : bool; (* fsync the WAL on every write *)
}

let default_options =
  { write_buffer_bytes = 256 * 1024; l0_compaction_trigger = 4; sync_writes = false }

type t = {
  fs : Fs.t;
  dir : string;
  options : options;
  mutable memtable : Memtable.t;
  mutable wal : Wal.t;
  mutable l0 : Sstable.t list; (* newest first; ranges may overlap *)
  mutable l1 : Sstable.t list; (* sorted, disjoint ranges *)
  mutable next_file : int;
  mutable compactions : int;
  mutable flushes : int;
}

let ( let* ) = Result.bind

let table_path t n = Printf.sprintf "%s/%06d.sst" t.dir n

let wal_path dir = dir ^ "/wal.log"

let fresh_file t =
  t.next_file <- t.next_file + 1;
  t.next_file

(* ------------------------------------------------------------------ *)
(* Manifest: the authoritative list of live tables per level, rewritten
   atomically (write new + rename) on every structural change. *)

let manifest_path dir = dir ^ "/MANIFEST"

let write_manifest t =
  let body =
    String.concat "\n"
      (List.map (fun s -> "L0 " ^ Sstable.path s) t.l0
      @ List.map (fun s -> "L1 " ^ Sstable.path s) t.l1
      @ [ Printf.sprintf "NEXT %d" t.next_file ])
  in
  let tmp = t.dir ^ "/MANIFEST.tmp" in
  let* fd = Fs.create_or_truncate t.fs tmp 0o644 in
  let* _ = t.fs.Fs.append fd (Bytes.of_string body) in
  let* () = t.fs.Fs.fsync fd in
  let* () = t.fs.Fs.close fd in
  t.fs.Fs.rename tmp (manifest_path t.dir)

let read_manifest fs dir =
  match Fs.read_file fs (manifest_path dir) with
  | Error _ -> Ok ([], [], 0)
  | Ok body ->
    let l0 = ref [] and l1 = ref [] and next = ref 0 in
    let ok = ref true in
    String.split_on_char '\n' body
    |> List.iter (fun line ->
           match String.split_on_char ' ' line with
           | [ "L0"; path ] -> (
             match Sstable.open_ fs ~path with
             | Ok s -> l0 := s :: !l0
             | Error _ -> ok := false)
           | [ "L1"; path ] -> (
             match Sstable.open_ fs ~path with
             | Ok s -> l1 := s :: !l1
             | Error _ -> ok := false)
           | [ "NEXT"; n ] -> next := int_of_string n
           | _ -> ());
    if !ok then Ok (List.rev !l0, List.rev !l1, !next)
    else begin
      List.iter (fun s -> ignore (Sstable.close s)) (!l0 @ !l1);
      Error Trio_core.Fs_types.EIO
    end

(* ------------------------------------------------------------------ *)
(* Flush & compaction *)

let merge_sorted lists =
  (* k-way merge of sorted (key, mutation) lists; earlier lists win on
     duplicate keys (newest first). *)
  let rec merge acc lists =
    let heads = List.filteri (fun _ l -> l <> []) lists in
    if heads = [] then List.rev acc
    else begin
      let min_key =
        List.fold_left
          (fun acc l -> match l with (k, _) :: _ -> (match acc with None -> Some k | Some m -> Some (min m k)) | [] -> acc)
          None lists
        |> Option.get
      in
      (* the first list holding min_key provides the value *)
      let chosen = ref None in
      let lists =
        List.map
          (fun l ->
            match l with
            | (k, v) :: rest when k = min_key ->
              if !chosen = None then chosen := Some (k, v);
              rest
            | l -> l)
          lists
      in
      merge (Option.get !chosen :: acc) lists
    end
  in
  merge [] lists

let compact_l0 t =
  t.compactions <- t.compactions + 1;
  (* read every L0 and L1 table fully, merge, rewrite L1 *)
  let table_entries s =
    let acc = ref [] in
    let* () = Sstable.iter_all s (fun k v -> acc := (k, v) :: !acc) in
    Ok (List.rev !acc)
  in
  let rec read_all = function
    | [] -> Ok []
    | s :: rest ->
      let* e = table_entries s in
      let* r = read_all rest in
      Ok (e :: r)
  in
  let* l0_entries = read_all t.l0 in
  let* l1_entries = read_all t.l1 in
  let merged = merge_sorted (l0_entries @ l1_entries) in
  (* split into ~1 MiB output tables; bottom level drops tombstones *)
  let out = ref [] and cur = ref [] and cur_bytes = ref 0 in
  List.iter
    (fun (k, v) ->
      cur := (k, v) :: !cur;
      cur_bytes :=
        !cur_bytes + String.length k
        + (match v with Memtable.Put s -> String.length s | Memtable.Delete -> 0);
      if !cur_bytes > 1 lsl 20 then begin
        out := List.rev !cur :: !out;
        cur := [];
        cur_bytes := 0
      end)
    merged;
  if !cur <> [] then out := List.rev !cur :: !out;
  let rec build_tables = function
    | [] -> Ok []
    | entries :: rest ->
      let path = table_path t (fresh_file t) in
      let* s = Sstable.build t.fs ~path ~drop_tombstones:true entries in
      let* r = build_tables rest in
      Ok (s :: r)
  in
  let* new_l1 = build_tables (List.rev !out) in
  let old = t.l0 @ t.l1 in
  t.l0 <- [];
  t.l1 <- new_l1;
  let written = write_manifest t in
  (* [t] lists the superseded tables no more, so their descriptors close
     even when the manifest still names them; their files go only once
     it does not *)
  List.iter (fun s -> ignore (Sstable.close s)) old;
  let* () = written in
  List.iter (fun s -> ignore (t.fs.Fs.unlink (Sstable.path s))) old;
  Ok ()

let flush_memtable t =
  if Memtable.is_empty t.memtable then Ok ()
  else begin
    t.flushes <- t.flushes + 1;
    let entries = Memtable.to_sorted_list t.memtable in
    let path = table_path t (fresh_file t) in
    let* s = Sstable.build t.fs ~path entries in
    t.l0 <- s :: t.l0;
    (* The manifest lists the table before the log drops its records:
       until then the log is their only durable copy. *)
    let* () = write_manifest t in
    Memtable.clear t.memtable;
    let* () = Wal.reset t.wal in
    if List.length t.l0 >= t.options.l0_compaction_trigger then compact_l0 t else Ok ()
  end

(* ------------------------------------------------------------------ *)
(* Open / close *)

(* Close every table and the WAL; the first error wins. *)
let close_all t =
  let closed = List.map Sstable.close (t.l0 @ t.l1) @ [ Wal.close t.wal ] in
  Option.value (List.find_opt Result.is_error closed) ~default:(Ok ())

let open_db ?(options = default_options) fs ~dir =
  let* () =
    match fs.Fs.mkdir dir 0o755 with
    | Ok () | Error Trio_core.Fs_types.EEXIST -> Ok ()
    | Error e -> Error e
  in
  let* l0, l1, next_file = read_manifest fs dir in
  let memtable = Memtable.create () in
  let wal =
    (* replay the WAL into the fresh memtable *)
    let* replayed =
      Wal.replay fs ~path:(wal_path dir) ~apply:(fun ~kind ~key ~value ->
          if kind = Record_format.t_put then Memtable.put memtable key value
          else Memtable.delete memtable key)
    in
    (* Replayed records reach an L0 table before the log is truncated,
       as LevelDB's recovery writes a level-0 table: a crash before the
       next flush must still find them. *)
    if replayed = 0 then Wal.create fs ~path:(wal_path dir) else Wal.open_ fs ~path:(wal_path dir)
  in
  match wal with
  | Error e ->
    List.iter (fun s -> ignore (Sstable.close s)) (l0 @ l1);
    Error e
  | Ok wal -> (
    let t =
      {
        fs;
        dir;
        options;
        memtable;
        wal;
        l0;
        l1;
        next_file;
        compactions = 0;
        flushes = 0;
      }
    in
    match flush_memtable t with
    | Ok () -> Ok t
    | Error e ->
      ignore (close_all t);
      Error e)

let maybe_flush t =
  if Memtable.approximate_bytes t.memtable >= t.options.write_buffer_bytes then flush_memtable t
  else Ok ()

(* ------------------------------------------------------------------ *)
(* Public API *)

let put t ~key ~value =
  let* () = Wal.put t.wal ~key ~value ~sync:t.options.sync_writes in
  Memtable.put t.memtable key value;
  maybe_flush t

let delete t ~key =
  let* () = Wal.delete t.wal ~key ~sync:t.options.sync_writes in
  Memtable.delete t.memtable key;
  maybe_flush t

let get t ~key =
  match Memtable.find t.memtable key with
  | Some (Memtable.Put v) -> Ok (Some v)
  | Some Memtable.Delete -> Ok None
  | None ->
    let rec search_l0 = function
      | [] -> Ok `Missing
      | s :: rest -> (
        let* r = Sstable.get s key in
        match r with
        | Some (Memtable.Put v) -> Ok (`Found v)
        | Some Memtable.Delete -> Ok `Deleted
        | None -> search_l0 rest)
    in
    let* r0 = search_l0 t.l0 in
    (match r0 with
    | `Found v -> Ok (Some v)
    | `Deleted -> Ok None
    | `Missing ->
      let* r1 = search_l0 t.l1 in
      (match r1 with `Found v -> Ok (Some v) | `Deleted | `Missing -> Ok None))

let close t =
  (* the descriptors close even when the flush fails, whose error wins *)
  let flushed = flush_memtable t in
  let closed = close_all t in
  if Result.is_error flushed then flushed else closed

let stats t = (t.flushes, t.compactions, List.length t.l0, List.length t.l1)
