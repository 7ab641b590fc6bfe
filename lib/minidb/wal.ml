(* Write-ahead log over the generic FS interface.

   Every mutation is appended (and optionally fsynced) before it is
   applied to the memtable; on open, surviving records are replayed.
   Torn tails (possible after a crash: data writes are not atomic) are
   cut off by the per-record CRC. *)

module Fs = Trio_core.Fs_intf

type t = { fs : Fs.t; path : string; fd : Fs.fd }

let ( let* ) = Result.bind

let create fs ~path =
  let* fd = Fs.create_or_truncate fs path 0o644 in
  Ok { fs; path; fd }

(* Open an existing log for appending, keeping its records. *)
let open_ fs ~path =
  let* fd = fs.Fs.open_ path [ Trio_core.Fs_types.O_RDWR ] in
  Ok { fs; path; fd }

let append t ~kind ~key ~value ~sync =
  let record = Record_format.encode ~kind ~key ~value in
  let* _ = t.fs.Fs.append t.fd record in
  if sync then t.fs.Fs.fsync t.fd else Ok ()

let put t ~key ~value ~sync = append t ~kind:Record_format.t_put ~key ~value ~sync
let delete t ~key ~sync = append t ~kind:Record_format.t_delete ~key ~value:"" ~sync

(* Replay a log file into [apply].  Stops at the first invalid record. *)
let replay fs ~path ~apply =
  match fs.Fs.stat path with
  | Error _ -> Ok 0 (* no log: nothing to replay *)
  | Ok st ->
    let* fd = fs.Fs.open_ path [ Trio_core.Fs_types.O_RDONLY ] in
    let buf = Bytes.create st.Trio_core.Fs_types.st_size in
    let* _ = fs.Fs.pread fd buf 0 in
    let* () = fs.Fs.close fd in
    let rec go pos n =
      match Record_format.decode buf pos with
      | None -> n
      | Some (kind, key, value, next) ->
        apply ~kind ~key ~value;
        go next (n + 1)
    in
    Ok (go 0 0)

(* Truncate after a successful memtable flush.  The descriptor stays
   open: it names the file by inode on every file system here, so
   appends continue at the new end. *)
let reset t = t.fs.Fs.truncate t.path 0

let close t = t.fs.Fs.close t.fd
