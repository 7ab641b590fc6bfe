(* The POSIX-like file system interface shared by every file system in
   the repository.

   A value of type [t] is one process' handle onto a mounted file
   system: ArckFS LibFS instances, the customized LibFSes, and all the
   baseline models produce one.  Workload generators (fio / FxMark /
   Filebench) and the mini-LevelDB are written against this record, so
   every benchmark runs unmodified on every file system.

   All operations must be called from inside a simulation fiber; they
   account virtual time. *)

open Fs_types

type fd = int

type t = {
  fs_name : string;
  create : string -> int -> (fd, errno) result;
      (* [create path mode] creates a regular file and opens it RW *)
  open_ : string -> open_flag list -> (fd, errno) result;
  close : fd -> (unit, errno) result;
  pread : fd -> Bytes.t -> int -> (int, errno) result;
      (* [pread fd buf off] reads [Bytes.length buf] bytes at offset [off] *)
  pwrite : fd -> Bytes.t -> int -> (int, errno) result;
  append : fd -> Bytes.t -> (int, errno) result;
  truncate : string -> int -> (unit, errno) result;
  unlink : string -> (unit, errno) result;
  mkdir : string -> int -> (unit, errno) result;
  rmdir : string -> (unit, errno) result;
  readdir : string -> (dirent list, errno) result;
  stat : string -> (stat, errno) result;
  rename : string -> string -> (unit, errno) result;
  chmod : string -> int -> (unit, errno) result;
  fsync : fd -> (unit, errno) result;
}

let ( let* ) = Result.bind

(* Convenience wrappers used by examples and tests. *)

let write_file fs path data =
  let* fd = fs.create path 0o644 in
  let* _ = fs.append fd (Bytes.of_string data) in
  fs.close fd

(* Create [path] opened read-write, or truncate it and open it so if it
   already exists. *)
let create_or_truncate fs path mode =
  match fs.create path mode with
  | Error EEXIST ->
    let* () = fs.truncate path 0 in
    fs.open_ path [ O_RDWR ]
  | r -> r

let read_file fs path =
  let* st = fs.stat path in
  let* fd = fs.open_ path [ O_RDONLY ] in
  let buf = Bytes.create st.st_size in
  let* n = fs.pread fd buf 0 in
  let* () = fs.close fd in
  Ok (Bytes.sub_string buf 0 n)

let mkdir_p fs path =
  match split_path path with
  | None -> Error EINVAL
  | Some components ->
    let rec go prefix = function
      | [] -> Ok ()
      | c :: rest -> (
        let dir = prefix ^ "/" ^ c in
        match fs.mkdir dir 0o755 with
        | Ok () | Error EEXIST -> go dir rest
        | Error e -> Error e)
    in
    go "" components
