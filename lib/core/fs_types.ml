(* Types shared by every file system in the repository: the Trio stack
   (ArckFS, KVFS, FPFS) and the baselines. *)

type ftype = Reg | Dir

let ftype_code = function Reg -> 1 | Dir -> 2

let ftype_of_code = function 1 -> Some Reg | 2 -> Some Dir | _ -> None

type errno =
  | ENOENT (* no such file or directory *)
  | EEXIST (* file exists *)
  | ENOTDIR (* a path component is not a directory *)
  | EISDIR (* operation on a directory where a file is required *)
  | ENOTEMPTY (* directory not empty *)
  | EACCES (* permission denied *)
  | EBADF (* bad file descriptor *)
  | EINVAL (* invalid argument *)
  | ENOSPC (* no space left on device *)
  | ENAMETOOLONG
  | EAGAIN (* resource temporarily unavailable (lease contention) *)
  | EIO (* metadata corruption detected / quarantined file / bad media *)
  | EROFS (* file degraded to read-only after unrepairable media damage *)
  | ETIMEDOUT (* retry/backoff deadline budget exhausted (QoS throttling) *)

let errno_to_string = function
  | ENOENT -> "ENOENT"
  | EEXIST -> "EEXIST"
  | ENOTDIR -> "ENOTDIR"
  | EISDIR -> "EISDIR"
  | ENOTEMPTY -> "ENOTEMPTY"
  | EACCES -> "EACCES"
  | EBADF -> "EBADF"
  | EINVAL -> "EINVAL"
  | ENOSPC -> "ENOSPC"
  | ENAMETOOLONG -> "ENAMETOOLONG"
  | EAGAIN -> "EAGAIN"
  | EIO -> "EIO"
  | EROFS -> "EROFS"
  | ETIMEDOUT -> "ETIMEDOUT"

(* Dense index for per-errno counter arrays (see {!Vfs}). *)
let errno_index = function
  | ENOENT -> 0
  | EEXIST -> 1
  | ENOTDIR -> 2
  | EISDIR -> 3
  | ENOTEMPTY -> 4
  | EACCES -> 5
  | EBADF -> 6
  | EINVAL -> 7
  | ENOSPC -> 8
  | ENAMETOOLONG -> 9
  | EAGAIN -> 10
  | EIO -> 11
  | EROFS -> 12
  | ETIMEDOUT -> 13

let all_errnos =
  [ ENOENT; EEXIST; ENOTDIR; EISDIR; ENOTEMPTY; EACCES; EBADF; EINVAL; ENOSPC;
    ENAMETOOLONG; EAGAIN; EIO; EROFS; ETIMEDOUT ]

let errno_count = List.length all_errnos

type open_flag = O_RDONLY | O_WRONLY | O_RDWR | O_CREAT | O_TRUNC | O_APPEND

type stat = {
  st_ino : int;
  st_ftype : ftype;
  st_mode : int;
  st_uid : int;
  st_gid : int;
  st_size : int;
  st_mtime : float;
  st_ctime : float;
}

type dirent = { d_ino : int; d_name : string; d_ftype : ftype }

(* Credentials of a process as seen by permission checks. *)
type cred = { uid : int; gid : int }

(* Classic UNIX permission check against a mode. *)
let permits ~cred ~uid ~gid ~mode ~want_read ~want_write =
  if cred.uid = 0 then true
  else begin
    let shift = if cred.uid = uid then 6 else if cred.gid = gid then 3 else 0 in
    let bits = (mode lsr shift) land 0x7 in
    (not want_read || bits land 0x4 <> 0) && (not want_write || bits land 0x2 <> 0)
  end

(* Path handling: absolute, '/'-separated, no "." or ".." in the core
   state (the paper stores neither; LibFSes synthesize them). *)
let split_path path =
  if String.length path = 0 || path.[0] <> '/' then None
  else
    Some (String.split_on_char '/' path |> List.filter (fun s -> String.length s > 0))

let dirname_basename path =
  match split_path path with
  | None | Some [] -> None
  | Some components ->
    let rec go acc = function
      | [] -> None
      | [ last ] -> Some (List.rev acc, last)
      | c :: rest -> go (c :: acc) rest
    in
    go [] components

let valid_name name =
  let len = String.length name in
  len > 0 && len <= 180
  && (not (String.contains name '/'))
  && (not (String.contains name '\000'))
  && name <> "." && name <> ".."
