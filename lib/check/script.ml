(* Operation scripts: the common language of the crash-state explorer
   and the differential cross-FS fuzzer.

   A script is a list of POSIX-like operations over a small fixed
   namespace (12 file names, 4 directory names).  Alongside the script
   lives an in-memory model of the expected durable state; applying an
   op updates both the model and a real file system and reports any
   disagreement.  Scripts print in a replayable form that
   [trioctl crashcheck --script] parses back, so every counterexample
   the explorer emits can be re-run from the command line. *)

module Fs = Trio_core.Fs_intf
module Rng = Trio_util.Rng
open Trio_core.Fs_types

type op =
  | Create of int (* name index *)
  | Write of int * int (* name, size *)
  | Pwrite of int * int * int (* name, offset, size *)
  | Append of int * int
  | Unlink of int
  | Mkdir of int
  | Rmdir of int
  | Rename of int * int
  | Truncate of int * int

let file_names = 12
let dir_names = 4

let name_of i = Printf.sprintf "/n%02d" (i mod file_names)
let dirname_of i = Printf.sprintf "/d%02d" (i mod dir_names)

let show_op = function
  | Create i -> Printf.sprintf "create %s" (name_of i)
  | Write (i, s) -> Printf.sprintf "write %s %d" (name_of i) s
  | Pwrite (i, off, s) -> Printf.sprintf "pwrite %s %d %d" (name_of i) off s
  | Append (i, s) -> Printf.sprintf "append %s %d" (name_of i) s
  | Unlink i -> Printf.sprintf "unlink %s" (name_of i)
  | Mkdir i -> Printf.sprintf "mkdir %s" (dirname_of i)
  | Rmdir i -> Printf.sprintf "rmdir %s" (dirname_of i)
  | Rename (a, b) -> Printf.sprintf "rename %s %s" (name_of a) (name_of b)
  | Truncate (i, s) -> Printf.sprintf "truncate %s %d" (name_of i) s

let to_string ops = String.concat "; " (List.map show_op ops)

(* Parse the printed form back; accepts exactly what [to_string] emits
   (modulo whitespace). *)
let parse s =
  let parse_name kind prefix name =
    let n = String.length prefix in
    if String.length name > n && String.sub name 0 n = prefix then
      match int_of_string_opt (String.sub name n (String.length name - n)) with
      | Some i when i >= 0 -> Ok i
      | _ -> Error (Printf.sprintf "bad %s name %S" kind name)
    else Error (Printf.sprintf "bad %s name %S (expected %s<nn>)" kind name prefix)
  in
  let file = parse_name "file" "/n" and dir = parse_name "dir" "/d" in
  let int_arg what v =
    match int_of_string_opt v with
    | Some n when n >= 0 -> Ok n
    | _ -> Error (Printf.sprintf "bad %s %S" what v)
  in
  let ( let* ) = Result.bind in
  let parse_one chunk =
    let words =
      String.split_on_char ' ' (String.trim chunk) |> List.filter (fun w -> w <> "")
    in
    match words with
    | [ "create"; n ] ->
      let* i = file n in
      Ok (Create i)
    | [ "write"; n; s ] ->
      let* i = file n in
      let* s = int_arg "size" s in
      Ok (Write (i, s))
    | [ "pwrite"; n; off; s ] ->
      let* i = file n in
      let* off = int_arg "offset" off in
      let* s = int_arg "size" s in
      Ok (Pwrite (i, off, s))
    | [ "append"; n; s ] ->
      let* i = file n in
      let* s = int_arg "size" s in
      Ok (Append (i, s))
    | [ "unlink"; n ] ->
      let* i = file n in
      Ok (Unlink i)
    | [ "mkdir"; d ] ->
      let* i = dir d in
      Ok (Mkdir i)
    | [ "rmdir"; d ] ->
      let* i = dir d in
      Ok (Rmdir i)
    | [ "rename"; a; b ] ->
      let* a = file a in
      let* b = file b in
      Ok (Rename (a, b))
    | [ "truncate"; n; s ] ->
      let* i = file n in
      let* s = int_arg "size" s in
      Ok (Truncate (i, s))
    | _ -> Error (Printf.sprintf "cannot parse op %S" (String.trim chunk))
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | chunk :: rest when String.trim chunk = "" -> go acc rest
    | chunk :: rest -> (
      match parse_one chunk with
      | Ok op -> go (op :: acc) rest
      | Error e -> Error e)
  in
  go [] (String.split_on_char ';' s)

(* ------------------------------------------------------------------ *)
(* Generation *)

let gen_op rng =
  (* same op mix the historical qcheck generator used *)
  match Rng.int rng 21 with
  | 0 | 1 | 2 | 3 -> Create (Rng.int rng file_names)
  | 4 | 5 | 6 | 7 -> Write (Rng.int rng file_names, 1 + Rng.int rng 9000)
  | 8 | 9 | 10 -> Append (Rng.int rng file_names, 1 + Rng.int rng 5000)
  | 11 | 12 | 13 -> Unlink (Rng.int rng file_names)
  | 14 | 15 -> Mkdir (Rng.int rng dir_names)
  | 16 -> Rmdir (Rng.int rng dir_names)
  | 17 | 18 -> Rename (Rng.int rng file_names, Rng.int rng file_names)
  | _ -> Truncate (Rng.int rng file_names, Rng.int rng 9001)

let generate rng ~len = List.init len (fun _ -> gen_op rng)

(* ------------------------------------------------------------------ *)
(* Model *)

type model = { files : (string, string) Hashtbl.t; dirs : (string, unit) Hashtbl.t }

let model_create () = { files = Hashtbl.create 16; dirs = Hashtbl.create 4 }

let model_snapshot m =
  let c = model_create () in
  Hashtbl.iter (Hashtbl.replace c.files) m.files;
  Hashtbl.iter (Hashtbl.replace c.dirs) m.dirs;
  c

let names_of_model m =
  Hashtbl.fold (fun k _ acc -> k :: acc) m.files []
  @ Hashtbl.fold (fun k () acc -> k :: acc) m.dirs []
  |> List.sort compare

let model_files m = Hashtbl.fold (fun k v acc -> (k, v) :: acc) m.files [] |> List.sort compare

let touched_paths = function
  | Create i | Write (i, _) | Pwrite (i, _, _) | Append (i, _) | Unlink i | Truncate (i, _) ->
    [ name_of i ]
  | Mkdir i | Rmdir i -> [ dirname_of i ]
  | Rename (a, b) -> [ name_of a; name_of b ]

let content_byte op_idx = Char.chr (Char.code 'a' + (op_idx mod 26))

(* Apply one op to both the fs and the model; both must agree on the
   outcome.  The model is updated *before* the fs runs, so that when a
   crash interrupts the fs operation, the model already reflects the
   op's intended post-state (the atomicity check accepts either the pre-
   or post-state).  Returns [Error detail] on any fs/model divergence. *)
let apply fs model op_idx op =
  let expect_same what fs_result model_ok =
    match (fs_result, model_ok) with
    | Ok _, true | Error _, false -> Ok ()
    | Ok _, false -> Error (Printf.sprintf "%s: fs succeeded but model predicts failure" what)
    | Error e, true ->
      Error
        (Printf.sprintf "%s: fs failed with %s but model predicts success" what
           (errno_to_string e))
  in
  (* [size] bytes at [off]; past EOF, the gap reads as zeros *)
  let pwrite i off size =
    let path = name_of i in
    let can = Hashtbl.mem model.files path in
    let data = String.make size (content_byte op_idx) in
    if can then begin
      let old = Hashtbl.find model.files path in
      let merged = Bytes.make (max (String.length old) (off + size)) '\000' in
      Bytes.blit_string old 0 merged 0 (String.length old);
      Bytes.blit_string data 0 merged off size;
      Hashtbl.replace model.files path (Bytes.to_string merged)
    end;
    let r =
      match fs.Fs.open_ path [ O_RDWR ] with
      | Ok fd ->
        let r = fs.Fs.pwrite fd (Bytes.of_string data) off in
        let (_ : (unit, errno) result) = fs.Fs.close fd in
        Result.map (fun _ -> ()) r
      | Error e -> Error e
    in
    expect_same (show_op op) r can
  in
  match op with
  | Create i ->
    let path = name_of i in
    let can = not (Hashtbl.mem model.files path) in
    if can then Hashtbl.replace model.files path "";
    let r =
      match fs.Fs.create path 0o644 with
      | Ok fd ->
        let (_ : (unit, errno) result) = fs.Fs.close fd in
        Ok ()
      | Error e -> Error e
    in
    expect_same (show_op op) r can
  | Write (i, size) -> pwrite i 0 size
  | Pwrite (i, off, size) -> pwrite i off size
  | Append (i, size) ->
    let path = name_of i in
    let can = Hashtbl.mem model.files path in
    let data = String.make size (content_byte op_idx) in
    if can then Hashtbl.replace model.files path (Hashtbl.find model.files path ^ data);
    let r =
      match fs.Fs.open_ path [ O_RDWR ] with
      | Ok fd ->
        let r = fs.Fs.append fd (Bytes.of_string data) in
        let (_ : (unit, errno) result) = fs.Fs.close fd in
        Result.map (fun _ -> ()) r
      | Error e -> Error e
    in
    expect_same (show_op op) r can
  | Unlink i ->
    let path = name_of i in
    let can = Hashtbl.mem model.files path in
    if can then Hashtbl.remove model.files path;
    expect_same (show_op op) (fs.Fs.unlink path) can
  | Mkdir i ->
    let path = dirname_of i in
    let can = not (Hashtbl.mem model.dirs path) in
    if can then Hashtbl.replace model.dirs path ();
    expect_same (show_op op) (fs.Fs.mkdir path 0o755) can
  | Rmdir i ->
    let path = dirname_of i in
    let can = Hashtbl.mem model.dirs path in
    if can then Hashtbl.remove model.dirs path;
    expect_same (show_op op) (fs.Fs.rmdir path) can
  | Rename (a, b) ->
    let src = name_of a and dst = name_of b in
    (* rename onto itself is a successful no-op *)
    let can = Hashtbl.mem model.files src in
    if can && src <> dst then begin
      let content = Hashtbl.find model.files src in
      Hashtbl.remove model.files src;
      Hashtbl.replace model.files dst content
    end;
    expect_same (show_op op) (fs.Fs.rename src dst) can
  | Truncate (i, size) ->
    let path = name_of i in
    let can = Hashtbl.mem model.files path in
    if can then begin
      let old = Hashtbl.find model.files path in
      let next =
        if String.length old >= size then String.sub old 0 size
        else old ^ String.make (size - String.length old) '\000'
      in
      Hashtbl.replace model.files path next
    end;
    expect_same (show_op op) (fs.Fs.truncate path size) can

(* Run a whole script; first divergence wins. *)
let apply_all fs model ops =
  let rec go i = function
    | [] -> Ok ()
    | op :: rest -> (
      match apply fs model i op with Ok () -> go (i + 1) rest | Error _ as e -> e)
  in
  go 0 ops

(* ------------------------------------------------------------------ *)
(* Durable-state comparison *)

let visible_names fs =
  match fs.Fs.readdir "/" with
  | Error e -> Error (Printf.sprintf "readdir /: %s" (errno_to_string e))
  | Ok entries -> Ok (List.map (fun e -> "/" ^ e.d_name) entries |> List.sort compare)

(* Compare a (freshly mounted) fs against the model: every model file
   readable with exact content, every model dir listable, no extra
   top-level entries. *)
let check_model fs model =
  let ( let* ) = Result.bind in
  let* () =
    Hashtbl.fold
      (fun path expected acc ->
        let* () = acc in
        match Fs.read_file fs path with
        | Ok got ->
          if String.equal got expected then Ok ()
          else
            Error
              (Printf.sprintf "%s: content mismatch (%d vs %d bytes, or bytes differ)" path
                 (String.length got) (String.length expected))
        | Error e -> Error (Printf.sprintf "%s: lost (%s)" path (errno_to_string e)))
      model.files (Ok ())
  in
  let* () =
    Hashtbl.fold
      (fun path () acc ->
        let* () = acc in
        match fs.Fs.readdir path with
        | Ok _ -> Ok ()
        | Error e -> Error (Printf.sprintf "dir %s: lost (%s)" path (errno_to_string e)))
      model.dirs (Ok ())
  in
  let* visible = visible_names fs in
  let expected = names_of_model model in
  if visible = expected then Ok ()
  else
    Error
      (Printf.sprintf "namespace [%s] differs from model [%s]" (String.concat " " visible)
         (String.concat " " expected))

(* ------------------------------------------------------------------ *)
(* Shrinking *)

(* Candidate smaller scripts, most aggressive first: drop every op,
   then shrink every size argument (halve, and try 1).  The explorer
   greedily re-checks candidates, so the reported counterexample is a
   local minimum: no op can be dropped and no size shrunk while still
   exhibiting the failure. *)
let shrink_candidates ops =
  let arr = Array.of_list ops in
  let n = Array.length arr in
  let drops =
    List.init n (fun i -> List.filteri (fun j _ -> j <> i) ops)
  in
  let shrink_size = function
    | Write (i, s) when s > 1 -> [ Write (i, s / 2); Write (i, 1) ]
    | Pwrite (i, off, s) when off > 0 || s > 1 ->
      (if off > 0 then [ Pwrite (i, off / 2, s); Pwrite (i, 0, s) ] else [])
      @ if s > 1 then [ Pwrite (i, off, s / 2); Pwrite (i, off, 1) ] else []
    | Append (i, s) when s > 1 -> [ Append (i, s / 2); Append (i, 1) ]
    | Truncate (i, s) when s > 1 -> [ Truncate (i, s / 2); Truncate (i, 1) ]
    | _ -> []
  in
  let size_shrinks =
    List.concat
      (List.init n (fun i ->
           List.map
             (fun op' -> List.mapi (fun j op -> if j = i then op' else op) ops)
             (shrink_size arr.(i))))
  in
  drops @ size_shrinks
