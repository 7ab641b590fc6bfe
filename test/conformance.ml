(* Generic file system conformance suite.

   Runs the same POSIX-semantics checks against any file system exposed
   through the {!Trio_core.Vfs} dispatch layer, so ArckFS, FPFS, and all
   the baseline models are held to identical behaviour — which is what
   makes the benchmark comparisons apples to apples.  Beyond the
   per-semantic checks, a scripted sequence covering every operation
   with at least one success and one failure asserts errno parity across
   every file system, and a companion check asserts the VFS counters
   track exactly what was dispatched. *)

module Fs = Trio_core.Fs_intf
module Vfs = Trio_core.Vfs
open Trio_core.Fs_types

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected %s" what (errno_to_string e)

let expect_err what expected = function
  | Ok _ -> Alcotest.failf "%s: expected %s, got Ok" what (errno_to_string expected)
  | Error e ->
    Alcotest.(check string) what (errno_to_string expected) (errno_to_string e)

(* Each check is (name, fs -> unit); [run_check] builds a fresh fs. *)
let checks : (string * (Fs.t -> unit)) list =
  [
    ( "create, stat, close",
      fun fs ->
        let fd = ok "create" (fs.Fs.create "/c1" 0o640) in
        ok "close" (fs.Fs.close fd);
        let st = ok "stat" (fs.Fs.stat "/c1") in
        Alcotest.(check int) "empty" 0 st.st_size;
        Alcotest.(check bool) "regular" true (st.st_ftype = Reg) );
    ( "duplicate create fails",
      fun fs ->
        ignore (ok "create" (fs.Fs.create "/c2" 0o644));
        expect_err "dup" EEXIST (fs.Fs.create "/c2" 0o644) );
    ( "missing file errors",
      fun fs ->
        expect_err "open" ENOENT (fs.Fs.open_ "/absent" [ O_RDONLY ]);
        expect_err "stat" ENOENT (fs.Fs.stat "/absent");
        expect_err "unlink" ENOENT (fs.Fs.unlink "/absent") );
    ( "write then read back",
      fun fs ->
        ok "write" (Fs.write_file fs "/c4" "conformance payload");
        Alcotest.(check string) "read" "conformance payload" (ok "read" (Fs.read_file fs "/c4")) );
    ( "pwrite patches a region",
      fun fs ->
        let fd = ok "create" (fs.Fs.create "/c5" 0o644) in
        ignore (ok "append" (fs.Fs.append fd (Bytes.make 64 'a')));
        ignore (ok "pwrite" (fs.Fs.pwrite fd (Bytes.make 8 'b') 8));
        let buf = Bytes.create 64 in
        ignore (ok "pread" (fs.Fs.pread fd buf 0));
        Alcotest.(check string) "patched"
          ("aaaaaaaa" ^ "bbbbbbbb" ^ String.make 48 'a')
          (Bytes.to_string buf) );
    ( "read past eof returns partial",
      fun fs ->
        let fd = ok "create" (fs.Fs.create "/c6" 0o644) in
        ignore (ok "append" (fs.Fs.append fd (Bytes.make 10 'x')));
        let buf = Bytes.create 100 in
        Alcotest.(check int) "partial" 10 (ok "pread" (fs.Fs.pread fd buf 0));
        Alcotest.(check int) "eof" 0 (ok "pread" (fs.Fs.pread fd buf 10)) );
    ( "append grows the file",
      fun fs ->
        let fd = ok "create" (fs.Fs.create "/c7" 0o644) in
        ignore (ok "a1" (fs.Fs.append fd (Bytes.make 100 'p')));
        ignore (ok "a2" (fs.Fs.append fd (Bytes.make 100 'q')));
        Alcotest.(check int) "size" 200 (ok "stat" (fs.Fs.stat "/c7")).st_size );
    ( "truncate shrink and grow",
      fun fs ->
        ok "write" (Fs.write_file fs "/c8" (String.make 5000 'z'));
        ok "shrink" (fs.Fs.truncate "/c8" 10);
        Alcotest.(check int) "shrunk" 10 (ok "stat" (fs.Fs.stat "/c8")).st_size;
        ok "grow" (fs.Fs.truncate "/c8" 100);
        Alcotest.(check int) "grown" 100 (ok "stat" (fs.Fs.stat "/c8")).st_size;
        let content = ok "read" (Fs.read_file fs "/c8") in
        Alcotest.(check string) "zero fill" (String.make 90 '\000') (String.sub content 10 90) );
    ( "mkdir nesting and ENOTDIR",
      fun fs ->
        ok "mkdir" (fs.Fs.mkdir "/d" 0o755);
        ok "mkdir2" (fs.Fs.mkdir "/d/e" 0o755);
        ignore (ok "create" (fs.Fs.create "/d/e/f" 0o644));
        expect_err "through file" ENOTDIR (fs.Fs.create "/d/e/f/g" 0o644) );
    ( "readdir lists entries",
      fun fs ->
        ok "mkdir" (fs.Fs.mkdir "/rd" 0o755);
        ignore (ok "a" (fs.Fs.create "/rd/a" 0o644));
        ignore (ok "b" (fs.Fs.create "/rd/b" 0o644));
        ok "sub" (fs.Fs.mkdir "/rd/sub" 0o755);
        let names =
          ok "readdir" (fs.Fs.readdir "/rd") |> List.map (fun e -> e.d_name) |> List.sort compare
        in
        Alcotest.(check (list string)) "names" [ "a"; "b"; "sub" ] names );
    ( "readdir entry set is order-independent",
      (* File systems are free to pick their own readdir order (ArckFS
         returns ascending (name-hash, dentry address) from the B-link index;
         baselines return page-scan order) — but after the same mutation
         history every one of them must report the exact same entry
         *set*, with no duplicates and no ghosts.  Checked by sorting
         into one canonical order before comparing. *)
      fun fs ->
        ok "mkdir" (fs.Fs.mkdir "/es" 0o755);
        let names = List.init 30 (fun i -> Printf.sprintf "n%02d" i) in
        List.iter (fun n -> ignore (ok n (fs.Fs.create ("/es/" ^ n) 0o644))) names;
        ok "subdir" (fs.Fs.mkdir "/es/sub" 0o755);
        ok "unlink" (fs.Fs.unlink "/es/n07");
        ok "rename" (fs.Fs.rename "/es/n11" "/es/renamed");
        let got =
          ok "readdir" (fs.Fs.readdir "/es")
          |> List.map (fun e -> (e.d_name, e.d_ftype = Dir))
          |> List.sort compare
        in
        let rec no_dup = function
          | a :: (b :: _ as tl) -> a <> b && no_dup tl
          | _ -> true
        in
        Alcotest.(check bool) "no duplicate entries" true (no_dup got);
        let expected =
          (("renamed", false) :: ("sub", true)
          :: List.filter_map
               (fun n -> if n = "n07" || n = "n11" then None else Some (n, false))
               names)
          |> List.sort compare
        in
        Alcotest.(check (list (pair string bool))) "entry set" expected got );
    ( "unlink removes and frees the name",
      fun fs ->
        ignore (ok "create" (fs.Fs.create "/u" 0o644));
        ok "unlink" (fs.Fs.unlink "/u");
        expect_err "gone" ENOENT (fs.Fs.stat "/u");
        ignore (ok "recreate" (fs.Fs.create "/u" 0o644)) );
    ( "rmdir requires empty",
      fun fs ->
        ok "mkdir" (fs.Fs.mkdir "/re" 0o755);
        ignore (ok "create" (fs.Fs.create "/re/x" 0o644));
        expect_err "not empty" ENOTEMPTY (fs.Fs.rmdir "/re");
        ok "unlink" (fs.Fs.unlink "/re/x");
        ok "rmdir" (fs.Fs.rmdir "/re") );
    ( "unlink of a directory is refused",
      fun fs ->
        ok "mkdir" (fs.Fs.mkdir "/ud" 0o755);
        expect_err "EISDIR" EISDIR (fs.Fs.unlink "/ud") );
    ( "rename moves content",
      fun fs ->
        ok "mkdir a" (fs.Fs.mkdir "/ra" 0o755);
        ok "mkdir b" (fs.Fs.mkdir "/rb" 0o755);
        ok "write" (Fs.write_file fs "/ra/f" "moved-payload");
        ok "rename" (fs.Fs.rename "/ra/f" "/rb/g");
        expect_err "src gone" ENOENT (fs.Fs.stat "/ra/f");
        Alcotest.(check string) "content" "moved-payload" (ok "read" (Fs.read_file fs "/rb/g")) );
    ( "chmod changes the mode",
      fun fs ->
        ignore (ok "create" (fs.Fs.create "/cm" 0o644));
        ok "chmod" (fs.Fs.chmod "/cm" 0o600);
        Alcotest.(check int) "mode" 0o600 (ok "stat" (fs.Fs.stat "/cm")).st_mode );
    ( "fsync succeeds on an open fd",
      fun fs ->
        let fd = ok "create" (fs.Fs.create "/fy" 0o644) in
        ignore (ok "append" (fs.Fs.append fd (Bytes.make 10 's')));
        ok "fsync" (fs.Fs.fsync fd);
        expect_err "bad fd" EBADF (fs.Fs.fsync 987654) );
    ( "multi-page data integrity",
      fun fs ->
        let data = String.init 20000 (fun i -> Char.chr (i * 31 mod 256)) in
        ok "write" (Fs.write_file fs "/mp" data);
        Alcotest.(check bool) "equal" true (String.equal data (ok "read" (Fs.read_file fs "/mp"))) );
  ]

(* ------------------------------------------------------------------ *)
(* Errno parity: one scripted sequence covering all fifteen operations,
   each with at least one success and one failure.  Every file system
   must produce the exact same op:outcome trace. *)

let scripted_sequence fs =
  let out = ref [] in
  let tag name r =
    out := (name ^ ":" ^ match r with Ok _ -> "ok" | Error e -> errno_to_string e) :: !out
  in
  let badfd = 987654 in
  let buf = Bytes.make 8 'x' in
  tag "mkdir" (fs.Fs.mkdir "/p" 0o755);
  tag "mkdir" (fs.Fs.mkdir "/p" 0o755);
  let fdr = fs.Fs.create "/p/f" 0o644 in
  tag "create" fdr;
  tag "create" (fs.Fs.create "/p/f" 0o644);
  let fd = match fdr with Ok fd -> fd | Error _ -> badfd in
  let fdr2 = fs.Fs.open_ "/p/f" [ O_RDONLY ] in
  tag "open" fdr2;
  tag "open" (fs.Fs.open_ "/nope" [ O_RDONLY ]);
  (match fdr2 with Ok fd2 -> tag "close" (fs.Fs.close fd2) | Error _ -> ());
  tag "append" (fs.Fs.append fd buf);
  tag "append" (fs.Fs.append badfd buf);
  tag "pwrite" (fs.Fs.pwrite fd buf 0);
  tag "pwrite" (fs.Fs.pwrite badfd buf 0);
  tag "pread" (fs.Fs.pread fd buf 0);
  tag "pread" (fs.Fs.pread badfd buf 0);
  tag "fsync" (fs.Fs.fsync fd);
  tag "fsync" (fs.Fs.fsync badfd);
  tag "close" (fs.Fs.close fd);
  tag "close" (fs.Fs.close badfd);
  tag "stat" (fs.Fs.stat "/p/f");
  tag "stat" (fs.Fs.stat "/nope");
  tag "truncate" (fs.Fs.truncate "/p/f" 4);
  tag "truncate" (fs.Fs.truncate "/nope" 4);
  tag "chmod" (fs.Fs.chmod "/p/f" 0o600);
  tag "chmod" (fs.Fs.chmod "/nope" 0o600);
  tag "readdir" (fs.Fs.readdir "/p");
  tag "readdir" (fs.Fs.readdir "/nope");
  tag "rename" (fs.Fs.rename "/p/f" "/p/g");
  tag "rename" (fs.Fs.rename "/nope" "/p/x");
  tag "unlink" (fs.Fs.unlink "/p");
  tag "rmdir" (fs.Fs.rmdir "/p");
  tag "unlink" (fs.Fs.unlink "/p/g");
  tag "unlink" (fs.Fs.unlink "/p/g");
  tag "rmdir" (fs.Fs.rmdir "/p");
  tag "rmdir" (fs.Fs.rmdir "/p");
  List.rev !out

let expected_sequence =
  [
    "mkdir:ok"; "mkdir:EEXIST";
    "create:ok"; "create:EEXIST";
    "open:ok"; "open:ENOENT";
    "close:ok";
    "append:ok"; "append:EBADF";
    "pwrite:ok"; "pwrite:EBADF";
    "pread:ok"; "pread:EBADF";
    "fsync:ok"; "fsync:EBADF";
    "close:ok"; "close:EBADF";
    "stat:ok"; "stat:ENOENT";
    "truncate:ok"; "truncate:ENOENT";
    "chmod:ok"; "chmod:ENOENT";
    "readdir:ok"; "readdir:ENOENT";
    "rename:ok"; "rename:ENOENT";
    "unlink:EISDIR"; "rmdir:ENOTEMPTY";
    "unlink:ok"; "unlink:ENOENT";
    "rmdir:ok"; "rmdir:ENOENT";
  ]

let parity_check vfs =
  Alcotest.(check (list string))
    "op/errno trace" expected_sequence
    (scripted_sequence (Vfs.ops vfs))

let is_ok_label l = match String.split_on_char ':' l with [ _; "ok" ] -> true | _ -> false

(* The VFS counters must tally exactly what the script dispatched. *)
let counters_check vfs =
  let labels = scripted_sequence (Vfs.ops vfs) in
  List.iter
    (fun kind ->
      let name = Vfs.op_name kind in
      let mine =
        List.filter
          (fun l -> match String.split_on_char ':' l with op :: _ -> op = name | [] -> false)
          labels
      in
      let errs = List.length (List.filter (fun l -> not (is_ok_label l)) mine) in
      let s = Vfs.op_stats vfs kind in
      Alcotest.(check int) (name ^ " count") (List.length mine) s.Vfs.count;
      Alcotest.(check int) (name ^ " errors") errs s.Vfs.errors;
      Alcotest.(check int)
        (name ^ " errno sum") errs
        (List.fold_left (fun acc (_, n) -> acc + n) 0 s.Vfs.errnos);
      if s.Vfs.count > 0 then begin
        Alcotest.(check bool) (name ^ " p50<=p99") true (s.Vfs.p50 <= s.Vfs.p99 +. 1e-9);
        Alcotest.(check bool) (name ^ " p99<=max") true (s.Vfs.p99 <= s.Vfs.max +. 1e-9)
      end)
    Vfs.all_ops;
  Alcotest.(check int) "total ops" (List.length labels) (Vfs.total_ops vfs)

(* Every check now receives the instrumented VFS handle. *)
let vfs_checks : (string * (Vfs.t -> unit)) list =
  List.map (fun (name, c) -> (name, fun vfs -> c (Vfs.ops vfs))) checks
  @ [
      ("errno parity across all ops", parity_check);
      ("vfs counters track dispatched ops", counters_check);
    ]

(* Page-accounting invariant after a scenario: with every LibFS cleanly
   unmounted, the controller's books must balance and a GC pass must
   find nothing to reclaim — clean shutdown never looks like a leak.
   Call after tearing the scenario's mounts down. *)
let accounting ctl =
  let module C = Trio_core.Controller in
  let gc = C.gc_once ctl in
  if not gc.C.gc_invariant_ok then
    Alcotest.failf "page accounting broken after scenario: %a" C.pp_gc_report gc;
  if gc.C.gc_leaked > 0 || gc.C.gc_reclaimed_pages > 0 then
    Alcotest.failf "phantom orphans after clean shutdown: %a" C.pp_gc_report gc

(* Build the alcotest cases for a given fs constructor (one fresh file
   system per check). *)
let suite ~make_fs =
  List.map
    (fun (name, check) -> Alcotest.test_case name `Quick (fun () -> make_fs check))
    vfs_checks
