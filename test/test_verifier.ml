(* Systematic tests of the integrity verifier (checks I1-I4) and the
   kernel controller's corruption policy (fix callback, checkpoint
   rollback, quarantine, commit, leases). *)

module Sched = Trio_sim.Sched
module Pmem = Trio_nvm.Pmem
module Layout = Trio_core.Layout
module Controller = Trio_core.Controller
module Ctl_state = Trio_core.Ctl_state
module Ctl_checkpoint = Trio_core.Ctl_checkpoint
module Ctl_gate = Trio_core.Ctl_gate
module Stats = Trio_sim.Stats
module Mmu = Trio_core.Mmu
module Verifier = Trio_core.Verifier
module Libfs = Arckfs.Libfs
module Fs = Trio_core.Fs_intf
open Trio_core.Fs_types

let ok = Helpers.check_ok
let kactor = Pmem.kernel_actor

(* Build a world with a victim file (/v, with content) and a process
   that holds the root write-mapped (by creating its own file). *)
type world = {
  env : Helpers.env;
  fs : Libfs.t;
  ops : Fs.t;
  v_ino : int;
  v_addr : int;
}

let make_world env =
  let fs = Helpers.mount ~proc:1 env in
  let ops = Libfs.ops fs in
  ok "victim" (Fs.write_file ops "/v" (String.make 6000 'p'));
  Libfs.unmap_everything fs;
  ignore (ok "hold root" (ops.Fs.create "/held" 0o644));
  let v_ino = (ok "stat" (ops.Fs.stat "/v")).st_ino in
  let v_addr = Option.get (Controller.dentry_addr_of env.Helpers.ctl v_ino) in
  { env; fs; ops; v_ino; v_addr }

(* Corrupt, unmap, and return the violation tags recorded. *)
let corrupt_and_share w corrupt =
  let before = List.length (Controller.corruption_events w.env.Helpers.ctl) in
  corrupt ();
  Libfs.unmap_everything w.fs;
  let events = Controller.corruption_events w.env.Helpers.ctl in
  let fresh = List.filteri (fun i _ -> i < List.length events - before) events in
  List.concat_map (fun (_, _, vs) -> List.map (fun v -> v.Verifier.check) vs) fresh

let expect_check name expected tags =
  if not (List.mem expected tags) then
    Alcotest.failf "%s: expected an %s violation, got %d violations" name
      (match expected with
      | `I1 -> "I1"
      | `I2 -> "I2"
      | `I3 -> "I3"
      | `I4 -> "I4"
      | `I5 -> "I5"
      | `Media -> "MEDIA")
      (List.length tags)

(* ------------------------------------------------------------------ *)
(* I1: field validity *)

let test_i1_bad_ftype () =
  Helpers.run_sim (fun env ->
      let w = make_world env in
      let tags =
        corrupt_and_share w (fun () ->
            Pmem.write w.env.Helpers.pmem ~actor:kactor ~addr:(w.v_addr + Layout.off_ftype)
              ~src:(Bytes.make 1 '\009'))
      in
      expect_check "bad ftype" `I1 tags)

let test_i1_duplicate_names () =
  Helpers.run_sim (fun env ->
      let w = make_world env in
      (* craft a second dentry with the same name by renaming a decoy's
         name bytes in place *)
      ignore (ok "decoy" (w.ops.Fs.create "/vv" 0o644));
      let decoy_ino = (ok "stat" (w.ops.Fs.stat "/vv")).st_ino in
      ignore decoy_ino;
      let decoy_addr =
        match Libfs.lookup w.fs (Option.get (Libfs.root_dir w.fs)) "vv" with
        | Some r -> r.Libfs.e_addr
        | None -> Alcotest.fail "decoy lost"
      in
      let tags =
        corrupt_and_share w (fun () ->
            let b = Bytes.create 2 in
            Layout.set_u16 b 0 1;
            Pmem.write w.env.Helpers.pmem ~actor:kactor ~addr:(decoy_addr + Layout.off_name_len)
              ~src:b;
            Pmem.write w.env.Helpers.pmem ~actor:kactor ~addr:(decoy_addr + Layout.off_name)
              ~src:(Bytes.of_string "v"))
      in
      expect_check "duplicate name" `I1 tags)

let test_i1_size_inconsistent () =
  Helpers.run_sim (fun env ->
      let w = make_world env in
      let tags =
        corrupt_and_share w (fun () ->
            Pmem.write_u64 w.env.Helpers.pmem ~actor:kactor ~addr:(w.v_addr + Layout.off_size)
              (1 lsl 26))
      in
      expect_check "size" `I1 tags)

let test_i1_bad_name_char () =
  Helpers.run_sim (fun env ->
      let w = make_world env in
      let tags =
        corrupt_and_share w (fun () ->
            Pmem.write w.env.Helpers.pmem ~actor:kactor ~addr:(w.v_addr + Layout.off_name)
              ~src:(Bytes.of_string "\000"))
      in
      expect_check "NUL in name" `I1 tags)

(* ------------------------------------------------------------------ *)
(* I2: page/inode validity *)

let test_i2_free_page_reference () =
  Helpers.run_sim (fun env ->
      let w = make_world env in
      let free_page = Pmem.total_pages env.Helpers.pmem - 3 in
      let tags =
        corrupt_and_share w (fun () ->
            Pmem.write_u64 w.env.Helpers.pmem ~actor:kactor
              ~addr:(w.v_addr + Layout.off_index_head) free_page)
      in
      expect_check "free page" `I2 tags)

let test_i2_out_of_range_page () =
  Helpers.run_sim (fun env ->
      let w = make_world env in
      let tags =
        corrupt_and_share w (fun () ->
            Pmem.write_u64 w.env.Helpers.pmem ~actor:kactor
              ~addr:(w.v_addr + Layout.off_index_head) (1 lsl 40))
      in
      expect_check "out of range" `I2 tags)

let test_i2_double_reference () =
  Helpers.run_sim (fun env ->
      let w = make_world env in
      (* make the file's first two index entries point at the same page *)
      let pm = w.env.Helpers.pmem in
      (match Layout.read_dentry pm ~actor:kactor ~addr:w.v_addr with
      | Some (Ok (inode, _)) ->
        let head = inode.Layout.index_head in
        let first = Layout.read_index_entry pm ~actor:kactor ~page:head 0 in
        let tags =
          corrupt_and_share w (fun () ->
              Layout.write_index_entry pm ~actor:kactor ~page:head 1 first)
        in
        expect_check "double ref" `I2 tags
      | _ -> Alcotest.fail "unreadable victim"))

let test_i2_unknown_ino () =
  Helpers.run_sim (fun env ->
      let w = make_world env in
      let tags =
        corrupt_and_share w (fun () ->
            Pmem.write_u64 w.env.Helpers.pmem ~actor:kactor ~addr:(w.v_addr + Layout.off_ino)
              424242)
      in
      expect_check "unknown ino" `I2 tags)

(* ------------------------------------------------------------------ *)
(* I3: tree connectivity *)

let test_i3_deleted_nonempty_dir () =
  Helpers.run_sim (fun env ->
      let fs = Helpers.mount ~proc:1 env in
      let ops = Libfs.ops fs in
      ok "mkdir" (ops.Fs.mkdir "/sub" 0o755);
      ok "child" (Fs.write_file ops "/sub/inner" "x");
      Libfs.unmap_everything fs;
      ignore (ok "hold" (ops.Fs.create "/held" 0o644));
      let sub_ino = (ok "stat" (ops.Fs.stat "/sub")).st_ino in
      let sub_addr = Option.get (Controller.dentry_addr_of env.Helpers.ctl sub_ino) in
      let before = List.length (Controller.corruption_events env.Helpers.ctl) in
      (* tombstone the non-empty directory's dentry *)
      Pmem.write_u64 env.Helpers.pmem ~actor:kactor ~addr:sub_addr 0;
      Libfs.unmap_everything fs;
      let events = Controller.corruption_events env.Helpers.ctl in
      if List.length events <= before then Alcotest.fail "non-empty rmdir not detected";
      let tags = List.concat_map (fun (_, _, vs) -> List.map (fun v -> v.Verifier.check) vs) events in
      expect_check "I3" `I3 tags;
      (* rollback restored the directory *)
      let fs2 = Helpers.mount ~proc:2 env in
      let content = ok "inner" (Fs.read_file (Libfs.ops fs2) "/sub/inner") in
      Alcotest.(check string) "inner intact" "x" content)

(* ------------------------------------------------------------------ *)
(* I4 + policy *)

let test_i4_repairs_without_rollback () =
  Helpers.run_sim (fun env ->
      let w = make_world env in
      (* write new content after mapping, then corrupt only the cached
         mode bits: the verifier must repair the mode AND keep the new
         content (no rollback for I4 cache fixes) *)
      ok "update" (w.ops.Fs.truncate "/v" 123);
      let evil = Bytes.create 2 in
      Layout.set_u16 evil 0 0o7777;
      Pmem.write env.Helpers.pmem ~actor:kactor ~addr:(w.v_addr + Layout.off_mode) ~src:evil;
      Libfs.unmap_everything w.fs;
      (match Layout.read_dentry env.Helpers.pmem ~actor:kactor ~addr:w.v_addr with
      | Some (Ok (inode, _)) ->
        Alcotest.(check int) "mode repaired" 0o644 inode.Layout.mode;
        Alcotest.(check int) "truncate preserved" 123 inode.Layout.size
      | _ -> Alcotest.fail "unreadable");
      Alcotest.(check int) "no quarantine" 0
        (List.length (Controller.quarantined_files env.Helpers.ctl)))

let test_fix_callback_avoids_rollback () =
  Helpers.run_sim (fun env ->
      let pm = env.Helpers.pmem in
      (* the LibFS' fix callback repairs the size field it corrupted *)
      let victim_addr = ref 0 in
      let fix _ino =
        if !victim_addr <> 0 then begin
          Pmem.write_u64 pm ~actor:kactor ~addr:(!victim_addr + Layout.off_size) 8192;
          Pmem.persist pm ~addr:(!victim_addr + Layout.off_size) ~len:8;
          true
        end
        else false
      in
      let fs =
        Libfs.mount ~ctl:env.Helpers.ctl ~proc:5 ~cred:{ uid = 1000; gid = 1000 } ~fix ()
      in
      let ops = Libfs.ops fs in
      ok "victim" (Fs.write_file ops "/v" (String.make 8192 'd'));
      let ino = (ok "stat" (ops.Fs.stat "/v")).st_ino in
      Libfs.unmap_everything fs;
      victim_addr := Option.get (Controller.dentry_addr_of env.Helpers.ctl ino);
      ignore (ok "hold" (ops.Fs.create "/held" 0o644));
      (* corrupt size, then share: the fix callback must save the file *)
      Pmem.write_u64 pm ~actor:kactor ~addr:(!victim_addr + Layout.off_size) (1 lsl 30);
      Libfs.unmap_everything fs;
      Alcotest.(check int) "no quarantine (fixed by LibFS)" 0
        (List.length (Controller.quarantined_files env.Helpers.ctl));
      let fs2 = Helpers.mount ~proc:6 env in
      let content = ok "read" (Fs.read_file (Libfs.ops fs2) "/v") in
      Alcotest.(check int) "content intact" 8192 (String.length content))

let test_quarantine_on_unfixable () =
  Helpers.run_sim (fun env ->
      let w = make_world env in
      Pmem.write_u64 env.Helpers.pmem ~actor:kactor ~addr:(w.v_addr + Layout.off_index_head)
        (Pmem.total_pages env.Helpers.pmem - 3);
      Libfs.unmap_everything w.fs;
      if Controller.quarantined_files env.Helpers.ctl = [] then
        Alcotest.fail "corrupted file bytes were not quarantined";
      (* and the rolled-back victim is still readable *)
      let fs2 = Helpers.mount ~proc:2 env in
      let content = ok "read" (Fs.read_file (Libfs.ops fs2) "/v") in
      Alcotest.(check int) "rolled back" 6000 (String.length content))

(* The quarantine copy runs inside the verification, in a fiber every
   tenant of the socket may share: it must not enter the offender's
   syscall path, so an overdrawn offender is never throttled by it. *)
let test_quarantine_skips_offender_admission () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl in
      Controller.set_qos_share ctl ~group:99 50.0;
      let fs = Libfs.mount ~ctl ~proc:1 ~cred:{ uid = 1000; gid = 1000 } ~qos_share:0.02 () in
      let ops = Libfs.ops fs in
      ok "victim" (Fs.write_file ops "/v" (String.make 6000 'p'));
      Libfs.unmap_everything fs;
      ignore (ok "hold root" (ops.Fs.create "/held" 0o644));
      (* Releases are charged but never delayed: 40 of them overdraw
         the tenant. *)
      for _ = 1 to 40 do
        ignore (Controller.free_pages ctl ~proc:1 ~pages:[] : (unit, errno) result)
      done;
      let v_ino = (ok "stat" (ops.Fs.stat "/v")).st_ino in
      let v_addr = Option.get (Controller.dentry_addr_of ctl v_ino) in
      let throttles () =
        (List.find (fun s -> s.Controller.ts_group = 1) (Controller.qos_stats ctl))
          .Controller.ts_throttles
      in
      let before = throttles () in
      Pmem.write_u64 env.Helpers.pmem ~actor:kactor ~addr:(v_addr + Layout.off_index_head)
        (Pmem.total_pages env.Helpers.pmem - 3);
      Libfs.unmap_everything fs;
      if Controller.quarantined_files ctl = [] then
        Alcotest.fail "corrupted file bytes were not quarantined";
      Alcotest.(check int) "the quarantine copy did not throttle the offender" before
        (throttles ()))

let test_commit_moves_checkpoint () =
  Helpers.run_sim (fun env ->
      let fs = Helpers.mount ~proc:1 env in
      let ops = Libfs.ops fs in
      ok "mkdir" (ops.Fs.mkdir "/d" 0o755);
      ignore (ok "a" (ops.Fs.create "/d/a" 0o644));
      Libfs.unmap_everything fs;
      (* new epoch: create /d/b, commit, then corrupt /d and share *)
      ignore (ok "b" (ops.Fs.create "/d/b" 0o644));
      let d_ino = (ok "stat" (ops.Fs.stat "/d")).st_ino in
      ok "commit" (Libfs.commit_file fs "/d");
      (* corrupt the directory's size field so verification fails and the
         controller rolls back — to the COMMITTED state, which has /d/b *)
      let d_addr = Option.get (Controller.dentry_addr_of env.Helpers.ctl d_ino) in
      Pmem.write_u64 env.Helpers.pmem ~actor:kactor ~addr:(d_addr + Layout.off_size) 999;
      Libfs.unmap_everything fs;
      let fs2 = Helpers.mount ~proc:2 env in
      let names =
        ok "readdir" ((Libfs.ops fs2).Fs.readdir "/d")
        |> List.map (fun e -> e.d_name)
        |> List.sort compare
      in
      Alcotest.(check (list string)) "committed create survives rollback" [ "a"; "b" ] names)

let test_writer_lease_expires_for_writer () =
  Helpers.run_sim ~lease_ns:2.0e6 (fun env ->
      let a = Helpers.mount ~proc:1 env in
      let b = Helpers.mount ~proc:2 ~uid:1000 env in
      let aops = Libfs.ops a and bops = Libfs.ops b in
      ok "create" (Fs.write_file aops "/f" "x");
      Libfs.unmap_everything a;
      (* A maps for write and sits on it *)
      let fd = ok "a open" (aops.Fs.open_ "/f" [ O_RDWR ]) in
      ignore (ok "a write" (aops.Fs.append fd (Bytes.of_string "y")));
      (* B wants to write: must wait about a lease, then force the handoff *)
      let t0 = Sched.now env.Helpers.sched in
      let fdb = ok "b open" (bops.Fs.open_ "/f" [ O_RDWR ]) in
      ignore (ok "b write" (bops.Fs.append fdb (Bytes.of_string "z")));
      let waited = Sched.now env.Helpers.sched -. t0 in
      if waited < 1.0e6 then Alcotest.failf "writer did not wait for the lease (%.0f ns)" waited;
      Libfs.unmap_everything b;
      let content = ok "read" (Fs.read_file aops "/f") in
      Alcotest.(check string) "both writes present" "xyz" content)

(* ------------------------------------------------------------------ *)
(* Incremental verification: delta checkpoints and the write-set *)

let checkpoint_of env ino =
  match Controller.file_info env.Helpers.ctl ino with
  | Some f -> (
    match f.Ctl_state.f_checkpoint with
    | Some ck -> ck
    | None -> Alcotest.failf "ino %d has no checkpoint" ino)
  | None -> Alcotest.failf "ino %d has no kernel record" ino

let check_ck_equal name (a : Controller.checkpoint) (b : Controller.checkpoint) =
  Alcotest.(check bool) (name ^ ": dentry") true (Bytes.equal a.ck_dentry b.ck_dentry);
  let pages ck = Ctl_state.Page_map.bindings ck.Controller.ck_pages in
  Alcotest.(check (list int)) (name ^ ": page ids") (List.map fst (pages a)) (List.map fst (pages b));
  List.iter2
    (fun (pg, ba) (_, bb) ->
      if not (Bytes.equal ba bb) then Alcotest.failf "%s: page %d bytes differ" name pg)
    (pages a) (pages b);
  Alcotest.(check (list int)) (name ^ ": children") a.ck_children b.ck_children;
  Alcotest.(check int) (name ^ ": size") a.ck_size b.ck_size;
  Alcotest.(check int) (name ^ ": index head") a.ck_index_head b.ck_index_head

let test_checkpoint_roundtrip () =
  Helpers.run_sim (fun env ->
      let w = make_world env in
      (* land the /held verification so the root checkpoint is fresh *)
      Libfs.unmap_everything w.fs;
      List.iter
        (fun (name, ino) ->
          let ck = checkpoint_of env ino in
          match Controller.decode_checkpoint (Controller.encode_checkpoint ck) with
          | Ok ck' ->
            check_ck_equal name ck ck';
            (* a mark means something only to the MMU that issued it:
               decoded bytes never stand in for the device *)
            for page = 0 to Pmem.total_pages env.Helpers.pmem - 1 do
              if Mmu.clean_since env.Helpers.mmu ~mark:ck'.ck_mark ~page then
                Alcotest.failf "%s: decoded mark vouches for page %d" name page
            done
          | Error msg -> Alcotest.failf "%s: decode failed: %s" name msg)
        (* the root covers the directory branch: data pages + child inos *)
        [ ("regular file", w.v_ino); ("root directory", Controller.root_ino) ])

let test_checkpoint_decode_rejects () =
  Helpers.run_sim (fun env ->
      let w = make_world env in
      let b = Controller.encode_checkpoint (checkpoint_of env w.v_ino) in
      let expect_error what bytes =
        match Controller.decode_checkpoint bytes with
        | Ok _ -> Alcotest.failf "%s: corrupted encoding decoded successfully" what
        | Error _ -> ()
      in
      let flipped = Bytes.copy b in
      let mid = Bytes.length b / 2 in
      Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 0xff));
      expect_error "bit flip" flipped;
      expect_error "truncation" (Bytes.sub b 0 (Bytes.length b - 9));
      expect_error "empty" Bytes.empty)

(* Overflowing the MMU write-set must invalidate every older checkpoint
   mark: no snapshot may be served (full-walk fallback), and verdicts
   must stay correct. *)
let test_write_set_overflow_fallback () =
  Helpers.run_sim (fun env ->
      let w = make_world env in
      let mmu = env.Helpers.mmu in
      let f = Option.get (Controller.file_info env.Helpers.ctl w.v_ino) in
      let idx_pg = List.hd f.Ctl_state.f_index_pages in
      let ck = checkpoint_of env w.v_ino in
      Alcotest.(check bool) "clean before overflow" true
        (Mmu.clean_since mmu ~mark:ck.ck_mark ~page:idx_pg);
      (match Controller.page_snapshot env.Helpers.ctl idx_pg with
      | Some _ -> ()
      | None -> Alcotest.fail "expected a snapshot for a clean index page");
      (* shrink the write-set so the next two stores overflow it *)
      Mmu.set_write_set_capacity mmu 1;
      (match f.Ctl_state.f_data_pages with
      | a :: b :: _ ->
        List.iter
          (fun pg ->
            Pmem.write env.Helpers.pmem ~actor:kactor ~addr:(pg * Layout.page_size)
              ~src:(Bytes.make 1 'z'))
          [ a; b ]
      | _ -> Alcotest.fail "victim too small");
      Alcotest.(check bool) "overflow invalidates the mark" false
        (Mmu.clean_since mmu ~mark:ck.ck_mark ~page:idx_pg);
      (match Controller.page_snapshot env.Helpers.ctl idx_pg with
      | None -> ()
      | Some _ -> Alcotest.fail "snapshot served after write-set overflow");
      (* the fallback full walk still gets verdicts right *)
      let tags =
        corrupt_and_share w (fun () ->
            Pmem.write_u64 env.Helpers.pmem ~actor:kactor ~addr:(w.v_addr + Layout.off_size)
              (1 lsl 26))
      in
      expect_check "size lie caught on fallback" `I1 tags)

(* ------------------------------------------------------------------ *)
(* One device read per metadata page per verified handoff *)

(* The checkpoint [f] would get from device reads alone. *)
let device_checkpoint env (f : Ctl_state.file_info) =
  let g = { f with Ctl_state.f_checkpoint = None } in
  Ctl_checkpoint.take_checkpoint env.Helpers.ctl g;
  Option.get g.Ctl_state.f_checkpoint

(* A map walk served from the checkpoints finds the pages a device walk
   finds, whatever is dirty. *)
let check_walks_agree env what ino =
  let ctl = env.Helpers.ctl in
  match Controller.dentry_addr_of ctl ino with
  | None -> ()
  | Some dentry_addr ->
    let pages = function
      | Some (inode, ip, dp, xp) -> Some (inode.Layout.ino, inode.Layout.size, ip, dp, xp)
      | None -> None
    in
    let device = pages (Controller.walk_file ctl ~ino ~dentry_addr) in
    let fetched =
      pages
        (Controller.walk_file ~fetch:(Controller.page_snapshot ctl) ctl ~ino ~dentry_addr)
    in
    if device <> fetched then Alcotest.failf "%s: inode %d: walks disagree" what ino

type handoff_op =
  | Create of int * int (* name, bytes written *)
  | Unlink of int
  | Repair of int (* cached mode bits that I4 must restore *)
  | Bad_fresh (* a fresh child whose own verification fails *)
  | Subdir of int (* a fresh directory holding one fresh file *)

let print_handoff_op = function
  | Create (i, n) -> Printf.sprintf "create n%d (%d B)" i n
  | Unlink i -> Printf.sprintf "unlink n%d" i
  | Repair i -> Printf.sprintf "repair n%d" i
  | Bad_fresh -> "bad fresh child"
  | Subdir i -> Printf.sprintf "subdir s%d" i

(* Random sync handoffs of one directory.  After each ingestion the
   directory's checkpoint, and each fresh child's, equals one taken from
   device reads alone — also when ingestion itself stored (an I4 repair,
   a refused fresh child) after the verifier read the page — and map
   walks served from checkpoints agree with device walks, both while the
   directory is write-mapped and dirty and after its handoff. *)
let prop_handoff_checkpoints =
  let op =
    QCheck.Gen.(
      frequency
        [
          (5, map2 (fun i n -> Create (i, n)) (int_bound 15) (int_bound 9000));
          (3, map (fun i -> Unlink i) (int_bound 15));
          (2, map (fun i -> Repair i) (int_bound 15));
          (1, return Bad_fresh);
          (1, map (fun i -> Subdir i) (int_bound 3));
        ])
  in
  QCheck.Test.make ~name:"ingestion checkpoints equal device reads" ~count:25
    QCheck.(
      make
        ~print:Print.(list (list print_handoff_op))
        Gen.(list_size (int_range 1 4) (list_size (int_range 1 8) op)))
    (fun rounds ->
      Helpers.run_sim (fun env ->
          let ctl = env.Helpers.ctl and pm = env.Helpers.pmem in
          let fs = Helpers.mount ~proc:1 env in
          let ops = Libfs.ops fs in
          ok "mkdir" (ops.Fs.mkdir "/d" 0o755);
          Libfs.unmap_everything fs;
          let d_ino = (ok "stat" (ops.Fs.stat "/d")).st_ino in
          let path i = Printf.sprintf "/d/n%d" i in
          let live = Hashtbl.create 16 and subdirs = Hashtbl.create 4 in
          let bad = ref 0 in
          let ino_of p = (ok "stat" (ops.Fs.stat p)).st_ino in
          let check_all what =
            check_walks_agree env what d_ino;
            Hashtbl.iter (fun i () -> check_walks_agree env what (ino_of (path i))) live
          in
          List.iter
            (fun round ->
              let fresh = ref [] in
              List.iter
                (function
                  | Create (i, n) ->
                    if not (Hashtbl.mem live i) then begin
                      ok "create" (Fs.write_file ops (path i) (String.make n 'c'));
                      Hashtbl.replace live i ();
                      fresh := path i :: !fresh
                    end
                  | Unlink i ->
                    if Hashtbl.mem live i then begin
                      ok "unlink" (ops.Fs.unlink (path i));
                      Hashtbl.remove live i;
                      fresh := List.filter (( <> ) (path i)) !fresh
                    end
                  | Repair i ->
                    (* an ingested child's cached mode bits, in the
                       directory's dentry page, now disagree with its
                       shadow inode; the directory is write-mapped, so
                       its handoff verifies the page *)
                    if Hashtbl.mem live i && not (List.mem (path i) !fresh) then begin
                      ok "map" (Fs.write_file ops "/d/t" "");
                      ok "unmap" (ops.Fs.unlink "/d/t");
                      let addr = Option.get (Controller.dentry_addr_of ctl (ino_of (path i))) in
                      let b = Bytes.create 2 in
                      Layout.set_u16 b 0 0o600;
                      Pmem.write pm ~actor:kactor ~addr:(addr + Layout.off_mode) ~src:b
                    end
                  | Bad_fresh ->
                    incr bad;
                    let p = Printf.sprintf "/d/b%d" !bad in
                    ok "bad fresh" (Fs.write_file ops p "b");
                    let r =
                      Option.get
                        (Libfs.lookup fs (Option.get (Libfs.cached_dir fs d_ino))
                           (Filename.basename p))
                    in
                    Pmem.write_u64 pm ~actor:kactor ~addr:(r.Libfs.e_addr + Layout.off_index_head)
                      (Pmem.total_pages pm - 3)
                  | Subdir i ->
                    let p = Printf.sprintf "/d/s%d" i in
                    if not (Hashtbl.mem subdirs i) then begin
                      ok "subdir" (ops.Fs.mkdir p 0o755);
                      ok "subdir file" (Fs.write_file ops (p ^ "/x") "x");
                      Hashtbl.replace subdirs i ();
                      fresh := (p ^ "/x") :: p :: !fresh
                    end)
                round;
              check_all "write-mapped";
              Libfs.unmap_everything fs;
              Controller.drain_verification ctl;
              check_all "handed off";
              let same what ino =
                match Controller.file_info ctl ino with
                | Some f -> check_ck_equal what (checkpoint_of env ino) (device_checkpoint env f)
                | None -> Alcotest.failf "%s: inode %d not ingested" what ino
              in
              same "directory" d_ino;
              List.iter (fun p -> same p (ino_of p)) !fresh)
            rounds;
          (* every refused fresh child left the namespace consistent *)
          let names = List.map (fun e -> e.d_name) (ok "readdir" (ops.Fs.readdir "/d")) in
          List.iter
            (fun i ->
              if List.mem (Printf.sprintf "b%d" i) names then
                Alcotest.failf "refused child b%d still listed" i)
            (List.init !bad (fun i -> i + 1));
          true))

(* A page the pass reads from the device is a miss, charged the full
   per-entry scan, although it then joins the pass's read set: a check
   of files no checkpoint vouches for counts no hit and is labeled
   full.  A second check in the same pass finds those pages recorded
   and counts them as hits; only the own dentry, a 256-byte read that
   is not recorded, misses again. *)
let test_device_read_is_a_miss () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl in
      let fs = Helpers.mount ~proc:1 env in
      let ops = Libfs.ops fs in
      ok "file" (Fs.write_file ops "/v" (String.make 6000 'p'));
      ok "mkdir" (ops.Fs.mkdir "/d" 0o755);
      List.iter
        (fun p -> ok "close" (ops.Fs.close (ok "create" (ops.Fs.create p 0o644))))
        [ "/d/a"; "/d/b"; "/d/c" ];
      Libfs.unmap_everything fs;
      Controller.drain_verification ctl;
      let ino p = (ok "stat" (ops.Fs.stat p)).st_ino in
      let v = ino "/v" and d = ino "/d" in
      let info i = Option.get (Controller.file_info ctl i) in
      List.iter (fun i -> (info i).Ctl_state.f_checkpoint <- None) [ Controller.root_ino; v; d ];
      let get = Stats.get (Controller.stats ctl) in
      let counts () =
        ( get "verify.dirty.hits",
          get "verify.dirty.misses",
          get "verify.full",
          get "verify.incremental" )
      in
      let labels = ref [] in
      Controller.set_verify_hook ctl (fun ~ino ~incremental ~dur:_ ~ok:_ ->
          labels := (ino, incremental) :: !labels);
      List.iter
        (fun (what, i, pages) ->
          let reads = Ctl_state.open_reads ctl in
          let check () =
            let r =
              Ctl_gate.check_file_now ~reads ctl ~proc:1 ~ino:i
                ~dentry_addr:(info i).Ctl_state.f_dentry_addr
            in
            Alcotest.(check bool) (what ^ ": verified") true r.Verifier.ok
          in
          let h0, m0, f0, i0 = counts () in
          check ();
          let h1, m1, f1, i1 = counts () in
          Alcotest.(check (float 0.)) (what ^ ": no hit") 0. (h1 -. h0);
          Alcotest.(check (float 0.)) (what ^ ": misses") (float_of_int (pages + 1)) (m1 -. m0);
          Alcotest.(check (float 0.)) (what ^ ": labeled full") 1. (f1 -. f0);
          Alcotest.(check (float 0.)) (what ^ ": not incremental") 0. (i1 -. i0);
          check ();
          let h2, m2, _, i2 = counts () in
          Alcotest.(check (float 0.)) (what ^ ": again, hits") (float_of_int pages) (h2 -. h1);
          Alcotest.(check (float 0.)) (what ^ ": again, the dentry misses") 1. (m2 -. m1);
          Alcotest.(check (float 0.)) (what ^ ": again, incremental") 1. (i2 -. i1))
        (* the pages besides the dentry: /v's index page; /d's index
           page, dentry page and one-node B-link tree *)
        [ ("file with data", v, 1); ("directory", d, 3) ];
      (* a handoff no checkpoint vouches for (the one the write map
         took is dropped) is a full pass too *)
      labels := [];
      let fd = ok "open" (ops.Fs.open_ "/v" [ O_RDWR ]) in
      ignore (ok "append" (ops.Fs.append fd (Bytes.of_string "q")));
      ok "close" (ops.Fs.close fd);
      (info v).Ctl_state.f_checkpoint <- None;
      Libfs.unmap_everything fs;
      Controller.drain_verification ctl;
      Alcotest.(check (list (pair int bool))) "handoff labeled full" [ (v, false) ] !labels)

(* A steady-state sync create handoff in a 64-entry directory reads
   each metadata page from the device at most once: the verification
   reads the own dentry, the dentry page the create changed and the
   changed index leaf; ingestion and the next map's walk and checkpoint
   take the rest from the read set and the checkpoint. *)
let test_handoff_device_reads () =
  Helpers.run_sim (fun env ->
      let fs = Helpers.mount ~proc:1 ~unmap_after_write:true env in
      let ops = Libfs.ops fs in
      let create p = ok "close" (ops.Fs.close (ok "create" (ops.Fs.create p 0o644))) in
      ok "mkdir" (ops.Fs.mkdir "/d" 0o777);
      for i = 0 to 63 do
        create (Printf.sprintf "/d/pre%02d" i)
      done;
      Libfs.unmap_everything fs;
      for i = 0 to 3 do
        create (Printf.sprintf "/d/warm%d" i)
      done;
      for i = 0 to 7 do
        let reads0, _ = Pmem.kernel_read_stats env.Helpers.pmem in
        create (Printf.sprintf "/d/n%d" i);
        let reads1, _ = Pmem.kernel_read_stats env.Helpers.pmem in
        if reads1 - reads0 > 8 then
          Alcotest.failf "create n%d: %d controller device reads, at most 8 expected" i
            (reads1 - reads0)
      done)

let () =
  Alcotest.run "verifier"
    [
      ( "I1",
        [
          Alcotest.test_case "bad ftype" `Quick test_i1_bad_ftype;
          Alcotest.test_case "duplicate names" `Quick test_i1_duplicate_names;
          Alcotest.test_case "size inconsistent" `Quick test_i1_size_inconsistent;
          Alcotest.test_case "bad name char" `Quick test_i1_bad_name_char;
        ] );
      ( "I2",
        [
          Alcotest.test_case "free page" `Quick test_i2_free_page_reference;
          Alcotest.test_case "out of range" `Quick test_i2_out_of_range_page;
          Alcotest.test_case "double reference" `Quick test_i2_double_reference;
          Alcotest.test_case "unknown ino" `Quick test_i2_unknown_ino;
        ] );
      ("I3", [ Alcotest.test_case "deleted non-empty dir" `Quick test_i3_deleted_nonempty_dir ]);
      ( "policy",
        [
          Alcotest.test_case "I4 repairs without rollback" `Quick test_i4_repairs_without_rollback;
          Alcotest.test_case "fix callback avoids rollback" `Quick test_fix_callback_avoids_rollback;
          Alcotest.test_case "quarantine on unfixable" `Quick test_quarantine_on_unfixable;
          Alcotest.test_case "quarantine skips the offender's admission" `Quick
            test_quarantine_skips_offender_admission;
          Alcotest.test_case "commit moves the checkpoint" `Quick test_commit_moves_checkpoint;
          Alcotest.test_case "writer lease expires" `Quick test_writer_lease_expires_for_writer;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "checkpoint round-trips" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "decode rejects corruption" `Quick test_checkpoint_decode_rejects;
          Alcotest.test_case "write-set overflow falls back" `Quick
            test_write_set_overflow_fallback;
          QCheck_alcotest.to_alcotest prop_handoff_checkpoints;
          Alcotest.test_case "a create handoff reads each page once" `Quick
            test_handoff_device_reads;
          Alcotest.test_case "a device read is a miss" `Quick test_device_read_is_a_miss;
        ] );
    ]
