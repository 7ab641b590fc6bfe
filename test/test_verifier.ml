(* Systematic tests of the integrity verifier (checks I1-I4) and the
   kernel controller's corruption policy (fix callback, checkpoint
   rollback, quarantine, commit, leases). *)

module Sched = Trio_sim.Sched
module Pmem = Trio_nvm.Pmem
module Layout = Trio_core.Layout
module Controller = Trio_core.Controller
module Ctl_state = Trio_core.Ctl_state
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
  Alcotest.(check (list int))
    (name ^ ": page ids")
    (List.map fst a.ck_pages) (List.map fst b.ck_pages);
  List.iter2
    (fun (pg, ba) (_, bb) ->
      if not (Bytes.equal ba bb) then Alcotest.failf "%s: page %d bytes differ" name pg)
    a.ck_pages b.ck_pages;
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
        ] );
    ]
