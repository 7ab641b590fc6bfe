(* Every deliberate bug in {!Trio_core.Mutation} against the campaign
   that must catch it: under the mutation the campaign fails for the
   expected reason, without it the very same campaign passes, and
   [with_mutation] leaves nothing armed when its body raises. *)

module Sched = Trio_sim.Sched
module Controller = Trio_core.Controller
module Mutation = Trio_core.Mutation
module Fs = Trio_core.Fs_intf
module Libfs = Arckfs.Libfs
module Explore = Trio_check.Explore
module Script = Trio_check.Script
module Vdiff = Trio_check.Vdiff
module Attacks = Trio_attacks.Attacks
module Rng = Trio_util.Rng

type verdict = Passed | Caught | Missed of string (* failed, but not as expected *)

let pp_verdict ppf = function
  | Passed -> Fmt.string ppf "passed"
  | Caught -> Fmt.string ppf "caught"
  | Missed why -> Fmt.pf ppf "failed for another reason: %s" why

let verdict = Alcotest.testable pp_verdict ( = )

let of_report expect (r : Explore.report) =
  match r.k_failure with
  | None -> Passed
  | Some f when f.f_reason = expect -> Caught
  | Some f -> Missed (Fmt.str "%a" Explore.pp_failure f)

let parse s = match Script.parse s with Ok ops -> ops | Error e -> failwith e

(* Two trust groups share one directory and hand it back after every
   write: the victim creates, the other group unlinks a name, the victim
   creates again, then an outsider lists the directory.  A victim that
   keeps its handed-back state writes the live-entry count and the index
   leaf it cached, one entry too many, and the verifier flags its
   handoff and rolls the directory back: a corruption event, and the
   victim's second create is gone. *)
let stale_handback () =
  Helpers.run_sim (fun env ->
      let victim = Libfs.ops (Helpers.mount ~proc:1 ~unmap_after_write:true env) in
      let other = Libfs.ops (Helpers.mount ~proc:2 ~unmap_after_write:true env) in
      let create fs path =
        let fd = Helpers.check_ok ("create " ^ path) (fs.Fs.create path 0o644) in
        Helpers.check_ok "close" (fs.Fs.close fd)
      in
      Helpers.check_ok "mkdir" (victim.Fs.mkdir "/d" 0o777);
      List.iter (fun n -> create victim ("/d/" ^ n)) [ "p0"; "p1"; "p2"; "p3" ];
      create victim "/d/x";
      Helpers.check_ok "unlink" (other.Fs.unlink "/d/p1");
      create victim "/d/y";
      let outsider = Libfs.ops (Helpers.mount ~proc:3 env) in
      let names =
        Helpers.check_ok "readdir" (outsider.Fs.readdir "/d")
        |> List.map (fun e -> e.Trio_core.Fs_types.d_name)
        |> List.sort compare
      in
      if Controller.corruption_events env.Helpers.ctl = [] && names = [ "p0"; "p2"; "p3"; "x"; "y" ]
      then Passed
      else Caught)

(* A process that handed its directory back clears the directory's
   dentry, in its parent's page: the one page its on-demand mapping
   faulted in that the directory's verification does not attribute to
   the directory.  Every PTE the mapping made went with the handback,
   so the store faults.  A mapping that kept the faulted ones lets it
   land, and an outsider's readdir of the parent loses the directory. *)
let store_after_handback () =
  Helpers.run_sim (fun env ->
      let ctl = env.Helpers.ctl in
      let owner_fs = Helpers.mount ~proc:1 env in
      let owner = Libfs.ops owner_fs in
      let create fs path =
        let fd = Helpers.check_ok ("create " ^ path) (fs.Fs.create path 0o644) in
        Helpers.check_ok "close" (fs.Fs.close fd)
      in
      Helpers.check_ok "mkdir" (owner.Fs.mkdir "/d" 0o777);
      List.iter (fun n -> create owner ("/d/" ^ n)) [ "p0"; "p1"; "p2"; "p3" ];
      Libfs.unmap_everything owner_fs;
      let victim = Libfs.ops (Helpers.mount ~proc:2 ~unmap_after_write:true env) in
      (* the first create maps /d eagerly, the second on demand *)
      List.iter (fun n -> create victim ("/d/" ^ n)) [ "v0"; "v1" ];
      Controller.drain_verification ctl;
      let ino = (Helpers.check_ok "stat" (owner.Fs.stat "/d")).Trio_core.Fs_types.st_ino in
      match Controller.dentry_addr_of ctl ino with
      | None -> Missed "/d unknown to the controller"
      | Some addr -> (
        match Trio_core.Layout.clear_dentry_atomic env.Helpers.pmem ~actor:2 ~addr with
        | exception Trio_nvm.Pmem.Mmu_fault _ -> Passed
        | () ->
          let outsider = Libfs.ops (Helpers.mount ~proc:3 env) in
          let names =
            Helpers.check_ok "readdir" (outsider.Fs.readdir "/")
            |> List.map (fun e -> e.Trio_core.Fs_types.d_name)
          in
          if List.mem "d" names then Missed "the store landed unseen" else Caught))

(* The campaign that must catch each mutation.  An exhaustive match on
   purpose: a new constructor does not compile until it has one. *)
let campaign : Mutation.t -> unit -> verdict = function
  | Reorder_commit ->
    fun () ->
      (* a completed rename rolls back when the unfenced commit header
         fails to survive the power failure *)
      of_report (Plane "durability") (Explore.explore (parse "create /n00; rename /n00 /n01"))
  | Drop_writes -> (
    fun () ->
      (* one handcrafted attack is enough to diverge; the whole suite
         (make verifycheck) costs seconds under this mutation *)
      let attacks = [ List.hd Attacks.handcrafted ] in
      match (Vdiff.differential ~attacks ~seeds:1 ~script_len:4 ()).vd_diffs with
      | [] -> Passed
      | _ -> Caught)
  | Skip_gc ->
    fun () ->
      of_report Accounting
        (Explore.explore_proc_death ~config:(Explore.kills 2)
           (Script.generate (Rng.create 3) ~len:5))
  | Qos_bypass ->
    fun () -> of_report Vacuous (Explore.explore_qos ~config:(Explore.kills 6) ~ops:6 ())
  | Torn_commit ->
    fun () ->
      of_report (Plane "zero-roots")
        (Explore.explore_snapshot_commit ~config:(Explore.kills 16)
           (parse "mkdir /d00; create /n00; write /n00 900; create /n01"))
  | Skip_index -> fun () -> of_report Certification (Explore.explore_dir_index ())
  | Keep_handed_back -> stale_handback
  | Keep_faulted_ptes -> store_after_handback

let test_caught m () =
  Alcotest.check verdict "caught under the mutation" Caught
    (Mutation.with_mutation m (campaign m))

let test_clean m () = Alcotest.check verdict "passes without the mutation" Passed (campaign m ())

let nothing_armed () = List.for_all (fun m -> not (Mutation.active m)) Mutation.all

let test_restored m () =
  (match
     Mutation.with_mutation m (fun () ->
         Alcotest.(check bool) "armed inside" true (Mutation.active m);
         raise Exit)
   with
  | () -> Alcotest.fail "the body returned"
  | exception Exit -> ());
  Alcotest.(check bool) "nothing armed after the raise" true (nothing_armed ())

(* Nested scopes restore the outer mutation, not "none". *)
let test_nested_restore () =
  Mutation.with_mutation Skip_gc (fun () ->
      (try Mutation.with_mutation Qos_bypass (fun () -> raise Exit) with Exit -> ());
      Alcotest.(check bool) "outer mutation back" true (Mutation.active Skip_gc));
  Alcotest.(check bool) "nothing armed" true (nothing_armed ())

(* The leak invariant, one GC at a time: a victim killed mid-write
   leaves orphans; a GC under [Skip_gc] reports the leak and a broken
   invariant, and the real GC then repairs both. *)
let test_skip_gc_direct () =
  Helpers.run_sim ~lease_ns:1.0e6 (fun env ->
      let sched = env.Helpers.sched and ctl = env.Helpers.ctl in
      let fs1 = Libfs.ops (Helpers.mount ~proc:1 env) in
      Sched.spawn sched (fun () ->
          Sched.killable (fun () ->
              ignore (Fs.write_file fs1 "/doomed" (String.make 9000 'x') : (unit, _) result)));
      Sched.arm_kill sched ~after:10;
      Sched.delay 10.0e6;
      Sched.disarm sched;
      ignore (Controller.watchdog_once ctl ~timeout_ns:1.0e6 : int list);
      ignore (Controller.drain_unverified ctl : int);
      let broken = Mutation.with_mutation Skip_gc (fun () -> Controller.gc_once ctl) in
      Alcotest.(check bool) "leak detected" true (broken.gc_leaked > 0);
      Alcotest.(check bool) "invariant broken" false broken.gc_invariant_ok;
      let fixed = Controller.gc_once ctl in
      Alcotest.(check int) "repaired" 0 fixed.gc_leaked;
      Alcotest.(check bool) "invariant restored" true fixed.gc_invariant_ok)

let () =
  Alcotest.run "mutation"
    (List.map
       (fun m ->
         ( Mutation.to_string m,
           [
             Alcotest.test_case "caught" `Quick (test_caught m);
             Alcotest.test_case "clean run passes" `Quick (test_clean m);
             Alcotest.test_case "restored on raise" `Quick (test_restored m);
           ] ))
       Mutation.all
    @ [
        ( "scopes",
          [
            Alcotest.test_case "nested restore" `Quick test_nested_restore;
            Alcotest.test_case "skip-gc, one GC" `Quick test_skip_gc_direct;
          ] );
      ])
