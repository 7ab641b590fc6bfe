(* File sharing across the trust boundary (paper §3.2, Figure 2).

     dune exec examples/sharing.exe

   Two mutually-untrusting processes, each with a private ArckFS LibFS,
   share a file.  The kernel controller enforces exclusive write access
   with leases; every write-access handoff runs the integrity verifier.
   A third pair of processes shares through a trust group, skipping the
   verification cost. *)

module Rig = Trio_workloads.Rig
module Libfs = Arckfs.Libfs
module Controller = Trio_core.Controller
module Stats = Trio_sim.Stats
module Sched = Trio_sim.Sched
module Fs = Trio_core.Fs_intf
module Vfs = Trio_core.Vfs
open Trio_core.Fs_types

let ok what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s failed: %s" what (errno_to_string e))

let () =
  Rig.run ~nodes:2 ~cpus_per_node:4 ~pages_per_node:32768 ~store_data:true
    ~lease_ns:2.0e6 (fun rig ->
      let sched = rig.Rig.sched in
      print_endline "== sharing a file between untrusted processes ==";

      (* Alice writes a document through her own LibFS. *)
      let alice = Rig.mount_arckfs ~delegated:false ~uid:1000 rig in
      let alice_fs = Vfs.ops (Vfs.wrap ~sched (Libfs.ops alice)) in
      ok "alice write" (Fs.write_file alice_fs "/doc.txt" "draft v1, by alice\n");
      Printf.printf "alice wrote /doc.txt (her LibFS holds the write mapping)\n";

      (* Bob (same uid: think two daemons of one user that do NOT trust
         each other's code) opens the file: the controller waits for the
         handoff, runs the verifier, and only then maps it for him. *)
      let bob = Rig.mount_arckfs ~delegated:false ~uid:1000 rig in
      let bob_fs = Vfs.ops (Vfs.wrap ~sched (Libfs.ops bob)) in
      Libfs.unmap_everything alice;
      Printf.printf "alice released her mappings; the verifier checked the core state\n";
      let content = ok "bob read" (Fs.read_file bob_fs "/doc.txt") in
      Printf.printf "bob reads: %s" content;

      (* Bob appends; when the file comes back to alice, it is verified
         again. *)
      let fd = ok "bob open" (bob_fs.Fs.open_ "/doc.txt" [ O_RDWR ]) in
      ignore (ok "bob append" (bob_fs.Fs.append fd (Bytes.of_string "edits, by bob\n")));
      ok "close" (bob_fs.Fs.close fd);
      Libfs.unmap_everything bob;
      let content = ok "alice reread" (Fs.read_file alice_fs "/doc.txt") in
      Printf.printf "alice now sees:\n%s" content;

      let cstats = Controller.stats rig.Rig.ctl in
      Printf.printf
        "controller spent (virtual us): map=%.1f unmap=%.1f verify=%.1f\n\n"
        (Stats.get cstats "map" /. 1e3)
        (Stats.get cstats "unmap" /. 1e3)
        (Stats.get cstats "verify" /. 1e3);

      (* Lease-based handoff under contention: both write concurrently. *)
      print_endline "== contended writes: leases force the handoff ==";
      let t0 = Sched.now sched in
      let buf = Bytes.make 4096 'a' in
      let fda = ok "a open" (alice_fs.Fs.open_ "/doc.txt" [ O_RDWR ]) in
      let fdb = ok "b open" (bob_fs.Fs.open_ "/doc.txt" [ O_RDWR ]) in
      let wg = Trio_sim.Sync.Waitgroup.create 2 in
      Sched.spawn ~cpu:1 sched (fun () ->
          for _ = 1 to 20 do
            ignore (alice_fs.Fs.pwrite fda buf 0)
          done;
          Trio_sim.Sync.Waitgroup.done_ wg);
      Sched.spawn ~cpu:2 sched (fun () ->
          for _ = 1 to 20 do
            ignore (bob_fs.Fs.pwrite fdb buf 4096)
          done;
          Trio_sim.Sync.Waitgroup.done_ wg);
      Trio_sim.Sync.Waitgroup.wait wg;
      Printf.printf "both wrote 20 x 4KiB; %.2f virtual ms including lease ping-pong\n\n"
        ((Sched.now sched -. t0) /. 1e6);

      (* Trust groups: processes that trust each other skip the cost. *)
      print_endline "== trust group: shared LibFS semantics, no verification ==";
      let ctl = rig.Rig.ctl in
      Controller.register_process ctl ~proc:501 ~cred:{ uid = 1000; gid = 1000 } ~group:9 ();
      Controller.register_process ctl ~proc:502 ~cred:{ uid = 1000; gid = 1000 } ~group:9 ();
      ignore (ok "map 501" (Controller.map_file ctl ~proc:501 ~ino:Controller.root_ino ~write:true));
      let t0 = Sched.now sched in
      ignore (ok "map 502" (Controller.map_file ctl ~proc:502 ~ino:Controller.root_ino ~write:true));
      Printf.printf "second group member acquired write access in %.0f virtual ns (no wait)\n"
        (Sched.now sched -. t0))
