(* A complete simulated machine plus mounted file systems, by name.

   The benchmark harness builds one rig per data point: an 8-socket
   "paper machine" (or a single socket), the NVM device, MMU, kernel
   controller, the shared delegation engine, and any of the evaluated
   file systems:

     arckfs | arckfs-nd | fpfs                 (this paper)
     ext4 | ext4-raid0 | pmfs | nova | winefs | odinfs | splitfs | strata

   KVFS has no POSIX interface, so it is mounted over [mount_arckfs]
   directly instead of by name.

   Must be constructed inside a simulation fiber. *)

module Sched = Trio_sim.Sched
module Pmem = Trio_nvm.Pmem
module Numa = Trio_nvm.Numa
module Perf = Trio_nvm.Perf
module Mmu = Trio_core.Mmu
module Controller = Trio_core.Controller
module Libfs = Arckfs.Libfs
module Delegation = Arckfs.Delegation
module Vfs = Trio_core.Vfs
module Models = Trio_baselines.Models

type t = {
  sched : Sched.t;
  topo : Numa.t;
  pmem : Pmem.t;
  mmu : Mmu.t;
  ctl : Controller.t;
  delegation : Delegation.t Lazy.t;
  mutable next_proc : int;
  mutable mounts : Libfs.t list; (* every LibFS mounted through this rig *)
}

let make_machine ?(nodes = 8) ?(cpus_per_node = 28) ?(pages_per_node = 1 lsl 19)
    ?(store_data = false) ?(lease_ns = 100.0e6) () =
  let sched = Sched.create () in
  let topo = Numa.create ~nodes ~cpus_per_node in
  let pmem = Pmem.create ~sched ~topo ~profile:Perf.optane ~pages_per_node ~store_data () in
  (sched, topo, pmem, lease_ns)

(* Build the kernel-side components; call inside a fiber. *)
let init ?(threads_per_node = 12) ?stripe_pages (sched, topo, pmem, lease_ns) =
  let mmu = Mmu.create pmem in
  let ctl = Controller.create ~sched ~pmem ~mmu ~lease_ns () in
  {
    sched;
    topo;
    pmem;
    mmu;
    ctl;
    delegation = lazy (Delegation.create ~sched ~pmem ~threads_per_node ?stripe_pages ());
    next_proc = 100;
    mounts = [];
  }

let fresh_proc t =
  t.next_proc <- t.next_proc + 1;
  t.next_proc

let mount_arckfs ?(delegated = true) ?(uid = 1000) ?qos_share ?retry_deadline_ns
    ?unmap_after_write ?ring t =
  let delegation = if delegated then Some (Lazy.force t.delegation) else None in
  let libfs =
    Libfs.mount ~ctl:t.ctl ~proc:(fresh_proc t) ~cred:{ Trio_core.Fs_types.uid; gid = uid }
      ?qos_share ?retry_deadline_ns ?delegation ?unmap_after_write ?ring ()
  in
  t.mounts <- libfs :: t.mounts;
  libfs

(* Clean teardown: hand every mapping of every mounted process back to
   the kernel (each handoff verifies inline).  Without this a rig that
   finishes its workload still holds write mappings and allocation
   caches, and a subsequent page-accounting pass would report them as
   phantom leaks. *)
let unmount_all t =
  List.iter Libfs.unmap_everything t.mounts;
  t.mounts <- []

(* Every evaluated file system by name, each with its mount function
   (without the VFS layer).  [mount_raw] dispatches on this list, and
   [trioctl --fs] accepts exactly its names. *)
let file_systems =
  let model m ~store_data t = Models.mount ~sched:t.sched ~pmem:t.pmem ~store_data (m t) in
  [
    ("arckfs", fun ~store_data:_ t -> Libfs.ops (mount_arckfs ~delegated:true t));
    ("arckfs-nd", fun ~store_data:_ t -> Libfs.ops (mount_arckfs ~delegated:false t));
    ("fpfs", fun ~store_data:_ t -> Fpfs.ops (Fpfs.mount (mount_arckfs ~delegated:true t)));
    ("ext4", model (fun _ -> Models.ext4));
    ("ext4-raid0", model (fun _ -> Models.ext4_raid0));
    ("pmfs", model (fun _ -> Models.pmfs));
    ("nova", model (fun _ -> Models.nova));
    ("winefs", model (fun _ -> Models.winefs));
    ("odinfs", model (fun t -> Models.odinfs ~delegation:(Lazy.force t.delegation)));
    ("splitfs", model (fun _ -> Models.splitfs));
    ("strata", model (fun _ -> Models.strata));
  ]

let fs_names = List.map fst file_systems

let mount_raw ?(store_data = true) t name =
  match List.assoc_opt name file_systems with
  | Some mount -> mount ~store_data t
  | None -> invalid_arg ("Rig.mount_fs: unknown file system " ^ name)

(* Mount a file system by its evaluation name.  The returned handle is
   the instrumented VFS dispatch layer: every operation of every file
   system flows through {!Trio_core.Vfs}, so callers get per-op counts,
   errno counters and latency histograms for free (use [Vfs.ops] for the
   plain {!Trio_core.Fs_intf.t} record). *)
let mount_fs ?store_data ?trace_capacity t name =
  let vfs = Vfs.wrap ~sched:t.sched ?trace_capacity (mount_raw ?store_data t name) in
  (* Verification work done by the controller's pipeline shows up in the
     same per-op observability as the workload that triggered it. *)
  Vfs.attach_verify_trace vfs t.ctl;
  (* Likewise the ring drain plane's batch counters. *)
  Vfs.attach_ring_trace vfs t.ctl;
  vfs

(* Run [f rig] to completion inside a fresh simulation. *)
let run ?nodes ?cpus_per_node ?pages_per_node ?store_data ?lease_ns ?threads_per_node
    ?stripe_pages f =
  let ((sched, _, _, _) as machine) =
    make_machine ?nodes ?cpus_per_node ?pages_per_node ?store_data ?lease_ns ()
  in
  let result = ref None in
  Sched.spawn sched (fun () ->
      let rig = init ?threads_per_node ?stripe_pages machine in
      result := Some (f rig);
      unmount_all rig);
  ignore (Sched.run sched);
  match !result with
  | Some v -> v
  | None -> failwith "Rig.run: simulation did not complete"
