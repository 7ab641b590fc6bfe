(* Differential cross-FS fuzzing.

   The same op script runs through every evaluated file system via the
   instrumented VFS layer, and the observable outcome — per-op success /
   errno, then the final namespace, sizes and data — is diffed against
   the in-memory model (which all ten implementations are supposed to
   agree with, per the conformance suite).  Any disagreement is a
   semantics divergence: either this reproduction's baseline model or
   ArckFS itself mishandles the sequence.

   Divergences are shrunk the same way crash counterexamples are: drop
   ops and shrink sizes while the same file system still diverges. *)

module Rig = Trio_workloads.Rig
module Vfs = Trio_core.Vfs

(* The ten evaluated file systems: ArckFS, FPFS (ArckFS behind its
   full-path parent resolver) and the eight baselines. *)
let default_fses =
  [
    "arckfs"; "fpfs"; "ext4"; "ext4-raid0"; "pmfs"; "nova"; "winefs"; "odinfs"; "splitfs"; "strata";
  ]

type divergence = {
  d_fs : string;
  d_ops : Script.op list;
  d_detail : string;
}

let pp_divergence ppf d =
  Fmt.pf ppf "fs:       %s@." d.d_fs;
  Fmt.pf ppf "script:   %s@." (Script.to_string d.d_ops);
  Fmt.pf ppf "diff:     %s@." d.d_detail;
  Fmt.pf ppf "replay:   trioctl crashcheck --diff --script %S@." (Script.to_string d.d_ops)

(* Run one script through one file system in a fresh world; [Ok ()] when
   every op and the final durable state agree with the model. *)
let run_one fs_name ops =
  Rig.run ~nodes:2 ~cpus_per_node:4 ~pages_per_node:16384 ~store_data:true (fun rig ->
      let vfs = Rig.mount_fs rig fs_name in
      let fs = Vfs.ops vfs in
      let model = Script.model_create () in
      match Script.apply_all fs model ops with
      | Error _ as e -> e
      | Ok () -> Script.check_model fs model)

let shrink_divergence ?(budget = 64) d =
  let budget = ref budget in
  let rec go d =
    if !budget <= 0 then d
    else
      let next =
        List.find_map
          (fun candidate ->
            if !budget <= 0 || candidate = [] then None
            else begin
              decr budget;
              match run_one d.d_fs candidate with
              | Ok () -> None
              | Error detail -> Some { d with d_ops = candidate; d_detail = detail }
            end)
          (Script.shrink_candidates d.d_ops)
      in
      match next with Some d' -> go d' | None -> d
  in
  go d

(* Diff one script across [fses]; every diverging file system is
   reported (shrunk when [shrink]). *)
let diff ?(fses = default_fses) ?(shrink = true) ops =
  List.filter_map
    (fun fs_name ->
      match run_one fs_name ops with
      | Ok () -> None
      | Error detail ->
        let d = { d_fs = fs_name; d_ops = ops; d_detail = detail } in
        Some (if shrink then shrink_divergence d else d))
    fses

(* Seeded campaign: [rounds] random scripts of length [len] through all
   file systems; first divergence wins. *)
let campaign ?(fses = default_fses) ?(rounds = 5) ?(len = 12) ~seed () =
  let rng = Trio_util.Rng.create seed in
  let rec go round =
    if round >= rounds then None
    else
      let ops = Script.generate rng ~len in
      match diff ~fses ops with [] -> go (round + 1) | ds -> Some (ops, ds)
  in
  go 0
