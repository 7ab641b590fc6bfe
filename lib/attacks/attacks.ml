(* Metadata-integrity attack & corruption harness (paper §6.5).

   Two families, mirroring the paper's methodology:

   - eleven handcrafted attacks performed by a *malicious LibFS*: a
     process that legitimately obtains write access (by creating a file
     in a shared directory) and then scribbles over the mapped core
     state with raw stores — exactly what a compromised or hostile
     LibFS can do under Trio's threat model;

   - scripted corruptions emulating a *buggy LibFS*: every
     verifier-checked field of a dentry/index page is overwritten with
     adversarial values under many seeds (the paper reports 134
     scenarios in total).

   For each scenario the harness reports whether the verifier detected
   the corruption at the sharing point (or repaired it, for cached
   permission bits — check I4) and whether the file was restored to a
   consistent, readable state afterwards. *)

module Sched = Trio_sim.Sched
module Pmem = Trio_nvm.Pmem
module Layout = Trio_core.Layout
module Controller = Trio_core.Controller
module Libfs = Arckfs.Libfs
module Fs = Trio_core.Fs_intf
module Rig = Trio_workloads.Rig
module Rng = Trio_util.Rng
module Verifier = Trio_core.Verifier
open Trio_core.Fs_types

type outcome = {
  a_name : string;
  a_detected : bool; (* verifier flagged (or repaired) the corruption *)
  a_recovered : bool; (* the file system is consistent afterwards *)
  a_events : string list;
      (* the formatted verifier verdicts behind [a_detected] — the
         payload the incremental-vs-full differential gate compares
         byte for byte *)
}

let pp_outcome ppf o =
  Fmt.pf ppf "%-28s detected=%b recovered=%b events=%d" o.a_name o.a_detected o.a_recovered
    (List.length o.a_events)

(* ------------------------------------------------------------------ *)
(* Scenario plumbing *)

type ctx = {
  rig : Rig.t;
  attacker : Libfs.t;
  attacker_ops : Fs.t;
  victim_ino : int;
  victim_addr : int; (* dentry address of /victim *)
  dir_ino : int; (* the shared directory (root) *)
}

let fail_on what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "attack setup %s: %s" what (errno_to_string e))

(* Build a world: a victim file with content in "/", and an attacker
   LibFS that holds write access to "/" (by creating its own file). *)
(* Every process' ops record is routed through the VFS dispatch layer so
   attack runs are observable like any other workload. *)
let vfs_ops rig libfs = Trio_core.Vfs.(ops (wrap ~sched:rig.Rig.sched (Libfs.ops libfs)))

let make_ctx rig =
  let owner = Rig.mount_arckfs ~delegated:false ~uid:1000 rig in
  let owner_ops = vfs_ops rig owner in
  fail_on "victim write" (Fs.write_file owner_ops "/victim" "precious-data");
  fail_on "victim dir" (owner_ops.Fs.mkdir "/victim_dir" 0o755);
  fail_on "victim child" (Fs.write_file owner_ops "/victim_dir/inner" "x");
  Libfs.unmap_everything owner;
  let attacker = Rig.mount_arckfs ~delegated:false ~uid:1000 rig in
  let attacker_ops = vfs_ops rig attacker in
  (* gain write access to "/" legitimately *)
  ignore (fail_on "attacker file" (attacker_ops.Fs.create "/attacker_file" 0o644));
  let victim_ino = (fail_on "stat" (attacker_ops.Fs.stat "/victim")).st_ino in
  let victim_addr = Option.get (Controller.dentry_addr_of rig.Rig.ctl victim_ino) in
  {
    rig;
    attacker;
    attacker_ops;
    victim_ino;
    victim_addr;
    dir_ino = Controller.root_ino;
  }

(* After the attack: release write access (the sharing point), then ask
   a fresh LibFS to use the namespace and re-verify the whole tree. *)
(* [require_victim]: the handcrafted attacks demand the victim file
   survives with its content intact; the scripted campaign only demands
   global consistency (a benign corruption of the name field is
   semantically a rename and must not count as damage). *)
let format_event (actor, ino, viols) =
  Fmt.str "actor=%d ino=%d [%a]" actor ino
    (Fmt.list ~sep:(Fmt.any "; ") Verifier.pp_violation)
    viols

let evaluate ?(require_victim = true) ctx ~events_before ~i4_repair =
  Libfs.unmap_everything ctx.attacker;
  let ctl = ctx.rig.Rig.ctl in
  let events_now = Controller.corruption_events ctl in
  (* the log is newest-first: the fresh entries are the head *)
  let fresh =
    List.filteri (fun i _ -> i < List.length events_now - events_before) events_now
  in
  (* The verification pipeline checks independent files concurrently,
     so event *arrival order* is a scheduling artifact (and shifts with
     the per-mode verification cost); the deterministic object is the
     verdict set.  Canonicalize by sorting. *)
  let events = List.sort String.compare (List.rev_map format_event fresh) in
  let detected =
    List.length events_now > events_before
    ||
    (* permission corruptions are repaired in place, not flagged *)
    i4_repair ()
  in
  (* a third process must see a consistent namespace *)
  let reader = Rig.mount_arckfs ~delegated:false ~uid:1000 ctx.rig in
  let reader_ops = vfs_ops ctx.rig reader in
  let victim_ok =
    (not require_victim)
    || ((match reader_ops.Fs.stat "/victim" with Ok st -> st.st_ftype = Reg | Error _ -> false)
       &&
       match Fs.read_file reader_ops "/victim" with Ok _ -> true | Error _ -> false)
  in
  let namespace_ok =
    match reader_ops.Fs.readdir "/" with
    | Error _ -> false
    | Ok entries ->
      List.for_all
        (fun e ->
          valid_name e.d_name
          &&
          let path = "/" ^ e.d_name in
          match e.d_ftype with
          | Dir -> (match reader_ops.Fs.readdir path with Ok _ -> true | Error _ -> false)
          | Reg -> (
            match reader_ops.Fs.stat path with
            | Error _ -> false
            | Ok st ->
              st.st_size >= 0
              && (match Fs.read_file reader_ops path with Ok _ -> true | Error _ -> false)))
        entries
  in
  Libfs.unmap_everything reader;
  (detected, victim_ok && namespace_ok, events)

(* Each scenario runs in a fresh simulated machine so scenarios cannot
   contaminate each other. *)
let fresh_rig f =
  Rig.run ~nodes:2 ~cpus_per_node:4 ~pages_per_node:16384 ~store_data:true f

let run_attack ~name ~attack ?(i4_repair = fun _ -> false) () =
  fresh_rig (fun rig ->
      let ctx = make_ctx rig in
      let events_before = List.length (Controller.corruption_events rig.Rig.ctl) in
      attack ctx;
      let detected, recovered, events =
        evaluate ctx ~events_before ~i4_repair:(fun () -> i4_repair ctx)
      in
      { a_name = name; a_detected = detected; a_recovered = recovered; a_events = events })

(* ------------------------------------------------------------------ *)
(* The eleven handcrafted attacks *)

let raw_write ctx ~addr ~bytes =
  Pmem.write ctx.rig.Rig.pmem ~actor:(Libfs.proc_of ctx.attacker) ~addr ~src:bytes;
  Pmem.persist ctx.rig.Rig.pmem ~addr ~len:(Bytes.length bytes)

let raw_write_u64 ctx ~addr v =
  Pmem.write_u64 ctx.rig.Rig.pmem ~actor:(Libfs.proc_of ctx.attacker) ~addr v;
  Pmem.persist ctx.rig.Rig.pmem ~addr ~len:8

(* 1. Dangling index: point the victim's index head at a free page —
   the paper's "modify pointers in file system data structures". *)
let attack_dangling_index ctx =
  let free_page = Pmem.total_pages ctx.rig.Rig.pmem - 7 in
  raw_write_u64 ctx ~addr:(ctx.victim_addr + Layout.off_index_head) free_page

(* 2. Cross-file aliasing: point the victim's index head at another
   file's page (information disclosure / corruption channel). *)
let attack_alias_other_file ctx =
  let inner_ino = (fail_on "stat" (ctx.attacker_ops.Fs.stat "/victim_dir/inner")).st_ino in
  match Controller.file_info ctx.rig.Rig.ctl inner_ino with
  | Some _ ->
    let addr = Option.get (Controller.dentry_addr_of ctx.rig.Rig.ctl inner_ino) in
    (match Layout.read_dentry ctx.rig.Rig.pmem ~actor:Pmem.kernel_actor ~addr with
    | Some (Ok (inner, _)) ->
      raw_write_u64 ctx ~addr:(ctx.victim_addr + Layout.off_index_head) inner.Layout.index_head
    | _ -> failwith "attack 2: inner dentry unreadable")
  | None -> failwith "attack 2: no file info"

(* 3. Remove a non-empty directory by tombstoning its dentry (paper's
   semantic attack: files become disconnected from the root). *)
let attack_rmdir_nonempty ctx =
  let dir_ino = (fail_on "stat" (ctx.attacker_ops.Fs.stat "/victim_dir")).st_ino in
  let addr = Option.get (Controller.dentry_addr_of ctx.rig.Rig.ctl dir_ino) in
  raw_write_u64 ctx ~addr 0

(* 4. Forge a file name containing '/' to confuse path resolution. *)
let attack_slash_in_name ctx =
  let evil = Bytes.of_string "ha/ck" in
  raw_write ctx ~addr:(ctx.victim_addr + Layout.off_name) ~bytes:evil

(* 5. Cycle in the index-page chain (infinite traversal DoS).  The
   victim's index pages are not covered by the directory mapping, so
   the attacker first write-maps the file itself — which it may, since
   it holds matching credentials; the corruption must still be caught
   when the mapping is released. *)
let attack_index_cycle ctx =
  ignore
    (fail_on "map victim"
       (Controller.map_file ctx.rig.Rig.ctl ~proc:(Libfs.proc_of ctx.attacker)
          ~ino:ctx.victim_ino ~write:true)
      : bool);
  match Layout.read_dentry ctx.rig.Rig.pmem ~actor:Pmem.kernel_actor ~addr:ctx.victim_addr with
  | Some (Ok (inode, _)) when inode.Layout.index_head <> 0 ->
    (* make the first index page link to itself *)
    raw_write_u64 ctx
      ~addr:((inode.Layout.index_head * Layout.page_size) + Layout.index_next_off)
      inode.Layout.index_head
  | _ -> failwith "attack 5: victim has no index page"

(* 6. Duplicate names: forge a second dentry named "victim". *)
let attack_duplicate_name ctx =
  (* claim a fresh slot by creating a file, then rewrite its name.
     Fresh files may not be known to the kernel yet, so locate the slot
     through the LibFS' own view. *)
  ignore (fail_on "decoy" (ctx.attacker_ops.Fs.create "/decoy_for_dup" 0o644));
  let addr =
    match Libfs.lookup ctx.attacker (Option.get (Libfs.root_dir ctx.attacker)) "decoy_for_dup" with
    | Some r -> r.Libfs.e_addr
    | None -> failwith "attack 6: decoy lost"
  in
  let name = "victim" in
  let b = Bytes.create 2 in
  Layout.set_u16 b 0 (String.length name);
  raw_write ctx ~addr:(addr + Layout.off_name_len) ~bytes:b;
  raw_write ctx ~addr:(addr + Layout.off_name) ~bytes:(Bytes.of_string name)

(* 7. Permission escalation: open up the victim's cached mode bits and
   change its owner (check I4: shadow inodes are ground truth). *)
let attack_perm_escalation ctx =
  let b = Bytes.create 10 in
  Layout.set_u16 b 0 0o777;
  Layout.set_u32 b 2 4242 (* uid *);
  Layout.set_u32 b 6 4242 (* gid *);
  raw_write ctx ~addr:(ctx.victim_addr + Layout.off_mode) ~bytes:b

(* 8. Size lie: inflate the victim's size beyond its pages (stale-data
   disclosure / out-of-bounds reads in a sharing LibFS). *)
let attack_size_lie ctx =
  raw_write_u64 ctx ~addr:(ctx.victim_addr + Layout.off_size) (1 lsl 30)

(* 9. Invalid file type. *)
let attack_bad_ftype ctx =
  raw_write ctx ~addr:(ctx.victim_addr + Layout.off_ftype) ~bytes:(Bytes.make 1 '\007')

(* 10. Duplicate inode number: alias the victim's ino from a second
   dentry (both names would resolve to "the same file" with divergent
   metadata). *)
let attack_duplicate_ino ctx =
  ignore (fail_on "decoy" (ctx.attacker_ops.Fs.create "/decoy_for_ino" 0o644));
  match Libfs.lookup ctx.attacker (Option.get (Libfs.root_dir ctx.attacker)) "decoy_for_ino" with
  | Some r -> raw_write_u64 ctx ~addr:r.Libfs.e_addr ctx.victim_ino
  | None -> failwith "attack 10: decoy lost"

(* 11. Garbage dentry: shotgun a whole dentry block with noise. *)
let attack_garbage_dentry ctx =
  let rng = Rng.create 666 in
  let noise = Rng.bytes rng Layout.dentry_size in
  (* keep the ino field non-zero so the slot reads as live *)
  Layout.set_u64 noise Layout.off_ino ctx.victim_ino;
  raw_write ctx ~addr:ctx.victim_addr ~bytes:noise

let handcrafted =
  [
    ("dangling-index", attack_dangling_index, None);
    ("alias-other-file", attack_alias_other_file, None);
    ("rmdir-non-empty", attack_rmdir_nonempty, None);
    ("slash-in-name", attack_slash_in_name, None);
    ("index-cycle", attack_index_cycle, None);
    ("duplicate-name", attack_duplicate_name, None);
    ( "perm-escalation",
      attack_perm_escalation,
      (* I4 repairs in place: detection = the mode went back *)
      Some
        (fun ctx ->
          match
            Layout.read_dentry ctx.rig.Rig.pmem ~actor:Pmem.kernel_actor ~addr:ctx.victim_addr
          with
          | Some (Ok (inode, _)) -> inode.Layout.mode <> 0o777 && inode.Layout.uid <> 4242
          | _ -> false) );
    ("size-lie", attack_size_lie, None);
    ("bad-ftype", attack_bad_ftype, None);
    ("duplicate-ino", attack_duplicate_ino, None);
    ("garbage-dentry", attack_garbage_dentry, None);
  ]

let run_handcrafted () =
  List.map
    (fun (name, attack, i4_repair) ->
      match i4_repair with
      | None -> run_attack ~name ~attack ()
      | Some repair -> run_attack ~name ~attack ~i4_repair:repair ())
    handcrafted

(* ------------------------------------------------------------------ *)
(* Scripted corruption campaign (buggy LibFS emulation) *)

(* Each script corrupts one verifier-relevant field with a seeded
   adversarial value. *)
let field_scripts =
  [
    ("ino", Layout.off_ino, 8);
    ("ftype", Layout.off_ftype, 1);
    ("mode", Layout.off_mode, 2);
    ("uid", Layout.off_uid, 4);
    ("size", Layout.off_size, 8);
    ("index_head", Layout.off_index_head, 8);
    ("name_len", Layout.off_name_len, 2);
    ("name", Layout.off_name, 8);
  ]

(* Some corruptions are semantically invisible (e.g. rewriting mtime, or
   a random value that happens to be valid); the campaign asserts the
   stronger property: after the sharing point, a fresh process always
   sees a CONSISTENT namespace — whether because the verifier rolled
   back, repaired, or the value was benign. *)
type campaign_result = {
  c_total : int;
  c_detected : int; (* flagged or repaired *)
  c_consistent : int; (* namespace consistent afterwards *)
}

let run_campaign ?(seeds = 8) () =
  let total = ref 0 and detected = ref 0 and consistent = ref 0 in
  List.iter
    (fun (fname, off, len) ->
      for seed = 1 to seeds do
        incr total;
        let was_detected, was_consistent =
          fresh_rig (fun rig ->
              let ctx = make_ctx rig in
              let before = List.length (Controller.corruption_events rig.Rig.ctl) in
              let rng = Rng.create ((seed * 7919) + Hashtbl.hash fname) in
              let noise = Rng.bytes rng len in
              let pre =
                Pmem.read rig.Rig.pmem ~actor:Pmem.kernel_actor ~addr:(ctx.victim_addr + off)
                  ~len
              in
              raw_write ctx ~addr:(ctx.victim_addr + off) ~bytes:noise;
              let changed = not (Bytes.equal pre noise) in
              let detected, consistent, _events =
                evaluate ~require_victim:false ctx ~events_before:before ~i4_repair:(fun () ->
                    (* repaired = the field no longer holds the noise *)
                    let now =
                      Pmem.read rig.Rig.pmem ~actor:Pmem.kernel_actor
                        ~addr:(ctx.victim_addr + off) ~len
                    in
                    changed && not (Bytes.equal now noise))
              in
              (detected || not changed, consistent))
        in
        if was_detected then incr detected;
        if was_consistent then incr consistent
      done)
    field_scripts;
  { c_total = !total; c_detected = !detected; c_consistent = !consistent }

(* ------------------------------------------------------------------ *)
(* QoS noisy neighbour (DESIGN.md §4.17)

   A byzantine tenant engineered to burn *controller* resources rather
   than damage one victim: every step creates a file, scribbles garbage
   over the fresh dentry with raw stores, and releases all mappings —
   the sharing point forces a verification pass (which rejects the
   garbage) per cycle, and the next cycle's create re-maps and
   re-allocates.  Each cycle therefore charges the tenant for syscalls,
   page draws and verifier work.  Under QoS enforcement the tenant's
   token bucket caps the cycle rate; unthrottled, the cycles flood the
   verify queue and starve honest tenants' sharing points. *)

type neighbor = {
  nb_rig : Rig.t;
  nb_libfs : Libfs.t;
  nb_ops : Fs.t;
  nb_rng : Rng.t;
  mutable nb_cycles : int;
  mutable nb_rejected : int; (* steps that errored (throttled / ENOSPC) *)
}

let noisy_neighbor ?qos_share rig =
  let libfs = Rig.mount_arckfs ~delegated:false ~uid:1999 ?qos_share rig in
  {
    nb_rig = rig;
    nb_libfs = libfs;
    nb_ops = vfs_ops rig libfs;
    nb_rng = Rng.create (0xbad + Libfs.proc_of libfs);
    nb_cycles = 0;
    nb_rejected = 0;
  }

let neighbor_step nb =
  let n = nb.nb_cycles in
  nb.nb_cycles <- n + 1;
  let name = Printf.sprintf "noise_%d_%d" (Libfs.proc_of nb.nb_libfs) n in
  (match nb.nb_ops.Fs.create ("/" ^ name) 0o644 with
  | Error _ -> nb.nb_rejected <- nb.nb_rejected + 1
  | Ok fd ->
    ignore (nb.nb_ops.Fs.close fd);
    (* [root_dir] goes [None] if the watchdog escalated this tenant and
       revoked its mappings while it sat in a throttle park — the
       attacker must shrug, not crash the simulation. *)
    (match
       Option.bind (Libfs.root_dir nb.nb_libfs) (fun root ->
           Libfs.lookup nb.nb_libfs root name)
     with
    | Some r ->
      let noise = Rng.bytes nb.nb_rng Layout.dentry_size in
      (* keep the slot live so the verifier must actually judge it *)
      Layout.set_u64 noise Layout.off_ino r.Libfs.e_ino;
      Pmem.write nb.nb_rig.Rig.pmem ~actor:(Libfs.proc_of nb.nb_libfs) ~addr:r.Libfs.e_addr
        ~src:noise;
      Pmem.persist nb.nb_rig.Rig.pmem ~addr:r.Libfs.e_addr ~len:(Bytes.length noise)
    | None -> ()));
  (* the sharing point: every mapping handed back verifies *)
  Libfs.unmap_everything nb.nb_libfs

(* Loop [neighbor_step] until [stop ()] — the shape {!Trio_workloads.Ycsb.run}
   expects for its [chaos] fibers. *)
let neighbor_fiber nb ~stop =
  while not (stop ()) do
    neighbor_step nb
  done
