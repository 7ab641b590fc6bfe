(* Tests for the B-link ordered directory index (DESIGN.md §4.18):
   the raw tree operations at scale, duplicate-hash collisions, split
   boundaries, the LibFS integration (rename across indexed
   directories, readdir ordering), and the kill-point / mutation
   exploration campaigns. *)

module Pmem = Trio_nvm.Pmem
module Dirindex = Trio_core.Dirindex
module Layout = Trio_core.Layout
module Libfs = Arckfs.Libfs
module Fs = Trio_core.Fs_intf
module Controller = Trio_core.Controller
module Explore = Trio_check.Explore
open Trio_core.Fs_types

let ok = Helpers.check_ok
let err = Helpers.check_err
let deep = Sys.getenv_opt "DIRCHECK_DEEP" = Some "1"

(* Unwrap the tree's two error shapes. *)
let tok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

let iok what = function
  | Ok v -> v
  | Error `Nospace -> Alcotest.failf "%s: out of space" what
  | Error (`Damaged e) -> Alcotest.failf "%s: damaged: %s" what e

(* ------------------------------------------------------------------ *)
(* Raw tree harness: a page pool over the top half of the device.  The
   controller's extent allocators never reach up there during these
   tests, so the raw tree can own those pages without a fight. *)

let with_tree f =
  Helpers.run_sim (fun env ->
      let pm = env.Helpers.pmem in
      let total = Pmem.total_pages pm in
      let next = ref (total / 2) in
      let freed = ref [] in
      let alloc () =
        match !freed with
        | pg :: rest ->
          freed := rest;
          Some pg
        | [] ->
          if !next >= total then None
          else begin
            let pg = !next in
            incr next;
            Some pg
          end
      in
      let free pg = freed := pg :: !freed in
      f pm alloc free)

let audit_clean what pm root =
  let au = Dirindex.audit pm ~actor:Pmem.kernel_actor ~root in
  if au.Dirindex.au_violations <> [] then
    Alcotest.failf "%s: audit violations: %s" what
      (String.concat "; " au.Dirindex.au_violations);
  au

(* ------------------------------------------------------------------ *)
(* Scale: insert / lookup / delete through thousands of entries with a
   scrambled key order, production fanout. *)

let test_scale () =
  with_tree (fun pm alloc free ->
      let actor = Pmem.kernel_actor in
      let n = if deep then 100_000 else 2_000 in
      (* multiplicative scramble so inserts arrive in shuffled key
         order; masked so duplicate hashes appear too *)
      let hash i = i * 2654435761 land 0xFFFFF in
      let root = ref 0 in
      for i = 0 to n - 1 do
        let r, _fresh =
          iok "insert"
            (Dirindex.insert pm ~actor ~alloc ~free ~root:!root ~hash:(hash i) ~addr:i)
        in
        root := r
      done;
      let au = audit_clean "after inserts" pm !root in
      Alcotest.(check int) "entry count" n (List.length au.Dirindex.au_entries);
      (* every key resolvable; sample when deep to keep the suite honest
         about wall clock *)
      let step = if deep then 97 else 1 in
      let i = ref 0 in
      while !i < n do
        let addrs =
          tok "lookup" (Dirindex.lookup pm ~actor ~root:!root ~hash:(hash !i))
        in
        if not (List.mem !i addrs) then Alcotest.failf "entry %d not found" !i;
        i := !i + step
      done;
      (* delete the even half, then verify the odd half survives *)
      let i = ref 0 in
      while !i < n do
        tok "delete" (Dirindex.delete pm ~actor ~root:!root ~hash:(hash !i) ~addr:!i);
        i := !i + 2
      done;
      let au = audit_clean "after deletes" pm !root in
      Alcotest.(check int) "half left" (n / 2) (List.length au.Dirindex.au_entries);
      let addrs = tok "lookup even" (Dirindex.lookup pm ~actor ~root:!root ~hash:(hash 0)) in
      Alcotest.(check bool) "deleted gone" false (List.mem 0 addrs);
      let addrs = tok "lookup odd" (Dirindex.lookup pm ~actor ~root:!root ~hash:(hash 1)) in
      Alcotest.(check bool) "survivor found" true (List.mem 1 addrs);
      (* drain the rest: an empty tree is legal and still audits *)
      let i = ref 1 in
      while !i < n do
        tok "delete rest" (Dirindex.delete pm ~actor ~root:!root ~hash:(hash !i) ~addr:!i);
        i := !i + 2
      done;
      let au = audit_clean "empty" pm !root in
      Alcotest.(check int) "empty" 0 (List.length au.Dirindex.au_entries))

(* Duplicate hashes: many names can share one hash bucket; the
   composite (hash, addr) key keeps them distinct, lookup returns the
   whole bucket, delete removes exactly one. *)
let test_duplicate_hashes () =
  with_tree (fun pm alloc free ->
      let actor = Pmem.kernel_actor in
      Dirindex.with_test_capacity 4 @@ fun () ->
      let root = ref 0 in
      (* 50 entries, all hash 42: the bucket spans many leaves *)
      for a = 0 to 49 do
        let r, _ =
          iok "insert dup"
            (Dirindex.insert pm ~actor ~alloc ~free ~root:!root ~hash:42 ~addr:a)
        in
        root := r
      done;
      ignore
        (iok "insert other"
           (Dirindex.insert pm ~actor ~alloc ~free ~root:!root ~hash:7 ~addr:1000)
         : int * int list);
      let bucket = tok "lookup bucket" (Dirindex.lookup pm ~actor ~root:!root ~hash:42) in
      Alcotest.(check int) "whole bucket" 50 (List.length bucket);
      tok "delete one" (Dirindex.delete pm ~actor ~root:!root ~hash:42 ~addr:17);
      let bucket = tok "re-lookup" (Dirindex.lookup pm ~actor ~root:!root ~hash:42) in
      Alcotest.(check int) "one fewer" 49 (List.length bucket);
      Alcotest.(check bool) "victim gone" false (List.mem 17 bucket);
      Alcotest.(check bool) "neighbors live" true (List.mem 16 bucket && List.mem 18 bucket);
      ignore (audit_clean "collisions" pm !root : Dirindex.audit))

(* Boundaries: the empty tree (root = 0) and the first split. *)
let test_boundaries () =
  with_tree (fun pm alloc free ->
      let actor = Pmem.kernel_actor in
      Dirindex.with_test_capacity 4 @@ fun () ->
      (* root = 0 is the legal unindexed state: lookups miss,
         deletes and folds no-op *)
      Alcotest.(check (list int))
        "empty lookup" []
        (tok "lookup root=0" (Dirindex.lookup pm ~actor ~root:0 ~hash:5));
      tok "delete root=0" (Dirindex.delete pm ~actor ~root:0 ~hash:5 ~addr:5);
      let r0, pages = iok "build empty" (Dirindex.build pm ~actor ~alloc ~free ~entries:[]) in
      Alcotest.(check int) "empty build is unindexed" 0 r0;
      Alcotest.(check (list int)) "no pages" [] pages;
      (* fill exactly one node, then push it over: the first insert
         past capacity must split and grow a root *)
      let root = ref 0 in
      for a = 0 to 3 do
        let r, _ =
          iok "fill" (Dirindex.insert pm ~actor ~alloc ~free ~root:!root ~hash:a ~addr:a)
        in
        root := r
      done;
      let one = Dirindex.pages pm ~actor ~root:!root in
      Alcotest.(check int) "single node before split" 1 (List.length one);
      let r, fresh =
        iok "overflow" (Dirindex.insert pm ~actor ~alloc ~free ~root:!root ~hash:4 ~addr:4)
      in
      Alcotest.(check bool) "root swung" true (r <> !root);
      Alcotest.(check bool) "split minted pages" true (List.length fresh >= 2);
      root := r;
      let after = Dirindex.pages pm ~actor ~root:!root in
      Alcotest.(check bool) "tree grew" true (List.length after >= 3);
      let au = audit_clean "post split" pm !root in
      Alcotest.(check int) "all five" 5 (List.length au.Dirindex.au_entries);
      for a = 0 to 4 do
        let addrs = tok "find" (Dirindex.lookup pm ~actor ~root:!root ~hash:a) in
        if not (List.mem a addrs) then Alcotest.failf "key %d lost across split" a
      done)

(* The node CRC covers every byte before [dnode_crc_off]: flipping any
   one byte of an encoded node (header, entries, the zero fill of a
   10-entry node, byte 4,087 of a full one, or the CRC itself) must make
   it decode as an error. *)
let test_node_byte_flips () =
  Alcotest.(check int)
    "a full node's entries end at the CRC" Layout.dnode_crc_off
    (Layout.dnode_hdr_size + (Layout.dnode_capacity * Layout.dnode_entry_size));
  let region n off =
    if off < Layout.dnode_hdr_size then "header"
    else if off < Layout.dnode_hdr_size + (n * Layout.dnode_entry_size) then "entries"
    else if off < Layout.dnode_crc_off then "zero fill"
    else "crc"
  in
  List.iter
    (fun n ->
      let node =
        {
          Layout.dn_level = 0;
          dn_right = 77;
          dn_high_hash = max_int;
          dn_high_addr = max_int;
          dn_entries = Array.init n (fun i -> (i * 7919, 4096 + (i * 64), 0));
        }
      in
      let b = Layout.encode_dnode node in
      (match Layout.decode_dnode b with
      | Ok d -> Alcotest.(check bool) "clean node round-trips" true (d = node)
      | Error e -> Alcotest.failf "%d-entry node: clean copy: %s" n e);
      let flip off = Bytes.set_uint8 b off (Bytes.get_uint8 b off lxor 0x01) in
      for off = 0 to Layout.page_size - 1 do
        flip off;
        (match Layout.decode_dnode b with
        | Error _ -> ()
        | Ok _ ->
          Alcotest.failf "%d-entry node: %s byte %d flipped, still decodes" n (region n off) off);
        flip off
      done)
    [ 10; Layout.dnode_capacity ]

(* A node update stores only the lines it changes: inserting into an
   n-entry leaf at position i rewrites the header line (the key count),
   the lines spanning entries i..n (shifted up by one) and the CRC line,
   and is charged for exactly those — not for the whole 4 KiB page. *)
let test_insert_writes_changed_lines () =
  let n = 40 in
  List.iter
    (fun i ->
      with_tree (fun pm alloc free ->
          let actor = Pmem.kernel_actor in
          (* hashes 1000, 2000, ...; the new key sorts at position i *)
          let entries = List.init n (fun k -> ((k + 1) * 1000, k)) in
          let root, _ = iok "build" (Dirindex.build pm ~actor ~alloc ~free ~entries) in
          let node = Pmem.node_of_page pm root in
          let written () =
            let _, _, w = Pmem.node_stats pm node in
            int_of_float w
          in
          let before = written () in
          let r, fresh =
            iok "insert"
              (Dirindex.insert pm ~actor ~alloc ~free ~root ~hash:((i * 1000) + 500) ~addr:n)
          in
          Alcotest.(check bool) "no split" true (r = root && fresh = []);
          let line off = off / Pmem.line_size in
          let first = line (Layout.dnode_hdr_size + (i * Layout.dnode_entry_size))
          and last = line (Layout.dnode_hdr_size + ((n + 1) * Layout.dnode_entry_size) - 1) in
          let lines =
            (0 :: List.init (last - first + 1) (fun k -> first + k)) @ [ line Layout.dnode_crc_off ]
            |> List.sort_uniq compare
          in
          Alcotest.(check int)
            (Printf.sprintf "bytes stored for an insert at %d of %d" i n)
            (List.length lines * Pmem.line_size)
            (written () - before);
          ignore (audit_clean "after insert" pm root)))
    [ 0; 17; n ]

(* ------------------------------------------------------------------ *)
(* LibFS integration *)

let with_fs f =
  Helpers.run_sim (fun env ->
      let fs = Helpers.mount ~proc:1 env in
      f env fs (Libfs.ops fs))

(* Rename between two indexed directories: the entry must leave the
   source tree and land in the destination tree, and the handoff must
   certify (no I5 divergence). *)
let test_rename_across_indexed_dirs () =
  Dirindex.with_test_capacity 4 @@ fun () ->
  with_fs (fun env fs ops ->
      ok "mkdir a" (ops.Fs.mkdir "/a" 0o755);
      ok "mkdir b" (ops.Fs.mkdir "/b" 0o755);
      (* enough entries that both directories hold split trees *)
      for i = 0 to 9 do
        ignore (ok "create a" (ops.Fs.create (Printf.sprintf "/a/f%d" i) 0o644) : int)
      done;
      for i = 0 to 5 do
        ignore (ok "create b" (ops.Fs.create (Printf.sprintf "/b/g%d" i) 0o644) : int)
      done;
      ok "rename" (ops.Fs.rename "/a/f3" "/b/moved");
      err "gone from a" ENOENT (ops.Fs.stat "/a/f3");
      ignore (ok "landed in b" (ops.Fs.stat "/b/moved") : stat);
      Alcotest.(check int) "a count" 9 (List.length (ok "readdir a" (ops.Fs.readdir "/a")));
      Alcotest.(check int) "b count" 7 (List.length (ok "readdir b" (ops.Fs.readdir "/b")));
      (* rename onto an existing indexed entry replaces it *)
      ok "rename replace" (ops.Fs.rename "/a/f4" "/b/g0");
      Alcotest.(check int) "a count" 8 (List.length (ok "readdir a" (ops.Fs.readdir "/a")));
      Alcotest.(check int) "b count" 7 (List.length (ok "readdir b" (ops.Fs.readdir "/b")));
      Libfs.unmap_everything fs;
      (match Controller.corruption_events env.Helpers.ctl with
      | [] -> ()
      | evs -> Alcotest.failf "verifier flagged %d event(s)" (List.length evs));
      let _checked, bad = Controller.audit_all env.Helpers.ctl in
      Alcotest.(check int) "full sweep clean" 0 bad)

(* The readdir contract: entries stream in ascending (name-hash, name)
   order — the index's native order — and repeated scans agree. *)
let test_readdir_order () =
  with_fs (fun _ _ ops ->
      ok "mkdir" (ops.Fs.mkdir "/d" 0o755);
      for i = 0 to 40 do
        ignore (ok "create" (ops.Fs.create (Printf.sprintf "/d/n%02d" i) 0o644) : int)
      done;
      let names entries = List.map (fun e -> e.d_name) entries in
      let first = names (ok "readdir" (ops.Fs.readdir "/d")) in
      let second = names (ok "readdir again" (ops.Fs.readdir "/d")) in
      Alcotest.(check (list string)) "stable across scans" first second;
      let keyed = List.map (fun n -> (Dirindex.hash_name n, n)) first in
      let sorted = List.sort compare keyed in
      Alcotest.(check bool) "ascending (hash, name)" true (keyed = sorted);
      Alcotest.(check int) "complete" 41 (List.length first))

(* Allocator exhaustion mid-build (the scan fallback, mount-time
   recovery and the scrubber all rebuild): dry at the first page and
   after three, the build must return [Error `Nospace] — not loop — and
   hand every page it took back to [free]. *)
let test_build_dry_allocator () =
  with_tree (fun pm alloc _free ->
      Dirindex.with_test_capacity 4 @@ fun () ->
      let entries = List.init 40 (fun i -> (i * 7919, i)) in
      List.iter
        (fun budget ->
          let taken = ref [] and freed = ref [] in
          let dry () =
            if List.length !taken >= budget then None
            else
              Option.map
                (fun pg ->
                  taken := pg :: !taken;
                  pg)
                (alloc ())
          in
          let free pg = freed := pg :: !freed in
          (match Dirindex.build pm ~actor:Pmem.kernel_actor ~alloc:dry ~free ~entries with
          | Error `Nospace -> ()
          | Ok _ -> Alcotest.failf "budget %d: build succeeded" budget);
          Alcotest.(check int) (Printf.sprintf "budget %d: pages taken" budget) budget
            (List.length !taken);
          Alcotest.(check (list int))
            (Printf.sprintf "budget %d: every taken page freed" budget)
            (List.sort compare !taken) (List.sort compare !freed))
        [ 0; 3 ])

(* ------------------------------------------------------------------ *)
(* The LibFS's node mirror *)

(* The (hash, dentry address) keys of the live dentries of directory
   [d], read from the device. *)
let dentry_keys pm (d : Libfs.dir_state) =
  List.concat_map
    (fun pg ->
      List.filter_map
        (fun slot ->
          let addr = Layout.dentry_slot_addr pg slot in
          match Layout.read_dentry pm ~actor:Pmem.kernel_actor ~addr with
          | Some (Ok (_, name)) -> Some (Dirindex.hash_name name, addr)
          | _ -> None)
        (List.init Layout.dentries_per_page Fun.id))
    d.Libfs.d_data_pages
  |> List.sort compare

(* Every node the LibFS mirrors for [d] is the node on the device and a
   page of its tree, the root is among them (each op descends from it),
   and the tree holds exactly the dentries' keys. *)
let mirror_agrees pm (d : Libfs.dir_state) =
  let root = d.Libfs.d_dindex_root in
  let tree = Dirindex.pages pm ~actor:Pmem.kernel_actor ~root in
  Hashtbl.iter
    (fun page node ->
      if not (List.mem page tree) then Alcotest.failf "mirrored page %d is not in the tree" page;
      match Dirindex.read_node pm ~actor:Pmem.kernel_actor page with
      | Ok dev when dev = node -> ()
      | Ok _ -> Alcotest.failf "mirrored node %d differs from the device" page
      | Error e -> Alcotest.failf "device node %d: %s" page e)
    d.Libfs.d_nodes;
  let au = Dirindex.audit pm ~actor:Pmem.kernel_actor ~root in
  if au.Dirindex.au_violations <> [] then
    Alcotest.failf "audit: %s" (String.concat "; " au.Dirindex.au_violations);
  if List.sort compare au.Dirindex.au_entries <> dentry_keys pm d then
    Alcotest.fail "index keys disagree with the dentries";
  if root <> 0 && not (Hashtbl.mem d.Libfs.d_nodes root) then Alcotest.fail "root not mirrored"

(* Random create/unlink/rename (and the odd handoff, after which the
   mirror starts over) in one directory the process holds write-mapped
   alone, at node capacities that split leaves and the root: after every
   op, each mirrored node must equal the device's, and the tree must
   hold the dentries' keys. *)
let prop_mirror_matches_device =
  let op =
    QCheck.Gen.(
      frequency
        [
          (5, map (fun i -> `Create i) (int_bound 23));
          (3, map (fun i -> `Unlink i) (int_bound 23));
          (3, map2 (fun i j -> `Rename (i, j)) (int_bound 23) (int_bound 23));
          (1, return `Handoff);
        ])
  in
  let print = function
    | `Create i -> Printf.sprintf "create %d" i
    | `Unlink i -> Printf.sprintf "unlink %d" i
    | `Rename (i, j) -> Printf.sprintf "rename %d %d" i j
    | `Handoff -> "handoff"
  in
  QCheck.Test.make ~name:"mirrored nodes match the device" ~count:40
    QCheck.(
      pair (int_range 2 5)
        (make ~print:(Print.list print) Gen.(list_size (int_range 1 60) op)))
    (fun (cap, ops) ->
      Dirindex.with_test_capacity cap @@ fun () ->
      with_fs (fun env fs fops ->
          let pm = env.Helpers.pmem in
          let path i = Printf.sprintf "/d/n%02d" i in
          ok "mkdir" (fops.Fs.mkdir "/d" 0o755);
          let ino = (ok "stat" (fops.Fs.stat "/d")).st_ino in
          let live = Hashtbl.create 16 in
          List.iter
            (fun op ->
              (match op with
              | `Create i -> (
                match fops.Fs.create (path i) 0o644 with
                | Ok fd ->
                  if Hashtbl.mem live i then Alcotest.failf "create %d: no EEXIST" i;
                  Hashtbl.replace live i ();
                  ok "close" (fops.Fs.close fd)
                | Error EEXIST when Hashtbl.mem live i -> ()
                | Error e -> Alcotest.failf "create %d: %s" i (errno_to_string e))
              | `Unlink i -> (
                match fops.Fs.unlink (path i) with
                | Ok () -> Hashtbl.remove live i
                | Error ENOENT when not (Hashtbl.mem live i) -> ()
                | Error e -> Alcotest.failf "unlink %d: %s" i (errno_to_string e))
              | `Rename (i, j) -> (
                match fops.Fs.rename (path i) (path j) with
                | Ok () ->
                  if i <> j then begin
                    Hashtbl.remove live i;
                    Hashtbl.replace live j ()
                  end
                | Error ENOENT when not (Hashtbl.mem live i) -> ()
                | Error e -> Alcotest.failf "rename %d %d: %s" i j (errno_to_string e))
              | `Handoff -> Libfs.unmap_everything fs);
              match Libfs.cached_dir fs ino with
              | Some d when d.Libfs.d_write_mapped -> mirror_agrees pm d
              | _ -> ())
            ops;
          let names = List.map (fun e -> e.d_name) (ok "readdir" (fops.Fs.readdir "/d")) in
          let expected = Hashtbl.fold (fun i () acc -> Filename.basename (path i) :: acc) live [] in
          Alcotest.(check (list string)) "entries" (List.sort compare expected)
            (List.sort compare names);
          Libfs.unmap_everything fs;
          Alcotest.(check int) "corruption events" 0
            (List.length (Controller.corruption_events env.Helpers.ctl));
          true))

(* ------------------------------------------------------------------ *)
(* Exploration campaigns *)

(* SIGKILL at sampled points inside index mutations: every recovered
   state must certify under a Full sweep (I5 included), and at least
   one sampled state must have split a node (else the campaign never
   entered the interesting windows). *)
let test_explore_kills () =
  let r =
    if deep then Explore.explore_dir_index ()
    else Explore.explore_dir_index ~config:(Explore.kills 8) ~entries:12 ()
  in
  (match r.Explore.k_failure with
  | None -> ()
  | Some f -> Alcotest.failf "%a" Explore.pp_failure f);
  Alcotest.(check bool) "sampled states" true (r.Explore.k_states > 0);
  Alcotest.(check int)
    "every state certified" r.Explore.k_states
    (Explore.tally r "indexed" + Explore.tally r "unindexed");
  Alcotest.(check bool) "splits reached" true (Explore.tally r "splits" > 0)

let () =
  Alcotest.run "dirindex"
    [
      ( "tree",
        [
          Alcotest.test_case "insert/lookup/delete at scale" `Quick test_scale;
          Alcotest.test_case "duplicate hashes" `Quick test_duplicate_hashes;
          Alcotest.test_case "empty tree and first split" `Quick test_boundaries;
          Alcotest.test_case "build with a dry allocator" `Quick test_build_dry_allocator;
          Alcotest.test_case "node CRC catches any flipped byte" `Quick test_node_byte_flips;
          Alcotest.test_case "insert stores only changed lines" `Quick
            test_insert_writes_changed_lines;
        ] );
      ( "libfs",
        [
          Alcotest.test_case "rename across indexed dirs" `Quick test_rename_across_indexed_dirs;
          Alcotest.test_case "readdir order" `Quick test_readdir_order;
          QCheck_alcotest.to_alcotest prop_mirror_matches_device;
        ] );
      ( "explore",
        [
          Alcotest.test_case "kill points certify" `Quick test_explore_kills;
        ] );
    ]
