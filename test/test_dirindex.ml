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
   one byte of an encoded node (header, a live slot, a free slot, the
   zero fill, the slot map, whose last byte is 4,087, or the CRC
   itself) must make it decode as an error.  The slots are scattered
   (slot 37i mod 162 for entry i) so live and free slots interleave. *)
let test_node_byte_flips () =
  let slots_end = Layout.dnode_slot_off Layout.dnode_capacity
  and map_start = Layout.dnode_map_byte (Layout.dnode_capacity - 1) in
  Alcotest.(check bool) "a full node's slots end before its map" true (slots_end <= map_start);
  Alcotest.(check int) "the map ends at the CRC" Layout.dnode_crc_off (Layout.dnode_map_byte (-1));
  List.iter
    (fun n ->
      let slots = Array.init n (fun i -> i * 37 mod Layout.dnode_capacity) in
      let region off =
        if off < Layout.dnode_slots_off then "header"
        else if off < slots_end then
          if Array.mem ((off - Layout.dnode_slots_off) / Layout.dnode_entry_size) slots then
            "live slot"
          else "free slot"
        else if off < map_start then "zero fill"
        else if off < Layout.dnode_crc_off then "slot map"
        else "crc"
      in
      let node =
        {
          Layout.dn_level = 0;
          dn_right = 77;
          dn_high_hash = max_int;
          dn_high_addr = max_int;
          dn_entries = Array.init n (fun i -> (i * 7919, 4096 + (i * 64), 0));
          dn_slots = slots;
        }
      in
      let b = Layout.encode_dnode node in
      (match Layout.decode_dnode b with
      | Ok d -> Alcotest.(check bool) "clean node round-trips" true (d = node)
      | Error e -> Alcotest.failf "%d-entry node: clean copy: %s" n e);
      let flip off = Bytes.set_uint8 b off (Bytes.get_uint8 b off lxor 0x01) in
      let seen = Hashtbl.create 5 in
      for off = 0 to Layout.page_size - 1 do
        flip off;
        Hashtbl.replace seen (region off) ();
        (match Layout.decode_dnode b with
        | Error _ -> ()
        | Ok _ ->
          Alcotest.failf "%d-entry node: %s byte %d flipped, still decodes" n (region off) off);
        flip off
      done;
      Alcotest.(check int) (Printf.sprintf "%d-entry node: regions flipped" n)
        (if n = Layout.dnode_capacity then 5 else 6)
        (Hashtbl.length seen))
    [ 10; Layout.dnode_capacity ]

(* A node whose map names a slot twice or past the capacity, or whose
   key count is past the capacity, is damaged even under a good CRC:
   decode refuses it, and the audit behind verifier invariant I5
   reports it. *)
let test_bad_slot_map () =
  let reseal b =
    Layout.(set_u64 b dnode_crc_off (Trio_util.Crc32.of_bytes ~pos:0 ~len:dnode_crc_off b))
  in
  List.iter
    (fun (what, damage) ->
      with_tree (fun pm alloc free ->
          let actor = Pmem.kernel_actor in
          let entries = List.init 10 (fun k -> ((k + 1) * 1000, k)) in
          let root, _ = iok "build" (Dirindex.build pm ~actor ~alloc ~free ~entries) in
          let b = Pmem.read pm ~actor ~addr:(root * Layout.page_size) ~len:Layout.page_size in
          damage b;
          reseal b;
          (match Layout.decode_dnode b with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "%s: decodes" what);
          Pmem.write pm ~actor ~addr:(root * Layout.page_size) ~src:b;
          let au = Dirindex.audit pm ~actor ~root in
          Alcotest.(check bool)
            (what ^ ": audit reports it")
            true
            (au.Dirindex.au_violations <> [])))
    [
      ( "repeated slot",
        fun b -> Layout.(set_u8 b (dnode_map_byte 3) (get_u8 b (dnode_map_byte 0))) );
      ("slot past capacity", fun b -> Layout.(set_u8 b (dnode_map_byte 9) dnode_capacity));
      ("key count past capacity", fun b -> Layout.(set_u16 b dn_off_nkeys (dnode_capacity + 1)));
    ]

(* A node update stores only the lines it changes: inserting into or
   deleting from an n-entry leaf at position i stores the header line
   (the key count), the lines of the map bytes that move (positions i..
   of the slot map), the lines of the one slot filled or cleared and
   the CRC line, and is charged for exactly those: at most 6 lines
   wherever the entry sorts and however full the node is. *)
let test_update_writes_changed_lines () =
  let line off = off / Pmem.line_size in
  let span first last = List.init (line last - line first + 1) (fun k -> line first + k) in
  (* a leaf entry's third word is 0 filled or cleared alike: its lines
     are those of the hash and address words *)
  let slot_lines s = span (Layout.dnode_slot_off s) (Layout.dnode_slot_off s + 15) in
  let expect ~map_first ~map_last ~slot =
    (0 :: line Layout.dnode_crc_off :: slot_lines slot)
    @ span (Layout.dnode_map_byte map_last) (Layout.dnode_map_byte map_first)
    |> List.sort_uniq compare |> List.length
  in
  let check what n i update =
    with_tree (fun pm alloc free ->
        let actor = Pmem.kernel_actor in
        (* hashes 1000, 2000, ... in slots 0, 1, ... *)
        let entries = List.init n (fun k -> ((k + 1) * 1000, k)) in
        let root, _ = iok "build" (Dirindex.build pm ~actor ~alloc ~free ~entries) in
        let node = Pmem.node_of_page pm root in
        let written () =
          let _, _, w = Pmem.node_stats pm node in
          int_of_float w
        in
        let before = written () in
        let lines = update pm ~actor ~alloc ~free ~root in
        let stored = written () - before in
        let label = Printf.sprintf "%s at %d of %d" what i n in
        Alcotest.(check int) (label ^ ": bytes stored") (lines * Pmem.line_size) stored;
        Alcotest.(check bool) (label ^ ": at most 6 lines") true (stored <= 6 * Pmem.line_size);
        ignore (audit_clean label pm root))
  in
  List.iter
    (fun n ->
      List.iter
        (fun i ->
          (* the new key sorts at position i and takes free slot n *)
          check "insert" n i (fun pm ~actor ~alloc ~free ~root ->
              let r, fresh =
                iok "insert"
                  (Dirindex.insert pm ~actor ~alloc ~free ~root ~hash:((i * 1000) + 500) ~addr:n)
              in
              Alcotest.(check bool) "no split" true (r = root && fresh = []);
              expect ~map_first:i ~map_last:n ~slot:n))
        (List.sort_uniq compare [ 0; min 17 n; n / 2; n ]);
      List.iter
        (fun i ->
          (* the entry at position i sits in slot i *)
          check "delete" n i (fun pm ~actor ~alloc:_ ~free:_ ~root ->
              tok "delete" (Dirindex.delete pm ~actor ~root ~hash:((i + 1) * 1000) ~addr:i);
              expect ~map_first:i ~map_last:(n - 1) ~slot:i))
        (List.sort_uniq compare [ 0; min 17 (n - 1); n - 1 ]))
    [ 1; 40; Layout.dnode_capacity - 1 ];
  (* a one-entry leaf emptied and refilled, as a rename within a
     one-file directory does: slot 0 and map position 0 share the header
     and CRC lines, so each update stores those two alone *)
  check "delete, then insert" 1 0 (fun pm ~actor ~alloc ~free ~root ->
      tok "delete" (Dirindex.delete pm ~actor ~root ~hash:1000 ~addr:0);
      ignore (iok "insert" (Dirindex.insert pm ~actor ~alloc ~free ~root ~hash:500 ~addr:1)
        : int * int list);
      2 * expect ~map_first:0 ~map_last:0 ~slot:0);
  Alcotest.(check int) "lines of a one-entry update" 2 (expect ~map_first:0 ~map_last:0 ~slot:0)

(* A deleted entry's slot is the next insert's, and every other entry
   keeps its own. *)
let test_slot_reuse () =
  with_tree (fun pm alloc free ->
      let actor = Pmem.kernel_actor in
      let entries = List.init 20 (fun k -> ((k + 1) * 1000, k)) in
      let root, _ = iok "build" (Dirindex.build pm ~actor ~alloc ~free ~entries) in
      let slots () =
        let n = tok "read" (Dirindex.read_node pm ~actor root) in
        Array.to_list (Array.map2 (fun (h, _, _) s -> (h, s)) n.Layout.dn_entries n.Layout.dn_slots)
      in
      tok "delete" (Dirindex.delete pm ~actor ~root ~hash:6000 ~addr:5);
      tok "delete" (Dirindex.delete pm ~actor ~root ~hash:3000 ~addr:2);
      let insert hash addr =
        let r, _ = iok "insert" (Dirindex.insert pm ~actor ~alloc ~free ~root ~hash ~addr) in
        Alcotest.(check int) "no split" root r
      in
      insert 50 50;
      insert 99_000 51;
      let kept =
        List.filter_map
          (fun k -> if k = 2 || k = 5 then None else Some ((k + 1) * 1000, k))
          (List.init 20 Fun.id)
      in
      let expected = ((50, 2) :: kept) @ [ (99_000, 5) ] in
      Alcotest.(check (list (pair int int))) "(hash, slot) in key order" expected (slots ()))

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

(* The readdir contract: entries stream in ascending (name-hash, dentry
   address) order — the index's native order — and repeated scans
   agree. *)
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
      let hashes = List.map Dirindex.hash_name first in
      Alcotest.(check (list int)) "ascending hash" (List.sort compare hashes) hashes;
      Alcotest.(check int) "complete" 41 (List.length first))

(* A LibFS that holds a directory write-mapped, with a complete name
   table, lists it from the table: no device byte read, no range scan,
   and the index's own key order, which a second process's range scan
   reproduces.  A read-mapped reader range-scans, and so does a trust
   group whose shared state has no complete table. *)
let test_readdir_from_table () =
  Dirindex.with_test_capacity 4 @@ fun () ->
  Helpers.run_sim (fun env ->
      let pm = env.Helpers.pmem and ctl = env.Helpers.ctl in
      let device_reads () =
        List.fold_left
          (fun acc node ->
            let _, r, _ = Pmem.node_stats pm node in
            acc +. r)
          0.0
          (List.init (Trio_nvm.Numa.nodes (Pmem.topo pm)) Fun.id)
      in
      let scans () = Trio_sim.Stats.get (Controller.stats ctl) "verify.dindex.range_scans" in
      let listing what ops ~scanned =
        let s0 = scans () and r0 = device_reads () in
        let entries = ok what (ops.Fs.readdir "/d") in
        Alcotest.(check bool) (what ^ ": range scan") scanned (scans () > s0);
        if not scanned then
          Alcotest.(check (float 0.0)) (what ^ ": device bytes read") 0.0 (device_reads () -. r0);
        List.map (fun e -> (e.d_name, e.d_ino)) entries
      in
      let writer = Helpers.mount ~proc:1 env in
      let w = Libfs.ops writer in
      ok "mkdir" (w.Fs.mkdir "/d" 0o777);
      for i = 0 to 29 do
        ok "close" (w.Fs.close (ok "create" (w.Fs.create (Printf.sprintf "/d/n%02d" i) 0o644)))
      done;
      ok "unlink" (w.Fs.unlink "/d/n07");
      let from_table = listing "writer" w ~scanned:false in
      Alcotest.(check int) "writer: entries" 29 (List.length from_table);
      Libfs.unmap_everything writer;
      let r = Libfs.ops (Helpers.mount ~proc:2 env) in
      Alcotest.(check (list (pair string int)))
        "reader's range scan: same listing, same order" from_table
        (listing "reader" r ~scanned:true);
      let c_fs = Helpers.mount ~proc:3 env in
      ignore (Helpers.mount ~proc:4 ~group:c_fs env : Libfs.t);
      let c = Libfs.ops c_fs in
      ok "close" (c.Fs.close (ok "co-writer create" (c.Fs.create "/d/c00" 0o644)));
      Alcotest.(check int)
        "co-writer: entries" 30
        (List.length (listing "co-writer" c ~scanned:true));
      Libfs.unmap_everything c_fs;
      Alcotest.(check int) "corruption events" 0 (List.length (Controller.corruption_events ctl)))

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

(* The audit reads every node once: a counting [fetch] that always
   defers to the device sees each visited page exactly once, over a
   one-node tree and over a two-level one (the root, whose level the
   audit needs first, used to be read twice). *)
let test_audit_reads_once () =
  with_tree (fun pm alloc free ->
      let actor = Pmem.kernel_actor in
      let audit_counting what ~entries ~levels =
        let root, _ = iok what (Dirindex.build pm ~actor ~alloc ~free ~entries) in
        (match Dirindex.read_node pm ~actor root with
        | Ok n -> Alcotest.(check int) (what ^ ": root level") (levels - 1) n.Layout.dn_level
        | Error e -> Alcotest.failf "%s: %s" what e);
        let fetches = Hashtbl.create 16 in
        let fetch pg =
          Hashtbl.replace fetches pg (1 + Option.value (Hashtbl.find_opt fetches pg) ~default:0);
          None
        in
        let au = Dirindex.audit ~fetch pm ~actor ~root in
        Alcotest.(check (list string)) (what ^ ": clean") [] au.Dirindex.au_violations;
        Alcotest.(check (list (pair int int)))
          (what ^ ": entries") (List.sort compare entries) au.Dirindex.au_entries;
        List.iter
          (fun pg ->
            Alcotest.(check int)
              (Printf.sprintf "%s: node %d fetched" what pg)
              1
              (Option.value (Hashtbl.find_opt fetches pg) ~default:0))
          au.Dirindex.au_pages;
        Alcotest.(check int)
          (what ^ ": no page outside the tree fetched")
          (List.length au.Dirindex.au_pages) (Hashtbl.length fetches)
      in
      audit_counting "one node" ~entries:(List.init 5 (fun i -> (i * 7919, i))) ~levels:1;
      Dirindex.with_test_capacity 4 (fun () ->
          audit_counting "two levels" ~entries:(List.init 12 (fun i -> (i * 7919, i))) ~levels:2))

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

(* Every node the LibFS mirrors for [d] is the node on the device, slot
   map included, and a page of its tree, the root is among them (each op descends from it),
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

(* A create in a directory whose tree was dropped (a failed or faulted
   index update) indexes every name of its complete table, not just its
   own: a tree started from the one new key would disagree with the
   dentries, and the next verification would roll the directory back
   on I5. *)
let test_create_after_drop () =
  Dirindex.with_test_capacity 4 @@ fun () ->
  with_fs (fun env fs ops ->
      let pm = env.Helpers.pmem in
      ok "mkdir" (ops.Fs.mkdir "/d" 0o755);
      for i = 0 to 9 do
        ok "close" (ops.Fs.close (ok "create" (ops.Fs.create (Printf.sprintf "/d/f%d" i) 0o644)))
      done;
      let ino = (ok "stat" (ops.Fs.stat "/d")).st_ino in
      let d = Option.get (Libfs.cached_dir fs ino) in
      Libfs.drop_index fs d;
      Alcotest.(check int) "dropped" 0 d.Libfs.d_dindex_root;
      ok "close" (ops.Fs.close (ok "create" (ops.Fs.create "/d/g" 0o644)));
      Alcotest.(check bool) "indexed again" true (d.Libfs.d_dindex_root <> 0);
      mirror_agrees pm d;
      Libfs.unmap_everything fs;
      Alcotest.(check int) "corruption events" 0
        (List.length (Controller.corruption_events env.Helpers.ctl)))

(* A LibFS build that runs dry mid-way has already written its leaves;
   it frees them through the zeroing path, so when the cache hands them
   out again (as a fresh dentry page, whose slots [claim_slot] lists as
   free unread, or as a fresh node) they read as zero.  One node, so
   every page the test hoards or gives back is in the pool the build
   draws from. *)
let test_dry_build_frees_zeroed () =
  Dirindex.with_test_capacity 4 @@ fun () ->
  Helpers.run_sim ~nodes:1 ~pages_per_node:4096 (fun env ->
      let pm = env.Helpers.pmem in
      let fs = Helpers.mount ~proc:1 env in
      let ops = Libfs.ops fs in
      let cache = Libfs.cache_of fs in
      ok "mkdir" (ops.Fs.mkdir "/d" 0o755);
      for i = 0 to 19 do
        ok "close" (ops.Fs.close (ok "create" (ops.Fs.create (Printf.sprintf "/d/f%d" i) 0o644)))
      done;
      let d = Option.get (Libfs.cached_dir fs (ok "stat" (ops.Fs.stat "/d")).st_ino) in
      Libfs.drop_index fs d;
      (* run the cache and the device behind it dry ... *)
      let rec drain acc =
        match Arckfs.Alloc_cache.alloc_page cache ~node:0 ~kind:Pmem.Meta with
        | Ok pg -> drain (pg :: acc)
        | Error _ -> acc
      in
      (* ... then give back enough pages for the 6 leaves of 21 names,
         not for their 2 parents *)
      let given = List.filteri (fun i _ -> i < 6) (drain []) in
      Arckfs.Alloc_cache.recycle_pages cache given;
      ok "close" (ops.Fs.close (ok "create" (ops.Fs.create "/d/g" 0o644)));
      Alcotest.(check int) "unindexed" 0 d.Libfs.d_dindex_root;
      let page_bytes pg = Pmem.read pm ~actor:Pmem.kernel_actor ~addr:(pg * 4096) ~len:4096 in
      let zero = Bytes.make 4096 '\000' in
      if List.for_all (fun pg -> Bytes.equal (page_bytes pg) zero) given then
        Alcotest.fail "the build wrote no leaf before it ran dry";
      Libfs.flush_free_backlog fs;
      let back = ok "realloc" (Arckfs.Alloc_cache.alloc_pages cache ~node:0 ~kind:Pmem.Meta ~count:6) in
      Alcotest.(check (list int)) "the freed leaves, lowest first" (List.sort compare given) back;
      List.iter
        (fun pg ->
          if not (Bytes.equal (page_bytes pg) zero) then
            Alcotest.failf "recycled page %d keeps an old node's bytes" pg)
        back)

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
              | Some d when Libfs.dir_serves fs d ~write:true -> mirror_agrees pm d
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
          Alcotest.test_case "decode rejects a bad slot map" `Quick test_bad_slot_map;
          Alcotest.test_case "insert stores only changed lines" `Quick
            test_update_writes_changed_lines;
          Alcotest.test_case "a freed slot is the next insert's" `Quick test_slot_reuse;
          Alcotest.test_case "audit reads each node once" `Quick test_audit_reads_once;
        ] );
      ( "libfs",
        [
          Alcotest.test_case "rename across indexed dirs" `Quick test_rename_across_indexed_dirs;
          Alcotest.test_case "readdir order" `Quick test_readdir_order;
          Alcotest.test_case "readdir from a trusted table" `Quick test_readdir_from_table;
          Alcotest.test_case "create after a dropped index" `Quick test_create_after_drop;
          Alcotest.test_case "a dry build frees zeroed nodes" `Quick test_dry_build_frees_zeroed;
          QCheck_alcotest.to_alcotest prop_mirror_matches_device;
        ] );
      ( "explore",
        [
          Alcotest.test_case "kill points certify" `Quick test_explore_kills;
        ] );
    ]
