(* Persistent B-link-style directory index (DESIGN.md §4.18).

   An ordered tree over (name hash, dentry address) keys whose nodes are
   single core-state NVM pages ({!Layout.dnode}).  The dentry pages stay
   the source of truth: the tree is an *accelerator* — every mutation
   persists the dentry first, then updates the tree, and any torn or
   damaged node degrades to the linear dentry-page scan plus a rebuild
   from the leaves.

   Every node update is one store of the lines the re-encoded node
   changes ({!Pmem.write_lines}) and one fence over its page.  An entry
   keeps its physical slot for as long as it stays in its node, and a
   new one takes the lowest free slot, so an insert or delete stores
   the header line, the slot-map bytes that move, the one slot it fills
   or clears and the CRC line: at most 6 of the page's 64 lines,
   whatever the node's fill.  Only [build] and the fresh right node of
   a split are packed.  Comparing with the device stands in for
   tracking the changed lines because the writer is exclusive: callers
   hold the directory's index lock, in the one aux state a trust
   group keeps per directory, so the page holds exactly the node the
   writer decoded.

   Crash discipline (single writer per directory; readers are lock-free
   thanks to the B-link right-sibling pointers):

   - leaf/internal insert without overflow: one node rewrite whose
     trailing CRC makes a torn write detectable (reader falls back);
   - split: the new right sibling is written first (unreachable until
     linked), then the left node is rewritten with halved keys, the
     right link and the new high key — the tree is consistent before
     and after that single page write — and only then is the parent
     updated.  A crash between the last two steps leaves the right node
     reachable through the right link;
   - root split: the new root is written to a fresh page and the
     directory dentry's [dindex_root] field is swung with one atomic
     persisted 8-byte store.

   All page allocation for an insert is done up front (worst case: one
   new node per level plus a new root), so running out of space never
   leaves a half-split tree. *)

module Pmem = Trio_nvm.Pmem
module Perf = Trio_nvm.Perf
module Sched = Trio_sim.Sched
module Stats = Trio_sim.Stats

let page_size = Layout.page_size

(* ------------------------------------------------------------------ *)
(* Test hooks *)

(* Shrink the node fanout so unit tests and crash exploration reach
   splits (and root splits) with a handful of entries instead of 170:
   [with_test_capacity n f] runs [f] with nodes of [n] entries and
   restores the previous capacity, even when [f] raises. *)
let test_capacity = ref None

let with_test_capacity n f =
  let saved = !test_capacity in
  test_capacity := Some n;
  Fun.protect ~finally:(fun () -> test_capacity := saved) f

let capacity () =
  match !test_capacity with
  | Some c -> max 2 (min c Layout.dnode_capacity)
  | None -> Layout.dnode_capacity

let hash_name = Trio_util.Htbl.string_hash

let max_key = (max_int, max_int)

(* ------------------------------------------------------------------ *)
(* Node I/O *)

(* A LibFS's DRAM mirror of the decoded nodes of one directory's tree
   (DESIGN.md §4.18): the nodes it read or wrote, by page.  A node in
   the mirror is the node on the device for as long as nobody else
   writes the tree, which the caller vouches for by passing [?mirror]
   at all.  Nodes are immutable values: an update stores and mirrors a
   fresh node, never the old one's arrays changed in place. *)
type mirror = (int, Layout.dnode) Hashtbl.t

let count stats name = match stats with Some s -> Stats.incr s name | None -> ()

(* Reading a node costs one in-node probe's worth of CPU on top of the
   media access the Pmem layer charges; a mirrored node costs the probe
   alone.  Userspace actors read through ECC: a poisoned node is
   indistinguishable from a torn one — both degrade to the scan
   fallback.  [fetch] may serve the page from a DRAM snapshot (the
   incremental verifier's delta checkpoint).  A node decoded from the
   device joins [mirror]; [stats] counts the nodes each source served. *)
let read_node ?mirror ?fetch ?stats pm ~actor page =
  Sched.cpu_work Perf.Cpu.hash_lookup;
  if page <= Layout.root_dentry_page || page >= Pmem.total_pages pm then
    Error (Printf.sprintf "index node %d outside the volume" page)
  else
    match Option.bind mirror (fun m -> Hashtbl.find_opt m page) with
    | Some n ->
      count stats "verify.dindex.mirror_nodes";
      Ok n
    | None -> (
      let from_device () =
        if actor = Pmem.kernel_actor then
          Ok (Pmem.read pm ~actor ~addr:(page * page_size) ~len:page_size)
        else
          match Pmem.read_ecc pm ~actor ~addr:(page * page_size) ~len:page_size with
          | Pmem.Ecc.Ok b -> Ok b
          | Pmem.Ecc.Poisoned _ -> Error (Printf.sprintf "index node %d poisoned" page)
      in
      let bytes =
        match fetch with
        | Some f -> ( match f page with Some b -> Ok b | None -> from_device ())
        | None -> from_device ()
      in
      match bytes with
      | Error _ as e -> e
      | Ok b -> (
        match Layout.decode_dnode b with
        | Ok n ->
          count stats "verify.dindex.device_nodes";
          Option.iter (fun m -> Hashtbl.replace m page n) mirror;
          Ok n
        | Error e -> Error (Printf.sprintf "index node %d: %s" page e)))

(* One store of the node's changed lines and one fence (see the header
   comment); the node joins [mirror] once the store has landed. *)
let write_node ?mirror pm ~actor page (n : Layout.dnode) =
  Pmem.write_lines pm ~actor ~addr:(page * page_size) ~src:(Layout.encode_dnode n);
  Pmem.persist pm ~addr:(page * page_size) ~len:page_size;
  Option.iter (fun m -> Hashtbl.replace m page n) mirror

let high_of (n : Layout.dnode) = (n.Layout.dn_high_hash, n.Layout.dn_high_addr)

(* Index of the child covering [key] in internal node [n]: the first
   entry whose separator is strictly above the key.  The caller has
   already ruled out [key >= high] (move right), and the last separator
   equals the high key, so a hit is guaranteed on a well-formed node. *)
let route (n : Layout.dnode) key =
  let len = Array.length n.Layout.dn_entries in
  let rec go i =
    if i >= len then None
    else
      let h, a, child = n.Layout.dn_entries.(i) in
      if key < (h, a) then Some child else go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Lookup *)

(* All dentry addresses indexed under [hash], in key order.  Equal-hash
   entries are adjacent; they may continue into right siblings when the
   hash sits at a node boundary. *)
let lookup ?mirror ?fetch ?stats pm ~actor ~root ~hash =
  count stats "verify.dindex.descents";
  if root = 0 then Ok []
  else begin
    let bound = Pmem.total_pages pm in
    (* [n] is the leaf [descend] decoded; right siblings are read here *)
    let rec collect (n : Layout.dnode) acc steps =
      let acc =
        Array.fold_left
          (fun acc (h, a, _) -> if h = hash then a :: acc else acc)
          acc n.Layout.dn_entries
      in
      if n.Layout.dn_right <> 0 && n.Layout.dn_high_hash <= hash then
        if steps >= bound then Error "index chain too long (cycle?)"
        else
          match read_node ?mirror ?fetch ?stats pm ~actor n.Layout.dn_right with
          | Error _ as e -> e
          | Ok right -> collect right acc (steps + 1)
      else Ok (List.rev acc)
    in
    let rec descend page steps =
      if steps > bound then Error "index descent too deep (cycle?)"
      else
        match read_node ?mirror ?fetch ?stats pm ~actor page with
        | Error _ as e -> e
        | Ok n ->
          if (hash, 0) >= high_of n && n.Layout.dn_right <> 0 then
            descend n.Layout.dn_right (steps + 1)
          else if n.Layout.dn_level = 0 then collect n [] steps
          else (
            match route n (hash, 0) with
            | Some child -> descend child (steps + 1)
            | None -> Error "index node has no covering child")
    in
    descend root 0
  end

(* ------------------------------------------------------------------ *)
(* Insert *)

(* The position at which [key] enters [entries] in key order; [None]
   when it is present already. *)
let insert_pos entries key =
  let len = Array.length entries in
  let rec pos i =
    if i >= len then Some i
    else
      let h, a, _ = entries.(i) in
      if key < (h, a) then Some i else if key = (h, a) then None else pos (i + 1)
  in
  pos 0

(* Fresh copies of [a] with [x] inserted at, or the element removed
   from, position [i]: a decoded node is never changed in place. *)
let insert_at a i x =
  let len = Array.length a in
  let out = Array.make (len + 1) x in
  Array.blit a 0 out 0 i;
  Array.blit a i out (i + 1) (len - i);
  out

let remove_at a i =
  Array.append (Array.sub a 0 i) (Array.sub a (i + 1) (Array.length a - i - 1))

(* The slot a new entry fills: the lowest one none of [slots] holds. *)
let lowest_free slots =
  let used = Bytes.make Layout.dnode_capacity '\000' in
  Array.iter (fun s -> Bytes.set used s '\001') slots;
  let rec go s = if Bytes.get used s = '\000' then s else go (s + 1) in
  go 0

let packed n = Array.init n Fun.id

(* [n] with [entry] inserted at position [i] into the lowest free slot,
   every other entry staying in its own. *)
let with_entry (n : Layout.dnode) i entry =
  {
    n with
    Layout.dn_entries = insert_at n.Layout.dn_entries i entry;
    dn_slots = insert_at n.Layout.dn_slots i (lowest_free n.Layout.dn_slots);
  }

(* Find the node at [start] (following right links) holding a child
   entry for [child_page]; defensive against a reader racing a split. *)
let find_parent ?mirror ?stats pm ~actor ~start ~child_page =
  let bound = Pmem.total_pages pm in
  let rec go page steps =
    if page = 0 || steps > bound then Error "index parent not found"
    else
      match read_node ?mirror ?stats pm ~actor page with
      | Error _ as e -> e
      | Ok n ->
        if Array.exists (fun (_, _, c) -> c = child_page) n.Layout.dn_entries then Ok (page, n)
        else go n.Layout.dn_right (steps + 1)
  in
  go start 0

let insert ?mirror ?stats pm ~actor ~alloc ~free ~root ~hash ~addr =
  count stats "verify.dindex.descents";
  let cap = capacity () in
  if root = 0 then
    match alloc () with
    | None -> Error `Nospace
    | Some pg ->
      write_node ?mirror pm ~actor pg
        {
          Layout.dn_level = 0;
          dn_right = 0;
          dn_high_hash = fst max_key;
          dn_high_addr = snd max_key;
          dn_entries = [| (hash, addr, 0) |];
          dn_slots = packed 1;
        };
      Ok (pg, [ pg ])
  else begin
    let bound = Pmem.total_pages pm in
    let key = (hash, addr) in
    (* Descend, recording the path of internal pages. *)
    let rec descend page path steps =
      if steps > bound then Error (`Damaged "index descent too deep (cycle?)")
      else
        match read_node ?mirror ?stats pm ~actor page with
        | Error e -> Error (`Damaged e)
        | Ok n ->
          if key >= high_of n && n.Layout.dn_right <> 0 then
            descend n.Layout.dn_right path (steps + 1)
          else if n.Layout.dn_level = 0 then Ok (page, n, path)
          else (
            match route n key with
            | Some child -> descend child (page :: path) (steps + 1)
            | None -> Error (`Damaged "index node has no covering child"))
    in
    match descend root [] 0 with
    | Error _ as e -> e
    | Ok (leaf_page, leaf, path) -> (
      match insert_pos leaf.Layout.dn_entries key with
      | None -> Ok (root, []) (* exact (hash, addr) already indexed *)
      | Some i when Array.length leaf.Layout.dn_entries < cap ->
        write_node ?mirror pm ~actor leaf_page (with_entry leaf i (hash, addr, 0));
        Ok (root, [])
      | Some i ->
        (* Overflow: pre-allocate every page the worst case needs (one
           per level plus a new root) so a full device fails cleanly
           before any write. *)
        let want = List.length path + 2 in
        let fresh = ref [] in
        let ok = ref true in
        for _ = 1 to want do
          if !ok then
            match alloc () with
            | Some pg -> fresh := pg :: !fresh
            | None -> ok := false
        done;
        if not !ok then begin
          List.iter free !fresh;
          Error `Nospace
        end
        else begin
          count stats "verify.dindex.splits";
          let pool = ref !fresh in
          let take () =
            match !pool with
            | pg :: rest ->
              pool := rest;
              pg
            | [] -> assert false
          in
          (* Split full [node] whose overflowing entry goes in at
             position [i]: write the right half, packed, to a fresh
             page, rewrite the node with the left half in its slots,
             return the separator to push up.  The node has no free
             slot for the new entry: if it falls left, it takes the
             lowest slot the right half vacated. *)
          let split node_page (node : Layout.dnode) i entry =
            let entries = insert_at node.Layout.dn_entries i entry in
            let len = Array.length entries in
            let k = len / 2 in
            let left_entries = Array.sub entries 0 k in
            let left_slots =
              if i < k then
                let kept = Array.sub node.Layout.dn_slots 0 (k - 1) in
                insert_at kept i (lowest_free kept)
              else Array.sub node.Layout.dn_slots 0 k
            in
            let right_entries = Array.sub entries k (len - k) in
            let sep =
              if node.Layout.dn_level = 0 then
                let h, a, _ = right_entries.(0) in
                (h, a)
              else
                let h, a, _ = left_entries.(k - 1) in
                (h, a)
            in
            let right_page = take () in
            write_node ?mirror pm ~actor right_page
              {
                node with
                Layout.dn_right = node.Layout.dn_right;
                dn_high_hash = node.Layout.dn_high_hash;
                dn_high_addr = node.Layout.dn_high_addr;
                dn_entries = right_entries;
                dn_slots = packed (len - k);
              };
            write_node ?mirror pm ~actor node_page
              {
                node with
                Layout.dn_right = right_page;
                dn_high_hash = fst sep;
                dn_high_addr = snd sep;
                dn_entries = left_entries;
                dn_slots = left_slots;
              };
            (sep, right_page)
          in
          (* Propagate the split up the recorded path. *)
          let rec propagate child_page (sep, right_page) path level =
            match path with
            | [] ->
              (* root split: fresh root referencing both halves *)
              let new_root = take () in
              write_node ?mirror pm ~actor new_root
                {
                  Layout.dn_level = level + 1;
                  dn_right = 0;
                  dn_high_hash = fst max_key;
                  dn_high_addr = snd max_key;
                  dn_entries =
                    [| (fst sep, snd sep, child_page); (fst max_key, snd max_key, right_page) |];
                  dn_slots = packed 2;
                };
              Ok new_root
            | parent_start :: rest -> (
              match find_parent ?mirror ?stats pm ~actor ~start:parent_start ~child_page with
              | Error e -> Error (`Damaged e)
              | Ok (parent_page, parent) ->
                (* the child's old entry, in its slot, now names the
                   right half; a new entry at the separator keeps naming
                   the left half *)
                let updated =
                  {
                    parent with
                    Layout.dn_entries =
                      Array.map
                        (fun (h, a, c) -> if c = child_page then (h, a, right_page) else (h, a, c))
                        parent.Layout.dn_entries;
                  }
                in
                let entry = (fst sep, snd sep, child_page) in
                match insert_pos updated.Layout.dn_entries sep with
                | None ->
                  (* separator collides: tree is damaged *)
                  write_node ?mirror pm ~actor parent_page updated;
                  Ok root
                | Some i when Array.length updated.Layout.dn_entries < cap ->
                  write_node ?mirror pm ~actor parent_page (with_entry updated i entry);
                  Ok root
                | Some i ->
                  let psep = split parent_page updated i entry in
                  propagate parent_page psep rest updated.Layout.dn_level)
          in
          let leaf_sep = split leaf_page leaf i (hash, addr, 0) in
          match propagate leaf_page leaf_sep path 0 with
          | Error _ as e -> e
          | Ok new_root ->
            let unused = !pool in
            List.iter free unused;
            let used = List.filter (fun pg -> not (List.mem pg unused)) !fresh in
            Ok (new_root, used)
        end)
  end

(* ------------------------------------------------------------------ *)
(* Delete *)

(* Remove the exact (hash, addr) entry.  No node merging: an underfull
   (even empty) leaf is tolerated — rebuilds re-pack the tree.  Absent
   entries are fine (idempotent, used by crash reconciliation). *)
let delete ?mirror ?stats pm ~actor ~root ~hash ~addr =
  if root = 0 then Ok ()
  else begin
    let bound = Pmem.total_pages pm in
    let key = (hash, addr) in
    let rec descend page steps =
      if steps > bound then Error "index descent too deep (cycle?)"
      else
        match read_node ?mirror ?stats pm ~actor page with
        | Error _ as e -> e
        | Ok n ->
          if key >= high_of n && n.Layout.dn_right <> 0 then descend n.Layout.dn_right (steps + 1)
          else if n.Layout.dn_level = 0 then begin
            (match Array.find_index (fun (h, a, _) -> (h, a) = key) n.Layout.dn_entries with
            | Some i ->
              (* the freed slot is stored zeroed; every other entry stays put *)
              write_node ?mirror pm ~actor page
                {
                  n with
                  Layout.dn_entries = remove_at n.Layout.dn_entries i;
                  dn_slots = remove_at n.Layout.dn_slots i;
                }
            | None -> ());
            Ok ()
          end
          else (
            match route n key with
            | Some child -> descend child (steps + 1)
            | None -> Error "index node has no covering child")
    in
    descend root 0
  end

(* ------------------------------------------------------------------ *)
(* Ordered range scan *)

(* Fold [f] over every leaf entry in (hash, addr) key order — the
   documented stable readdir order.  Cost is one node read per leaf,
   not one dentry probe per entry. *)
let fold ?mirror ?fetch ?stats pm ~actor ~root ~init ~f =
  count stats "verify.dindex.range_scans";
  if root = 0 then Ok init
  else begin
    let bound = Pmem.total_pages pm in
    let rec leftmost page steps =
      if steps > bound then Error "index descent too deep (cycle?)"
      else
        match read_node ?mirror ?fetch ?stats pm ~actor page with
        | Error _ as e -> e
        | Ok n ->
          if n.Layout.dn_level = 0 then Ok n
          else (
            match n.Layout.dn_entries with
            | [||] -> Error "index node has no covering child"
            | es ->
              let _, _, child = es.(0) in
              leftmost child (steps + 1))
    in
    (* [n] is a decoded leaf; its right siblings are read here *)
    let rec scan (n : Layout.dnode) acc steps =
      let acc =
        Array.fold_left (fun acc (h, a, _) -> f acc ~hash:h ~addr:a) acc n.Layout.dn_entries
      in
      if n.Layout.dn_right = 0 then Ok acc
      else if steps >= bound then Error "index chain too long (cycle?)"
      else
        match read_node ?mirror ?fetch ?stats pm ~actor n.Layout.dn_right with
        | Error _ as e -> e
        | Ok right -> scan right acc (steps + 1)
    in
    match leftmost root 0 with Error _ as e -> e | Ok leaf -> scan leaf init 0
  end

(* ------------------------------------------------------------------ *)
(* Whole-tree page collection *)

(* Every page reachable from [root] (children and right siblings),
   cycle-safe and total: damaged nodes contribute their own page (it is
   still attributed to the directory) but no children.  This is what
   the controller uses for page attribution, checkpointing and frees,
   and what a LibFS frees with a directory it never shared (from its
   [mirror] when it holds one). *)
let pages ?mirror ?fetch pm ~actor ~root =
  if root = 0 then []
  else begin
    let seen = Hashtbl.create 16 in
    let acc = ref [] in
    let rec visit page =
      if
        page <> 0
        && page > Layout.root_dentry_page
        && page < Pmem.total_pages pm
        && not (Hashtbl.mem seen page)
      then begin
        Hashtbl.replace seen page ();
        acc := page :: !acc;
        match read_node ?mirror ?fetch pm ~actor page with
        | Error _ -> ()
        | Ok n ->
          if n.Layout.dn_level > 0 then
            Array.iter (fun (_, _, child) -> visit child) n.Layout.dn_entries;
          visit n.Layout.dn_right
      end
    in
    visit root;
    List.rev !acc
  end

(* ------------------------------------------------------------------ *)
(* Bulk build / rebuild *)

(* Build a fresh tree over [entries] (any order, duplicates collapsed).
   Used by mount-time recovery, the scan fallback and the kernel
   scrubber's rebuild — the tree an index rebuild produces is always
   structurally perfect.  Returns (root, pages used); an empty entry
   set builds no tree (root 0).  When [alloc] runs dry the build stops,
   passes every page it took to [free] (dropping their nodes from
   [mirror]) and returns [Error `Nospace]. *)
let build ?mirror ?stats pm ~actor ~alloc ~free ~entries =
  ignore stats;
  let cap = capacity () in
  let entries =
    List.sort_uniq compare (List.map (fun (h, a) -> (h, a)) entries)
  in
  if entries = [] then Ok (0, [])
  else begin
    let used = ref [] in
    let failed = ref false in
    let take () =
      if !failed then None
      else
        match alloc () with
        | Some pg ->
          used := pg :: !used;
          Some pg
        | None ->
          failed := true;
          None
    in
    (* chunk [xs] into groups of at most [cap] *)
    let chunk xs =
      let rec go acc cur n = function
        | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
        | x :: rest ->
          if n = cap then go (List.rev cur :: acc) [ x ] 1 rest
          else go acc (x :: cur) (n + 1) rest
      in
      go [] [] 0 xs
    in
    (* leaves: high key = first key of the next leaf *)
    let leaf_groups = chunk entries in
    let rec mk_leaves groups =
      match groups with
      | [] -> Some []
      | g :: rest -> (
        match take () with
        | None -> None
        | Some pg -> (
          match mk_leaves rest with
          | None -> None
          | Some tail ->
            let high = match tail with (_, first_key, _) :: _ -> first_key | [] -> max_key in
            let right = match tail with (rpg, _, _) :: _ -> rpg | [] -> 0 in
            let first_key = match g with k :: _ -> k | [] -> max_key in
            write_node ?mirror pm ~actor pg
              {
                Layout.dn_level = 0;
                dn_right = right;
                dn_high_hash = fst high;
                dn_high_addr = snd high;
                dn_entries = Array.of_list (List.map (fun (h, a) -> (h, a, 0)) g);
                dn_slots = packed (List.length g);
              };
            Some ((pg, first_key, high) :: tail)))
    in
    (* internal levels: entry = (child high, child page) *)
    let rec mk_level level nodes =
      (* nodes: (page, first_key, high) in order *)
      match nodes with
      | None | Some [] -> None
      | Some [ (pg, _, _) ] -> Some pg
      | Some ns -> (
        let groups = chunk ns in
        let rec mk_parents groups =
          match groups with
          | [] -> Some []
          | g :: rest -> (
            match take () with
            | None -> None
            | Some pg -> (
              match mk_parents rest with
              | None -> None
              | Some tail ->
                let right = match tail with (rpg, _, _) :: _ -> rpg | [] -> 0 in
                let entries =
                  Array.of_list (List.map (fun (cpg, _, (hh, ha)) -> (hh, ha, cpg)) g)
                in
                let high =
                  match g with
                  | [] -> max_key
                  | _ ->
                    let _, _, h = List.nth g (List.length g - 1) in
                    h
                in
                let first_key =
                  match g with (_, fk, _) :: _ -> fk | [] -> max_key
                in
                write_node ?mirror pm ~actor pg
                  {
                    Layout.dn_level = level;
                    dn_right = right;
                    dn_high_hash = fst high;
                    dn_high_addr = snd high;
                    dn_entries = entries;
                    dn_slots = packed (Array.length entries);
                  };
                Some ((pg, first_key, high) :: tail)))
        in
        match mk_parents groups with None -> None | Some parents -> mk_level (level + 1) (Some parents))
    in
    match mk_level 1 (mk_leaves leaf_groups) with
    | Some root when not !failed -> Ok (root, List.rev !used)
    | _ ->
      Option.iter (fun m -> List.iter (Hashtbl.remove m) !used) mirror;
      List.iter free !used;
      Error `Nospace
  end

(* ------------------------------------------------------------------ *)
(* Structural audit (verifier invariant I5) *)

type audit = {
  au_pages : int list; (* every page visited, in walk order *)
  au_entries : (int * int) list; (* leaf (hash, addr) keys, in key order *)
  au_violations : string list;
}

(* Walk the whole tree, checking every structural invariant: node CRCs
   decode, entries strictly ascending, keys below the high key, an
   internal node's high equals its last separator, each separator
   equals its child's high key, sibling chains at every level agree
   with the parents' child sequences, levels decrease by one, and the
   root is rightmost-complete (no right sibling, high = top).  Returns
   the leaf entries for the agreement check against the dentry truth.
   Each node is read once: the root, decoded first for its level, seeds
   its own level's chain.

   Total and cycle-safe: damaged or revisited nodes become violations,
   never exceptions. *)
let audit ?fetch pm ~actor ~root =
  if root = 0 then { au_pages = []; au_entries = []; au_violations = [] }
  else begin
    let violations = ref [] in
    let pages = ref [] in
    let entries = ref [] in
    let seen = Hashtbl.create 16 in
    let add fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
    let read page =
      if Hashtbl.mem seen page then begin
        add "index node %d revisited (cycle)" page;
        None
      end
      else begin
        Hashtbl.replace seen page ();
        pages := page :: !pages;
        match read_node ?fetch pm ~actor page with
        | Error e ->
          add "%s" e;
          None
        | Ok n -> Some n
      end
    in
    (* read one level's sibling chain; [first] is [start] already
       decoded (the root, whose level the walk needed up front) *)
    let chain ?first start =
      let bound = Pmem.total_pages pm in
      let rec go acc page steps =
        if page = 0 then List.rev acc
        else if steps > bound then begin
          add "index sibling chain too long (cycle?)";
          List.rev acc
        end
        else
          match read page with
          | None -> List.rev acc
          | Some n -> go ((page, n) :: acc) n.Layout.dn_right (steps + 1)
      in
      match first with
      | Some n -> go [ (start, n) ] n.Layout.dn_right 1
      | None -> go [] start 0
    in
    let check_node expected_level (page, (n : Layout.dnode)) =
      if n.Layout.dn_level <> expected_level then
        add "index node %d: level %d, expected %d" page n.Layout.dn_level expected_level;
      let len = Array.length n.Layout.dn_entries in
      let high = high_of n in
      for i = 0 to len - 1 do
        let h, a, _ = n.Layout.dn_entries.(i) in
        if i > 0 then begin
          let ph, pa, _ = n.Layout.dn_entries.(i - 1) in
          if (ph, pa) >= (h, a) then add "index node %d: entries out of order at %d" page i
        end;
        if (h, a) >= high && not (expected_level > 0 && i = len - 1) then
          add "index node %d: key (%d, %d) above the high key" page h a
      done;
      if expected_level > 0 then begin
        if len = 0 then add "index node %d: empty internal node" page
        else begin
          let h, a, _ = n.Layout.dn_entries.(len - 1) in
          if (h, a) <> high then add "index node %d: high key is not the last separator" page
        end
      end
    in
    let rec down ?first start expected_level =
      (* returns the chain's pages in order, for the parent check *)
      let nodes = chain ?first start in
      List.iter (check_node expected_level) nodes;
      (* sibling highs strictly ascend; the rightmost high is the top *)
      let rec seams = function
        | (pga, na) :: ((_, nb) :: _ as rest) ->
          if high_of na > high_of nb then add "index node %d: high key above its right sibling's" pga;
          (match nb.Layout.dn_entries with
          | [||] -> ()
          | es ->
            let h, a, _ = es.(0) in
            if (h, a) < high_of na then add "index node %d: right sibling starts below the seam" pga);
          seams rest
        | [ (pg, n) ] -> if high_of n <> max_key then add "index node %d: rightmost high key is not the top" pg
        | [] -> ()
      in
      seams nodes;
      if expected_level = 0 then
        List.iter
          (fun (_, n) ->
            Array.iter (fun (h, a, _) -> entries := (h, a) :: !entries) n.Layout.dn_entries)
          nodes
      else begin
        (* each separator must equal its child's high key; the child
           chain of the next level must be exactly the concatenated
           child pointers *)
        let children =
          List.concat_map
            (fun (_, n) ->
              Array.to_list n.Layout.dn_entries |> List.map (fun (h, a, c) -> ((h, a), c)))
            nodes
        in
        match children with
        | [] -> ()
        | (_, first) :: _ ->
          let child_chain = down first (expected_level - 1) in
          if child_chain <> List.map snd children then
            add "index level %d sibling chain disagrees with its parents" (expected_level - 1)
      end;
      List.map fst nodes
    in
    (match read root with
    | None -> ()
    | Some rn ->
      if rn.Layout.dn_right <> 0 then add "index root %d has a right sibling" root;
      if high_of rn <> max_key then add "index root %d: high key is not the top" root;
      ignore (down ~first:rn root rn.Layout.dn_level));
    { au_pages = List.rev !pages; au_entries = List.rev !entries; au_violations = List.rev !violations }
  end
