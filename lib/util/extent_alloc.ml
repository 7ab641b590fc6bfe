(* Extent-based free-space allocator.

   The paper implements the heap and inode allocators as DRAM red-black
   trees (§4.5); we keep free extents in a balanced map keyed by start
   address (OCaml's AVL [Map]), with coalescing on free.  The kernel
   controller instantiates one per NUMA node and layers per-CPU front
   caches on top. *)

module IntMap = Map.Make (Int)

type t = {
  mutable free : int IntMap.t; (* start -> length; disjoint, coalesced *)
  mutable free_count : int; (* total free units *)
  total : int;
}

exception Out_of_space

let create ~start ~len =
  if len < 0 || start < 0 then invalid_arg "Extent_alloc.create";
  let free = if len = 0 then IntMap.empty else IntMap.singleton start len in
  { free; free_count = len; total = len }

let free_units t = t.free_count
let used_units t = t.total - t.free_count
let fragments t = IntMap.cardinal t.free

(* First-fit allocation of [n] contiguous units; returns the start. *)
let alloc t n =
  if n <= 0 then invalid_arg "Extent_alloc.alloc";
  let found = IntMap.to_seq t.free |> Seq.find (fun (_, len) -> len >= n) in
  match found with
  | None -> raise Out_of_space
  | Some (start, len) ->
    t.free <- IntMap.remove start t.free;
    if len > n then t.free <- IntMap.add (start + n) (len - n) t.free;
    t.free_count <- t.free_count - n;
    start

let alloc_one t = alloc t 1

(* Is [start, start+n) entirely covered by one free extent? *)
let is_free t start n =
  match IntMap.find_last_opt (fun s -> s <= start) t.free with
  | None -> false
  | Some (s, len) -> s + len >= start + n

(* Allocate a specific range; used when rebuilding allocator state from the
   core state after a crash (the free map itself is auxiliary state). *)
let alloc_at t start n =
  if n <= 0 then invalid_arg "Extent_alloc.alloc_at";
  if not (is_free t start n) then raise Out_of_space;
  let s, len =
    match IntMap.find_last_opt (fun s -> s <= start) t.free with
    | Some (s, len) -> (s, len)
    | None -> assert false
  in
  t.free <- IntMap.remove s t.free;
  if start > s then t.free <- IntMap.add s (start - s) t.free;
  let tail = s + len - (start + n) in
  if tail > 0 then t.free <- IntMap.add (start + n) tail t.free;
  t.free_count <- t.free_count - n

let free t start n =
  if n <= 0 then invalid_arg "Extent_alloc.free";
  (* Refuse double frees: the range must not intersect any free extent. *)
  (match IntMap.find_last_opt (fun s -> s <= start) t.free with
  | Some (s, len) when s + len > start -> invalid_arg "Extent_alloc.free: double free"
  | _ -> ());
  (match IntMap.find_first_opt (fun s -> s > start) t.free with
  | Some (s, _) when s < start + n -> invalid_arg "Extent_alloc.free: double free"
  | _ -> ());
  (* Coalesce with predecessor and successor. *)
  let start', n' =
    match IntMap.find_last_opt (fun s -> s <= start) t.free with
    | Some (s, len) when s + len = start ->
      t.free <- IntMap.remove s t.free;
      (s, len + n)
    | _ -> (start, n)
  in
  let n' =
    match IntMap.find_first_opt (fun s -> s >= start') t.free with
    | Some (s, len) when start' + n' = s ->
      t.free <- IntMap.remove s t.free;
      n' + len
    | _ -> n'
  in
  t.free <- IntMap.add start' n' t.free;
  t.free_count <- t.free_count + n
