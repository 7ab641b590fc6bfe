(* Radix tree over non-negative integer keys, 6 bits per level.

   This is the index structure ArckFS' LibFS keeps per regular file, mapping
   a file-page index to the NVM location of the index-page entry that holds
   that page (paper §4.2).  The baselines (NOVA model) reuse it for their
   DRAM indexes.

   An empty tree allocates no node: a LibFS keeps one tree per cached
   file, most of them for files that never get a page, so the root is
   [[||]] until the first insert and again after [clear]. *)

let bits = 6
let fanout = 1 lsl bits (* 64 *)
let mask = fanout - 1

type 'a slot =
  | Empty
  | Leaf of 'a
  | Node of 'a slot array

type 'a t = {
  mutable root : 'a slot array; (* [||] while the tree has never held a key *)
  mutable height : int; (* number of levels; capacity = 64^height *)
  mutable count : int;
}

let create () = { root = [||]; height = 1; count = 0 }

let capacity t =
  (* 64^height, computed without overflow for sane heights *)
  let rec go acc h = if h = 0 then acc else go (acc * fanout) (h - 1) in
  go 1 t.height

let length t = t.count

(* Add a level above the root so that the tree covers larger keys. *)
let grow t =
  let new_root = Array.make fanout Empty in
  new_root.(0) <- Node t.root;
  t.root <- new_root;
  t.height <- t.height + 1

let rec ensure_capacity t key = if key >= capacity t then (grow t; ensure_capacity t key)

let shift_of t level = bits * (t.height - 1 - level)

let insert t key v =
  if key < 0 then invalid_arg "Radix.insert: negative key";
  if Array.length t.root = 0 then t.root <- Array.make fanout Empty;
  ensure_capacity t key;
  let rec go slots level =
    let idx = (key lsr shift_of t level) land mask in
    if level = t.height - 1 then begin
      (match slots.(idx) with Leaf _ -> () | _ -> t.count <- t.count + 1);
      slots.(idx) <- Leaf v
    end
    else
      match slots.(idx) with
      | Node child -> go child (level + 1)
      | Empty ->
        let child = Array.make fanout Empty in
        slots.(idx) <- Node child;
        go child (level + 1)
      | Leaf _ -> assert false
  in
  go t.root 0

(* A key the tree can hold: in range, and the root allocated. *)
let in_range t key = key >= 0 && key < capacity t && Array.length t.root > 0

let find t key =
  if not (in_range t key) then None
  else begin
    let rec go slots level =
      let idx = (key lsr shift_of t level) land mask in
      match slots.(idx) with
      | Empty -> None
      | Leaf v -> if level = t.height - 1 then Some v else None
      | Node child -> go child (level + 1)
    in
    go t.root 0
  end

let mem t key = Option.is_some (find t key)

let remove t key =
  if in_range t key then begin
    let rec go slots level =
      let idx = (key lsr shift_of t level) land mask in
      match slots.(idx) with
      | Empty -> ()
      | Leaf _ ->
        if level = t.height - 1 then begin
          slots.(idx) <- Empty;
          t.count <- t.count - 1
        end
      | Node child -> go child (level + 1)
    in
    go t.root 0
  end

(* In-order iteration: keys visited in increasing order. *)
let iter t f =
  let rec go slots level prefix =
    for idx = 0 to Array.length slots - 1 do
      match slots.(idx) with
      | Empty -> ()
      | Leaf v -> f ((prefix lsl bits) lor idx) v
      | Node child -> go child (level + 1) ((prefix lsl bits) lor idx)
    done
  in
  go t.root 0 0

let fold t init f =
  let acc = ref init in
  iter t (fun k v -> acc := f !acc k v);
  !acc

let clear t =
  t.root <- [||];
  t.height <- 1;
  t.count <- 0

(* Largest key present, if any; ArckFS uses it to locate the file tail. *)
let max_key t =
  let best = ref None in
  iter t (fun k _ -> best := Some k);
  !best
