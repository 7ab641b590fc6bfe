(* Resizable chained hash table.

   The per-directory name index of ArckFS' LibFS auxiliary state (paper
   §4.2) and the global full-path index of FPFS (§5).  Concurrency control
   is the caller's business: ArckFS stripes sim locks over [stripe_of_key]
   so that bucket locking survives resizes (the stripe of a key is stable,
   the bucket is not). *)

type ('k, 'v) t = {
  hash : 'k -> int;
  equal : 'k -> 'k -> bool;
  mutable buckets : ('k * 'v) list array;
  mutable count : int;
  mutable resizes : int; (* exposed for benches: how often we rehashed *)
}

let default_size = 16
let max_load = 2 (* resize when count > max_load * buckets *)

let create ?(initial_size = default_size) ~hash ~equal () =
  let size = max 1 initial_size in
  { hash; equal; buckets = Array.make size []; count = 0; resizes = 0 }

let length t = t.count
let resize_count t = t.resizes

let bucket_index t k = t.hash k land max_int mod Array.length t.buckets

let stripes = 64

let stripe_of_key t k = t.hash k land max_int mod stripes

let resize t =
  let old = t.buckets in
  let nsize = Array.length old * 2 in
  t.buckets <- Array.make nsize [];
  t.resizes <- t.resizes + 1;
  Array.iter
    (fun chain ->
      List.iter
        (fun ((k, _) as kv) ->
          let i = t.hash k land max_int mod nsize in
          t.buckets.(i) <- kv :: t.buckets.(i))
        chain)
    old

let find t k =
  let rec go = function
    | [] -> None
    | (k', v) :: rest -> if t.equal k k' then Some v else go rest
  in
  go t.buckets.(bucket_index t k)

let mem t k = Option.is_some (find t k)

let replace t k v =
  let i = bucket_index t k in
  let chain = t.buckets.(i) in
  let existed = List.exists (fun (k', _) -> t.equal k k') chain in
  let chain = if existed then List.filter (fun (k', _) -> not (t.equal k k')) chain else chain in
  t.buckets.(i) <- (k, v) :: chain;
  if not existed then begin
    t.count <- t.count + 1;
    if t.count > max_load * Array.length t.buckets then resize t
  end

(* Insert only if absent; returns [false] if the key already exists.  This
   is the primitive `create` uses so that duplicate names are refused
   atomically under the bucket stripe lock. *)
let add_if_absent t k v =
  let i = bucket_index t k in
  if List.exists (fun (k', _) -> t.equal k k') t.buckets.(i) then false
  else begin
    t.buckets.(i) <- (k, v) :: t.buckets.(i);
    t.count <- t.count + 1;
    if t.count > max_load * Array.length t.buckets then resize t;
    true
  end

let remove t k =
  let i = bucket_index t k in
  let chain = t.buckets.(i) in
  if List.exists (fun (k', _) -> t.equal k k') chain then begin
    t.buckets.(i) <- List.filter (fun (k', _) -> not (t.equal k k')) chain;
    t.count <- t.count - 1;
    true
  end
  else false

let iter t f = Array.iter (fun chain -> List.iter (fun (k, v) -> f k v) chain) t.buckets

let fold t init f =
  let acc = ref init in
  iter t (fun k v -> acc := f !acc k v);
  !acc

let clear t =
  t.buckets <- Array.make default_size [];
  t.count <- 0

(* FNV-1a, the default hash for string keys (file names, paths). *)
let string_hash s =
  let h = ref 0x1cbf29ce4842223 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    s;
  !h land max_int

let create_string ?initial_size () = create ?initial_size ~hash:string_hash ~equal:String.equal ()
