(* Unit + property tests for the generic data structures in Trio_util. *)

module Rng = Trio_util.Rng
module Radix = Trio_util.Radix
module Htbl = Trio_util.Htbl
module Extent_alloc = Trio_util.Extent_alloc
module Crc32 = Trio_util.Crc32

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "Rng.int out of bounds: %d" v
  done;
  for _ = 1 to 1000 do
    let v = Rng.in_range r ~lo:5 ~hi:9 in
    if v < 5 || v > 9 then Alcotest.failf "Rng.in_range out of bounds: %d" v
  done

let test_rng_zipf_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.zipf r ~n:100 ~theta:0.99 in
    if v < 0 || v >= 100 then Alcotest.failf "zipf out of bounds: %d" v
  done

let test_rng_zipf_skew () =
  (* With high skew, low indices must dominate. *)
  let r = Rng.create 11 in
  let low = ref 0 in
  let total = 10_000 in
  for _ = 1 to total do
    if Rng.zipf r ~n:1000 ~theta:0.99 < 100 then incr low
  done;
  if !low * 100 / total < 50 then
    Alcotest.failf "zipf not skewed: only %d/%d samples in the first decile" !low total

let test_rng_split_independent () =
  let r = Rng.create 5 in
  let r2 = Rng.split r in
  let v1 = Rng.next r and v2 = Rng.next r2 in
  if v1 = v2 then Alcotest.fail "split streams should diverge"

(* ------------------------------------------------------------------ *)
(* Radix *)

let test_radix_basic () =
  let r = Radix.create () in
  Radix.insert r 0 "a";
  Radix.insert r 63 "b";
  Radix.insert r 64 "c";
  Radix.insert r 1_000_000 "d";
  Alcotest.(check (option string)) "find 0" (Some "a") (Radix.find r 0);
  Alcotest.(check (option string)) "find 63" (Some "b") (Radix.find r 63);
  Alcotest.(check (option string)) "find 64" (Some "c") (Radix.find r 64);
  Alcotest.(check (option string)) "find big" (Some "d") (Radix.find r 1_000_000);
  Alcotest.(check (option string)) "absent" None (Radix.find r 5);
  Alcotest.(check int) "length" 4 (Radix.length r)

let test_radix_overwrite () =
  let r = Radix.create () in
  Radix.insert r 10 "x";
  Radix.insert r 10 "y";
  Alcotest.(check (option string)) "overwritten" (Some "y") (Radix.find r 10);
  Alcotest.(check int) "length stays 1" 1 (Radix.length r)

let test_radix_remove () =
  let r = Radix.create () in
  Radix.insert r 100 1;
  Radix.remove r 100;
  Alcotest.(check (option int)) "removed" None (Radix.find r 100);
  Alcotest.(check int) "length" 0 (Radix.length r);
  (* removing a missing key is a no-op *)
  Radix.remove r 100;
  Radix.remove r 424242

let test_radix_iter_order () =
  let r = Radix.create () in
  let keys = [ 512; 3; 70; 4095; 0; 100_000 ] in
  List.iter (fun k -> Radix.insert r k k) keys;
  let seen = ref [] in
  Radix.iter r (fun k v ->
      Alcotest.(check int) "key = value" k v;
      seen := k :: !seen);
  Alcotest.(check (list int)) "in increasing order" (List.sort compare keys) (List.rev !seen)

let test_radix_max_key () =
  let r = Radix.create () in
  Alcotest.(check (option int)) "empty" None (Radix.max_key r);
  Radix.insert r 77 ();
  Radix.insert r 7777 ();
  Alcotest.(check (option int)) "max" (Some 7777) (Radix.max_key r)

(* A tree that never held a key has no node: every query and walk must
   answer from the empty root, and a cleared tree starts over from it. *)
let test_radix_empty () =
  let r : int Radix.t = Radix.create () in
  Alcotest.(check (option int)) "find" None (Radix.find r 0);
  Alcotest.(check (option int)) "find big" None (Radix.find r 1_000_000);
  Alcotest.(check bool) "mem" false (Radix.mem r 63);
  Radix.remove r 0;
  Radix.remove r 424242;
  Radix.iter r (fun k _ -> Alcotest.failf "iter visited %d" k);
  Alcotest.(check int) "fold" 0 (Radix.fold r 0 (fun n _ _ -> n + 1));
  Alcotest.(check (option int)) "max_key" None (Radix.max_key r);
  Alcotest.(check int) "length" 0 (Radix.length r)

let test_radix_insert_after_clear () =
  let r = Radix.create () in
  List.iter (fun k -> Radix.insert r k (k * 2)) [ 5; 4096; 300_000 ];
  Radix.clear r;
  Alcotest.(check int) "cleared" 0 (Radix.length r);
  Alcotest.(check (option int)) "gone" None (Radix.find r 4096);
  Alcotest.(check (option int)) "max_key cleared" None (Radix.max_key r);
  Radix.insert r 70 1;
  Radix.insert r 2 2;
  Alcotest.(check (option int)) "find 70" (Some 1) (Radix.find r 70);
  Alcotest.(check (option int)) "find 2" (Some 2) (Radix.find r 2);
  Alcotest.(check (option int)) "old key stays gone" None (Radix.find r 300_000);
  Alcotest.(check (list int))
    "keys" [ 2; 70 ]
    (List.rev (Radix.fold r [] (fun acc k _ -> k :: acc)));
  Alcotest.(check int) "length" 2 (Radix.length r)

let prop_radix_model =
  QCheck.Test.make ~name:"radix agrees with Hashtbl model" ~count:200
    QCheck.(list (pair (int_bound 100_000) (int_bound 1000)))
    (fun ops ->
      let r = Radix.create () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (k, v) ->
          if v mod 5 = 0 then begin
            Radix.remove r k;
            Hashtbl.remove model k
          end
          else begin
            Radix.insert r k v;
            Hashtbl.replace model k v
          end)
        ops;
      Hashtbl.fold (fun k v acc -> acc && Radix.find r k = Some v) model true
      && Radix.length r = Hashtbl.length model)

(* ------------------------------------------------------------------ *)
(* Htbl *)

let test_htbl_basic () =
  let h = Htbl.create_string () in
  Htbl.replace h "foo" 1;
  Htbl.replace h "bar" 2;
  Alcotest.(check (option int)) "foo" (Some 1) (Htbl.find h "foo");
  Alcotest.(check (option int)) "bar" (Some 2) (Htbl.find h "bar");
  Alcotest.(check (option int)) "baz" None (Htbl.find h "baz");
  Htbl.replace h "foo" 3;
  Alcotest.(check (option int)) "overwrite" (Some 3) (Htbl.find h "foo");
  Alcotest.(check int) "length" 2 (Htbl.length h)

let test_htbl_add_if_absent () =
  let h = Htbl.create_string () in
  Alcotest.(check bool) "first insert" true (Htbl.add_if_absent h "k" 1);
  Alcotest.(check bool) "duplicate refused" false (Htbl.add_if_absent h "k" 2);
  Alcotest.(check (option int)) "original kept" (Some 1) (Htbl.find h "k")

let test_htbl_remove () =
  let h = Htbl.create_string () in
  Htbl.replace h "x" 1;
  Alcotest.(check bool) "removed" true (Htbl.remove h "x");
  Alcotest.(check bool) "already gone" false (Htbl.remove h "x");
  Alcotest.(check int) "empty" 0 (Htbl.length h)

let test_htbl_resize_preserves () =
  let h = Htbl.create_string ~initial_size:2 () in
  let n = 1000 in
  for i = 1 to n do
    Htbl.replace h (string_of_int i) i
  done;
  Alcotest.(check int) "all present" n (Htbl.length h);
  if Htbl.resize_count h = 0 then Alcotest.fail "expected at least one resize";
  for i = 1 to n do
    Alcotest.(check (option int)) "lookup" (Some i) (Htbl.find h (string_of_int i))
  done

let test_htbl_stripe_stable () =
  let h = Htbl.create_string ~initial_size:2 () in
  let stripe_before = Htbl.stripe_of_key h "name" in
  for i = 1 to 1000 do
    Htbl.replace h (string_of_int i) i
  done;
  Alcotest.(check int) "stripe survives resizes" stripe_before (Htbl.stripe_of_key h "name")

let prop_htbl_model =
  QCheck.Test.make ~name:"htbl agrees with Hashtbl model" ~count:200
    QCheck.(list (pair (string_of_size (Gen.int_range 1 8)) small_int))
    (fun ops ->
      let h = Htbl.create_string () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (k, v) ->
          if v mod 7 = 0 then begin
            ignore (Htbl.remove h k);
            Hashtbl.remove model k
          end
          else begin
            Htbl.replace h k v;
            Hashtbl.replace model k v
          end)
        ops;
      Hashtbl.fold (fun k v acc -> acc && Htbl.find h k = Some v) model true
      && Htbl.length h = Hashtbl.length model)

(* ------------------------------------------------------------------ *)
(* Extent allocator *)

let test_alloc_basic () =
  let a = Extent_alloc.create ~start:0 ~len:100 in
  let p1 = Extent_alloc.alloc a 10 in
  let p2 = Extent_alloc.alloc a 10 in
  if p1 = p2 then Alcotest.fail "overlapping allocations";
  Alcotest.(check int) "free count" 80 (Extent_alloc.free_units a);
  Extent_alloc.free a p1 10;
  Alcotest.(check int) "after free" 90 (Extent_alloc.free_units a)

let test_alloc_exhaustion () =
  let a = Extent_alloc.create ~start:0 ~len:10 in
  ignore (Extent_alloc.alloc a 10);
  Alcotest.check_raises "out of space" Extent_alloc.Out_of_space (fun () ->
      ignore (Extent_alloc.alloc a 1))

let test_alloc_coalesce () =
  let a = Extent_alloc.create ~start:0 ~len:30 in
  let p = Extent_alloc.alloc a 30 in
  Alcotest.(check int) "p" 0 p;
  Extent_alloc.free a 0 10;
  Extent_alloc.free a 20 10;
  Alcotest.(check int) "two fragments" 2 (Extent_alloc.fragments a);
  Extent_alloc.free a 10 10;
  Alcotest.(check int) "coalesced" 1 (Extent_alloc.fragments a);
  Alcotest.(check int) "alloc all again" 0 (Extent_alloc.alloc a 30)

let test_alloc_double_free () =
  let a = Extent_alloc.create ~start:0 ~len:10 in
  let p = Extent_alloc.alloc a 5 in
  Extent_alloc.free a p 5;
  (try
     Extent_alloc.free a p 5;
     Alcotest.fail "double free not detected"
   with Invalid_argument _ -> ())

let test_alloc_at () =
  let a = Extent_alloc.create ~start:0 ~len:100 in
  Extent_alloc.alloc_at a 50 10;
  Alcotest.(check bool) "mid not free" false (Extent_alloc.is_free a 55 1);
  Alcotest.(check bool) "before free" true (Extent_alloc.is_free a 0 50);
  Alcotest.check_raises "overlap refused" Extent_alloc.Out_of_space (fun () ->
      Extent_alloc.alloc_at a 55 10)

let prop_alloc_no_overlap =
  QCheck.Test.make ~name:"allocations never overlap and free count balances" ~count:100
    QCheck.(list (int_range 1 20))
    (fun sizes ->
      let a = Extent_alloc.create ~start:0 ~len:10_000 in
      let held = ref [] in
      List.iter
        (fun size ->
          match Extent_alloc.alloc a size with
          | start ->
            (* check no overlap with anything held *)
            List.iter
              (fun (s, l) ->
                if start < s + l && s < start + size then failwith "overlap")
              !held;
            held := (start, size) :: !held
          | exception Extent_alloc.Out_of_space -> ())
        sizes;
      let used = List.fold_left (fun acc (_, l) -> acc + l) 0 !held in
      Extent_alloc.used_units a = used)

(* ------------------------------------------------------------------ *)
(* Crc32 *)

let test_crc32_known () =
  (* standard test vector *)
  Alcotest.(check int) "123456789" 0xCBF43926 (Crc32.of_string "123456789")

let test_crc32_detects_change () =
  let crc1 = Crc32.of_string "hello world" in
  let crc2 = Crc32.of_string "hello worle" in
  if crc1 = crc2 then Alcotest.fail "crc collision on single-byte change"

let test_crc32_sub_range () =
  let b = Bytes.of_string "xxhelloxx" in
  Alcotest.(check int) "sub range" (Crc32.of_string "hello") (Crc32.of_bytes ~pos:2 ~len:5 b)

let test_crc32_bad_range () =
  let b = Bytes.of_string "xxhelloxx" in
  let n = Bytes.length b in
  let raises what f =
    Alcotest.check_raises what (Invalid_argument "Crc32.of_bytes") (fun () -> ignore (f ()))
  in
  raises "negative len" (fun () -> Crc32.of_bytes ~pos:0 ~len:(-1) b);
  raises "negative pos" (fun () -> Crc32.of_bytes ~pos:(-1) ~len:2 b);
  raises "pos past the end" (fun () -> Crc32.of_bytes ~pos:(n + 1) b);
  raises "range past the end" (fun () -> Crc32.of_bytes ~pos:2 ~len:(n - 1) b);
  Alcotest.(check int) "empty range at the end" 0 (Crc32.of_bytes ~pos:n ~len:0 b)

(* The definition, with no table: 8 shift/xor steps per byte. *)
let crc32_reference b ~pos ~len =
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    crc := !crc lxor Char.code (Bytes.get b i);
    for _ = 1 to 8 do
      crc := if !crc land 1 = 1 then 0xEDB88320 lxor (!crc lsr 1) else !crc lsr 1
    done
  done;
  !crc lxor 0xFFFFFFFF

let random_bytes r n = Bytes.init n (fun _ -> Char.chr (Rng.int r 256))

let test_crc32_alignment () =
  let b = random_bytes (Rng.create 19) 316 in
  for pos = 0 to 15 do
    for len = 0 to 300 do
      let want = crc32_reference b ~pos ~len in
      let got = Crc32.of_bytes ~pos ~len b in
      if got <> want then Alcotest.failf "pos %d len %d: %08x, want %08x" pos len got want
    done
  done

let test_crc32_pages () =
  let r = Rng.create 4096 in
  for page = 1 to 32 do
    let b = random_bytes r 4096 in
    List.iter
      (fun len ->
        Alcotest.(check int)
          (Printf.sprintf "page %d len %d" page len)
          (crc32_reference b ~pos:0 ~len) (Crc32.of_bytes ~len b))
      [ 4096; Trio_core.Layout.dnode_crc_off ]
  done

(* ------------------------------------------------------------------ *)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "zipf bounds" `Quick test_rng_zipf_bounds;
          Alcotest.test_case "zipf skew" `Quick test_rng_zipf_skew;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
        ] );
      ( "radix",
        [
          Alcotest.test_case "basic" `Quick test_radix_basic;
          Alcotest.test_case "overwrite" `Quick test_radix_overwrite;
          Alcotest.test_case "remove" `Quick test_radix_remove;
          Alcotest.test_case "iter order" `Quick test_radix_iter_order;
          Alcotest.test_case "max_key" `Quick test_radix_max_key;
          Alcotest.test_case "empty tree" `Quick test_radix_empty;
          Alcotest.test_case "insert after clear" `Quick test_radix_insert_after_clear;
          qc prop_radix_model;
        ] );
      ( "htbl",
        [
          Alcotest.test_case "basic" `Quick test_htbl_basic;
          Alcotest.test_case "add_if_absent" `Quick test_htbl_add_if_absent;
          Alcotest.test_case "remove" `Quick test_htbl_remove;
          Alcotest.test_case "resize" `Quick test_htbl_resize_preserves;
          Alcotest.test_case "stripe stability" `Quick test_htbl_stripe_stable;
          qc prop_htbl_model;
        ] );
      ( "extent_alloc",
        [
          Alcotest.test_case "basic" `Quick test_alloc_basic;
          Alcotest.test_case "exhaustion" `Quick test_alloc_exhaustion;
          Alcotest.test_case "coalesce" `Quick test_alloc_coalesce;
          Alcotest.test_case "double free" `Quick test_alloc_double_free;
          Alcotest.test_case "alloc_at" `Quick test_alloc_at;
          qc prop_alloc_no_overlap;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known vector" `Quick test_crc32_known;
          Alcotest.test_case "detects change" `Quick test_crc32_detects_change;
          Alcotest.test_case "sub range" `Quick test_crc32_sub_range;
          Alcotest.test_case "bad range raises" `Quick test_crc32_bad_range;
          Alcotest.test_case "every alignment and tail" `Quick test_crc32_alignment;
          Alcotest.test_case "random pages" `Quick test_crc32_pages;
        ] );
    ]
