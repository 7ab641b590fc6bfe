(* CRC-32 (IEEE 802.3 polynomial, reflected).  Seals Dirindex nodes,
   snapshot root slots and payload streams, controller checkpoints, and
   WAL and SSTable records, so that a torn write decodes as an error.

   Slicing-by-8, for host cost alone: the CRC charges no virtual time,
   but one lookup per byte made it the simulator's largest host cost.
   [table.(k * 256 + n)] is the register after byte [n] and [k] zero
   bytes, so one step folds 8 input bytes with eight lookups. *)

let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for n = 256 to (8 * 256) - 1 do
    let c = t.(n - 256) in
    t.(n) <- (c lsr 8) lxor t.(c land 0xff)
  done;
  t

let of_bytes ?(pos = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Crc32.of_bytes";
  let crc = ref 0xFFFFFFFF and i = ref pos in
  let stop = pos + len in
  let stop8 = stop - (len land 7) in
  while !i < stop8 do
    let lo = Int32.to_int (Bytes.get_int32_le b !i) lxor !crc in
    let hi = Int32.to_int (Bytes.get_int32_le b (!i + 4)) in
    crc :=
      Array.unsafe_get table (1792 + (lo land 0xff))
      lxor Array.unsafe_get table (1536 + ((lo lsr 8) land 0xff))
      lxor Array.unsafe_get table (1280 + ((lo lsr 16) land 0xff))
      lxor Array.unsafe_get table (1024 + ((lo lsr 24) land 0xff))
      lxor Array.unsafe_get table (768 + (hi land 0xff))
      lxor Array.unsafe_get table (512 + ((hi lsr 8) land 0xff))
      lxor Array.unsafe_get table (256 + ((hi lsr 16) land 0xff))
      lxor Array.unsafe_get table ((hi lsr 24) land 0xff);
    i := !i + 8
  done;
  while !i < stop do
    crc :=
      Array.unsafe_get table ((!crc lxor Char.code (Bytes.unsafe_get b !i)) land 0xff)
      lxor (!crc lsr 8);
    incr i
  done;
  !crc lxor 0xFFFFFFFF

let of_string ?(pos = 0) ?len s =
  of_bytes ~pos ?len (Bytes.unsafe_of_string s)
