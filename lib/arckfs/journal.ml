(* Per-CPU undo journal (paper §4.4, §4.5).

   Most ArckFS operations are made crash-consistent with the 16-byte
   atomic-update discipline of the core-state layout.  The few complex
   operations (rename) use this undo journal: the pre-images of every
   NVM range the operation will modify are logged and persisted before
   the first modification; on crash, uncommitted transactions are rolled
   back by replaying pre-images in reverse.

   One journal page per CPU removes cross-thread contention (the
   "per-CPU journal" design point the paper borrows from WineFS).

   Journal page format:
     [ count : u64 ]                      -- live entry count; 0 = idle
     entries: [ addr u64 | len u16 | data ... ] back to back. *)

module Sched = Trio_sim.Sched
module Pmem = Trio_nvm.Pmem
module Layout = Trio_core.Layout
module Mutation = Trio_core.Mutation

type t = {
  pmem : Pmem.t;
  actor : int;
  pages : int array; (* one journal page per CPU *)
  offsets : int array; (* current append offset per CPU (DRAM state) *)
  counts : int array;
}

let header_size = 8
let entry_header = 10

let create ~pmem ~actor ~pages =
  let n = Array.length pages in
  let t = { pmem; actor; pages = Array.copy pages; offsets = Array.make n header_size; counts = Array.make n 0 } in
  (* Journal pages start idle. *)
  Array.iter
    (fun pg ->
      Pmem.write_u64 pmem ~actor ~addr:(pg * Pmem.page_size) 0;
      Pmem.persist pmem ~addr:(pg * Pmem.page_size) ~len:8)
    pages;
  t

let cpu_slot t = Sched.current_cpu () mod Array.length t.pages

(* Begin a transaction on this CPU's journal. *)
let begin_tx t =
  let slot = cpu_slot t in
  t.offsets.(slot) <- header_size;
  t.counts.(slot) <- 0;
  slot

(* Log the current content of [addr, addr+len) as an undo record. *)
let log t slot ~addr ~len =
  let page_addr = t.pages.(slot) * Pmem.page_size in
  let off = t.offsets.(slot) in
  if off + entry_header + len > Pmem.page_size then invalid_arg "Journal.log: journal page full";
  let pre = Pmem.read t.pmem ~actor:t.actor ~addr ~len in
  let entry = Bytes.create (entry_header + len) in
  Layout.set_u64 entry 0 addr;
  Layout.set_u16 entry 8 len;
  Bytes.blit pre 0 entry entry_header len;
  Pmem.write t.pmem ~actor:t.actor ~addr:(page_addr + off) ~src:entry;
  Pmem.persist t.pmem ~addr:(page_addr + off) ~len:(entry_header + len);
  t.offsets.(slot) <- off + entry_header + len;
  t.counts.(slot) <- t.counts.(slot) + 1

(* Publish the logged entries to recovery: must be called (once) after
   the last [log] and before the first in-place update. *)
let seal t slot =
  let page_addr = t.pages.(slot) * Pmem.page_size in
  Pmem.write_u64 t.pmem ~actor:t.actor ~addr:page_addr t.counts.(slot);
  Pmem.persist t.pmem ~addr:page_addr ~len:8

(* Commit: the in-place updates are durable, discard the undo records.
   Under [Mutation.Reorder_commit] the header reset skips its fence: the
   commit is reordered after whatever the LibFS does next, so a crash
   can revert it and recovery rolls back a committed transaction. *)
let commit t slot =
  let page_addr = t.pages.(slot) * Pmem.page_size in
  Pmem.write_u64 t.pmem ~actor:t.actor ~addr:page_addr 0;
  if not (Mutation.active Reorder_commit) then Pmem.persist t.pmem ~addr:page_addr ~len:8;
  t.offsets.(slot) <- header_size;
  t.counts.(slot) <- 0

(* Recovery: roll back every uncommitted transaction by applying undo
   records newest-first.  Runs as the LibFS' registered crash-recovery
   program, before the controller re-verifies write-mapped files.

   Journal reads go through the ECC interface ({!Pmem.read_ecc}): a
   poisoned cacheline inside the log must not crash recovery.  A
   poisoned header means the live-entry count is untrustworthy — the
   slot is treated as idle (entries were pre-images; losing them leaves
   the in-place state, which the verifier then checks).  A poisoned
   record truncates the replay at the damaged entry: undo records are
   applied newest-first, and everything logged *before* the damaged
   record describes state the operation had not yet overwritten. *)
let recover t =
  Array.iteri
    (fun slot pg ->
      let page_addr = pg * Pmem.page_size in
      let count =
        match Pmem.read_ecc t.pmem ~actor:t.actor ~addr:page_addr ~len:header_size with
        | Pmem.Ecc.Ok b -> Layout.get_u64 b 0
        | Pmem.Ecc.Poisoned _ -> 0
      in
      if count > 0 && count < Pmem.page_size then begin
        (* Collect entries in order. *)
        let entries = ref [] in
        let off = ref header_size in
        let read_ecc ~addr ~len =
          match Pmem.read_ecc t.pmem ~actor:t.actor ~addr ~len with
          | Pmem.Ecc.Ok b -> b
          | Pmem.Ecc.Poisoned _ -> raise Exit (* truncate at the damaged record *)
        in
        (try
           for _ = 1 to count do
             let hdr = read_ecc ~addr:(page_addr + !off) ~len:entry_header in
             let addr = Layout.get_u64 hdr 0 in
             let len = Layout.get_u16 hdr 8 in
             if len = 0 || !off + entry_header + len > Pmem.page_size then raise Exit;
             let data = read_ecc ~addr:(page_addr + !off + entry_header) ~len in
             entries := (addr, data) :: !entries;
             off := !off + entry_header + len
           done
         with Exit -> ());
        (* newest-first: !entries is already reversed *)
        List.iter
          (fun (addr, data) ->
            Pmem.write t.pmem ~actor:t.actor ~addr ~src:data;
            Pmem.persist t.pmem ~addr ~len:(Bytes.length data))
          !entries;
        Pmem.write_u64 t.pmem ~actor:t.actor ~addr:page_addr 0;
        Pmem.persist t.pmem ~addr:page_addr ~len:8
      end;
      t.offsets.(slot) <- header_size;
      t.counts.(slot) <- 0)
    t.pages
