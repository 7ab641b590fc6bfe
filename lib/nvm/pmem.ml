(* Simulated byte-addressable persistent memory.

   The device is a sparse array of 4 KiB pages spread over NUMA nodes.
   Every access:

   - is permission-checked against the MMU hook (this is the hardware
     enforcement Trio relies on: a LibFS can only touch mapped pages);
   - charges virtual time through the owning node's bandwidth model,
     with remote-access penalties when the accessing fiber's CPU is on
     a different node.

   Persistence model: stores update the volatile image; the previous
   content of each touched 64-byte line is saved until the line is
   flushed ([persist]).  Those saved pre-images are the one record of
   unflushed lines: a flush drops them, so nothing outlives the fence.
   [crash_select] keeps or reverts each unflushed line as its predicate
   says, and [crash] is the all-revert (or, with an RNG, coin-flip)
   case — exactly the states a real PM device could expose after power
   failure, which is what the crash-consistency tests explore.

   Pages are tagged [Meta] or [Data]; when the device is created with
   [store_data:false], data-page contents are not materialized (reads
   return zeros) but their access costs are still charged.  This lets the
   224-thread fio benchmarks run at realistic scale in bounded memory;
   metadata always operates on real bytes. *)

module Sched = Trio_sim.Sched
module Rng = Trio_util.Rng

let page_size = 4096
let line_size = 64
let lines_per_page = page_size / line_size

type kind = Meta | Data

(* Pre-images are tracked in a fixed array indexed by line number, so
   dirtying, clearing and crash-reverting a line are all O(1).  The
   array is the only record of a page's unflushed lines; it is
   allocated lazily on first dirtying (clean pages stay small), and
   [no_preimages] is the shared empty placeholder. *)
type page = {
  mutable content : Bytes.t option; (* None = all zeros / unmaterialized *)
  mutable pre : Bytes.t option array; (* line index -> pre-image, 64 slots *)
  mutable ndirty : int; (* count of Some slots in [pre] *)
  mutable kind : kind;
}

let no_preimages : Bytes.t option array = [||]

exception Mmu_fault of { actor : int; page : int; write : bool }

(* Raised by write-injection (see [fail_after_writes]): models the
   process dying at an arbitrary store, for crash-consistency testing. *)
exception Crash_point

(* Typed rejection of an access that falls outside the device (or the
   caller's buffer): callers translate this to EINVAL instead of letting
   an untyped [Invalid_argument] escape. *)
exception Bounds of { what : string; addr : int; len : int }

(* A media error surfaced by the ECC machinery on a load.  [transient]
   faults succeed on retry (the media-fault injector models soft read
   errors); non-transient faults mean the range overlaps latently
   poisoned cachelines and will keep failing until the lines are
   rewritten (scrub repair or an overwrite). *)
exception Media_fault of { addr : int; len : int; transient : bool }

(* Aggregate media-fault counters, exposed for observability. *)
type fault_stats = {
  transient_faults : int; (* reads that failed with a soft error *)
  stuck_stores : int; (* stores whose cells latched wrong (lines poisoned) *)
  poison_read_hits : int; (* reads that hit a poisoned line *)
  poison_repaired : int; (* poisoned lines healed by a rewrite *)
  poisoned_now : int; (* currently poisoned lines, device-wide *)
}

(* One entry of the ordered persistence event log (see [set_recording]):
   everything that changes durable state, in program order.  The crash-
   state exploration engine replays a prefix of this log to reconstruct
   the exact device image — including which cachelines were unflushed —
   at any store boundary. *)
type event =
  | Ev_store of { actor : int; addr : int; data : Bytes.t } (* post-image *)
  | Ev_lines of { actor : int; runs : (int * Bytes.t) list }
      (* one [write_lines] store: (addr, post-image) of each run of
         changed lines, ascending; [] when nothing differed *)
  | Ev_persist of (int * int) list (* ranges drained by one fence *)
  | Ev_discard of int (* page freed back to the device *)

(* One NUMA node's bandwidth domain: a single active-accessor count with
   separate read/write aggregate-bandwidth curves. *)
type node = {
  mutable active : int;
  mutable peak_active : int;
  mutable bytes_read : float;
  mutable bytes_written : float;
}

type t = {
  sched : Sched.t;
  topo : Numa.t;
  profile : Perf.profile;
  pages_per_node : int;
  store_data : bool;
  pages : (int, page) Hashtbl.t;
  nodes : node array;
  mutable perm_check : actor:int -> page:int -> write:bool -> bool;
  mutable store_hook : int -> unit;
      (* called with the page number of every content mutation — stores
         (any actor), poison, crash reverts, discards.  The MMU's dirty
         write-set hangs off this: anything that can change a page's
         bytes must invalidate incremental-verification snapshots. *)
  mutable persist_count : int;
  mutable crash_count : int;
  mutable mmu_checks : int;
  mutable dirty_total : int; (* unflushed lines, device-wide (O(1) [dirty_lines]) *)
  (* countdown of non-kernel stores until a Crash_point is raised;
     negative = disabled *)
  mutable fail_writes_after : int;
  (* ordered store/persist event log (newest-first; see [set_recording]) *)
  mutable recording : bool;
  mutable events_rev : event list;
  mutable event_count : int;
  mutable user_store_count : int; (* recorded stores by non-kernel actors *)
  mutable kernel_reads : int; (* device reads by the kernel actor ... *)
  mutable kernel_read_bytes : int; (* ... and the bytes they took *)
  (* --- media-fault plane (see "Media faults" below) --- *)
  poison : (int * int, unit) Hashtbl.t; (* (page, line) -> poisoned *)
  mutable fault_rng : Rng.t option; (* None = probabilistic injection off *)
  mutable transient_read_p : float;
  mutable stuck_store_p : float;
  mutable transient_faults : int;
  mutable stuck_stores : int;
  mutable poison_read_hits : int;
  mutable poison_repaired : int;
}

let kernel_actor = 0

let create ~sched ~topo ~profile ~pages_per_node ~store_data () =
  if pages_per_node <= 0 then invalid_arg "Pmem.create";
  {
    sched;
    topo;
    profile;
    pages_per_node;
    store_data;
    pages = Hashtbl.create 4096;
    nodes =
      Array.init (Numa.nodes topo) (fun _ ->
          { active = 0; peak_active = 0; bytes_read = 0.0; bytes_written = 0.0 });
    perm_check = (fun ~actor:_ ~page:_ ~write:_ -> true);
    store_hook = ignore;
    persist_count = 0;
    crash_count = 0;
    mmu_checks = 0;
    dirty_total = 0;
    fail_writes_after = -1;
    recording = false;
    events_rev = [];
    event_count = 0;
    user_store_count = 0;
    kernel_reads = 0;
    kernel_read_bytes = 0;
    poison = Hashtbl.create 16;
    fault_rng = None;
    transient_read_p = 0.0;
    stuck_store_p = 0.0;
    transient_faults = 0;
    stuck_stores = 0;
    poison_read_hits = 0;
    poison_repaired = 0;
  }

let sched t = t.sched
let topo t = t.topo
let total_pages t = t.pages_per_node * Numa.nodes t.topo
let node_of_page t pg = pg / t.pages_per_node
let pages_per_node t = t.pages_per_node
let set_perm_check t f = t.perm_check <- f
let set_store_hook t f = t.store_hook <- f
let persist_count t = t.persist_count

(* The controller's share of the device read traffic: (reads, bytes)
   taken by the kernel actor — verification, map walks, checkpoints. *)
let kernel_read_stats t = (t.kernel_reads, t.kernel_read_bytes)

let note_read t ~actor ~len =
  if actor = kernel_actor then begin
    t.kernel_reads <- t.kernel_reads + 1;
    t.kernel_read_bytes <- t.kernel_read_bytes + len
  end

(* ------------------------------------------------------------------ *)
(* Event recording

   When recording is on, every store, fence and page discard is appended
   to an ordered log.  The log plus {!Replay} reconstructs the device
   image (content + unflushed-line set) at any prefix, which is what
   lets the crash-state explorer enumerate crash points without
   snapshotting the device at every store.

   Recording requires [store_data:true]: a device that skips
   materializing data pages would diverge from its own log. *)

let set_recording t on =
  if on && not t.store_data then
    invalid_arg "Pmem.set_recording: requires a store_data:true device";
  t.recording <- on;
  if on then begin
    t.events_rev <- [];
    t.event_count <- 0;
    t.user_store_count <- 0
  end

let recorded_events t = List.rev t.events_rev
let recorded_event_count t = t.event_count
let recorded_user_stores t = t.user_store_count

(* A store by a non-kernel actor: each is exactly one crash point
   ({!fail_after_writes}), which is how the explorer maps a crash index
   to a log prefix. *)
let is_user_store = function
  | Ev_store { actor; _ } | Ev_lines { actor; _ } -> actor <> kernel_actor
  | Ev_persist _ | Ev_discard _ -> false

let record_event t ev =
  t.events_rev <- ev :: t.events_rev;
  t.event_count <- t.event_count + 1;
  if is_user_store ev then t.user_store_count <- t.user_store_count + 1

let check_perm t ~actor ~page ~write =
  t.mmu_checks <- t.mmu_checks + 1;
  if actor <> kernel_actor && not (t.perm_check ~actor ~page ~write) then
    raise (Mmu_fault { actor; page; write })

let get_page t pg =
  match Hashtbl.find_opt t.pages pg with
  | Some p -> p
  | None ->
    let p = { content = None; pre = no_preimages; ndirty = 0; kind = Meta } in
    Hashtbl.add t.pages pg p;
    p

let set_kind t pg kind = (get_page t pg).kind <- kind

let kind_of t pg = match Hashtbl.find_opt t.pages pg with Some p -> p.kind | None -> Meta

(* Drop a freed page's storage (and any pending pre-images). *)
let discard_page t pg =
  (match Hashtbl.find_opt t.pages pg with
  | Some p -> t.dirty_total <- t.dirty_total - p.ndirty
  | None -> ());
  Hashtbl.remove t.pages pg;
  t.store_hook pg;
  if t.recording then record_event t (Ev_discard pg)

(* ------------------------------------------------------------------ *)
(* Cost accounting *)

let node_access t ~node ~write ~bytes =
  let n = t.nodes.(node) in
  n.active <- n.active + 1;
  if n.active > n.peak_active then n.peak_active <- n.active;
  let k = n.active in
  let cpu_node = Numa.node_of_cpu t.topo (Sched.current_cpu ()) in
  let remote = cpu_node <> node in
  let factor =
    if not remote then 1.0
    else if write then t.profile.Perf.remote_write_factor
    else t.profile.Perf.remote_read_factor
  in
  let bw =
    (if write then Perf.write_bandwidth t.profile k else Perf.read_bandwidth t.profile k)
    /. factor
  in
  let latency =
    (if write then t.profile.Perf.write_latency else t.profile.Perf.read_latency) *. factor
  in
  if write then n.bytes_written <- n.bytes_written +. float_of_int bytes
  else n.bytes_read <- n.bytes_read +. float_of_int bytes;
  let share = bw /. float_of_int k in
  Sched.delay (latency +. (float_of_int bytes /. share));
  n.active <- n.active - 1

(* Group a byte range into per-node runs so that latency is charged once
   per node touched, and bandwidth per byte. *)
let iter_node_runs t addr len f =
  if len < 0 || addr < 0 then invalid_arg "Pmem: bad range";
  let node_bytes = t.pages_per_node * page_size in
  let pos = ref addr in
  let remaining = ref len in
  while !remaining > 0 do
    let node = !pos / node_bytes in
    let node_end = (node + 1) * node_bytes in
    let chunk = min !remaining (node_end - !pos) in
    f ~node ~addr:!pos ~len:chunk;
    pos := !pos + chunk;
    remaining := !remaining - chunk
  done

(* ------------------------------------------------------------------ *)
(* Raw (cost-free) byte plumbing *)

let materialize p =
  match p.content with
  | Some b -> b
  | None ->
    let b = Bytes.make page_size '\000' in
    p.content <- Some b;
    b

let save_preimages t p ~off ~len =
  let first_line = off / line_size and last_line = (off + len - 1) / line_size in
  if p.pre == no_preimages then p.pre <- Array.make lines_per_page None;
  for line = first_line to last_line do
    match p.pre.(line) with
    | Some _ -> ()
    | None ->
      let lo = line * line_size in
      let pre =
        match p.content with
        | Some b -> Bytes.sub b lo line_size
        | None -> Bytes.make line_size '\000'
      in
      p.pre.(line) <- Some pre;
      p.ndirty <- p.ndirty + 1;
      t.dirty_total <- t.dirty_total + 1
  done

let blit_to_page t pg ~off ~src ~src_pos ~len =
  let p = get_page t pg in
  if p.kind = Data && not t.store_data then ()
  else begin
    save_preimages t p ~off ~len;
    let b = materialize p in
    Bytes.blit src src_pos b off len
  end

let blit_from_page t pg ~off ~dst ~dst_pos ~len =
  match Hashtbl.find_opt t.pages pg with
  | Some { content = Some b; _ } -> Bytes.blit b off dst dst_pos len
  | _ -> Bytes.fill dst dst_pos len '\000'

let iter_pages addr len f =
  let pos = ref addr and remaining = ref len in
  while !remaining > 0 do
    let pg = !pos / page_size in
    let off = !pos mod page_size in
    let chunk = min !remaining (page_size - off) in
    f ~pg ~off ~chunk ~done_:(len - !remaining);
    pos := !pos + chunk;
    remaining := !remaining - chunk
  done

(* ------------------------------------------------------------------ *)
(* Media faults

   An injectable model of the ways real PM media fails:

   - latent poison: a cacheline whose ECC is bad.  Loads overlapping it
     fail (non-transient {!Media_fault} for user actors; an explicit
     {!read_ecc} reports the poisoned addresses without raising).
     Poison is media state: it survives crashes and page discards, and
     is healed only by rewriting the line (scrub repair, or any store
     that covers it).
   - transient read errors: with probability [transient_read_p] a user
     load raises a transient {!Media_fault}; the access succeeds on
     retry.
   - stuck-at stores: with probability [stuck_store_p] a user store's
     cells latch wrong — the store appears to complete but every line
     it touched is left poisoned, to be found by the patrol scrubber or
     the next read.

   All draws come from one seeded {!Rng.t}, so under the deterministic
   scheduler a given seed reproduces the exact same fault sequence.
   Kernel-actor accesses never draw faults and read through poison:
   controller verification and scrub repair must stay reliable (the
   kernel consults {!read_ecc}/{!poisoned_lines} to *detect* poison). *)

let iter_lines addr len f =
  if len > 0 then
    for gl = addr / line_size to (addr + len - 1) / line_size do
      f ~page:(gl / lines_per_page) ~line:(gl mod lines_per_page)
    done

let set_fault_injection t ~seed ?(transient_read_p = 0.0) ?(stuck_store_p = 0.0) () =
  if transient_read_p < 0.0 || transient_read_p > 1.0 || stuck_store_p < 0.0 || stuck_store_p > 1.0
  then invalid_arg "Pmem.set_fault_injection: probabilities must be in [0,1]";
  t.fault_rng <- Some (Rng.create seed);
  t.transient_read_p <- transient_read_p;
  t.stuck_store_p <- stuck_store_p

let clear_fault_injection t =
  t.fault_rng <- None;
  t.transient_read_p <- 0.0;
  t.stuck_store_p <- 0.0

let clear_poison t = Hashtbl.reset t.poison

(* Poisoning a line loses its data: the content is overwritten with a
   recognizable garbage pattern (directly, below pre-image tracking —
   media damage is not a store).  Repair therefore needs a good copy
   from somewhere else (a controller checkpoint, the shadow inode, or
   the caller rewriting the range). *)
let poison_line t ~page ~line =
  Hashtbl.replace t.poison (page, line) ();
  t.store_hook page;
  match Hashtbl.find_opt t.pages page with
  | Some { content = Some b; _ } -> Bytes.fill b (line * line_size) line_size '\222'
  | _ -> ()

let is_poisoned t ~page ~line = Hashtbl.mem t.poison (page, line)
let poisoned_count t = Hashtbl.length t.poison

let inject_poison t ~addr ~len =
  iter_lines addr len (fun ~page ~line -> poison_line t ~page ~line)

let poisoned_lines t = Hashtbl.fold (fun k () acc -> k :: acc) t.poison [] |> List.sort compare

let page_poisoned_lines t pg =
  Hashtbl.fold (fun (p, l) () acc -> if p = pg then l :: acc else acc) t.poison []
  |> List.sort compare

let fault_stats t =
  {
    transient_faults = t.transient_faults;
    stuck_stores = t.stuck_stores;
    poison_read_hits = t.poison_read_hits;
    poison_repaired = t.poison_repaired;
    poisoned_now = Hashtbl.length t.poison;
  }

(* Line-start byte addresses of poisoned lines overlapping [addr,len). *)
let poisoned_in_range t ~addr ~len =
  if Hashtbl.length t.poison = 0 then []
  else begin
    let acc = ref [] in
    iter_lines addr len (fun ~page ~line ->
        if Hashtbl.mem t.poison (page, line) then
          acc := ((page * page_size) + (line * line_size)) :: !acc);
    List.rev !acc
  end

let fault_on_read t ~actor ~addr ~len =
  if actor <> kernel_actor then begin
    (match t.fault_rng with
    | Some r when t.transient_read_p > 0.0 && Rng.float r 1.0 < t.transient_read_p ->
      t.transient_faults <- t.transient_faults + 1;
      raise (Media_fault { addr; len; transient = true })
    | _ -> ());
    if poisoned_in_range t ~addr ~len <> [] then begin
      t.poison_read_hits <- t.poison_read_hits + 1;
      raise (Media_fault { addr; len; transient = false })
    end
  end

(* A store that touches a poisoned line rewrites its cells and heals it
   — unless this very store's cells latch wrong, in which case every
   touched line ends up poisoned.  Kernel stores never stick, so scrub
   repair writes are reliable.  [stuck_store] draws once per store;
   [line_stored] applies the outcome to each line the store wrote. *)
let stuck_store t ~actor =
  let stuck =
    actor <> kernel_actor
    &&
    match t.fault_rng with
    | Some r -> t.stuck_store_p > 0.0 && Rng.float r 1.0 < t.stuck_store_p
    | None -> false
  in
  if stuck then t.stuck_stores <- t.stuck_stores + 1;
  stuck

let line_stored t ~stuck ~page ~line =
  if stuck then poison_line t ~page ~line
  else if Hashtbl.mem t.poison (page, line) then begin
    Hashtbl.remove t.poison (page, line);
    t.poison_repaired <- t.poison_repaired + 1
  end

let fault_on_write t ~actor ~addr ~len =
  let stuck = stuck_store t ~actor in
  if stuck || Hashtbl.length t.poison > 0 then
    iter_lines addr len (fun ~page ~line -> line_stored t ~stuck ~page ~line)

(* ------------------------------------------------------------------ *)
(* Public accessors: MMU check + cost + data movement *)

let check_bounds t ~what ~addr ~len =
  if addr < 0 || len < 0 || addr + len > total_pages t * page_size then
    raise (Bounds { what; addr; len })

let check_range t ~actor ~addr ~len ~write =
  iter_pages addr len (fun ~pg ~off:_ ~chunk:_ ~done_:_ ->
      check_perm t ~actor ~page:pg ~write)

(* Zero-copy read: the caller supplies the destination buffer, so the
   steady-state data path performs no per-call allocation. *)
let read_into t ~actor ~addr ~dst ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length dst then
    raise (Bounds { what = "Pmem.read_into: buffer"; addr = pos; len });
  check_bounds t ~what:"Pmem.read_into" ~addr ~len;
  check_range t ~actor ~addr ~len ~write:false;
  fault_on_read t ~actor ~addr ~len;
  note_read t ~actor ~len;
  iter_node_runs t addr len (fun ~node ~addr:_ ~len -> node_access t ~node ~write:false ~bytes:len);
  iter_pages addr len (fun ~pg ~off ~chunk ~done_ ->
      blit_from_page t pg ~off ~dst ~dst_pos:(pos + done_) ~len:chunk)

let read t ~actor ~addr ~len =
  let dst = Bytes.create len in
  read_into t ~actor ~addr ~dst ~pos:0 ~len;
  dst

(* ECC-style read: instead of raising on poison, reports the poisoned
   line addresses so careful readers (patrol scrub, journal recovery)
   can decide what to salvage.  Never draws transient faults — this is
   the deliberate "inspect the media" path, not the hot data path. *)
module Ecc = struct
  type read = Ok of Bytes.t | Poisoned of int list
end

let read_ecc t ~actor ~addr ~len : Ecc.read =
  check_bounds t ~what:"Pmem.read_ecc" ~addr ~len;
  check_range t ~actor ~addr ~len ~write:false;
  match poisoned_in_range t ~addr ~len with
  | [] ->
    let dst = Bytes.create len in
    note_read t ~actor ~len;
    iter_node_runs t addr len (fun ~node ~addr:_ ~len ->
        node_access t ~node ~write:false ~bytes:len);
    iter_pages addr len (fun ~pg ~off ~chunk ~done_ ->
        blit_from_page t pg ~off ~dst ~dst_pos:done_ ~len:chunk);
    Ecc.Ok dst
  | bad ->
    t.poison_read_hits <- t.poison_read_hits + 1;
    Ecc.Poisoned bad

(* Arm the crash injector: the [n]th subsequent store by a non-kernel
   actor raises {!Crash_point} instead of executing — the process dies
   mid-operation at an arbitrary store boundary. *)
let fail_after_writes t n = t.fail_writes_after <- n

let maybe_crash_point t ~actor =
  if actor <> kernel_actor && t.fail_writes_after >= 0 then begin
    if t.fail_writes_after = 0 then begin
      t.fail_writes_after <- -1;
      raise Crash_point
    end;
    t.fail_writes_after <- t.fail_writes_after - 1
  end

(* Zero-copy write from a caller-owned buffer region. *)
let write_from t ~actor ~addr ~src ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length src then
    raise (Bounds { what = "Pmem.write_from: buffer"; addr = pos; len });
  check_bounds t ~what:"Pmem.write_from" ~addr ~len;
  maybe_crash_point t ~actor;
  check_range t ~actor ~addr ~len ~write:true;
  iter_node_runs t addr len (fun ~node ~addr:_ ~len -> node_access t ~node ~write:true ~bytes:len);
  iter_pages addr len (fun ~pg ~off ~chunk ~done_ ->
      blit_to_page t pg ~off ~src ~src_pos:(pos + done_) ~len:chunk;
      t.store_hook pg);
  fault_on_write t ~actor ~addr ~len;
  if t.recording then record_event t (Ev_store { actor; addr; data = Bytes.sub src pos len })

let write_sub = write_from

let write t ~actor ~addr ~src = write_from t ~actor ~addr ~src ~pos:0 ~len:(Bytes.length src)

(* Account the cost of moving [len] bytes without touching content: the
   non-materialized fast path used by data-heavy benchmarks.  Media
   faults apply here too — the poison table is independent of whether
   page contents are materialized. *)
let touch t ~actor ~addr ~len ~write =
  check_bounds t ~what:"Pmem.touch" ~addr ~len;
  check_range t ~actor ~addr ~len ~write;
  if write then iter_pages addr len (fun ~pg ~off:_ ~chunk:_ ~done_:_ -> t.store_hook pg);
  if write then fault_on_write t ~actor ~addr ~len else fault_on_read t ~actor ~addr ~len;
  iter_node_runs t addr len (fun ~node ~addr:_ ~len -> node_access t ~node ~write ~bytes:len)

(* ------------------------------------------------------------------ *)
(* Line-diffing store

   [write_lines] is one store of whole 64-byte lines within one page
   that writes only the lines of [src] differing from the device — what
   a writer that tracks its own changed lines would issue.  It is one
   store in every respect: one crash point, one permission check, one
   bandwidth charge for the changed bytes, one recorded {!Ev_lines}
   event.  The compare runs again after the charge's delay, and the
   lines that differ then are the ones stored, so the page ends equal
   to [src] even if another store landed during the delay.  Lines left
   alone keep their state: an unchanged clean line stays clean, an
   unchanged unflushed line keeps its pre-image (and would revert to
   its own content anyway), so power-failure states are those of a
   full overwrite.  A poisoned line always counts as differing, so the
   store heals it.  Unchanged lines draw no media fault and a stuck
   store poisons only the lines it wrote. *)

(* Allocation-free line compares, eight bytes at a time and unchecked:
   callers pass line offsets inside both buffers. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let line_equal a apos b bpos =
  Int64.equal (get64u a apos) (get64u b bpos)
  && Int64.equal (get64u a (apos + 8)) (get64u b (bpos + 8))
  && Int64.equal (get64u a (apos + 16)) (get64u b (bpos + 16))
  && Int64.equal (get64u a (apos + 24)) (get64u b (bpos + 24))
  && Int64.equal (get64u a (apos + 32)) (get64u b (bpos + 32))
  && Int64.equal (get64u a (apos + 40)) (get64u b (bpos + 40))
  && Int64.equal (get64u a (apos + 48)) (get64u b (bpos + 48))
  && Int64.equal (get64u a (apos + 56)) (get64u b (bpos + 56))

(* What a page never stored to reads as. *)
let zero_page = Bytes.make page_size '\000'

(* Runs of consecutive lines of page [pg] that differ from [src], as
   ascending (first line, last line) pairs; [src] starts at line
   [first]. *)
let differing_spans t pg ~first ~src =
  let content =
    match Hashtbl.find_opt t.pages pg with Some { content = Some b; _ } -> b | _ -> zero_page
  in
  let spans = ref [] in
  for i = (Bytes.length src / line_size) - 1 downto 0 do
    let line = first + i and pos = i * line_size in
    let same =
      line_equal content (line * line_size) src pos
      && not (Hashtbl.length t.poison > 0 && Hashtbl.mem t.poison (pg, line))
    in
    if not same then
      spans :=
        match !spans with
        | (lo, hi) :: rest when lo = line + 1 -> (line, hi) :: rest
        | rest -> (line, line) :: rest
  done;
  !spans

let write_lines t ~actor ~addr ~src =
  let len = Bytes.length src in
  if addr mod line_size <> 0 || len mod line_size <> 0 || (addr mod page_size) + len > page_size
  then invalid_arg "Pmem.write_lines: not whole lines of one page";
  check_bounds t ~what:"Pmem.write_lines" ~addr ~len;
  maybe_crash_point t ~actor;
  let pg = addr / page_size and first = addr mod page_size / line_size in
  check_perm t ~actor ~page:pg ~write:true;
  let spans =
    match differing_spans t pg ~first ~src with
    | [] -> []
    | changed ->
      let lines = List.fold_left (fun n (lo, hi) -> n + hi - lo + 1) 0 changed in
      node_access t ~node:(node_of_page t pg) ~write:true ~bytes:(lines * line_size);
      differing_spans t pg ~first ~src
  in
  (* a span's offset in [src] and its length in bytes *)
  let src_pos lo = (lo - first) * line_size and span_len lo hi = (hi - lo + 1) * line_size in
  List.iter
    (fun (lo, hi) ->
      blit_to_page t pg ~off:(lo * line_size) ~src ~src_pos:(src_pos lo) ~len:(span_len lo hi))
    spans;
  if spans <> [] then begin
    t.store_hook pg;
    let stuck = stuck_store t ~actor in
    if stuck || Hashtbl.length t.poison > 0 then
      List.iter
        (fun (lo, hi) ->
          for line = lo to hi do
            line_stored t ~stuck ~page:pg ~line
          done)
        spans
  end;
  if t.recording then
    let run (lo, hi) = (addr + src_pos lo, Bytes.sub src (src_pos lo) (span_len lo hi)) in
    record_event t (Ev_lines { actor; runs = List.map run spans })

(* clwb + sfence over a range: pre-images in the range are discarded (the
   lines are now on media).  The data movement itself was already charged
   at write time (we model non-temporal stores), so the cost here is the
   fence round trip, independent of the range size. *)
let persist_range t ~addr ~len =
  iter_pages addr len (fun ~pg ~off ~chunk ~done_:_ ->
      match Hashtbl.find_opt t.pages pg with
      | None -> ()
      | Some p when p.ndirty = 0 -> ()
      | Some p ->
        let first_line = off / line_size and last_line = (off + chunk - 1) / line_size in
        for line = first_line to last_line do
          if p.pre.(line) <> None then begin
            p.pre.(line) <- None;
            p.ndirty <- p.ndirty - 1;
            t.dirty_total <- t.dirty_total - 1
          end
        done)

(* The sfence round trip shared by [persist] and [persist_ranges]. *)
let fence t =
  t.persist_count <- t.persist_count + 1;
  Sched.delay t.profile.Perf.flush_latency

(* One fence covering several ranges (a multi-run data write drains the
   whole write-combining pipeline with a single sfence). *)
let persist_ranges t ranges =
  fence t;
  List.iter (fun (addr, len) -> persist_range t ~addr ~len) ranges;
  if t.recording then record_event t (Ev_persist ranges)

let persist t ~addr ~len =
  fence t;
  persist_range t ~addr ~len;
  if t.recording then record_event t (Ev_persist [ (addr, len) ])

(* Convenience: little-endian integer accessors (metadata fields). *)
let read_u64 t ~actor ~addr =
  let b = read t ~actor ~addr ~len:8 in
  Int64.to_int (Bytes.get_int64_le b 0)

let write_u64 t ~actor ~addr v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  write t ~actor ~addr ~src:b

(* ------------------------------------------------------------------ *)
(* Crash injection *)

(* Power failure: each unflushed line either survives (its new content
   reached media) or reverts to its pre-image, as [survives] decides.
   This is the primitive the crash-state explorer enumerates over.  A
   never-materialized page has nothing to revert, so its lines are
   dropped without asking. *)
let crash_select t ~survives =
  t.crash_count <- t.crash_count + 1;
  Hashtbl.iter
    (fun pg p ->
      if p.ndirty > 0 then begin
        t.store_hook pg;
        for line = 0 to lines_per_page - 1 do
          match p.pre.(line) with
          | None -> ()
          | Some pre ->
            (match p.content with
            | Some b when not (survives ~page:pg ~line) ->
              Bytes.blit pre 0 b (line * line_size) line_size
            | _ -> ());
            p.pre.(line) <- None
        done;
        t.dirty_total <- t.dirty_total - p.ndirty;
        p.ndirty <- 0
      end)
    t.pages

(* Revert every unflushed line; with [rng], each line instead survives
   with probability 1/2 (cachelines evict in arbitrary order on real
   hardware, so any subset of unflushed lines may be durable). *)
let crash ?rng t =
  crash_select t ~survives:(fun ~page:_ ~line:_ ->
      match rng with Some r -> Rng.bool r | None -> false)

let dirty_lines t = t.dirty_total

(* Every unflushed line as a sorted [(page, line)] list. *)
let dirty_line_list t =
  Hashtbl.fold
    (fun pg p acc ->
      if p.ndirty = 0 then acc
      else begin
        let acc = ref acc in
        for line = 0 to lines_per_page - 1 do
          if p.pre.(line) <> None then acc := (pg, line) :: !acc
        done;
        !acc
      end)
    t.pages []
  |> List.sort compare

(* Cost-free debug read of one page (no MMU check, no time charged):
   for comparing the device against a replayed image. *)
let peek_page t pg =
  match Hashtbl.find_opt t.pages pg with
  | Some { content = Some b; _ } -> Bytes.copy b
  | _ -> Bytes.make page_size '\000'

let materialized_pages t = Hashtbl.length t.pages

let node_stats t node =
  let n = t.nodes.(node) in
  (n.peak_active, n.bytes_read, n.bytes_written)

(* ------------------------------------------------------------------ *)
(* Replay: reconstruct a device image from an event-log prefix.

   An [image] is a pure byte-level model of the device — pages plus the
   pre-image of every line dirtied since its last fence — maintained by
   the exact rules the live device follows.  Applying the same log to a
   fresh image therefore yields a bit-identical picture of content and
   unflushed state (tested in test_nvm), which is what the crash-state
   explorer uses to enumerate surviving-line subsets at any store index
   without re-running the file system. *)

module Replay = struct
  type image = {
    ipages : (int, Bytes.t) Hashtbl.t;
    ipre : (int * int, Bytes.t) Hashtbl.t; (* (page, line) -> pre-image *)
  }

  let create () = { ipages = Hashtbl.create 256; ipre = Hashtbl.create 64 }

  let page_of img pg =
    match Hashtbl.find_opt img.ipages pg with
    | Some b -> b
    | None ->
      let b = Bytes.make page_size '\000' in
      Hashtbl.add img.ipages pg b;
      b

  let store img ~addr ~data =
    let len = Bytes.length data in
    iter_pages addr len (fun ~pg ~off ~chunk ~done_ ->
        let b = page_of img pg in
        let first_line = off / line_size and last_line = (off + chunk - 1) / line_size in
        for line = first_line to last_line do
          if not (Hashtbl.mem img.ipre (pg, line)) then
            Hashtbl.add img.ipre (pg, line) (Bytes.sub b (line * line_size) line_size)
        done;
        Bytes.blit data done_ b off chunk)

  let persist img ~addr ~len =
    iter_pages addr len (fun ~pg ~off ~chunk ~done_:_ ->
        let first_line = off / line_size and last_line = (off + chunk - 1) / line_size in
        for line = first_line to last_line do
          Hashtbl.remove img.ipre (pg, line)
        done)

  let discard img pg =
    Hashtbl.remove img.ipages pg;
    let stale = Hashtbl.fold (fun (p, l) _ acc -> if p = pg then (p, l) :: acc else acc) img.ipre [] in
    List.iter (Hashtbl.remove img.ipre) stale

  let apply img = function
    | Ev_store { addr; data; _ } -> store img ~addr ~data
    | Ev_lines { runs; _ } -> List.iter (fun (addr, data) -> store img ~addr ~data) runs
    | Ev_persist ranges -> List.iter (fun (addr, len) -> persist img ~addr ~len) ranges
    | Ev_discard pg -> discard img pg

  let apply_all img events = List.iter (apply img) events

  (* Sorted [(page, line)] list of lines that would be unflushed. *)
  let dirty img =
    Hashtbl.fold (fun k _ acc -> k :: acc) img.ipre [] |> List.sort compare

  (* Power failure over the image: surviving lines keep their content,
     the rest revert to their pre-image — mirrors {!crash_select}. *)
  let crash img ~survives =
    let all = dirty img in
    List.iter
      (fun (pg, line) ->
        (if not (survives ~page:pg ~line) then
           match Hashtbl.find_opt img.ipre (pg, line) with
           | Some pre -> Bytes.blit pre 0 (page_of img pg) (line * line_size) line_size
           | None -> ());
        Hashtbl.remove img.ipre (pg, line))
      all

  let page img pg =
    match Hashtbl.find_opt img.ipages pg with
    | Some b -> Bytes.copy b
    | None -> Bytes.make page_size '\000'

  let pages img = Hashtbl.fold (fun pg _ acc -> pg :: acc) img.ipages [] |> List.sort compare
end
