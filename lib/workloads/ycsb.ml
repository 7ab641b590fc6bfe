(* YCSB-style multi-tenant key-value driver over the mini-LevelDB.

   The QoS evaluation workload (DESIGN.md §4.17): several *tenants*,
   each one LibFS process (a trust group of its own) running its own
   Minidb instance over its own Vfs-instrumented mount, execute the
   standard YCSB mixes concurrently on one rig:

     A  50% read / 50% update         B  95% read /  5% update
     C  100% read                     D  95% read-latest / 5% insert
     E  95% short scan / 5% insert    F  50% read / 50% read-modify-write

   Keys are Zipf-distributed (the YCSB default, theta 0.9) so tenants
   contend on hot keys the way real multi-tenant stores do.  Scans are
   modelled as runs of consecutive-key point gets (the mini-LevelDB has
   no iterator).

   Two kinds of misbehaving neighbours compose with the honest tenants:

   - a *kill-prone* tenant runs its operation loop inside
     {!Sched.killable}, so an armed injector SIGKILLs it mid-operation
     (possibly inside a QoS throttle park — the watchdog must reclaim
     it);
   - *byzantine* tenants are injected by the caller as [chaos] fibers
     (built from [lib/attacks]; this library cannot depend on it), each
     looping until every honest tenant has finished.

   Per-tenant latency is recorded two ways: a driver-level histogram of
   whole-DB-op latencies (the p50/p99 in {!tenant_result} — exact
   per-tenant percentiles) and the {!Vfs} handle (per-FS-op
   breakdowns, kept in the result for callers that want them). *)

module Sched = Trio_sim.Sched
module Sync = Trio_sim.Sync
module Stats = Trio_sim.Stats
module Rng = Trio_util.Rng
module Vfs = Trio_core.Vfs
module Libfs = Arckfs.Libfs
open Trio_core.Fs_types

type workload = A | B | C | D | E | F

let workload_name = function A -> "A" | B -> "B" | C -> "C" | D -> "D" | E -> "E" | F -> "F"
let all = [ A; B; C; D; E; F ]

type spec = {
  s_name : string;
  s_workload : workload;
  s_share : float option; (* QoS share; None = unenforced tenant *)
  s_kill_after : int option; (* arm the SIGKILL injector (at most one tenant) *)
  s_ops : int; (* measured operations *)
}

let spec ?share ?kill_after ?(ops = 200) name workload =
  { s_name = name; s_workload = workload; s_share = share; s_kill_after = kill_after; s_ops = ops }

type tenant_result = {
  y_name : string;
  y_workload : workload;
  y_group : int; (* the tenant's trust group: its process id *)
  y_share : float option;
  y_ops_done : int;
  y_errors : int; (* failed measured operations, ETIMEDOUT included *)
  y_etimedout : int; (* of [y_errors], terminal retry-budget expiries *)
  y_killed : bool;
  y_p50 : float; (* whole-DB-op latency percentiles, virtual ns *)
  y_p99 : float;
  y_vfs : Vfs.t; (* FS-op instrumentation *)
}

let pp_tenant_result ppf r =
  Fmt.pf ppf "%-10s YCSB-%s %s%6d ops  p50=%9.0fns p99=%9.0fns  err=%d%s%s"
    r.y_name (workload_name r.y_workload)
    (match r.y_share with Some s -> Fmt.str "share=%.3f " s | None -> "")
    r.y_ops_done r.y_p50 r.y_p99 r.y_errors
    (if r.y_etimedout > 0 then Fmt.str " (etimedout=%d)" r.y_etimedout else "")
    (if r.y_killed then " KILLED" else "")

let key_of i = Printf.sprintf "%016d" i

(* One measured operation.  [inserted] is the per-process high-water
   key for insert-bearing mixes (D/E).  Scans count as one op. *)
let run_op db wl rng ~records ~inserted ~value ~scan_max =
  let zipf () = Rng.zipf rng ~n:records ~theta:0.9 in
  let read k = Result.map (fun _ -> ()) (Minidb.Db.get db ~key:(key_of k)) in
  let update k = Minidb.Db.put db ~key:(key_of k) ~value in
  let insert () =
    incr inserted;
    Minidb.Db.put db ~key:(key_of !inserted) ~value
  in
  let pct = Rng.int rng 100 in
  match wl with
  | A -> if pct < 50 then read (zipf ()) else update (zipf ())
  | B -> if pct < 95 then read (zipf ()) else update (zipf ())
  | C -> read (zipf ())
  | D -> if pct < 95 then read (max 0 (!inserted - zipf ())) else insert ()
  | E ->
    if pct < 95 then begin
      let start = zipf () and len = 1 + Rng.int rng scan_max in
      let rec scan i acc =
        if i >= len then acc
        else
          match read ((start + i) mod max 1 !inserted) with
          | Ok () -> scan (i + 1) acc
          | Error _ as e -> e
      in
      scan 0 (Ok ())
    end
    else insert ()
  | F ->
    if pct < 50 then read (zipf ())
    else
      let k = zipf () in
      let ( let* ) = Result.bind in
      let* _ = Minidb.Db.get db ~key:(key_of k) in
      update k

(* Run the tenant set to completion; must be called inside a fiber.

   Every process preloads its database and flushes it to an SSTable,
   then all workers start together (a warm barrier, like {!Runner.run});
   the kill injector — if any tenant asked for one — is armed only once
   the measured phase begins, so the kill lands inside live
   multi-tenant traffic.  [chaos] fibers receive a [stop] predicate that
   turns true when every tenant worker has finished (or died). *)
let run rig ?(records = 128) ?(value_size = 64) ?(ring_depth = 0) ?(scan_max = 8)
    ?(chaos = []) specs =
  let sched = rig.Rig.sched in
  let workers = List.length specs in
  let warm = Sync.Waitgroup.create workers in
  let gate = Sync.Ivar.create () in
  let wg = Sync.Waitgroup.create workers in
  let live = ref workers in
  let stop () = !live = 0 in
  let kill_after = List.find_map (fun s -> s.s_kill_after) specs in
  (* Mount every tenant up front (in the caller's fiber), before any
     worker runs. *)
  let tenants =
    List.map
      (fun s ->
        let ring = if ring_depth > 0 then Some ring_depth else None in
        (s, Rig.mount_arckfs ~delegated:false ?qos_share:s.s_share ?ring rig))
      specs
  in
  let results =
    List.map
      (fun (s, libfs) ->
        let group = Libfs.proc_of libfs in
        let hist = Stats.Hist.create () in
        let ops_done = ref 0 and errors = ref 0 and etimedout = ref 0 in
        let killed = ref false in
        let vfs = Vfs.wrap ~sched (Libfs.ops libfs) in
        let ops = Vfs.ops vfs in
        let dir = Printf.sprintf "/y_%s_0" s.s_name in
        let rng = Rng.create (0x9c5b + (group * 131)) in
        let value = String.make value_size 'y' in
        Sched.spawn sched (fun () ->
            let ok what = function
              | Ok v -> v
              | Error e ->
                failwith (Printf.sprintf "ycsb %s: %s: %s" s.s_name what (errno_to_string e))
            in
            let work () =
              let db = ok "open_db" (Minidb.Db.open_db ops ~dir) in
              for k = 0 to records - 1 do
                ok "preload" (Minidb.Db.put db ~key:(key_of k) ~value)
              done;
              (* Close and reopen: the close flushes the preload to an
                 SSTable, so measured reads reach the file system
                 instead of the memtable, which charges no virtual
                 time. *)
              ok "flush" (Minidb.Db.close db);
              let db = ok "reopen" (Minidb.Db.open_db ops ~dir) in
              let inserted = ref (records - 1) in
              Sync.Waitgroup.done_ warm;
              Sync.Ivar.read gate;
              for _ = 1 to s.s_ops do
                let t0 = Sched.now sched in
                (match run_op db s.s_workload rng ~records ~inserted ~value ~scan_max with
                | Ok () -> ()
                | Error ETIMEDOUT ->
                  incr etimedout;
                  incr errors
                | Error _ -> incr errors);
                Stats.Hist.observe hist (Sched.now sched -. t0);
                incr ops_done
              done;
              ignore (Minidb.Db.close db)
            in
            (try if s.s_kill_after <> None then Sched.killable work else work ()
             with Sched.Killed ->
               killed := true;
               (* the barrier must not deadlock on a dead worker *)
               if not (Sync.Ivar.is_full gate) then Sync.Waitgroup.done_ warm);
            decr live;
            Sync.Waitgroup.done_ wg);
        (s, group, vfs, hist, ops_done, errors, etimedout, killed))
      tenants
  in
  List.iter (fun body -> Sched.spawn sched (fun () -> body ~stop)) chaos;
  Sync.Waitgroup.wait warm;
  (match kill_after with Some n -> Sched.arm_kill sched ~after:n | None -> ());
  Sync.Ivar.fill gate ();
  Sync.Waitgroup.wait wg;
  List.map
    (fun (s, group, vfs, hist, ops_done, errors, etimedout, killed) ->
      {
        y_name = s.s_name;
        y_workload = s.s_workload;
        y_group = group;
        y_share = s.s_share;
        y_ops_done = !ops_done;
        y_errors = !errors;
        y_etimedout = !etimedout;
        y_killed = !killed;
        y_p50 = Stats.Hist.percentile hist 50.0;
        y_p99 = Stats.Hist.percentile hist 99.0;
        y_vfs = vfs;
      })
    results
