(* One round of one workload: build the machine, let the workload set
   up and run its closed loop, read every layer's counters at the edges
   of the measured phase, and audit the result.

   Every round uses the same machine: 2 sockets x 8 CPUs, 2^17 pages
   per socket with page contents stored (so audits can read data back),
   the Optane cost model, and ArckFS with delegation. *)

module Sched = Trio_sim.Sched
module Stats = Trio_sim.Stats
module Numa = Trio_nvm.Numa
module Pmem = Trio_nvm.Pmem
module Sync = Trio_sim.Sync
module Rig = Trio_workloads.Rig
module Runner = Trio_workloads.Runner
module Controller = Trio_core.Controller
module Libfs = Arckfs.Libfs
module Delegation = Arckfs.Delegation

let warmup_ops = 4

(* Host time is the process's CPU time (user + system, from
   getrusage): the simulator is single-threaded and never blocks, so it
   is the work done, and other load on the machine barely moves it. *)
let host () = Sys.time ()

(* Everything a round measures.  It lives outside the simulation so
   that a run killed by an escaping exception still reports what it
   did. *)
type record = {
  mutable planned : int;
  mutable attempted : int;
  mutable failed : int; (* ops that returned an error or failed a check *)
  mutable lost : int; (* acknowledged ops the end-of-run audit found lost *)
  lat : Samples.t; (* successful ops, virtual ns *)
  tags : (string, Samples.t * int ref) Hashtbl.t; (* per tag: latencies, attempts *)
  mutable v_gate : float; (* virtual ns at the first measured op *)
  mutable v_end : float;
  h_start : float; (* host s at round start *)
  mutable h_gate : float;
  mutable h_end : float;
  mutable before : (string * float) list; (* counters at the first measured op *)
  mutable after : (string * float) list; (* counters when the last op ends *)
  mutable gauges : (string * float) list; (* high-water marks and audit verdicts *)
  mutable live_words : int; (* live host heap after the measured phase *)
}

type env = {
  rig : Rig.t;
  quick : bool;
  seed : int;
  probe : Probe.t;
  trace : Trace.t option;
  mutable db_stats : unit -> int * int; (* Minidb (flushes, compactions), summed *)
  r : record;
}

(* Wrap a span around [f] when tracing; otherwise just call it. *)
let span env name f = match env.trace with None -> f () | Some tr -> Trace.span tr name f

let mount env ?ring ?unmap_after_write () =
  Probe.wrap env.probe
    (Libfs.ops (Rig.mount_arckfs ~delegated:true ?ring ?unmap_after_write env.rig))

(* A fresh LibFS process for an audit, outside the instrumentation. *)
let fresh_process env = Libfs.ops (Rig.mount_arckfs ~delegated:true env.rig)

(* Hand every mapping back to the controller (each handoff verifies)
   before an audit process looks at the result. *)
let release env = List.iter Libfs.unmap_everything env.rig.Rig.mounts

(* Run [f tid] for [n] fibers pinned the way Runner pins its clients,
   and wait for all of them. *)
let parallel env n f =
  let wg = Sync.Waitgroup.create n in
  for tid = 0 to n - 1 do
    Sched.spawn ~cpu:(Numa.cpu_of_thread env.rig.Rig.topo tid) env.rig.Rig.sched (fun () ->
        f tid;
        Sync.Waitgroup.done_ wg)
  done;
  Sync.Waitgroup.wait wg

let counters env =
  let rig = env.rig in
  let ctl = rig.Rig.ctl in
  let g = Stats.get (Controller.stats ctl) in
  let acq, cross = Controller.lock_stats ctl in
  let refills =
    List.fold_left (fun a s -> a + s.Controller.ss_pool_refills) 0 (Controller.shard_stats ctl)
  in
  let rings = Controller.ring_stats ctl in
  let sum f = List.fold_left (fun a s -> a +. f s) 0.0 rings in
  let rd = ref 0.0 and wr = ref 0.0 in
  for node = 0 to Numa.nodes rig.Rig.topo - 1 do
    let _, r, w = Pmem.node_stats rig.Rig.pmem node in
    rd := !rd +. r;
    wr := !wr +. w
  done;
  let flushes, compactions = env.db_stats () in
  let f = float_of_int in
  [
    ("map_ns", g "map");
    ("unmap_ns", g "unmap");
    ("verify_ns", g "verify");
    ("descents", g "verify.dindex.descents");
    ("splits", g "verify.dindex.splits");
    ("verify_incremental", g "verify.incremental");
    ("verify_full", g "verify.full");
    ("dirty_hits", g "verify.dirty.hits");
    ("dirty_misses", g "verify.dirty.misses");
    ( "rebuild_ns",
      List.fold_left (fun a m -> a +. Stats.get (Libfs.stats_of m) "rebuild") 0.0 rig.Rig.mounts );
    ( "delegation_requests",
      if Lazy.is_val rig.Rig.delegation then
        f (Delegation.request_count (Lazy.force rig.Rig.delegation))
      else 0.0 );
    ("lock_acq", f acq);
    ("cross_shard", f cross);
    ("pool_refills", f refills);
    ("ring_batches", sum (fun s -> f s.Controller.rg_batches));
    ("ring_ops", sum (fun s -> f s.Controller.rg_ops));
    ("ring_fused", sum (fun s -> f s.Controller.rg_fused));
    ("sq_park_ns", sum (fun s -> s.Controller.rg_sq_park_ns));
    ("cq_parks", sum (fun s -> f s.Controller.rg_cq_parks));
    ("read_bytes", !rd);
    ("write_bytes", !wr);
    ("fences", f (Pmem.persist_count rig.Rig.pmem));
    ("events", f (Sched.events_processed rig.Rig.sched));
    ("flushes", f flushes);
    ("compactions", f compactions);
  ]

let delta r = List.map2 (fun (k, a) (_, b) -> (k, b -. a)) r.before r.after

let gate env =
  let r = env.r in
  r.h_gate <- host ();
  r.v_gate <- Sched.now env.rig.Rig.sched;
  r.before <- counters env;
  env.probe.Probe.on <- true;
  Option.iter (fun tr -> tr.Trace.on <- true) env.trace

(* The closed loop: [clients] fibers, each running [body ~tid] back to
   back, [warmup_ops] unmeasured ops each, then an equal share of [ops]
   measured ops, so every client class contributes the same number of
   samples however slow it is.  [body] returns the op's tag ("" for
   none) and whether it succeeded. *)
let measure env ~clients ~ops body =
  let r = env.r in
  let sched = env.rig.Rig.sched in
  let quota = (ops + clients - 1) / clients in
  r.planned <- quota * clients;
  let calls = Array.make clients 0 in
  let started = ref false in
  let measured ~tid =
    if calls.(tid) > warmup_ops + quota then raise Exit;
    if not !started then begin
      started := true;
      gate env
    end;
    let t0 = Sched.now sched in
    let tag, ok =
      match env.trace with
      | None -> body ~tid
      | Some tr -> Trace.span tr ~op:true "op" (fun () -> body ~tid)
    in
    let dt = Sched.now sched -. t0 in
    r.attempted <- r.attempted + 1;
    if ok then Samples.add r.lat dt else r.failed <- r.failed + 1;
    if tag <> "" then begin
      let s, n =
        match Hashtbl.find_opt r.tags tag with
        | Some e -> e
        | None ->
          let e = (Samples.create (), ref 0) in
          Hashtbl.add r.tags tag e;
          e
      in
      incr n;
      if ok then Samples.add s dt
    end
  in
  ignore
    (Runner.run ~sched ~topo:env.rig.Rig.topo ~threads:clients ~max_ops:max_int ~max_ns:infinity
       ~warmup_ops
       ~body:(fun ~tid ->
         calls.(tid) <- calls.(tid) + 1;
         if calls.(tid) <= warmup_ops then ignore (body ~tid) else measured ~tid;
         0)
       ());
  env.probe.Probe.on <- false;
  Option.iter (fun tr -> tr.Trace.on <- false) env.trace;
  r.h_end <- host ();
  r.v_end <- Sched.now sched;
  r.after <- counters env;
  r.live_words <- (Gc.stat ()).Gc.live_words (* a full major collection *);
  let peak = ref 0 in
  for node = 0 to Numa.nodes env.rig.Rig.topo - 1 do
    let p, _, _ = Pmem.node_stats env.rig.Rig.pmem node in
    peak := max !peak p
  done;
  r.gauges <-
    [
      ("queue_depth_max", Stats.get (Controller.stats env.rig.Rig.ctl) "verify.queue.depth.max");
      ("peak_accessors", float_of_int !peak);
    ]

let new_record () =
  {
    planned = 0;
    attempted = 0;
    failed = 0;
    lost = 0;
    lat = Samples.create ();
    tags = Hashtbl.create 4;
    v_gate = 0.0;
    v_end = 0.0;
    h_start = host ();
    h_gate = 0.0;
    h_end = 0.0;
    before = [];
    after = [];
    gauges = [];
    live_words = 0;
  }

(* Run one round of [run] (setup, [measure] of [ops] ops, audit; it
   returns the number of acknowledged ops the audit found lost).  An
   exception that escapes the simulation ends the round as a crash. *)
let round ~seed ~quick ~traced ~ops run =
  let r = new_record () in
  r.planned <- ops;
  match
    Rig.run ~nodes:2 ~cpus_per_node:8 ~pages_per_node:(1 lsl 17) ~store_data:true (fun rig ->
        let trace = if traced then Some (Trace.create rig.Rig.sched) else None in
        Option.iter
          (fun tr ->
            Controller.set_verify_hook rig.Rig.ctl (Trace.verify_done tr);
            Controller.set_ring_hook rig.Rig.ctl (Trace.ring_batch tr))
          trace;
        let e =
          {
            rig;
            quick;
            seed;
            probe = Probe.create rig.Rig.sched trace;
            trace;
            db_stats = (fun () -> (0, 0));
            r;
          }
        in
        r.lost <- run e ~ops;
        let count l = float_of_int (List.length l) in
        r.gauges <-
          r.gauges
          @ [
              ("corruption_events", count (Controller.corruption_events rig.Rig.ctl));
              ("quarantined", count (Controller.quarantined_files rig.Rig.ctl));
            ];
        e)
  with
  | env -> Ok (r, env)
  | exception e -> Error (r, Printexc.to_string e)

