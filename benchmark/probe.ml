(* The benchmark's own Fs_intf.t wrapper: the LibFS entry layer seen
   from outside.  Every workload, Minidb included, reaches the file
   system through it, so it counts calls, keeps the raw virtual latency
   of each successful call, and opens a [vfs.<op>] span around it in
   the traced run.  It records only during the measured phase. *)

module Sched = Trio_sim.Sched
module Fs = Trio_core.Fs_intf

let ops =
  [| "create"; "unlink"; "rename"; "stat"; "open"; "close"; "pread"; "pwrite"; "append"; "fsync" |]
let span_names = Array.map (fun op -> "vfs." ^ op) ops

type t = {
  sched : Sched.t;
  trace : Trace.t option;
  mutable on : bool;
  calls : int array;
  lat : Samples.t array; (* successful calls, virtual ns *)
  mutable user_bytes : float; (* bytes handed to pwrite/append *)
}

let create sched trace =
  {
    sched;
    trace;
    on = false;
    calls = Array.make (Array.length ops) 0;
    lat = Array.init (Array.length ops) (fun _ -> Samples.create ());
    user_bytes = 0.0;
  }

let timed t i f =
  if not t.on then f ()
  else begin
    t.calls.(i) <- t.calls.(i) + 1;
    let t0 = Sched.now t.sched in
    let r = match t.trace with None -> f () | Some tr -> Trace.span tr span_names.(i) f in
    (match r with Ok _ -> Samples.add t.lat.(i) (Sched.now t.sched -. t0) | Error _ -> ());
    r
  end

let written t buf = if t.on then t.user_bytes <- t.user_bytes +. float_of_int (Bytes.length buf)

let wrap t (fs : Fs.t) =
  {
    fs with
    Fs.create = (fun path mode -> timed t 0 (fun () -> fs.Fs.create path mode));
    unlink = (fun path -> timed t 1 (fun () -> fs.Fs.unlink path));
    rename = (fun src dst -> timed t 2 (fun () -> fs.Fs.rename src dst));
    stat = (fun path -> timed t 3 (fun () -> fs.Fs.stat path));
    open_ = (fun path flags -> timed t 4 (fun () -> fs.Fs.open_ path flags));
    close = (fun fd -> timed t 5 (fun () -> fs.Fs.close fd));
    pread = (fun fd buf off -> timed t 6 (fun () -> fs.Fs.pread fd buf off));
    pwrite =
      (fun fd buf off ->
        written t buf;
        timed t 7 (fun () -> fs.Fs.pwrite fd buf off));
    append =
      (fun fd buf ->
        written t buf;
        timed t 8 (fun () -> fs.Fs.append fd buf));
    fsync = (fun fd -> timed t 9 (fun () -> fs.Fs.fsync fd));
  }
