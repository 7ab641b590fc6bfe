(* Deterministic discrete-event scheduler.

   Simulated threads are OCaml 5 fibers (effect handlers).  A fiber runs
   until it performs [Delay], [Park] or finishes; the scheduler then pops
   the next event from a binary heap keyed by (virtual time, sequence
   number).  The sequence number makes execution deterministic: events at
   equal timestamps run in creation order.

   Virtual time is in nanoseconds (float). *)

type waker = unit -> unit

type ctx = { cpu : int; tid : int }

type _ Effect.t +=
  | Delay : float -> unit Effect.t
  | Park : ((unit -> unit) -> unit) -> unit Effect.t
  | Get_ctx : ctx Effect.t
  | Adjust_killable : int -> unit Effect.t
  | Adjust_shield : int -> unit Effect.t

(* Binary min-heap of (time, seq, action). *)
module Heap = struct
  type entry = { time : float; seq : int; action : unit -> unit }

  type t = { mutable a : entry array; mutable len : int }

  let dummy = { time = 0.0; seq = 0; action = ignore }
  let create () = { a = Array.make 256 dummy; len = 0 }
  let is_empty h = h.len = 0
  let lt x y = x.time < y.time || (x.time = y.time && x.seq < y.seq)

  let push h e =
    if h.len = Array.length h.a then begin
      let bigger = Array.make (2 * h.len) dummy in
      Array.blit h.a 0 bigger 0 h.len;
      h.a <- bigger
    end;
    h.a.(h.len) <- e;
    h.len <- h.len + 1;
    (* sift up *)
    let i = ref (h.len - 1) in
    while !i > 0 && lt h.a.(!i) h.a.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    done

  let pop h =
    if h.len = 0 then invalid_arg "Heap.pop: empty";
    let top = h.a.(0) in
    h.len <- h.len - 1;
    h.a.(0) <- h.a.(h.len);
    h.a.(h.len) <- dummy;
    (* sift down *)
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.len && lt h.a.(l) h.a.(!smallest) then smallest := l;
      if r < h.len && lt h.a.(r) h.a.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = h.a.(!smallest) in
        h.a.(!smallest) <- h.a.(!i);
        h.a.(!i) <- tmp;
        i := !smallest
      end
      else continue_ := false
    done;
    top
end

type inj_mode = Inj_kill | Inj_hang

type t = {
  mutable now : float;
  heap : Heap.t;
  mutable seq : int;
  mutable spawned : int;
  mutable events : int;
  mutable failure : (exn * Printexc.raw_backtrace) option;
  mutable stopping : bool;
  (* Process-failure injection: fibers inside a [killable] scope cross a
     "kill point" at every Delay boundary (yield / cpu_work / NVM store
     latency).  When armed, the injector fires at the configured point:
     [Inj_kill] discontinues the fiber with {!Killed} (abrupt process
     death mid-operation), [Inj_hang] drops the continuation so the fiber
     wedges forever while still holding all its resources. *)
  mutable inj_armed : bool;
  mutable inj_mode : inj_mode;
  mutable inj_remaining : int;
  mutable inj_crossed : int;
  mutable hung : int;
  killable_depth : (int, int) Hashtbl.t;
  shield_depth : (int, int) Hashtbl.t;
}

let create () =
  {
    now = 0.0;
    heap = Heap.create ();
    seq = 0;
    spawned = 0;
    events = 0;
    failure = None;
    stopping = false;
    inj_armed = false;
    inj_mode = Inj_kill;
    inj_remaining = 0;
    inj_crossed = 0;
    hung = 0;
    killable_depth = Hashtbl.create 8;
    shield_depth = Hashtbl.create 8;
  }

let now t = t.now
let events_processed t = t.events

let schedule t time action =
  t.seq <- t.seq + 1;
  Heap.push t.heap { time; seq = t.seq; action }

exception Stopped

exception Killed

(* Adjust a per-tid depth counter; absent key means depth 0. *)
let bump tbl tid d =
  let cur = Option.value (Hashtbl.find_opt tbl tid) ~default:0 in
  let v = cur + d in
  if v <= 0 then Hashtbl.remove tbl tid else Hashtbl.replace tbl tid v

let spawn ?(cpu = 0) t f =
  t.spawned <- t.spawned + 1;
  let tid = t.spawned in
  let ctx = { cpu; tid } in
  let fiber () =
    let open Effect.Deep in
    let forget () =
      Hashtbl.remove t.killable_depth tid;
      Hashtbl.remove t.shield_depth tid
    in
    match_with f ()
      {
        retc = forget;
        exnc =
          (fun e ->
            forget ();
            match e with
            | Stopped | Killed -> ()
            | e ->
              if t.failure = None then
                t.failure <- Some (e, Printexc.get_raw_backtrace ()));
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Delay ns ->
              Some
                (fun (k : (a, unit) continuation) ->
                  if ns < 0.0 then invalid_arg "Sched: negative delay";
                  let at_kill_point =
                    t.inj_armed
                    && Hashtbl.mem t.killable_depth tid
                    && not (Hashtbl.mem t.shield_depth tid)
                  in
                  if at_kill_point && t.inj_remaining <= 0 then begin
                    t.inj_armed <- false;
                    match t.inj_mode with
                    | Inj_kill -> discontinue k Killed
                    | Inj_hang ->
                      (* Drop the continuation: the fiber never resumes but
                         is never torn down either — it wedges holding all
                         its mappings, exactly like a hung process. *)
                      t.hung <- t.hung + 1
                  end
                  else begin
                    if at_kill_point then begin
                      t.inj_crossed <- t.inj_crossed + 1;
                      t.inj_remaining <- t.inj_remaining - 1
                    end;
                    schedule t (t.now +. ns) (fun () ->
                        if t.stopping then discontinue k Stopped else continue k ())
                  end)
            | Park register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  let woken = ref false in
                  register (fun () ->
                      if not !woken then begin
                        woken := true;
                        schedule t t.now (fun () ->
                            if t.stopping then discontinue k Stopped else continue k ())
                      end))
            | Get_ctx -> Some (fun (k : (a, unit) continuation) -> continue k ctx)
            | Adjust_killable d ->
              Some
                (fun (k : (a, unit) continuation) ->
                  bump t.killable_depth tid d;
                  continue k ())
            | Adjust_shield d ->
              Some
                (fun (k : (a, unit) continuation) ->
                  bump t.shield_depth tid d;
                  continue k ())
            | _ -> None);
      }
  in
  schedule t t.now fiber

(* Run until the event heap drains, a fiber raises, or [until] virtual ns
   elapse.  Returns the virtual time reached. *)
let run ?until t =
  let deadline = Option.value until ~default:Float.infinity in
  let continue_ = ref true in
  while !continue_ do
    if Heap.is_empty t.heap || t.failure <> None then continue_ := false
    else begin
      let e = Heap.pop t.heap in
      if e.Heap.time > deadline then begin
        t.now <- deadline;
        (* Push the event back: callers may resume the run later. *)
        Heap.push t.heap e;
        continue_ := false
      end
      else begin
        if e.Heap.time > t.now then t.now <- e.Heap.time;
        t.events <- t.events + 1;
        e.Heap.action ()
      end
    end
  done;
  (match t.failure with
  | Some (e, bt) ->
    t.failure <- None;
    Printexc.raise_with_backtrace e bt
  | None -> ());
  t.now

(* Abandon parked/delayed fibers: subsequent resumptions discontinue with
   [Stopped].  Used to tear down infinite service loops (delegation
   threads) at the end of a benchmark run. *)
let stop t = t.stopping <- true

(* ------------------------------------------------------------------ *)
(* Operations usable from inside a fiber. *)

let delay ns = Effect.perform (Delay ns)

let cpu_work ns = delay ns

let yield () = Effect.perform (Delay 0.0)

let park register = Effect.perform (Park register)

let self () = Effect.perform Get_ctx

let current_cpu () = (self ()).cpu

let current_tid () = (self ()).tid

(* ------------------------------------------------------------------ *)
(* Process-failure injection. *)

let arm_kill t ~after =
  if after < 0 then invalid_arg "Sched.arm_kill: negative kill point";
  t.inj_armed <- true;
  t.inj_mode <- Inj_kill;
  t.inj_remaining <- after;
  t.inj_crossed <- 0

let arm_hang t ~after =
  if after < 0 then invalid_arg "Sched.arm_hang: negative kill point";
  t.inj_armed <- true;
  t.inj_mode <- Inj_hang;
  t.inj_remaining <- after;
  t.inj_crossed <- 0

let arm_count t =
  t.inj_armed <- true;
  t.inj_mode <- Inj_kill;
  t.inj_remaining <- max_int;
  t.inj_crossed <- 0

let disarm t = t.inj_armed <- false

let kill_points_crossed t = t.inj_crossed

let hung_fibers t = t.hung

let killable f =
  Effect.perform (Adjust_killable 1);
  Fun.protect ~finally:(fun () -> Effect.perform (Adjust_killable (-1))) f

let shield f =
  Effect.perform (Adjust_shield 1);
  Fun.protect ~finally:(fun () -> Effect.perform (Adjust_shield (-1))) f
