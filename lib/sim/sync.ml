(* Simulated synchronization primitives.

   All of these operate on virtual time: acquiring a held lock parks the
   fiber until the holder releases it.  Ownership is handed off directly
   to the next waiter (no barging), which keeps runs deterministic. *)

(* ------------------------------------------------------------------ *)

module Mutex = struct
  type t = { mutable locked : bool; waiters : Sched.waker Queue.t }

  let create () = { locked = false; waiters = Queue.create () }

  let lock m =
    if not m.locked then m.locked <- true
    else Sched.park (fun waker -> Queue.push waker m.waiters)

  let try_lock m =
    if m.locked then false
    else begin
      m.locked <- true;
      true
    end

  let unlock m =
    if not m.locked then invalid_arg "Mutex.unlock: not locked";
    match Queue.take_opt m.waiters with
    | Some waker -> waker () (* ownership passes to the waiter *)
    | None -> m.locked <- false

  let with_lock m f =
    lock m;
    match f () with
    | v ->
      unlock m;
      v
    | exception e ->
      unlock m;
      raise e
end

(* A spinlock behaves like a mutex under the discrete-event model; the
   distinction that matters for the benchmarks is the uncontended cost,
   which callers charge via [Sched.cpu_work].  KVFS replaces ArckFS'
   fine-grained locks with this (paper §5). *)
module Spinlock = Mutex

(* ------------------------------------------------------------------ *)

module Rwlock = struct
  (* Most locks are never contended (every cached inode and directory
     stripe has one), so a lock makes its waiter queues on first
     contention: until then both fields hold [no_waiters], one shared
     queue that is never pushed to.  An uncontended lock is 5 words. *)
  type t = {
    mutable readers : int;
    mutable writer : bool;
    mutable read_waiters : Sched.waker Queue.t;
    mutable write_waiters : Sched.waker Queue.t;
  }

  let no_waiters : Sched.waker Queue.t = Queue.create ()

  let create () =
    { readers = 0; writer = false; read_waiters = no_waiters; write_waiters = no_waiters }

  let read_queue l =
    if l.read_waiters == no_waiters then l.read_waiters <- Queue.create ();
    l.read_waiters

  let write_queue l =
    if l.write_waiters == no_waiters then l.write_waiters <- Queue.create ();
    l.write_waiters

  (* Writer preference: readers queue behind a waiting writer so writers
     cannot starve (matches the BRAVO-style locks ArckFS builds on). *)
  let read_lock l =
    if l.writer || not (Queue.is_empty l.write_waiters) then begin
      Sched.park (fun waker ->
          Queue.push
            (fun () ->
              l.readers <- l.readers + 1;
              waker ())
            (read_queue l))
    end
    else l.readers <- l.readers + 1

  let wake_next l =
    if l.readers = 0 && not l.writer then
      match Queue.take_opt l.write_waiters with
      | Some waker ->
        l.writer <- true;
        waker ()
      | None ->
        (* admit the whole read batch *)
        while not (Queue.is_empty l.read_waiters) do
          (Queue.pop l.read_waiters) ()
        done

  let read_unlock l =
    if l.readers <= 0 then invalid_arg "Rwlock.read_unlock";
    l.readers <- l.readers - 1;
    wake_next l

  let write_lock l =
    if l.writer || l.readers > 0 then Sched.park (fun waker -> Queue.push waker (write_queue l))
    else l.writer <- true

  let write_unlock l =
    if not l.writer then invalid_arg "Rwlock.write_unlock";
    l.writer <- false;
    wake_next l

  let with_read l f =
    read_lock l;
    match f () with
    | v ->
      read_unlock l;
      v
    | exception e ->
      read_unlock l;
      raise e

  let with_write l f =
    write_lock l;
    match f () with
    | v ->
      write_unlock l;
      v
    | exception e ->
      write_unlock l;
      raise e
end

(* ------------------------------------------------------------------ *)

(* Byte-range reader-writer lock: ArckFS allows one thread to append while
   others write disjoint regions and many read concurrently (paper §4.2). *)
module Range_lock = struct
  type mode = Read | Write

  type held = { lo : int; hi : int; mode : mode }

  type waiting = { wlo : int; whi : int; wmode : mode; waker : Sched.waker }

  type t = { mutable held : held list; mutable waiting : waiting list }

  let create () = { held = []; waiting = [] }

  let overlaps a_lo a_hi b_lo b_hi = a_lo <= b_hi && b_lo <= a_hi

  let conflicts t lo hi mode =
    List.exists
      (fun h ->
        overlaps lo hi h.lo h.hi && (mode = Write || h.mode = Write))
      t.held

  let lock t ~lo ~hi mode =
    if conflicts t lo hi mode then
      Sched.park (fun waker ->
          t.waiting <- t.waiting @ [ { wlo = lo; whi = hi; wmode = mode; waker } ])
    else t.held <- { lo; hi; mode } :: t.held

  let unlock t ~lo ~hi mode =
    let rec remove_one = function
      | [] -> invalid_arg "Range_lock.unlock: range not held"
      | h :: rest when h.lo = lo && h.hi = hi && h.mode = mode -> rest
      | h :: rest -> h :: remove_one rest
    in
    t.held <- remove_one t.held;
    (* Admit waiters FIFO, stopping at the first that still conflicts so
       ordering is fair. *)
    let rec admit = function
      | [] -> []
      | w :: rest ->
        if conflicts t w.wlo w.whi w.wmode then w :: rest
        else begin
          t.held <- { lo = w.wlo; hi = w.whi; mode = w.wmode } :: t.held;
          w.waker ();
          admit rest
        end
    in
    t.waiting <- admit t.waiting

  let with_range t ~lo ~hi mode f =
    lock t ~lo ~hi mode;
    match f () with
    | v ->
      unlock t ~lo ~hi mode;
      v
    | exception e ->
      unlock t ~lo ~hi mode;
      raise e
end

(* ------------------------------------------------------------------ *)

(* Single-assignment cell with blocking read: completion notification for
   delegation requests and controller RPCs. *)
module Ivar = struct
  type 'a state = Empty of Sched.waker list | Full of 'a

  type 'a t = { mutable state : 'a state }

  let create () = { state = Empty [] }

  let fill t v =
    match t.state with
    | Full _ -> invalid_arg "Ivar.fill: already filled"
    | Empty wakers ->
      t.state <- Full v;
      List.iter (fun w -> w ()) wakers

  let is_full t = match t.state with Full _ -> true | Empty _ -> false

  let read t =
    match t.state with
    | Full v -> v
    | Empty _ ->
      Sched.park (fun waker ->
          match t.state with
          | Full _ -> waker ()
          | Empty ws -> t.state <- Empty (waker :: ws));
      (match t.state with
      | Full v -> v
      | Empty _ -> assert false)
end

(* ------------------------------------------------------------------ *)

(* Bounded channel: the per-application ring buffer between application
   fibers and delegation fibers (paper §4.5). *)
module Chan = struct
  type 'a t = {
    capacity : int;
    items : 'a Queue.t;
    mutable send_waiters : Sched.waker Queue.t;
    mutable recv_waiters : Sched.waker Queue.t;
    mutable closed : bool;
  }

  exception Closed

  let create capacity =
    if capacity <= 0 then invalid_arg "Chan.create";
    {
      capacity;
      items = Queue.create ();
      send_waiters = Queue.create ();
      recv_waiters = Queue.create ();
      closed = false;
    }

  let send t v =
    if t.closed then raise Closed;
    while Queue.length t.items >= t.capacity do
      Sched.park (fun waker -> Queue.push waker t.send_waiters);
      if t.closed then raise Closed
    done;
    Queue.push v t.items;
    match Queue.take_opt t.recv_waiters with Some w -> w () | None -> ()

  let recv t =
    while Queue.is_empty t.items do
      if t.closed then raise Closed;
      Sched.park (fun waker -> Queue.push waker t.recv_waiters)
    done;
    let v = Queue.pop t.items in
    (match Queue.take_opt t.send_waiters with Some w -> w () | None -> ());
    v

  let close t =
    t.closed <- true;
    Queue.iter (fun w -> w ()) t.recv_waiters;
    Queue.iter (fun w -> w ()) t.send_waiters;
    Queue.clear t.recv_waiters;
    Queue.clear t.send_waiters

  let length t = Queue.length t.items
end

(* ------------------------------------------------------------------ *)

module Waitgroup = struct
  type t = { mutable count : int; mutable waiters : Sched.waker list }

  let create n = { count = n; waiters = [] }

  let add t n = t.count <- t.count + n

  let done_ t =
    if t.count <= 0 then invalid_arg "Waitgroup.done_";
    t.count <- t.count - 1;
    if t.count = 0 then begin
      let ws = t.waiters in
      t.waiters <- [];
      List.iter (fun w -> w ()) ws
    end

  let wait t =
    if t.count > 0 then
      Sched.park (fun waker ->
          if t.count = 0 then waker () else t.waiters <- waker :: t.waiters)
end
