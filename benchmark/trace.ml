(* In-memory span recorder for the traced run.

   Spans are opened and closed by the benchmark's own code around its
   calls into each layer (the op, Minidb, the file-system entry points),
   plus retroactive [ctl.verify] spans and [ring.batch] events fed by
   the controller's observability hooks.  Recording reads clocks only:
   it never advances virtual time, so a traced run's virtual results
   equal the untraced run's.

   Only the measured phase is recorded ([on]).  Per-layer self time (a
   span's duration minus the time covered by its children) is
   aggregated over every span; the span and event lists keep only the
   first [cap] entries, which is what the trace file holds.  Host times
   are seconds since the recorder was created. *)

module Sched = Trio_sim.Sched

let cap = 20_000

type span = {
  id : int;
  parent : int; (* -1: no enclosing span on this fiber *)
  op : int; (* id of the measured op this span belongs to; -1: none *)
  name : string;
  v0 : float; (* virtual ns *)
  v1 : float;
  h0 : float; (* host s *)
  h1 : float;
}

type frame = {
  f_id : int;
  f_op : int;
  f_v0 : float;
  f_h0 : float;
  mutable f_child_v : float;
  mutable f_child_h : float;
}

type layer = {
  mutable count : int;
  mutable total_v : float;
  mutable self_v : float;
  mutable total_h : float;
  mutable self_h : float;
}

type t = {
  sched : Sched.t;
  origin : float; (* host s *)
  mutable on : bool;
  mutable next_id : int;
  mutable spans : span list; (* newest first, at most [cap] *)
  mutable nspans : int;
  mutable events : (float * int * int * int) list; (* (virtual ns, shard, batch, depth) *)
  mutable nevents : int;
  stacks : (int, frame list) Hashtbl.t; (* fiber id -> open frames, innermost first *)
  layers : (string, layer) Hashtbl.t;
}

let host () = Unix.gettimeofday ()

let create sched =
  {
    sched;
    origin = host ();
    on = false;
    next_id = 0;
    spans = [];
    nspans = 0;
    events = [];
    nevents = 0;
    stacks = Hashtbl.create 64;
    layers = Hashtbl.create 32;
  }

let layer t name =
  match Hashtbl.find_opt t.layers name with
  | Some l -> l
  | None ->
    let l = { count = 0; total_v = 0.0; self_v = 0.0; total_h = 0.0; self_h = 0.0 } in
    Hashtbl.add t.layers name l;
    l

let account t name ~dv ~dh ~child_v ~child_h =
  let l = layer t name in
  l.count <- l.count + 1;
  l.total_v <- l.total_v +. dv;
  l.self_v <- l.self_v +. (dv -. child_v);
  l.total_h <- l.total_h +. dh;
  l.self_h <- l.self_h +. (dh -. child_h)

let keep t s =
  if t.nspans < cap then begin
    t.spans <- s :: t.spans;
    t.nspans <- t.nspans + 1
  end

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let record t ~op name f =
  let tid = Sched.current_tid () in
  let stack = Option.value ~default:[] (Hashtbl.find_opt t.stacks tid) in
  let id = fresh_id t in
  let op_id = if op then id else match stack with p :: _ -> p.f_op | [] -> -1 in
  let fr =
    {
      f_id = id;
      f_op = op_id;
      f_v0 = Sched.now t.sched;
      f_h0 = host () -. t.origin;
      f_child_v = 0.0;
      f_child_h = 0.0;
    }
  in
  Hashtbl.replace t.stacks tid (fr :: stack);
  let finish () =
    let v1 = Sched.now t.sched and h1 = host () -. t.origin in
    let dv = v1 -. fr.f_v0 and dh = h1 -. fr.f_h0 in
    account t name ~dv ~dh ~child_v:fr.f_child_v ~child_h:fr.f_child_h;
    let parent =
      match stack with
      | p :: _ ->
        p.f_child_v <- p.f_child_v +. dv;
        p.f_child_h <- p.f_child_h +. dh;
        p.f_id
      | [] -> -1
    in
    Hashtbl.replace t.stacks tid stack;
    keep t { id; parent; op = op_id; name; v0 = fr.f_v0; v1; h0 = fr.f_h0; h1 }
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* Run [f] inside a span named [name].  [op] marks the outermost span
   of a measured op; nested spans inherit its op id. *)
let span t ?(op = false) name f = if t.on then record t ~op name f else f ()

(* A verification the controller just finished on the current fiber:
   its span ends now and lasted [dur] virtual ns.  Its host time is not
   observable from outside, so it is charged to the enclosing span. *)
let verify_done t ~ino:_ ~incremental:_ ~dur ~ok:_ =
  if t.on then begin
    let tid = Sched.current_tid () in
    let now = Sched.now t.sched and h = host () -. t.origin in
    let parent, op =
      match Hashtbl.find_opt t.stacks tid with
      | Some (p :: _) ->
        p.f_child_v <- p.f_child_v +. dur;
        (p.f_id, p.f_op)
      | _ -> (-1, -1)
    in
    account t "ctl.verify" ~dv:dur ~dh:0.0 ~child_v:0.0 ~child_h:0.0;
    let id = fresh_id t in
    keep t { id; parent; op; name = "ctl.verify"; v0 = now -. dur; v1 = now; h0 = h; h1 = h }
  end

let ring_batch t ~shard ~batch ~depth =
  if t.on && t.nevents < cap then begin
    t.events <- (Sched.now t.sched, shard, batch, depth) :: t.events;
    t.nevents <- t.nevents + 1
  end

(* Self-time table, heaviest virtual self time first. *)
let table t =
  Hashtbl.fold (fun name l acc -> (name, l) :: acc) t.layers []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b.self_v a.self_v)

let self_us t name =
  match Hashtbl.find_opt t.layers name with Some l -> l.self_v /. 1e3 | None -> 0.0

(* Sum of self time over every layer whose name starts with [prefix]. *)
let self_us_prefix t prefix =
  Hashtbl.fold
    (fun name l acc -> if String.starts_with ~prefix name then acc +. (l.self_v /. 1e3) else acc)
    t.layers 0.0

let to_json t ~workload ~seed =
  let open Json in
  let span_json s =
    Obj
      [
        ("id", Num (float_of_int s.id));
        ("parent", Num (float_of_int s.parent));
        ("op", Num (float_of_int s.op));
        ("name", Str s.name);
        ("v0_ns", Num s.v0);
        ("v1_ns", Num s.v1);
        ("h0_s", Num s.h0);
        ("h1_s", Num s.h1);
      ]
  in
  let layer_json (name, l) =
    Obj
      [
        ("layer", Str name);
        ("count", Num (float_of_int l.count));
        ("virtual_total_us", Num (l.total_v /. 1e3));
        ("virtual_self_us", Num (l.self_v /. 1e3));
        ("host_total_us", Num (l.total_h *. 1e6));
        ("host_self_us", Num (l.self_h *. 1e6));
      ]
  in
  Obj
    [
      ("workload", Str workload);
      ("seed", Num (float_of_int seed));
      ("spans_total", Num (float_of_int t.next_id));
      ("spans_kept", Num (float_of_int t.nspans));
      ("self_time", Arr (List.map layer_json (table t)));
      ("spans", Arr (List.rev_map span_json t.spans));
      ( "ring_batches",
        Arr
          (List.rev_map
             (fun (v, shard, batch, depth) ->
               Obj
                 [
                   ("v_ns", Num v);
                   ("shard", Num (float_of_int shard));
                   ("batch", Num (float_of_int batch));
                   ("depth", Num (float_of_int depth));
                 ])
             t.events) );
    ]
