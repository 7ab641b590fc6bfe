(* Contention models.

   [Server] is a bandwidth-shared device: the cost of moving [bytes]
   depends on how many fibers are concurrently inside the server, through
   a caller-supplied total-bandwidth curve.  This is how the NVM layer
   models Optane's saturation and collapse under excessive concurrency.

   [Hotspot] is a contended cacheline: the cost of one access grows
   linearly with the number of concurrent accessors.  The VFS baseline
   uses hotspots for the dentry/inode reference counts and coarse locks
   FxMark blames for kernel-FS scalability collapse. *)

module Server = struct
  type t = {
    name : string;
    (* [curve k] is the aggregate bandwidth in bytes/ns when [k] fibers
       access concurrently. *)
    curve : int -> float;
    base_latency : float;
    mutable active : int;
    mutable peak_active : int;
    mutable total_bytes : float;
  }

  let create ~name ~base_latency ~curve =
    {
      name;
      curve;
      base_latency;
      active = 0;
      peak_active = 0;
      total_bytes = 0.0;
    }

  (* Cost model: latency + bytes / per-accessor share of the aggregate
     bandwidth sampled at entry.  Sampling at entry (rather than
     integrating over the transfer) keeps the model simple and the
     simulation fast; at benchmark steady state the two agree. *)
  let access ?(latency_scale = 1.0) t ~bytes =
    t.active <- t.active + 1;
    if t.active > t.peak_active then t.peak_active <- t.active;
    t.total_bytes <- t.total_bytes +. float_of_int bytes;
    let k = t.active in
    let share = t.curve k /. float_of_int k in
    let cost = (t.base_latency *. latency_scale) +. (float_of_int bytes /. share) in
    Sched.delay cost;
    t.active <- t.active - 1

  let active t = t.active
  let peak_active t = t.peak_active
  let total_bytes t = t.total_bytes
end

module Hotspot = struct
  type t = {
    base : float; (* uncontended cost, ns *)
    alpha : float; (* additional cost per concurrent accessor, ns *)
    mutable active : int;
    mutable touches : int;
  }

  let create ~base ~alpha = { base; alpha; active = 0; touches = 0 }

  let touch t =
    t.active <- t.active + 1;
    t.touches <- t.touches + 1;
    let cost = t.base +. (t.alpha *. float_of_int (t.active - 1)) in
    Sched.delay cost;
    t.active <- t.active - 1

  let touches t = t.touches
end
