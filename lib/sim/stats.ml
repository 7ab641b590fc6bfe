(* Named counters and time accumulators.

   The sharing-cost breakdown of Fig. 8 (map / unmap / verify / rebuild
   fractions) and various benchmark instrumentation read these. *)

type t = { counters : (string, float ref) Hashtbl.t }

let create () = { counters = Hashtbl.create 32 }

let cell t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
    let r = ref 0.0 in
    Hashtbl.add t.counters name r;
    r

let add t name v =
  let r = cell t name in
  r := !r +. v

let incr t name = add t name 1.0

let get t name = match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0.0

let reset t = Hashtbl.reset t.counters

let to_list t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Time a phase and accumulate its virtual duration under [name]. *)
let timed t sched name f =
  let start = Sched.now sched in
  let v = f () in
  add t name (Sched.now sched -. start);
  v

(* ------------------------------------------------------------------ *)
(* Latency histograms.

   Log-scale buckets (quarter octaves: four buckets per power of two)
   over virtual nanoseconds.  Observation is O(1); percentiles walk the
   cumulative counts and report the bucket's geometric midpoint, clamped
   to the exact observed [min, max], so p50/p99 carry at most ~19%
   bucketing error while max is exact.  Everything is plain float/int
   arithmetic, so recording is deterministic across runs. *)
module Hist = struct
  let sub_octave = 4.0
  let nbuckets = 256 (* covers [1ns, 2^64 ns); plenty for virtual time *)

  type t = {
    buckets : int array;
    mutable count : int;
    mutable sum : float;
    mutable vmin : float;
    mutable vmax : float;
  }

  let create () =
    { buckets = Array.make nbuckets 0; count = 0; sum = 0.0; vmin = infinity; vmax = neg_infinity }

  let bucket_of v =
    if v <= 1.0 then 0
    else min (nbuckets - 1) (int_of_float (sub_octave *. (log v /. log 2.0)))

  let observe h v =
    h.buckets.(bucket_of v) <- h.buckets.(bucket_of v) + 1;
    h.count <- h.count + 1;
    h.sum <- h.sum +. v;
    if v < h.vmin then h.vmin <- v;
    if v > h.vmax then h.vmax <- v

  let count h = h.count
  let mean h = if h.count = 0 then 0.0 else h.sum /. float_of_int h.count
  let max_value h = if h.count = 0 then 0.0 else h.vmax
  let min_value h = if h.count = 0 then 0.0 else h.vmin

  (* Smallest bucket whose cumulative count reaches the requested rank;
     [p] in [0, 100]. *)
  let percentile h p =
    if h.count = 0 then 0.0
    else begin
      let rank =
        let r = int_of_float (ceil (p /. 100.0 *. float_of_int h.count)) in
        if r < 1 then 1 else min r h.count
      in
      let b = ref 0 and seen = ref 0 in
      (try
         for i = 0 to nbuckets - 1 do
           seen := !seen + h.buckets.(i);
           if !seen >= rank then begin
             b := i;
             raise Exit
           end
         done
       with Exit -> ());
      let v = 2.0 ** ((float_of_int !b +. 0.5) /. sub_octave) in
      Float.min h.vmax (Float.max h.vmin v)
    end

  let reset h =
    Array.fill h.buckets 0 nbuckets 0;
    h.count <- 0;
    h.sum <- 0.0;
    h.vmin <- infinity;
    h.vmax <- neg_infinity

  let pp ppf h =
    if h.count = 0 then Fmt.pf ppf "(empty)"
    else
      Fmt.pf ppf "n=%d p50=%.0fns p99=%.0fns max=%.0fns" h.count (percentile h 50.0)
        (percentile h 99.0) (max_value h)
end
