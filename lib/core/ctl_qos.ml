(* Per-tenant QoS: token-bucket admission control over the shared
   controller planes.

   Every process belongs to a trust group (Ctl_state.group_of); the QoS
   plane keeps one token bucket per group and charges it for the four
   ways a tenant can load the shared substrate: synchronous syscalls,
   ring-batch slots drained on its behalf, verification work it
   enqueues, and the pages it draws.  Buckets refill continuously at a
   rate derived from the tenant's weighted fair share of device write
   bandwidth (Perf.fair_share), so shares configured at
   [register_process] time translate into slices of the same bandwidth
   curves the rest of the simulator charges against.

   Enforcement is opt-in: a bucket only gates admission once a share
   has been configured explicitly (register_process ?qos_share or
   set_share).  Unconfigured tenants are charged — the counters feed
   trioctl qos — but always admitted, so single-tenant setups and the
   existing suites behave exactly as before.

   This module is deliberately free of Sched and Ctl_state
   dependencies: callers pass virtual time in and perform their own
   parking/delaying, which keeps the accounting pure and testable. *)

module Perf = Trio_nvm.Perf

type kind = Syscall | Ring_slot | Verify | Page_draw

(* Token cost per charged unit.  Syscalls are the expensive kernel
   crossing; ring slots are amortized (that is the whole point of the
   ring plane); verification is the most precious shared resource. *)
let cost_of = function
  | Syscall -> 6.0
  | Ring_slot -> 1.0
  | Verify -> 10.0
  | Page_draw -> 0.5

let kind_to_string = function
  | Syscall -> "syscall"
  | Ring_slot -> "ring_slot"
  | Verify -> "verify"
  | Page_draw -> "page_draw"

type bucket = {
  bk_group : int;
  mutable bk_share : float; (* weight; meaningful once bk_enforce *)
  mutable bk_enforce : bool; (* share explicitly configured? *)
  mutable bk_tokens : float; (* may go negative: deficit *)
  mutable bk_last : float; (* virtual ns of last refill *)
  mutable bk_syscalls : int;
  mutable bk_ring_slots : int;
  mutable bk_verifies : int;
  mutable bk_page_draws : int;
  mutable bk_throttles : int; (* admission rejections acted upon *)
  mutable bk_throttle_ns : float; (* total parked/delayed ns *)
}

type t = {
  q_profile : Perf.profile;
  q_buckets : (int, bucket) Hashtbl.t;
  mutable q_total_shares : float; (* sum of configured shares *)
  mutable q_enforced : int; (* number of enforced buckets *)
}

let create ?(profile = Perf.optane) () =
  { q_profile = profile; q_buckets = Hashtbl.create 32; q_total_shares = 0.0;
    q_enforced = 0 }

let enforced t = t.q_enforced > 0

(* Tokens/ns the bucket refills at: the tenant's fair slice of peak
   write bandwidth (bytes/ns), scaled into token units.  A sole tenant
   with share 1.0 sustains ~0.05 tokens/ns — comfortably above what a
   well-behaved LibFS generates, so enforcement only bites tenants
   hammering the controller. *)
let rate_per_bw = 0.004

let refill_rate t b =
  let share = if b.bk_enforce then b.bk_share else 1.0 in
  let total = Float.max 1.0 t.q_total_shares in
  Float.max 1e-9 (Perf.fair_share t.q_profile ~share ~total *. rate_per_bw)

(* Burst capacity: how far ahead of its rate a tenant may run.  Scaled
   by share so a small-share tenant cannot bank a big burst. *)
let burst_of b =
  let share = if b.bk_enforce then b.bk_share else 1.0 in
  Float.max 60.0 (600.0 *. Float.min 1.0 share)

let bucket t ~group ~now =
  match Hashtbl.find_opt t.q_buckets group with
  | Some b -> b
  | None ->
    let b =
      { bk_group = group; bk_share = 1.0; bk_enforce = false; bk_tokens = 0.0;
        bk_last = now; bk_syscalls = 0; bk_ring_slots = 0; bk_verifies = 0;
        bk_page_draws = 0; bk_throttles = 0; bk_throttle_ns = 0.0 }
    in
    b.bk_tokens <- burst_of b;
    Hashtbl.replace t.q_buckets group b;
    b

let refill t b ~now =
  let dt = now -. b.bk_last in
  if dt > 0.0 then begin
    b.bk_tokens <- Float.min (burst_of b) (b.bk_tokens +. (refill_rate t b *. dt));
    b.bk_last <- now
  end

let set_share t ~group ~now share =
  let b = bucket t ~group ~now in
  refill t b ~now;
  if b.bk_enforce then t.q_total_shares <- t.q_total_shares -. b.bk_share
  else t.q_enforced <- t.q_enforced + 1;
  b.bk_share <- Float.max 1e-3 share;
  b.bk_enforce <- true;
  t.q_total_shares <- t.q_total_shares +. b.bk_share;
  (* Clamp banked tokens to the (possibly smaller) new burst. *)
  b.bk_tokens <- Float.min b.bk_tokens (burst_of b)

let charge t ~group ~now ?(n = 1) kind =
  let b = bucket t ~group ~now in
  refill t b ~now;
  (match kind with
  | Syscall -> b.bk_syscalls <- b.bk_syscalls + n
  | Ring_slot -> b.bk_ring_slots <- b.bk_ring_slots + n
  | Verify -> b.bk_verifies <- b.bk_verifies + n
  | Page_draw -> b.bk_page_draws <- b.bk_page_draws + n);
  (* [Mutation.Qos_bypass]: the "tenant charged zero" sabotage *)
  if not (Mutation.active Qos_bypass) then
    b.bk_tokens <- b.bk_tokens -. (cost_of kind *. float_of_int n)

(* [admission] returns [None] when the tenant may proceed now, or
   [Some deadline] — the virtual time its balance returns to zero — when
   it is overdrawn.  Callers park or delay until the deadline (ring
   submit parks; the sync syscall preamble delays inside its shield) or
   surface EAGAIN with the deadline when asked not to wait. *)
let admission t ~group ~now =
  if Mutation.active Qos_bypass then None
  else begin
    let b = bucket t ~group ~now in
    refill t b ~now;
    (* The epsilon matters: instalment repayments leave a tiny negative
       float residue, and a deadline of [now + residue/rate] can round
       to [now] itself — a parked producer would then wake, re-check and
       re-park at the same virtual instant forever.  Sub-epsilon debt is
       admitted; real debt always pays at least a whole nanosecond. *)
    if (not b.bk_enforce) || b.bk_tokens >= -1e-6 then None
    else Some (now +. Float.max 1.0 (-.b.bk_tokens /. refill_rate t b))
  end

let balance t ~group ~now =
  let b = bucket t ~group ~now in
  refill t b ~now;
  b.bk_tokens

let note_throttled t ~group ~now ~ns =
  let b = bucket t ~group ~now in
  b.bk_throttles <- b.bk_throttles + 1;
  b.bk_throttle_ns <- b.bk_throttle_ns +. ns

type tenant_stats = {
  ts_group : int;
  ts_share : float option; (* None: unenforced *)
  ts_balance : float;
  ts_syscalls : int;
  ts_ring_slots : int;
  ts_verifies : int;
  ts_page_draws : int;
  ts_throttles : int;
  ts_throttle_ns : float;
}

let stats t ~now =
  Hashtbl.fold (fun _ b acc -> (b, ()) :: acc) t.q_buckets []
  |> List.map fst
  |> List.sort (fun a b -> compare a.bk_group b.bk_group)
  |> List.map (fun b ->
         refill t b ~now;
         {
           ts_group = b.bk_group;
           ts_share = (if b.bk_enforce then Some b.bk_share else None);
           ts_balance = b.bk_tokens;
           ts_syscalls = b.bk_syscalls;
           ts_ring_slots = b.bk_ring_slots;
           ts_verifies = b.bk_verifies;
           ts_page_draws = b.bk_page_draws;
           ts_throttles = b.bk_throttles;
           ts_throttle_ns = b.bk_throttle_ns;
         })

let pp_stats ppf rows =
  Fmt.pf ppf "%6s %9s %10s %9s %9s %9s %9s %9s %12s@."
    "group" "share" "balance" "syscalls" "ringslot" "verify" "pages"
    "throttles" "throttle_us";
  List.iter
    (fun r ->
      Fmt.pf ppf "%6d %9s %10.1f %9d %9d %9d %9d %9d %12.1f@."
        r.ts_group
        (match r.ts_share with None -> "-" | Some s -> Printf.sprintf "%.3f" s)
        r.ts_balance r.ts_syscalls r.ts_ring_slots r.ts_verifies r.ts_page_draws
        r.ts_throttles (r.ts_throttle_ns /. 1e3))
    rows
