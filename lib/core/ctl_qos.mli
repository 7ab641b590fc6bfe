(* Per-tenant QoS: token-bucket admission control over the shared
   controller planes (DESIGN.md §4.17).

   One bucket per trust group, charged for syscalls, ring-batch slots,
   verification enqueues and page-pool draw.  Refill rate is the
   tenant's weighted fair share of device write bandwidth
   (Perf.fair_share) converted into tokens/ns.  Enforcement is opt-in:
   buckets gate admission only once a share has been configured;
   unconfigured tenants are charged for observability but always
   admitted, so existing single-tenant setups are unchanged.

   Pure accounting: virtual time is passed in by the caller, which also
   performs any parking/delaying the admission verdict calls for. *)

type kind = Syscall | Ring_slot | Verify | Page_draw

type t

val create : ?profile:Trio_nvm.Perf.profile -> unit -> t

(* Token cost of one charged unit of [kind]. *)
val cost_of : kind -> float

val kind_to_string : kind -> string

(* True once any tenant has a configured share (enables the weighted
   drain paths in Ctl_gate). *)
val enforced : t -> bool

(* Configure a tenant's weight and turn enforcement on for it.  Shares
   are relative; the refill rate is share / (sum of configured shares)
   of peak device write bandwidth. *)
val set_share : t -> group:int -> now:float -> float -> unit

(* Debit [n] units of [kind] from the group's bucket (and bump its
   charge counters).  Never blocks. *)
val charge : t -> group:int -> now:float -> ?n:int -> kind -> unit

(* [None]: admit now.  [Some deadline]: overdrawn; the balance returns
   to zero at [deadline] (virtual ns).  Callers park/delay until then,
   or surface EAGAIN carrying the deadline when asked not to wait. *)
val admission : t -> group:int -> now:float -> float option

(* Current token balance (after refill); negative means overdrawn. *)
val balance : t -> group:int -> now:float -> float

(* Record that the tenant was actually throttled for [ns]. *)
val note_throttled : t -> group:int -> now:float -> ns:float -> unit

type tenant_stats = {
  ts_group : int;
  ts_share : float option;
  ts_balance : float;
  ts_syscalls : int;
  ts_ring_slots : int;
  ts_verifies : int;
  ts_page_draws : int;
  ts_throttles : int;
  ts_throttle_ns : float;
}

val stats : t -> now:float -> tenant_stats list

val pp_stats : Format.formatter -> tenant_stats list -> unit
