(** Contention models for shared hardware resources. *)

(** A bandwidth-shared device: the cost of a transfer depends on how
    many fibers are inside the server concurrently, through a
    caller-supplied aggregate-bandwidth curve. *)
module Server : sig
  type t

  val create : name:string -> base_latency:float -> curve:(int -> float) -> t
  (** [curve k] is the aggregate bandwidth in bytes/ns at concurrency
      [k]. *)

  val access : ?latency_scale:float -> t -> bytes:int -> unit
  (** Move [bytes] through the server, delaying the calling fiber by
      latency + bytes / (per-accessor share). *)

  val active : t -> int
  val peak_active : t -> int
  val total_bytes : t -> float
end

(** A contended cacheline: access cost grows linearly with the number
    of concurrent accessors (dentry refcounts, lock words — the VFS
    bottlenecks FxMark exposes). *)
module Hotspot : sig
  type t

  val create : base:float -> alpha:float -> t
  (** Cost of one access is [base + alpha * (concurrent - 1)] ns. *)

  val touch : t -> unit
  val touches : t -> int
end
