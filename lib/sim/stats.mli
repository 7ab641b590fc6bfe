(** Named counters and virtual-time accumulators (benchmark
    instrumentation; the Fig. 8 sharing-cost breakdown reads these). *)

type t

val create : unit -> t

val add : t -> string -> float -> unit
(** Accumulate [v] under [name]. *)

val cell : t -> string -> float ref
(** The accumulator of [name] (made at 0), for a hot path to keep. *)

val incr : t -> string -> unit

val get : t -> string -> float
(** 0 for unknown names. *)

val reset : t -> unit

val to_list : t -> (string * float) list
(** All counters, sorted by name. *)

val timed : t -> Sched.t -> string -> (unit -> 'a) -> 'a
(** Run a thunk and accumulate its virtual duration under [name]. *)

(** Log-bucket latency histograms over virtual nanoseconds: O(1)
    deterministic recording, approximate percentiles (quarter-octave
    buckets, clamped to the exact observed min/max), exact max. *)
module Hist : sig
  type t

  val create : unit -> t

  val observe : t -> float -> unit
  (** Record one sample (virtual ns). *)

  val count : t -> int
  val mean : t -> float

  val percentile : t -> float -> float
  (** [percentile h p] for [p] in [0, 100]; 0 when empty. *)

  val max_value : t -> float
  val min_value : t -> float
  val reset : t -> unit
  val pp : Format.formatter -> t -> unit
end
