(** Resizable chained hash table with stable lock stripes.

    Concurrency control is the caller's responsibility: stripe locks over
    [stripe_of_key] remain valid across resizes. *)

type ('k, 'v) t

val create :
  ?initial_size:int -> hash:('k -> int) -> equal:('k -> 'k -> bool) -> unit -> ('k, 'v) t

val create_string : ?initial_size:int -> unit -> (string, 'v) t
(** Table keyed by strings (FNV-1a hash). *)

val length : ('k, 'v) t -> int

val resize_count : ('k, 'v) t -> int
(** How many times the table rehashed (benchmark instrumentation). *)

val stripes : int
(** Number of lock stripes ([stripe_of_key] ranges over [0, stripes)). *)

val stripe_of_key : ('k, 'v) t -> 'k -> int
(** Stable stripe of a key; unaffected by resizes. *)

val find : ('k, 'v) t -> 'k -> 'v option
val mem : ('k, 'v) t -> 'k -> bool

val replace : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or overwrite. *)

val add_if_absent : ('k, 'v) t -> 'k -> 'v -> bool
(** Insert only if absent; [false] if the key was already bound. *)

val remove : ('k, 'v) t -> 'k -> bool
(** [true] iff a binding was removed. *)

val iter : ('k, 'v) t -> ('k -> 'v -> unit) -> unit
val fold : ('k, 'v) t -> 'b -> ('b -> 'k -> 'v -> 'b) -> 'b
val clear : ('k, 'v) t -> unit

val string_hash : string -> int
