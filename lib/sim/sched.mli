(** Deterministic discrete-event scheduler with effect-based fibers.

    Simulated threads ("fibers") run on a virtual clock measured in
    nanoseconds.  Execution is fully deterministic: a given spawn order
    always yields the same interleaving. *)

type t

type waker = unit -> unit

type ctx = { cpu : int; tid : int }
(** Identity of the running fiber: the simulated CPU it is pinned to and a
    unique thread id. *)

val create : unit -> t

val now : t -> float
(** Current virtual time in nanoseconds. *)

val events_processed : t -> int

val spawn : ?cpu:int -> t -> (unit -> unit) -> unit
(** Start a fiber pinned to simulated CPU [cpu] (default 0). *)

val schedule : t -> float -> (unit -> unit) -> unit
(** Low-level: run a thunk at an absolute virtual time. *)

val run : ?until:float -> t -> float
(** Process events until the heap drains or virtual time [until] is
    reached; returns the virtual time reached.  Re-raises the first
    exception escaping a fiber. *)

val stop : t -> unit
(** Mark the simulation as stopping: every subsequently-resumed fiber is
    discontinued.  Used to tear down infinite service loops. *)

exception Stopped
(** Raised inside fibers on resumption after {!stop}. *)

exception Killed
(** Raised inside a {!killable} fiber when the kill injector fires.  Like
    {!Stopped} it is swallowed by the fiber wrapper rather than recorded
    as a simulation failure: the fiber simply dies mid-operation. *)

(** {2 Process-failure injection}

    Fibers inside a {!killable} scope cross a "kill point" at every
    {!delay} / {!yield} / {!cpu_work} boundary — which includes every
    simulated NVM store, so an armed injector can abandon a LibFS
    operation at any intermediate store.  {!shield} marks kernel
    (controller/MMU) sections: a process cannot die halfway through a
    syscall, only at syscall return. *)

val arm_kill : t -> after:int -> unit
(** Arm the injector: the killable fiber is discontinued with {!Killed}
    at the [after]-th kill point (0-based) it crosses from now on. *)

val arm_hang : t -> after:int -> unit
(** Like {!arm_kill} but the fiber wedges instead of dying: its
    continuation is dropped so it never makes progress again, while its
    resources (mappings, leases, allocations) stay held. *)

val arm_count : t -> unit
(** Arm in counting mode: kill points are counted (see
    {!kill_points_crossed}) but the injector never fires.  Used by the
    explorer's recording pass to learn how many injection points a
    workload crosses. *)

val disarm : t -> unit

val kill_points_crossed : t -> int
(** Kill points crossed since the injector was last armed. *)

val hung_fibers : t -> int
(** Number of fibers wedged by {!arm_hang} since creation. *)

(** {2 Fiber operations} — valid only inside a fiber. *)

val delay : float -> unit
(** Advance this fiber's virtual time by [ns]. *)

val cpu_work : float -> unit
(** Alias of {!delay}: account CPU time spent off-NVM. *)

val yield : unit -> unit

val park : ((unit -> unit) -> unit) -> unit
(** [park register] suspends the fiber; [register waker] must arrange for
    [waker] to be called exactly when the fiber should resume.  Calling
    the waker more than once is harmless. *)

val self : unit -> ctx
val current_cpu : unit -> int
val current_tid : unit -> int

val killable : (unit -> 'a) -> 'a
(** [killable f] runs [f] with the current fiber exposed to the kill/hang
    injector.  Scopes nest; the fiber is a target while at least one
    scope is open and no {!shield} is. *)

val shield : (unit -> 'a) -> 'a
(** [shield f] runs [f] with kill points suppressed for the current
    fiber: kernel-side critical sections (controller syscalls) complete
    or never start, they are not abandoned halfway.  A fiber that parks
    inside a shield stays shielded across the park. *)
