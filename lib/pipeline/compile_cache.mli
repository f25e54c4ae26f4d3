(** Content-addressed compile cache.

    The labelling methodology compiles every loop at eight unroll factors,
    twice (SWP off/on), and the experiment drivers re-enter the compiler
    with the same loops again and again.  This cache memoises both the
    compiled executables and the deterministic (noise-free) cycle counts,
    keyed by {!Loop.digest} (the loop's {e content}: its name is blanked,
    so identical loops under different names share entries), the unroll
    factor, the SWP flag, and {!Machine.digest}.  {!Pipeline.compile}
    uses the executables table; the labelling sweep ([Measure.sweep])
    uses only the cycles table, since its repeats never reach the
    executable.

    The two stores are {!Memo} tables: thread-safe (worker domains of the
    parallel labelling sweep share one cache), bounded, oldest-first
    eviction; a capacity of 0 disables storing entirely (useful for
    benchmarking cold compiles).  Hit/miss counters feed the telemetry
    sink under the ["compile-cache"] pass. *)

type key = string
(** A content digest; cheap to compare and hash. *)

type t

val create : ?exe_capacity:int -> ?cycles_capacity:int -> ?telemetry:Telemetry.t -> unit -> t
(** Defaults: [exe_capacity] 4096 (executables hold whole schedules),
    [cycles_capacity] 262144 (an int each), telemetry {!Telemetry.global}. *)

val global : t
(** The process-wide cache used by {!val:Pipeline.compile} by default. *)

val key : machine:Machine.t -> swp:bool -> factor:int -> Loop.t -> key
(** Digest of [Loop.digest loop], [Machine.digest machine], the factor and
    the SWP flag: every field of the loop except its name and every field
    of the machine participate. *)

val find_exe : t -> key -> Pipeline_state.executable option
val store_exe : t -> key -> Pipeline_state.executable -> unit

val find_cycles : t -> key -> max_sim_iters:int option -> int option
(** The memoised noise-free measurement for the keyed compile under the
    given simulation window (the window changes the extrapolation, so it
    is part of the lookup). *)

val store_cycles : t -> key -> max_sim_iters:int option -> int -> unit

val hits : t -> int
val misses : t -> int
(** Lookup counters across both stores since creation. *)
