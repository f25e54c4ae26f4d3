(** Memoised dependence graphs shared across the whole pipeline.

    One [Deps.build] per distinct (loop content, machine) instead of six:
    the schedule pass, the allocator's respill rounds, the modulo
    scheduler's RecMII and placement phases, the simulator's operand
    resolution and feature extraction all pull the same entry.  Keyed like
    {!Compile_cache}: a digest of the marshalled loop with its name blanked
    plus the machine (which determines the latency model).  Thread-safe and
    bounded (oldest-first eviction). *)

type entry = { deps : Deps.t; csr : Deps.csr }

type t

val create : ?capacity:int -> ?telemetry:Telemetry.t -> unit -> t
(** A fresh memo holding at most [capacity] graphs (default 16384);
    [capacity = 0] never stores, so every lookup builds. *)

val global : t

val get : ?memo:t -> Machine.t -> Loop.t -> entry
(** The dependence graph of the loop under the machine's latency model,
    built on first request (default memo: {!global}).  Counts a hit or a
    miss in telemetry under pass ["deps-memo"]. *)

val deps : ?memo:t -> Machine.t -> Loop.t -> Deps.t
(** [(get ?memo machine loop).deps]. *)

val hits : t -> int
val misses : t -> int
val hit_rate : t -> float
val clear : t -> unit
