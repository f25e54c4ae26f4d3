(** Dependence graphs of (loop, machine) pairs, with an optional memo.

    The compile pipeline calls {!build} once for each loop it schedules
    and hands the graph to {!List_sched} / {!Modulo_sched}, which attach it
    to the {!Schedule.t}; the simulator and {!Schedule.validate} read it
    from there.  Nothing is retained past the schedule, so a labelling
    sweep keeps no graph of a loop it has finished with.

    The memo ({!get}) serves callers that re-derive a graph from a loop
    alone: feature extraction and RecMII queries.  Keyed like
    {!Compile_cache}: a digest of {!Loop.digest} (name blanked) and
    {!Machine.digest} (the machine determines the latency model).  The
    table is a {!Memo} of {!Deps.csr} graphs: thread-safe and bounded
    (oldest-first eviction). *)

type t

val create : ?capacity:int -> ?telemetry:Telemetry.t -> unit -> t
(** A fresh memo holding at most [capacity] graphs (default 16384);
    [capacity = 0] never stores, so every lookup builds. *)

val global : t

val build : Machine.t -> Loop.t -> Deps.csr
(** The dependence graph of the loop under the machine's latency model,
    built afresh; touches no memo. *)

val get : ?memo:t -> Machine.t -> Loop.t -> Deps.csr
(** {!build}, memoised in [memo] (default {!global}).  Counts a hit or a
    miss in telemetry under pass ["deps-memo"]. *)

val hits : t -> int
val misses : t -> int
val clear : t -> unit
