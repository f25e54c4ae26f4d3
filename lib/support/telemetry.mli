(** Per-pass telemetry accumulation.

    Every stage of the compile pipeline (and the compile cache) reports
    into a sink: how often it ran, how much wall-clock time it consumed,
    and any integer metrics it cares to expose (op-count deltas, spills,
    initiation intervals, cache hits).  Sinks are cheap, thread-safe
    (worker domains of the parallel sweep report concurrently), and
    renderable as a table from the CLI.

    A process-wide {!global} sink exists so that deeply-buried call sites
    ({!val:Pipeline.run} behind {!Measure.sweep} behind a labelling
    sweep) need not thread a sink explicitly; experiments that want
    isolated numbers create their own. *)

type t
(** A mutable, mutex-protected sink. *)

val create : unit -> t

val global : t
(** The process-wide default sink. *)

val record :
  t -> pass:string -> seconds:float -> ?metrics:(string * int) list -> unit -> unit
(** [record t ~pass ~seconds ~metrics ()] adds one invocation of [pass]:
    increments its call count, accumulates wall time, and sums each metric
    into the pass's named counters. *)

val incr : t -> pass:string -> string -> int -> unit
(** [incr t ~pass metric n] bumps a bare counter without touching the
    call count or timing (cache hit/miss counters). *)

val calls : t -> pass:string -> int
(** Number of recorded invocations of [pass] (0 if never seen). *)

val counter : t -> pass:string -> string -> int
(** Value of a named counter (0 if never seen). *)

val to_table : t -> string
(** Render the sink as an ASCII table: one row per pass in first-seen
    order — calls, total and mean wall time, then every named counter as
    [name=value] pairs. *)
