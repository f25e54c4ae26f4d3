(** A bounded, thread-safe memo table.

    The one cache design behind {!Compile_cache} (executables and cycle
    counts), {!Deps_memo} (dependence graphs) and {!Predict_service}'s
    feature-vector cache: a hashtable of at most [capacity] entries that
    evicts the oldest insertion first.  Adding a key that is already
    present is a no-op, so each live key sits in the eviction queue
    exactly once and the eviction order is a pure function of the
    insertion order.

    Every operation holds the table's mutex: worker domains of the
    parallel sweep and concurrent serve batches share one table.  Callers
    that compute a missing value do so outside the lock and then {!add}
    it; when two domains race on the same key the first value added
    stays. *)

type ('k, 'v) t

val create : ?telemetry:Telemetry.t * string -> int -> ('k, 'v) t
(** [create ~telemetry:(sink, pass) capacity] holds at most [capacity]
    entries; [capacity <= 0] never stores anything, so every lookup
    misses.  With [telemetry], every {!find} also bumps the ["hits"] or
    ["misses"] counter of [pass] in [sink]. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** The stored value, counting a hit or a miss. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Store a value.  No-op when the key is already present or the capacity
    is 0; when the table is full the oldest entry is evicted first (and
    counted). *)

val hits : ('k, 'v) t -> int
val misses : ('k, 'v) t -> int
val evictions : ('k, 'v) t -> int
(** Counters since {!create} or the last {!clear}. *)

val length : ('k, 'v) t -> int
(** Entries currently stored (at most the capacity). *)

val clear : ('k, 'v) t -> unit
(** Drop every entry and zero the counters. *)
