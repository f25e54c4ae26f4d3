(** Set-associative cache with LRU replacement.

    Used for L1D, L1I and the unified L2.  Addresses are plain byte
    addresses in the simulated address space.  When both the line size and
    the set count are powers of two (true for every shipped machine
    geometry) indexing is shift/mask; otherwise a division fallback is
    used. *)

type t

val create : Machine.cache_geom -> t

val access : t -> int -> bool
(** [access t addr] touches the line containing [addr]; returns [true] on a
    hit.  On a miss the line is allocated, evicting the LRU way. *)

val probe : t -> int -> bool
(** Like {!access} but without allocating on a miss. *)

val reset : t -> unit
(** Invalidate everything (counters are preserved). *)

val copy : t -> t
(** Independent deep copy; used to evaluate hypothetical access sequences
    without disturbing the live state. *)

val lines : t -> int
(** Total number of lines (capacity / line size). *)

val line_bytes : t -> int
val sets : t -> int
val assoc : t -> int

val set_of_addr : t -> int -> int
(** The set index the line containing [addr] maps to. *)

val hits : t -> int
val misses : t -> int
(** Cumulative {!access} hit/miss counters since creation.  Telemetry
    only — they are not part of the simulator's bit-identical contract. *)

val snapshot_set : t -> int -> int array -> int -> unit
(** [snapshot_set t set buf off] writes [assoc t] ints at [buf.(off)]: the
    set's way tags ordered most- to least-recently used.  Two cache states
    whose snapshots agree on every set relevant to a future access
    sequence produce identical hit/miss behaviour for that sequence — LRU
    depends only on tags and per-set recency order, never on absolute
    stamp values. *)

type flood
(** A precomputed overwrite equivalent to replaying an access sequence
    that floods every set with at least [assoc] distinct lines. *)

val plan_flood : t -> int array -> flood option
(** [plan_flood t addrs] is [Some f] when accessing [addrs] in order
    fills every set from cold — which makes the resulting state (tags and
    per-set recency order) independent of the state the sequence is
    applied to — and [None] otherwise.  [f] depends only on the cache
    geometry and [addrs]. *)

val apply_flood : t -> flood -> unit
(** Installs the flood's canonical state: same tags and recency order as
    replaying the sequence through {!access}, at array-copy cost.  The
    hit/miss counters are not touched — flooding is state replacement,
    not measured traffic. *)
