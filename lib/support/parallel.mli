(** Work-stealing parallel runtime over a persistent domain pool.

    Worker domains are spawned once per process (lazily, on the first
    parallel call) and reused by every subsequent call — a greedy-selection
    run with hundreds of rounds pays the spawn cost zero times per round.
    Each batch of tasks is distributed over per-participant Chase–Lev
    deques: owners pop their own deque LIFO, idle participants steal from
    the top with a single lock-free compare-and-set, so heavy-tailed task
    costs (a labelling sweep where loops whose entries are skipped finish
    100x sooner than simulated ones) rebalance automatically instead of leaving cores
    idle behind a straggler.

    Determinism is the repo's standing contract and holds at every [jobs]
    value: results land at their input index, reductions read them back in
    input order, and if tasks raise, the first exception {e by input index}
    is re-raised after every task has run — exactly the sequential
    semantics, provided the tasks themselves are deterministic and share
    no mutable state (give each task its own {!Rng} stream, derived from
    stable identifiers rather than iteration order).

    All entry points are nesting-safe: a task may itself call [map],
    [tabulate], [iter] or [fork_join].  The inner batch gets its own
    deques; idle pool workers join it when they run out of outer work, and
    the pool never oversubscribes the machine by spawning extra domains
    for nested calls.

    [jobs <= 1] falls back to a plain sequential loop with no domain ever
    woken — the safe default everywhere.

    Scheduler counters accumulate in {!Telemetry.global}: pass
    ["parallel"] records [batches], [tasks], [steals] and [steal-misses]
    (lost CAS races); pass ["parallel.domains"] records tasks executed per
    domain ([d0] is the main domain, [dN] the Nth pool worker) — the
    per-domain utilization view surfaced by [--telemetry]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f arr] applies [f] to every element, fanning out over up to
    [jobs] participants (the calling domain plus pool workers).  Results
    keep their input index. *)

val tabulate : ?jobs:int -> int -> (int -> 'b) -> 'b array
(** [tabulate ~jobs n f] is [Array.init n f] in parallel — the index-space
    form of {!map}, with no input array to allocate. *)

val iter : ?jobs:int -> int -> (int -> unit) -> unit
(** [iter ~jobs n f] runs [f 0 .. f (n-1)] for effect — {!tabulate}
    without a results array (blocked matrix kernels that write disjoint
    tiles in place). *)

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} over lists.  Prefer the array forms on hot paths; this exists
    for call sites whose data is inherently list-shaped. *)

val fork_join : ?jobs:int -> (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** [fork_join fa fb] evaluates both thunks, in parallel when [jobs]
    (default 2) allows, and returns both results.  If both raise, [fa]'s
    exception wins — first by index, as everywhere. *)

val default_jobs : unit -> int
(** Pool size for this host: the [UNROLLML_JOBS] environment variable when
    set to a positive integer, otherwise the full
    [Domain.recommended_domain_count] (no cap — big hosts are not
    throttled). *)
