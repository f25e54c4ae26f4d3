(** Parallel runtime over a persistent domain pool.

    Worker domains are spawned once per process (lazily, on the first
    parallel call) and reused by every subsequent call — a greedy-selection
    run with hundreds of rounds pays the spawn cost zero times per round.
    Each call publishes a batch with one shared task counter; the caller
    and any idle workers claim the next unclaimed index with a single
    fetch-and-add until every index is taken, so heavy-tailed task costs
    (a labelling sweep where loops whose entries are skipped finish 100x
    sooner than simulated ones) balance without leaving cores idle behind
    a straggler.

    The pool never grows past [Domain.recommended_domain_count () - 1]
    workers, whatever [jobs] asks for.  OCaml's stop-the-world minor
    collections wait on every domain, parked ones included, so surplus
    workers slow every allocating caller: on a 2-vCPU host the tier-1
    suite took 144 s at [UNROLLML_JOBS=1] while earlier tests left up to
    7 parked workers behind, and 78 s with the cap (119 s and 55 s at
    [UNROLLML_JOBS=4]).  A [jobs] above the core count splits the work
    the same way and gives identical results, on fewer domains.

    Determinism is the repo's standing contract and holds at every [jobs]
    value: results land at their input index, reductions read them back in
    input order, and if tasks raise, the first exception {e by input index}
    is re-raised after every task has run — exactly the sequential
    semantics, provided the tasks themselves are deterministic and share
    no mutable state (give each task its own {!Rng} stream, derived from
    stable identifiers rather than iteration order).

    All entry points are nesting-safe: a task may itself call [map],
    [tabulate] or [iter].  The inner batch gets its own counter, its
    caller works it, and idle workers join it when they run out of outer
    work.

    [jobs <= 1] falls back to a plain sequential loop with no domain ever
    woken — the safe default everywhere.

    Scheduler counters accumulate in {!Telemetry.global} and are visible
    when the call returns: pass ["parallel"] records [batches] and
    [tasks]; pass ["parallel.domains"] records tasks executed per domain
    ([d0] is the main domain, [dN] the Nth pool worker) — the per-domain
    utilization view surfaced by [--telemetry]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f arr] applies [f] to every element, fanning out over the
    calling domain and the pool, which grows to [jobs - 1] workers at most
    (and never past the cap above); any idle worker may join.  Results
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

val default_jobs : unit -> int
(** Requested width for this host: the [UNROLLML_JOBS] environment
    variable when set to a positive integer, otherwise the full
    [Domain.recommended_domain_count]. *)
