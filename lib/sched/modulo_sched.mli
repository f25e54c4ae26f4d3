(** Iterative modulo scheduling (software pipelining).

    Implements Rau-style IMS: starting from
    MII = max(ResMII, RecMII), ops are placed by priority into a modulo
    reservation table, evicting conflicting ops with a bounded budget;
    failure bumps the initiation interval.  A candidate II is also rejected
    when the rotating-register requirement (sum over values of
    ceil(lifetime / II), plus loop invariants) exceeds the machine's
    register files — the way too-aggressive pipelining manifests as register
    pressure on Itanium.

    That requirement has a floor that holds at every II and placement: each
    defined value costs at least one rotating register and each invariant
    exactly one.  A loop whose floor already exceeds a rotating file can
    pass the check at no II, so [schedule] refuses it before forcing the
    dependence graph it was handed, computing RecMII or trying any II.  On
    register-heavy unrolled bodies this refusal is the common case.

    Loops containing calls or early exits are not pipelined (as in ORC);
    [schedule] returns [None] and the caller falls back to list scheduling. *)

val rec_mii : ?memo:Deps_memo.t -> Machine.t -> Loop.t -> int
(** Recurrence-constrained minimum II: the smallest II such that no
    dependence cycle has positive slack (weights [latency - II * distance]).
    Serial edges are excluded (the rotated branch is not a constraint).
    The search's upper bound is the sum of the graph's edge latencies —
    sound because every recurrence cycle spans at least one iteration — so
    recurrence-heavy loops report their true RecMII instead of saturating
    at an arbitrary constant. *)

val res_mii : Machine.t -> Loop.t -> int
(** Resource-constrained minimum II (see {!Machine.res_cycles}). *)

val register_requirement : Loop.t -> Deps.csr -> int array -> int -> int * int
(** [register_requirement loop graph assignment ii] is the
    [(int, fp)] rotating-register demand of a pipelined placement: each
    defined value holds [max 1 (ceil (lifetime / ii))] registers, where its
    lifetime is the longest register-flow span in [graph] (other edge kinds
    are ignored), and each {!Loop.live_in_regs} invariant holds one. *)

val min_register_requirement : Loop.t -> int * int
(** [(int, fp)] floor of {!register_requirement} over every [ii >= 1] and
    every assignment: per class, the number of ops with a destination plus
    the number of loop invariants. *)

val schedule :
  ?max_ii:int -> ?graph:Deps.csr Lazy.t -> Machine.t -> Loop.t -> Schedule.t option
(** Pipelines the loop, trying II from MII upwards to [max_ii] (default
    128).  Returns [None] for loops that cannot or should not be pipelined:
    calls or early exits, a {!min_register_requirement} above
    [rot_int_regs] or [rot_fp_regs] (checked first, since no II could
    then fit the rotating files), or no II up to [max_ii] that places and
    fits.  [graph] is the loop's dependence graph under the machine's
    latency model (default: {!Deps_memo.build}), forced once and shared by
    RecMII and placement; refused loops never force it, so a caller that
    falls back to {!List_sched} can hand the same lazy graph on and pay
    for the analysis at most once.  Every call bumps [attempts], and every register
    refusal [refused-regs], under pass ["modulo-sched"] in
    {!Telemetry.global}. *)
