(** The 72-benchmark workload suite.

    Stands in for the paper's benchmark collection (§4.6): SPEC 2000 minus
    252.eon and 191.fma3d (24 programs), SPEC '95 and '92, Mediabench,
    Perfect and a handful of kernels — 72 in all, each owning a set of
    unrollable innermost loops with runtime weights.  SPEC 2000 benchmarks
    carry their real names so the per-benchmark speedup figures read like
    the paper's; their loops mix hand-written kernels with synthetic loops
    drawn from a per-suite profile.

    Everything is deterministic in [seed]; [scale] multiplies loop counts
    (1.0 ≈ 3,400 raw loops across the suite, of which the labelling filters
    keep roughly the paper's 2,500). *)

type tag = Spec2000fp | Spec2000int | Spec95 | Spec92 | Mediabench | Perfect | KernelSuite

type benchmark = {
  bname : string;
  tag : tag;
  fp : bool;                     (** counted in the SPECfp aggregate *)
  loop_fraction : float;         (** fraction of runtime spent in these loops *)
  loops : (Loop.t * float) array; (** loop, relative runtime weight (sums to 1) *)
}

val spec2000 : scale:float -> seed:int -> benchmark list
(** The 24 SPEC 2000 benchmarks of Figures 4 and 5, in the paper's order. *)

val full : scale:float -> seed:int -> benchmark list
(** All 72 benchmarks (SPEC 2000 first).  Loop names are globally unique. *)

val all_loops : benchmark list -> (string * Loop.t) list
(** Flattened [(benchmark name, loop)] list across a suite. *)
