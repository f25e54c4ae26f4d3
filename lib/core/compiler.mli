(** The end-to-end compilation pipeline with a pluggable unroll predictor.

    [compile] is what the modified ORC does per loop: ask the predictor for
    a factor, unroll, clean up exposed redundancy, schedule (modulo
    scheduling with list fallback when software pipelining is on), and
    allocate registers.  [benchmark_speedup] reproduces the whole-program
    methodology of §6.1: per-benchmark runtimes combine the per-loop cycle
    measurements with the benchmark's loop weights and its non-loop
    fraction (Amdahl dilution), and speedups are reported against the ORC
    baseline. *)

val compile :
  Config.t -> swp:bool -> Predictor.t -> ?cycles:int array -> Loop.t ->
  int * Simulator.executable
(** The chosen factor and the compiled, schedulable result. *)

val run_compiled : Config.t -> Simulator.executable -> int
(** Execute a compiled loop on a fresh machine state (one warm-up entry
    already included in the executable's outer trips). *)

val predictions_for :
  Config.t -> swp:bool -> Predictor.t -> Labeling.labeled array -> int array
(** The factor the predictor picks for every labelled loop (oracle
    predictors consult the measurements). *)

val benchmark_speedup :
  Config.t -> swp:bool -> Predictor.t -> baseline:Predictor.t ->
  Suite.benchmark -> Labeling.labeled array -> float
(** Whole-benchmark speedup of [Predictor.t] over [baseline] (> 1.0 is
    faster), using each loop's measured per-factor cycles, the loop
    weights, and the benchmark's loop fraction.  Per-loop picks go through
    {!predictions_for}. *)

type row = {
  bench : string;
  fp : bool;                        (** SPECfp member *)
  learned : (string * float) list;  (** per learner, in {!Learner.all} order *)
  oracle : float;
}
(** One benchmark's speedups over a baseline. *)

val speedup_rows :
  ?jobs:int ->
  Config.t -> features:int array ->
  benchmarks:Suite.benchmark list -> dataset:Dataset.t ->
  (Predictor.t -> Suite.benchmark -> float) ->
  row array
(** The leave-one-benchmark-out driver of §6.1: for each benchmark, every
    learner is retrained on the other benchmarks' examples of [dataset]
    (restricted to [features]) and its speedup on the held-out benchmark
    is [speedup predictor bench]; the oracle gets the same function.  The
    caller picks the engine and baseline — {!benchmark_speedup} for one
    SWP setting, {!joint_benchmark_speedup} for a decision space — and
    supplies the matching dataset (8-way for a single space, 16-way for
    [Joint]).  Retrainings run across [jobs] worker domains (default 1),
    with a row's learners trained as a nested batch; output is
    independent of [jobs]. *)

(** The decision space a realisation runs over. *)
type space =
  | Pinned of bool  (** factor only, SWP fixed to the given setting *)
  | Joint           (** (factor × SWP) chosen jointly per loop *)

val joint_benchmark_speedup :
  Config.t -> space:space -> Predictor.t -> baseline:Predictor.t ->
  Suite.benchmark -> Labeling.labeled array -> float
(** {!benchmark_speedup} generalised over a decision space.  Loops must
    carry the 16 merged cycle counts of {!Labeling.merge_joint}; a
    decision (factor, swp) costs the merged entry at its
    {!Labeling.Joint} class.  [Pinned s] restricts every decision (and
    the oracle's argmin) to SWP setting [s] — an independent re-derivation
    of the single-space engine, testable against it. *)
