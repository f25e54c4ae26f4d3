(** The instrumentation layer (§4.4 of the paper).

    Wraps simulated execution the way the paper's assembly-level
    instrumentation wraps real execution: each configuration is run
    repeatedly with multiplicative measurement noise injected, and the
    median is reported.  Sweeping a loop across all eight unroll factors
    yields the per-factor cycle counts that labelling consumes. *)

val noisy_median :
  rng:Rng.t -> noise:float -> runs:int -> (unit -> int) -> int
(** [noisy_median ~rng ~noise ~runs f] evaluates [f] once and synthesises
    [runs] noisy observations (Gaussian multiplicative noise of relative
    magnitude [noise]), returning their median.  [noise = 0.] returns the
    exact value. *)

val warm_run :
  ?max_sim_iters:int -> Machine.t -> Simulator.executable -> int * Simulator.stats
(** [warm_run machine exe] is how every loop is measured: a fresh machine
    state, one warm-up run to prime its caches, then the measured run,
    whose cycles and breakdown are returned.  Callers that hold a
    configuration pass its [max_sim_iters]; the default is
    {!Simulator.run}'s. *)

val sweep :
  ?noise:float ->
  ?runs:int ->
  ?max_sim_iters:int ->
  ?cache:Compile_cache.t ->
  rng:Rng.t ->
  machine:Machine.t ->
  swp:bool ->
  Loop.t ->
  int array
(** [sweep ~rng ~machine ~swp loop] measures the loop at unroll factors
    1..8 (paper default: [runs] = 30 per factor with median aggregation,
    [noise] = 0.015) and returns the eight cycle counts, index 0 = factor
    1.  Each factor is a separate program run: caches start cold, a warm-up
    execution primes them, and the measured runs see the steady state.

    Warm cycle counts are memoised in [cache] (default
    {!Compile_cache.global}); noise is drawn from [rng] after the lookup,
    so a warm sweep returns results identical to a cold one.  Executables
    are compiled through {!Pipeline.run} and dropped after measurement:
    one sweep looks each up exactly once, in [cache]'s cycles table, and
    stores nothing else. *)

val min_cycles_filter : int
(** Loops measured below this many cycles are too noisy to label (the
    paper's 50,000-cycle threshold). *)
