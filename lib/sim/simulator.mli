(** Cycle-level execution of scheduled loop code.

    The simulator plays the role of the paper's Itanium 2 testbed plus its
    loop instrumentation library: it executes a compiled loop — unrolled
    kernel plus optional remainder — through the machine's cache hierarchy
    and reports total cycles, which the labelling pipeline treats as the
    hardware cycle counter reading.

    Straight schedules run in order with scoreboard interlocks: an op whose
    source value is not yet ready stalls the issue (values carried across
    iterations included, so genuine recurrences cost their full latency even
    when the static schedule is short).  Load misses overlap with
    independent work — the penalty is only paid by consumers that catch up
    with it.  Pipelined schedules run at their initiation interval plus
    per-iteration miss stalls, with prologue/epilogue cost per entry.

    The instruction stream touches the I-cache every iteration, so code
    expansion from over-unrolling surfaces as front-end stalls once the
    footprint no longer fits; on every re-entry of the nest the caches are
    partially disturbed, standing in for the rest of the program. *)

type state
(** Mutable architectural state: the three caches. *)

val create_state : Machine.t -> state
val reset_state : state -> unit

type executable = Pipeline_state.executable = {
  schedules : (Schedule.t * int * int) list;
  (** [(schedule, trips, phase)] in execution order: the unrolled kernel
      followed by the remainder loop when present.  [phase] is the
      original-iteration index at which the schedule starts, so remainder
      references continue where the kernel stopped. *)
  unroll_factor : int;
  total_code_bytes : int;   (** kernel + remainder + glue *)
  outer_trip : int;         (** times the whole nest is re-entered *)
  exit_prob : float;        (** per-original-iteration early-exit probability *)
  entry_extra_cycles : int; (** per-entry fixed cost (exit mispredict, glue) *)
  total_spills : int;       (** spill values inserted by the allocator *)
}

val run : ?max_sim_iters:int -> state -> executable -> int
(** Total cycles to execute the loop nest over all its entries.  Per loop
    entry at most [max_sim_iters] (default 400) iterations are simulated
    exactly; longer executions extrapolate from the steady-state tail.
    Callers that hold a configuration pass its window, so their counts
    match the labels measured under it; {!Measure.warm_run} is the
    warm-up-then-measure rule every such caller uses.
    Deterministic.  The exact fast paths (fetch-hit skipping and
    steady-state entry skipping) change only wall-clock time and the
    telemetry counters: cycles and {!stats} are bit-identical to
    [Sim_reference] (property-tested). *)

type stats = {
  mutable issue_cycles : int;          (** static schedule issue slots *)
  mutable data_stall_cycles : int;     (** scoreboard stalls on loads/values *)
  mutable fetch_stall_cycles : int;    (** I-cache refetch *)
  mutable branch_cycles : int;         (** taken-branch bubbles *)
  mutable entry_overhead_cycles : int; (** per-entry setup/dispatch *)
  mutable pipeline_fill_cycles : int;  (** SWP prologue/epilogue *)
}
(** Where the cycles went; extrapolated portions are attributed in the
    simulated window's proportions. *)

val run_profiled : ?max_sim_iters:int -> state -> executable -> int * stats
(** {!run} plus the cycle breakdown — the "why is this loop slow" tool. *)
