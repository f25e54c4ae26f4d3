(** The pass-pipeline compiler core.

    There are two ways in: {!compile}, cached, for callers that look an
    executable up (the CLI, tiling, tests), and {!run}, the bare pass
    fold, which the labelling sweep calls directly because it keeps only
    cycle counts.  Both fold the same explicit list of registered
    {!pass}es over the typed {!Pipeline_state.state} record:

    {ol
    {- [unroll] — body replication with register renaming, remainder loop;}
    {- [rle] — redundant-load / dead-store elimination over the kernel;}
    {- [schedule] — list scheduling, or modulo scheduling with list
       fallback when SWP is on;}
    {- [regalloc] — pressure analysis and spill insertion (reschedules
       only when a spill forces it);}
    {- [assemble] — trip arithmetic, entry overhead and code-size
       accounting into an {!Pipeline_state.executable}.}}

    Each pass reports wall-time and its own metrics (op-count deltas,
    II, spills, code bytes) into a {!Telemetry} sink, and compiled
    results are memoised in a content-addressed {!Compile_cache}. *)

type pass = {
  pass_name : string;
  transform : Pipeline_state.state -> Pipeline_state.state * (string * int) list;
  (** The new state plus the metrics to accumulate for this invocation. *)
}

val default_passes : pass list
(** [unroll; rle; schedule; regalloc; assemble]. *)

val testing_phantom_trips : bool ref
(** Test-only: when set, the assembler reverts to the historical
    phantom-iteration bug (a zero-trip loop assembled as if it ran once).
    Reintroduced so the translation validator's refutation tests can
    prove they would catch it.  Never set outside tests; toggling it
    poisons any shared compile cache, so pair it with uncached
    compilation ({!run} on a fresh {!Pipeline_state.init}). *)

val pass_names : string list
(** Names of {!default_passes}, in order. *)

val run :
  ?telemetry:Telemetry.t -> ?passes:pass list -> Pipeline_state.state ->
  Pipeline_state.state
(** Fold the state through the passes, timing each and recording its
    metrics under its name.  Telemetry defaults to {!Telemetry.global}. *)

val compile :
  ?cache:Compile_cache.t -> ?telemetry:Telemetry.t ->
  Machine.t -> swp:bool -> Loop.t -> int -> Pipeline_state.executable
(** [compile machine ~swp loop u] runs {!default_passes} (consulting and
    filling [cache], default {!Compile_cache.global}) and returns the
    executable. *)
