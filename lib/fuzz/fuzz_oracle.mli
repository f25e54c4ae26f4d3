(** Differential oracles for the fuzzer.

    Every oracle reduces to the same judgment: run the transformed artifact
    and the {!Interp} reference on fresh states and demand observational
    equivalence (final memory image modulo spill slots, plus live-out
    register values) — or, for the simulator oracle, demand bit-identical
    cycle counts and stats between {!Simulator} and {!Sim_reference}.  An
    exception escaping any stage is itself a violation (the fuzzer shrinks
    crashes like any other failure).

    The oracle matrix:

    - [unroll-interp] — {!Unroll.run} alone preserves semantics;
    - [rle-interp] — RLE over the unrolled kernel preserves semantics;
    - [pipeline-interp[list|swp,rle|norle]] — the full pass pipeline at the
      case's coordinates, interpreting the scheduled kernel and remainder;
    - [pipeline-interp[noregalloc]] — pipeline with the allocator disabled
      (schedules still on virtual registers);
    - [sim-fast-vs-ref] — fast-path simulator vs the frozen reference,
      warm-state pairs included (PR 3's contract);
    - [cache-roundtrip] — a compile served from a warm {!Compile_cache} is
      structurally identical to a cold compile;
    - [text-roundtrip] — [Loop_text.parse ∘ to_string] is the identity up
      to register numbering (the parser renumbers registers in textual
      occurrence order), and the renumbered normal form is a true print
      fixed point;
    - [artifact-predict] — a fixture model of every {!Learner} serialised to the
      {!Model_artifact} text format and served back through
      {!Predict_service}'s batched matrix path predicts the case's loop
      identically to {!Predictor.of_artifact}'s in-compiler path, the
      artifact text is a print fixed point, and the feature-vector cache
      hits on a repeated loop;
    - [verify-symbolic] — the bounded translation validator
      ({!Verify_validate}) proves unroll, unroll+RLE and the full pipeline
      at the case's coordinate observationally equivalent for every trip
      count up to the bound; a [Refuted] verdict (a concrete trip/location
      counterexample) is a violation, while [Unknown] (normalizer
      incompleteness) is not — the concrete interp oracles still cover the
      case. *)

type outcome = {
  checked : string list;                (** oracle names that ran *)
  violations : (string * string) list;  (** (oracle name, detail) *)
  digest : (string * string) option;
      (** (cache key, canonical content) when the cache oracle ran; the
          driver checks for cross-case digest collisions *)
}

val oracle_names : string list
(** Every oracle name a campaign can emit, for coverage accounting. *)

val pipeline_oracle_name : swp:bool -> rle:bool -> string

val oracles_for : id:int -> string list
(** The deterministic per-case schedule: the pure-transform, pipeline and
    text oracles always run; the allocator-off oracle cycles with period 3
    and the cache, simulator, artifact and symbolic-verify oracles share
    the period-4 wheel, so any contiguous id range of length 12 runs every
    oracle at least once. *)

val check : Fuzz_gen.case -> oracle:string -> string option
(** [None] when the oracle holds on this case, [Some detail] otherwise.
    Never raises: exceptions from the pipeline under test are reported as
    violations.  This is the predicate the shrinker re-evaluates. *)

val run_case : Fuzz_gen.case -> outcome
(** Run the case's full oracle schedule. *)

(** {1 Shared helpers (also used by the property-test suites)} *)

val run_exe : Interp.state -> Pipeline_state.executable -> unit
(** Interpret a compiled executable: kernel then remainder, remainder
    skipped when the kernel fired an early exit — {!Interp.run_unrolled}'s
    convention lifted to schedules. *)

val spill_ranges : Pipeline_state.executable -> (int * int) list
(** Address ranges of the allocator's spill arrays, excluded from memory
    comparison (spill slots are implementation detail, not behaviour). *)

val equivalent_modulo_spills :
  Pipeline_state.executable -> Interp.state -> Interp.state -> Op.reg list -> bool

val structurally_equal : Loop.t -> Loop.t -> bool
(** Equality up to register numbering: opcode/class/arity/predication
    signature of the body plus all scalar loop attributes. *)
