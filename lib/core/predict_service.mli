(** The online half of the train/serve split: batched prediction from a
    loaded artifact.

    A service wraps one {!Model_artifact} — verified against the serving
    machine, reconstructed through {!Predictor.of_artifact} — and answers
    prediction traffic in batches: query loops are featurised once and
    their scaled vectors classified row by row.  {!load} is the one path
    from an artifact file to a service: the CLI's [predict], {!Serve}'s
    listen and its hot reload all go through it.  A
    per-artifact feature-vector cache (keyed by {!Loop.digest}, so names
    are blanked) means repeated loops — the common case for a compiler
    serving many compilation units of the same program — skip feature
    extraction and normalisation entirely.  The cache is a {!Memo}:
    bounded ([cache_capacity] entries, FIFO eviction in insertion order),
    so a long-lived server's footprint stays flat no matter how many
    distinct loops stream past.

    Predictions are bit-identical to calling {!Predictor.predict} with
    the same artifact's model loop by loop — at any [jobs] value: the
    batch path shares the featurisation ({!Predictor.featurize}) and
    classification ({!Predictor.predict_scaled}) code, caching returns
    the exact vector it stored, and parallel classification writes each
    row's answer at its input index.  Batch sizes and cache
    hit/miss/eviction counts land in telemetry under the
    ["predict-service"] pass.  A service is safe to share between
    domains (the cache is lock-protected). *)

type t

val default_cache_capacity : int
(** Cache entries kept when [cache_capacity] is not given (8192). *)

val create :
  ?telemetry:Telemetry.t ->
  ?cache_capacity:int ->
  Config.t ->
  Model_artifact.t ->
  (t, string) result
(** Fails if the artifact was trained for a different machine description
    than [config]'s, or if its feature subset has drifted from this
    build's feature table.  [cache_capacity] bounds the feature-vector
    cache; [0] disables caching entirely. *)

val load :
  ?telemetry:Telemetry.t ->
  ?cache_capacity:int ->
  Config.t ->
  string ->
  (t, string) result
(** {!Model_artifact.load} the file, then {!create}.  [telemetry] goes to
    both; without it the load is timed in {!Telemetry.global} and the
    service records nothing, as with {!create}. *)

val predictor : t -> Predictor.t
(** The reconstructed in-compiler predictor (shared load path). *)

val model_kind : t -> string
(** ["nn"], ["svm"] or ["mlp"] — the loaded artifact's payload kind. *)

val label_space : t -> Model_artifact.label_space
(** The loaded artifact's decision space: [Factor] (8-way unroll factor)
    or [Joint] (16-way factor × SWP). *)

val model_digest : t -> string
(** Hex digest of the loaded artifact's canonical serialisation.  Every
    counter a service reports belongs to this digest: a hot reload builds
    a fresh service with fresh counters, so stats tagged with the digest
    are unambiguously since-load and never mix models across reloads. *)

val predict : t -> Loop.t -> int
(** One loop; equivalent to a batch of one. *)

val predict_batch : ?jobs:int -> t -> Loop.t list -> int array
(** Factors in 1..8, in input order.  Non-unrollable loops get 1 without
    consulting the model, like {!Predictor.predict}.  Joint-space
    artifacts answer with the factor half of their decision.  [jobs]
    (default 1) fans the per-row classification over the {!Parallel}
    domain pool; results are bit-identical at any value. *)

val classify_batch : ?jobs:int -> t -> Loop.t list -> int array
(** Raw 0-based classes in the artifact's label space, in input order —
    [0..7] for [Factor] artifacts, [0..15] for [Joint] ones.
    Non-unrollable loops get class 0, which decodes to (factor 1, SWP
    off) in both spaces. *)

val predict_joint_batch : ?jobs:int -> t -> Loop.t list -> (int * bool) array
(** [(factor, swp)] decisions in input order.  [Factor] artifacts always
    answer [(factor, false)]; [Joint] ones decode their 16-way class. *)

val cache_hits : t -> int
val cache_misses : t -> int
val cache_evictions : t -> int
(** Feature-vector cache counters since {!create}. *)

val cache_size : t -> int
(** Entries currently cached (at most the capacity). *)
