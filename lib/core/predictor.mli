(** Unroll-factor predictors: the pluggable heuristic interface.

    A predictor maps a loop to a factor in 1..8.  Learned predictors carry
    their scaler and feature subset so they can be dropped into the
    compiler exactly as §4.1 envisions; the oracle consults measured
    cycles and is only available where a sweep exists. *)

type t =
  | Fixed of int                    (** always the same factor *)
  | Orc                             (** the hand heuristic baseline *)
  | Oracle                          (** best measured factor *)
  | Learned of {
      model : Learner.trained;      (** any {!Learner}'s fitted model *)
      scaler : Scale.t;             (** normalisation over [features] *)
      features : int array;         (** feature subset, indices into {!Features.extract} *)
    }

val name : t -> string
(** ["fixed-k"], ["orc"], ["oracle"], or the learner's name. *)

val fit :
  ?telemetry:Telemetry.t ->
  Learner.t -> Config.t -> features:int array -> Dataset.t -> t
(** Fit a learner ({!Learner.fit}) on a raw, unnormalised dataset
    restricted to [features]. *)

val train_nn : Config.t -> features:int array -> Dataset.t -> t
(** {!fit} of {!Learner.nn}. *)

val train_svm : ?cap:int -> Config.t -> features:int array -> Dataset.t -> t
(** {!fit} of {!Learner.svm}; [cap] (default: none) subsamples the
    training set deterministically to bound the O(N³) solve. *)

val train_mlp :
  ?jobs:int -> ?telemetry:Telemetry.t -> Config.t -> features:int array -> Dataset.t -> t
(** {!fit} of {!Learner.mlp}.  Deterministic from [config.mlp_seed];
    training runs on the calling domain, so [jobs] is accepted and
    ignored.  [telemetry] records the ["mlp"] training pass. *)

val to_artifact :
  ?label_space:Model_artifact.label_space ->
  Config.t -> dataset_digest:string -> t -> Model_artifact.t
(** Package a learned predictor as a versioned,
    provenance-stamped deployment artifact ({!Model_artifact}): model
    state, feature subset, scale parameters, dataset/machine/code digests.
    [label_space] (default [Factor]) stamps which decision space the
    model's classes index into.  Raises [Invalid_argument] for predictors
    with no learned state. *)

val of_artifact : Model_artifact.t -> (t, string) result
(** Reconstruct the in-compiler predictor from an artifact — the single
    load path the CLI service and the compiler share.  Fails if the
    artifact's feature subset does not name the same features this build
    extracts (feature drift across code versions). *)

val predict :
  t -> Config.t -> swp:bool -> ?cycles:int array -> Loop.t -> int
(** Factor in 1..8.  Loops the compiler cannot unroll (calls, early exits)
    always get 1.  [cycles] (per-factor measurements) must be supplied for
    [Oracle]; raises [Invalid_argument] otherwise (not consulted for
    non-unrollable loops). *)

val featurize : t -> Config.t -> Loop.t -> float array
(** The scaled, feature-subset vector a learned predictor would classify
    for this loop — extraction, projection and normalisation exactly as
    {!predict} performs them.  Raises [Invalid_argument] for non-learned
    predictors. *)

val featurize_raw : t -> float array -> float array
(** {!featurize} from an already-extracted full feature vector
    ({!Features.extract} width): projection onto the subset, then
    normalisation. *)

val predict_scaled : t -> float array -> int
(** Classify an already-{!featurize}d vector (factor in 1..8, no
    unrollability check).  [predict t config ~swp loop] equals
    [predict_scaled t (featurize t config loop)] for every unrollable
    loop — the contract the batched {!Predict_service} relies on. *)

val classify_scaled : t -> float array -> int
(** Raw 0-based class of an already-{!featurize}d vector —
    [predict_scaled] minus the factor offset.  For joint-space models the
    class is a {!Labeling.Joint} index; decode with
    {!Labeling.Joint.decode}. *)

val predict_joint :
  t -> Config.t -> ?cycles:int array -> Loop.t -> int * bool
(** The joint (factor, SWP on/off) decision for a loop.  Non-unrollable
    loops get [(1, false)]; [Orc] is the hand heuristic at SWP off (it
    never enables pipelining by itself); [Oracle] needs the 16 merged
    cycle counts ({!Labeling.merge_joint} order) and picks their argmin.
    Learned predictors must have been trained on a 16-class joint
    dataset — their class output is decoded with
    {!Labeling.Joint.decode}. *)
