(** Greedy forward feature selection (paper §7.2).

    Starting from the empty set, repeatedly add the feature that minimises
    the training error of a given classifier on the training set, until [k]
    features are chosen.  The classifier is abstracted as a function from a
    feature-index subset to a training error, so the same driver serves the
    1-NN variant the paper uses for near neighbors and the SVM variant. *)

val run :
  ?jobs:int -> n_features:int -> k:int -> (int list -> float) ->
  (int * float) list
(** [run ~n_features ~k error] returns the chosen features in selection
    order, each with the training error achieved once it was added.
    Deterministic: ties pick the lowest feature index, and candidate
    evaluations within a round fan out over [jobs] worker domains
    (default 1) without affecting the picks. *)

val nn_training_error : Dataset.t -> int list -> float
(** Training error of single-nearest-neighbor classification restricted to
    a feature subset — each example classified by its nearest other
    example, as §7.2 describes for NN greedy selection. *)

val svm_training_error :
  ?kernel:Kernel.t -> ?gamma:float -> ?max_examples:int -> Dataset.t ->
  int list -> float
(** Training error of the one-vs-rest LS-SVM on a feature subset.  For
    tractability at most [max_examples] (default 400) examples participate
    ({!Dataset.subsample}, a deterministic stride). *)

(** {1 Pairwise-engine selections}

    The drivers below keep a running n×n dist² triangle ({!Pairwise}):
    each candidate adds only its own O(n²) contribution, and the winner is
    committed once per round — O(rounds·candidates·n²) total instead of
    O(rounds·candidates·n²·d), with identical picks. *)

val run_pairwise :
  ?jobs:int -> ?telemetry:Telemetry.t -> ?name:string -> k:int ->
  Pairwise.t -> (int -> float) -> (int * float) list
(** [run_pairwise ~k engine eval] greedily commits [k] features to
    [engine], scoring each remaining candidate with [eval cand] (which
    should read the engine's committed triangle plus [cand]).  Candidate
    evaluations fan out over [jobs] domains without affecting the picks.
    When [telemetry] is given, each round records a
    [greedy.<name>[round r]] entry (elapsed seconds, candidate count, best
    feature, best error in basis points) — visible via [--telemetry]. *)

val nn_run :
  ?jobs:int -> ?telemetry:Telemetry.t -> k:int -> Dataset.t ->
  (int * float) list
(** Engine-backed greedy NN selection: same picks as [run] over
    {!nn_training_error} (sqrt and the 1/d scale are monotone in dist²),
    without rebuilding the distance matrix per candidate. *)

val svm_run :
  ?jobs:int -> ?telemetry:Telemetry.t -> ?kernel:Kernel.t -> ?gamma:float ->
  ?max_examples:int -> k:int -> Dataset.t -> (int * float) list
(** Engine-backed greedy SVM selection: the incremental RBF Gram feeds
    {!Multiclass.training_predictions}, giving bit-identical picks to
    [run] over {!svm_training_error}.  Non-RBF kernels (no dist² form)
    fall back to the generic path. *)
