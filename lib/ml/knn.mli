(** Radius-based near-neighbor classification (paper §5.1).

    Training just populates a database.  Prediction collects every training
    point within a fixed radius of the query and returns the majority label;
    when no neighbor falls inside the radius — or the vote ties with no
    clear winner — the label of the single nearest point is used, exactly
    the fallback the paper describes.  Distances are root-mean-square per
    dimension (Euclidean / √d) so a given radius means the same thing
    regardless of how many features are selected. *)

type t

val train : ?radius:float -> n_classes:int -> (float array * int) array -> t
(** Build the database.  [radius] defaults to 0.3 (the paper's value,
    chosen by inspecting query distances). *)

val n_classes : t -> int
val size : t -> int
val radius : t -> float

val predict : t -> float array -> int
(** Majority label within the radius, 1-NN fallback. *)

val predict_confidence : t -> float array -> int * float
(** Prediction plus confidence: the fraction of in-radius neighbors voting
    for the winner (0 when the 1-NN fallback fired) — the outlier-detection
    signal sketched in §5.1. *)

val loo_predictions : ?jobs:int -> t -> int array
(** Leave-one-out predictions over the training set: example [i] is
    classified with itself excluded from the database.  One blocked
    O(n²·d) pairwise-distance build (see {!Mat.pairwise_dist2}) replaces
    the n independent scans; rows vote across [jobs] worker domains
    (default 1) with identical output at every value. *)

val export : t -> float * int * (float array * int) array
(** (radius, n_classes, database) — for persistence. *)
