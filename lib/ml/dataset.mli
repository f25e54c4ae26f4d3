(** Labelled datasets for supervised classification.

    An example pairs a feature vector with a class label (unroll factor − 1)
    and carries the per-class measured costs so evaluation can compute
    rank-of-prediction and misprediction-cost statistics (paper Table 2).
    The [group] field names the benchmark an example came from, enabling the
    leave-one-benchmark-out protocol of §6.1. *)

type example = {
  features : float array;
  label : int;           (** 0-based class index *)
  tag : string;          (** loop name *)
  group : string;        (** benchmark name *)
  costs : float array;   (** measured cost (cycles) per class *)
}

type t = {
  examples : example array;
  feature_names : string array;
  n_classes : int;
}

val create : feature_names:string array -> n_classes:int -> example list -> t
(** Validates that every example has [Array.length feature_names] features
    and a label within range; raises [Invalid_argument] otherwise. *)

val size : t -> int

val select_features : t -> int array -> t
(** Keep only the given feature columns (in the given order). *)

val feature_column : t -> int -> float array
val labels : t -> int array

val without_group : t -> string -> t
(** Drop every example of one benchmark — leave-one-benchmark-out. *)

val subsample : cap:int -> t -> t
(** At most [cap] examples, picked at a fixed stride through the dataset
    (deterministic, order-preserving); the dataset itself when it already
    fits.  Bounds the O(N³) LS-SVM solves. *)

val groups : t -> string list
(** Distinct group names, in first-appearance order. *)

val points : t -> (float array * int) array
(** (features, label) pairs, for classifier training. *)

val points_matrix : t -> Mat.t * int array
(** The examples as one flat row-major n×d matrix plus the label vector —
    the allocation-free input of the {!Pairwise} engine and the blocked
    distance/Gram kernels, replacing per-example [float array array]
    copies on the hot path. *)

val digest : t -> string
(** Hex digest over the whole dataset — feature names, class count, and
    every example (features, label, tag, group, costs).  The provenance
    stamp a model artifact carries: two training runs that produce the
    same digest trained on identical data. *)

val to_csv : t -> string -> unit
(** Persist as CSV: header row with feature names, then one row per example
    (tag, group, label, costs..., features...). *)

val of_csv : string -> t
(** Inverse of {!to_csv}. *)
