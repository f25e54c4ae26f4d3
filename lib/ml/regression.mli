(** Regression on loop performance — the paper's stated future work.

    §8: "future work will consider regression, which can predict values
    outside the range of the labels with which the learning algorithm is
    trained."  This module provides near-neighbor regression
    (distance-weighted average of the k nearest training responses), plus
    a harness that turns per-factor cycle predictions into an
    unroll-factor decision by arg-min — the "regress the whole curve, then
    choose" alternative to direct classification. *)

type knn_reg

val train_knn : ?k:int -> float array array -> float array -> knn_reg
(** [k] defaults to 5. *)

val predict_knn : knn_reg -> float array -> float
(** Inverse-distance-weighted mean of the [k] nearest responses. *)

val argmin_factor :
  predict:(float array -> int -> float) -> float array -> int
(** [argmin_factor ~predict features] evaluates a per-(features, factor)
    cost predictor at factors 1..8 and returns the arg-min factor — how a
    regression model plugs into the compiler's decision. *)
