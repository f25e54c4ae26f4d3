(** From-scratch multi-layer perceptron classifier.

    A softmax cross-entropy head over tanh hidden layers, trained with
    mini-batch SGD plus momentum.  Everything is deterministic from the
    seed: weights initialise from {!Rng.derive}[ seed "mlp-init" layer],
    the per-epoch shuffle derives from [(seed, "mlp-epoch", epoch)], and
    the early-stopping holdout split is {e content-keyed} — an example's
    holdout membership is a pure function of [(seed, features, label)],
    so the split survives dataset append-order changes.

    Training is sequential and allocates nothing per example: one
    scratch buffer per {!train} call holds every layer's activations and
    deltas, and each example's gradient is added straight into one batch
    accumulator, in index order.  Trained weights are therefore a pure
    function of (pairs, seed, hyper).  Parallelism belongs to the caller,
    one model per domain — {!Loocv.grouped} trains its folds that way; a
    32-example mini-batch is too small to split across domains.

    All parameters live in one flat [float array] (per layer: the
    [fan_out × fan_in] weight block row-major, then [fan_out] biases).
    The flat layout makes momentum buffers, best-weight snapshots and
    the finite-difference gradient checker one-[Array.blit] affairs. *)

type t

type hyper = {
  hidden : int array;  (** hidden layer widths, e.g. [\[|24|\]] *)
  epochs : int;        (** maximum training epochs *)
  batch : int;         (** mini-batch size *)
  lr : float;          (** learning rate *)
  momentum : float;    (** classical momentum coefficient *)
  holdout : float;     (** holdout fraction in \[0, 1) for early stopping *)
  patience : int;      (** epochs without holdout improvement before stopping *)
}

val default_hyper : hyper

type stats = {
  epochs_run : int;          (** epochs actually executed *)
  final_loss : float;        (** mean training cross-entropy of the last epoch *)
  holdout_accuracy : float;  (** accuracy of the returned weights on the
                                 holdout split; [nan] when the split is empty *)
  holdout_size : int;
}

val train :
  ?telemetry:Telemetry.t ->
  seed:int ->
  hyper:hyper ->
  n_classes:int ->
  (float array * int) array ->
  t * stats
(** [train ~seed ~hyper ~n_classes pairs] fits a classifier on
    (features, label) pairs with labels in \[0, n_classes).  Raises
    [Invalid_argument] on an empty training set or out-of-range labels.
    With [telemetry], records one ["mlp"] pass (epochs, parameter count,
    final loss and holdout accuracy as scaled integers). *)

val predict : t -> float array -> int
(** Class with the highest logit; ties break toward the lowest index. *)

val decision_values : t -> float array -> float array
(** Raw output-layer logits (pre-softmax), one per class. *)

val n_classes : t -> int

val holdout_member : seed:int -> holdout:float -> float array -> int -> bool
(** The content-keyed holdout predicate used by {!train}, exposed so tests
    can assert append-order stability. *)

(** {1 Serialisation} *)

val export : t -> int array * float array array * float array array
(** [(dims, weights, biases)]: [dims] is [[|d; h…; k|]]; [weights.(l)] is
    the layer-[l] weight block row-major ([dims.(l+1) * dims.(l)] floats);
    [biases.(l)] has [dims.(l+1)] floats. *)

val import :
  dims:int array -> weights:float array array -> biases:float array array -> t
(** Inverse of {!export}.  Raises [Invalid_argument] on shape mismatch. *)

(** {1 Test hooks — the gradient-check harness} *)

val init : seed:int -> dims:int array -> t
(** Freshly initialised network (Glorot-uniform weights, zero biases). *)

val dims : t -> int array
val param_count : t -> int
val get_param : t -> int -> float
val set_param : t -> int -> float -> unit

val example_loss : t -> float array -> int -> float
(** Cross-entropy of one example under the current parameters. *)

val example_gradient : t -> float array -> int -> float array
(** Analytic gradient of {!example_loss} with respect to every parameter,
    flattened with the same indexing as {!get_param}. *)
