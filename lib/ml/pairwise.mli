(** Incremental pairwise-distance engine for greedy feature selection.

    Squared Euclidean distance decomposes additively over features:
    [dist²(x, y; S ∪ {f}) = dist²(x, y; S) + (x_f − y_f)²].  The engine
    keeps the running n×n dist² of a {e committed} feature subset in a
    single strict upper triangle (n(n−1)/2 floats) over a flat row-major
    points matrix; a greedy candidate is evaluated by adding only that
    feature's pairwise contribution on the fly — O(n²) per candidate
    instead of O(n²·|subset|) — and the winner's contribution is folded in
    once per round with {!commit}.  The RBF Gram matrix
    [exp (-gamma * dist²)] falls out of the same triangle for the SVM
    variant.

    The triangle is stored in {e column-block} order — pair (i, k) with
    i < k at k(k−1)/2 + i — so all pairs whose larger index is k are one
    contiguous block, walked in ascending [k] then ascending [i].  The
    NN objective's first-minimum tie-break depends on that walk order.

    {b Determinism contract.}  Contributions accumulate in commit order
    with the candidate term added last — exactly the left-to-right
    summation order of [Vec.dist2] over features projected in selection
    order — so committed-plus-candidate distances are bit-identical to
    direct recomputation.  Nothing depends on [jobs]: candidate
    evaluations may fan out over {!Parallel} domains that only read the
    triangle, and {!commit} is the sequential write point between
    rounds. *)

type t

val create : Mat.t -> t
(** [create points] over an n×d row-major feature matrix, with the empty
    committed subset (all distances 0).  The engine reads the matrix's
    buffer in place ({!Mat.data}), so [points] must not change while the
    engine is in use. *)

val of_dataset : Dataset.t -> t * int array
(** Engine over {!Dataset.points_matrix}, plus the label vector. *)

val size : t -> int
(** Number of points n. *)

val dim : t -> int
(** Number of feature columns d. *)

val committed : t -> int list
(** Committed features in commit (selection) order. *)

val is_committed : t -> int -> bool

val commit : t -> int -> unit
(** Fold a feature's pairwise contribution into the running triangle —
    O(n²), once per greedy round.  Raises [Invalid_argument] if the
    feature is out of range or already committed. *)

val iter_pairs : ?cand:int -> t -> (int -> int -> float -> unit) -> unit
(** [iter_pairs ?cand t f] calls [f i k dist2] for every pair [i < k] in
    column-block order (ascending [k], then ascending [i]), where [dist2]
    covers the committed subset plus the optional candidate feature.  The
    candidate path reads the triangle and the points matrix only, so
    concurrent candidate evaluations are safe. *)

val dist2 : ?cand:int -> t -> int -> int -> float
(** Random access to one pairwise distance (0 on the diagonal). *)

val rbf_gram : ?cand:int -> gamma:float -> t -> Mat.t
(** RBF Gram matrix [exp (-gamma * dist²)] with an exact unit diagonal —
    bit-identical to [Kernel.gram (Rbf gamma)] over the projected subset. *)

val nn_loo_error : ?cand:int -> t -> labels:int array -> float
(** Leave-one-out training error of radius-0 {!Knn} on the current subset
    (plus candidate) — the §7.2 greedy-NN objective, bit-identical to
    [Knn.loo_predictions] over the projected features.  Each point is
    classified by its single nearest other point (ties to the lowest
    index), except that exact duplicates (dist² = 0) majority-vote, which
    is Knn's [<=] radius test at radius 0.  Returns 1.0 when fewer than
    two points exist. *)
