(** Dense matrices stored row-major in a flat [float array].

    The flat layout keeps the LS-SVM kernel matrix (N×N for N ≈ 2,500)
    allocation- and cache-friendly. *)

type t

val create : int -> int -> t
(** [create rows cols] is a zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t
val of_rows : float array array -> t

val of_flat : int -> int -> float array -> t
(** [of_flat rows cols a] wraps an existing row-major buffer (length must
    be exactly [rows * cols]) without copying.  The matrix shares [a] in
    the {!data} sense: the NN database hands its flat storage to the
    blocked kernels this way. *)

val identity : int -> t

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val copy : t -> t
val row : t -> int -> float array
val col : t -> int -> float array
val transpose : t -> t

val mul : t -> t -> t
(** Matrix product.  Inner dimensions must agree. *)

val mul_vec : t -> Vec.t -> Vec.t
(** Matrix–vector product. *)

val add_diagonal : t -> float -> unit
(** [add_diagonal m a] adds [a] to every diagonal entry in place — the ridge
    term K + I/gamma of LS-SVM. *)

val data : t -> float array
(** The underlying row-major buffer (element [(i,j)] at [i * cols + j]).
    Shared, not a copy — intended for flat kernels that need allocation-free
    access; mutate only if you own the matrix. *)

val row_norms2 : t -> float array
(** Squared Euclidean norm of every row. *)

val gram : ?jobs:int -> t -> t
(** [gram m] is the n×n matrix m·mᵀ of row dot products, computed in
    cache-friendly tiles fanned out over [jobs] worker domains (default 1).
    Each entry is the full left-to-right dot product of two rows, so the
    result is bit-identical for every [jobs] value and block size. *)

val pairwise_dist2 : ?jobs:int -> t -> t
(** Squared Euclidean distance between every pair of rows, computed in
    cache-friendly tiles fanned out over [jobs] worker domains.  Each
    entry sums (x_k − y_k)² left to right over features — deliberately
    not the |x|² + |y|² − 2·x·y gram form, whose cancellation noise
    around 0 breaks exact-tie reproducibility for duplicate rows — so
    the result is bit-identical to per-pair {!Vec.dist2} and to itself
    at every [jobs] value and block size. *)

val equal : ?eps:float -> t -> t -> bool
