(** Dense vectors over [float array].

    Vectors are plain float arrays (unboxed in OCaml), aliased here for
    readability.  Operations allocate fresh results unless suffixed
    [_inplace]. *)

type t = float array

val add : t -> t -> t
(** Element-wise sum.  Dimensions must agree. *)

val sub : t -> t -> t
(** Element-wise difference. *)

val scale : float -> t -> t
(** Scalar multiple. *)

val axpy : float -> t -> t -> unit
(** [axpy a x y] performs [y <- a*x + y] in place. *)

val dot : t -> t -> float
(** Inner product. *)

val norm2 : t -> float
(** Euclidean norm. *)

val dist2 : t -> t -> float
(** Squared Euclidean distance — the hot path of near-neighbor search. *)

val dist : t -> t -> float
(** Euclidean distance. *)

val equal : ?eps:float -> t -> t -> bool
(** Component-wise equality within [eps] (default 1e-9). *)
