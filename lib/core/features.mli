(** The 38-feature loop characterisation (paper §4.1, Table 1).

    Every feature is a static property the compiler can compute at the
    point where it must pick an unroll factor: simple op counts, dependence
    DAG statistics, memory-reference structure, trip-count knowledge, and
    machine-relative estimates (critical path, resource-bound cycle
    length).  Unknown quantities use the paper's conventions (trip count
    −1 when unknown; minimum memory-carried dependence −1 when there is
    none).  Heavy-tailed magnitudes (trip count, data footprint, code size)
    are log-scaled so that distance-based learners see comparable ranges
    — the monotone transform leaves the feature's information content
    unchanged. *)

val names : string array
(** Exactly 38 names, index-aligned with {!extract}'s output. *)

val count : int

val index_of : string -> int
(** Index of a feature by name; raises [Not_found] for unknown names. *)

val extract : ?memo:Deps_memo.t -> Machine.t -> Loop.t -> float array
(** The feature vector of a loop (length {!count}).  The dependence graph
    comes from [memo] (default {!Deps_memo.global}). *)
