(** Innermost loops — the unit of optimisation throughout the paper.

    A loop owns a straight-line body (ending in its backward branch), a table
    of the arrays it touches, trip-count knowledge split into what the
    {e compiler} can see ([trip_static]) and what actually happens at run
    time ([trip_actual]), and metadata that feeds feature extraction
    (nest level, source language, early exits). *)

type lang = C | Fortran | Fortran90

type array_info = {
  aname : string;
  elem_size : int;   (** bytes per element (4 or 8) *)
  length : int;      (** number of elements *)
  base : int;        (** base byte address in the simulated address space *)
}

type t = {
  name : string;
  body : Op.t array;        (** includes the closing [Br Backedge] op *)
  arrays : array_info array;
  nest_level : int;         (** 1 = not nested *)
  lang : lang;
  trip_static : int option; (** trip count if the compiler can prove it *)
  trip_actual : int;        (** trip count realised at run time *)
  aliased : bool;
  (** when true the compiler must assume references to {e different} arrays
      may alias (C without restrict / failed points-to analysis);
      Fortran-style semantics set it false *)
  outer_trip : int;         (** times the loop is re-entered (enclosing loops) *)
  exit_prob : float;        (** per-iteration probability an [Exit] branch fires *)
  live_out : Op.reg list;   (** registers live after the loop (e.g. reductions) *)
}

val backedge_index : t -> int
(** Index of the backward branch in [body].  Raises [Invalid_argument] if the
    body has none (a malformed loop). *)

val validate : t -> (unit, string) result
(** Structural well-formedness: body non-empty and closed by a backedge as
    its final op;
    every register use is reachable by a def in the body or is an implicit
    live-in (uses before defs are loop-carried and allowed); memory
    references index existing arrays; predicates used by predicated ops are
    defined by some [Cmp]; trip counts positive. *)

val op_count : t -> int
val float_op_count : t -> int
val branch_count : t -> int
val memory_op_count : t -> int
val load_count : t -> int
val store_count : t -> int
val operand_count : t -> int
val implicit_count : t -> int
val unique_predicates : t -> int
val use_count : t -> int
val def_count : t -> int
val indirect_ref_count : t -> int
val has_early_exit : t -> bool
val has_call : t -> bool

val digest : t -> Digest.t
(** The loop's name-blind content address: MD5 of the marshalled loop with
    its name blanked, so structurally identical loops under different
    names share it.  The one loop digest behind {!Compile_cache},
    {!Deps_memo} and the serve feature cache. *)

val unrollable : t -> bool
(** Whether the reference compiler's unroller handles this loop: no calls
    and no early exits (as in ORC; the paper trains only on "loops that ORC
    can unroll", §4.6). *)

val code_bytes : t -> int
(** Static code size estimate of the body in bytes, assuming EPIC bundles
    (16 bytes per 3-op bundle) — drives I-cache footprint modelling. *)

val live_in_regs : t -> Op.reg list
(** Registers read before any def in body order (loop invariants and
    loop-carried values entering the first iteration). *)

val max_reg_id : t -> int
(** Largest virtual register id used, across both classes — the renaming
    base for unrolling. *)
