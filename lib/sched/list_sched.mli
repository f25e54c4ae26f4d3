(** Resource-constrained list scheduling.

    Classic critical-path list scheduling of one loop iteration on an
    in-order EPIC machine: ops become ready when all distance-0 predecessors
    have issued and their latencies have elapsed; the ready op with the
    greatest height (latency-weighted longest path to any sink) issues at
    the earliest cycle with a free slot of its unit class and spare issue
    width.  Unpipelined divides occupy their unit for their full latency.

    That earliest cycle is found without probing cycle by cycle: per unit
    class, a union-find over cycles skips every cycle where the class or
    the issue width is already full.  The placement is the one a linear
    first-fit scan would choose. *)

val schedule : ?graph:Deps.csr -> Machine.t -> Loop.t -> Schedule.t
(** Always succeeds; register pressure fields are filled by
    {!Regalloc.allocate}, so they are 0 here and [spills] is 0.  [graph]
    is the loop's dependence graph under the machine's latency model
    (default: {!Deps_memo.build}); it is attached to the result. *)
