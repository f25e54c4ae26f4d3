(** Register pressure analysis and spill insertion for straight schedules.

    After list scheduling, the maximum number of simultaneously-live values
    per register class is compared to the machine's allocatable registers.
    When a class is over-subscribed the allocator spills: the value with the
    widest live range gets a store to a stride-0 spill slot after its
    definition and a reload before each use, the loop is rescheduled, and
    the process repeats.  Spill code competes for memory units and lengthens
    the schedule — the register-pressure cost of over-unrolling emerges
    rather than being asserted.

    Pipelined schedules handle pressure inside {!Modulo_sched} (by raising
    the II), so [allocate] only fills in the pressure fields for them. *)

val spill_array_name : string
(** Name of the stride-0 array spill slots live in (["$spill"]); consumers
    that compare memory images can exclude its address range. *)

val spill_register : Loop.t -> Op.reg -> Loop.t
(** The loop rewritten so the register lives in a fresh spill slot: a
    store after each def, a reload into a fresh register before each use.
    The rewrite the allocator reschedules after every spill. *)

val pressure : Schedule.t -> int * int
(** [(int_live, fp_live)] maximum concurrently-live values, counting loop
    invariants and treating loop-carried values as live across the whole
    iteration. *)

val allocate : ?max_rounds:int -> sched:(Loop.t -> Schedule.t) -> Loop.t -> Schedule.t
(** [allocate ~sched loop] schedules with [sched], spilling until pressure
    fits or candidates are exhausted ([max_rounds], default 6).  The
    returned schedule's [loop] includes any inserted spill code, and
    [spills] counts the spilled values. *)

val allocate_from :
  ?max_rounds:int -> sched:(Loop.t -> Schedule.t) -> Schedule.t -> Schedule.t
(** Like {!allocate} but starting from an already-computed schedule, so a
    pipeline whose scheduling stage ran separately does not pay for the
    first scheduling twice.  [sched] is only invoked after a spill forces
    a reschedule. *)
