(** Scheduled loop code.

    A schedule assigns every body op an issue time.  For a straight (list)
    schedule, times live within a single iteration and iterations execute
    back to back.  For a software-pipelined schedule, times are absolute
    within the flat schedule of one iteration; the kernel initiates a new
    iteration every [ii] cycles and an op at time [t] executes in stage
    [t / ii] at kernel cycle [t mod ii]. *)

type kind =
  | Straight
  | Pipelined of { ii : int; stages : int }

type t = {
  loop : Loop.t;
  machine : Machine.t;
  assignment : int array;  (** body position → issue time *)
  length : int;            (** straight: issue span of one iteration;
                               pipelined: flat-schedule span *)
  kind : kind;
  spills : int;            (** spill store/load pairs the allocator added *)
  int_pressure : int;      (** max simultaneously-live integer values *)
  fp_pressure : int;       (** max simultaneously-live FP values *)
  csr : Deps.csr;          (** dependence graph of [(loop, machine)],
                               attached by the scheduler that built the
                               assignment so downstream consumers (the
                               simulator's execution plans, {!validate})
                               share it instead of re-deriving or
                               re-keying it *)
}

val ii : t -> int
(** Initiation interval: cycles between iteration starts in steady state.
    For a straight schedule this is the issue span plus the taken-branch
    cost. *)

val validate : t -> (unit, string) result
(** Checks that every edge of [csr] is respected
    ([time dst >= time src + latency - ii * distance], with serial edges
    exempted for pipelined schedules) and that no cycle oversubscribes a
    functional unit class or total issue width (modulo [ii] for pipelined
    schedules). *)
