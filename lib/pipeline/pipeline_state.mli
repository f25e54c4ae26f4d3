(** The typed compile-state record threaded through the pass pipeline.

    Every pass consumes and produces a {!state}: the immutable inputs
    (machine, SWP flag, unroll factor, source loop) plus the artefacts
    filled in as compilation progresses — the unrolled loop, the
    scheduled/allocated kernel and remainder, and finally the packaged
    {!executable} the simulator runs.  Keeping the record explicit is what
    lets passes be registered, reordered, observed and cached from
    outside ({!Pipeline}). *)

type executable = {
  schedules : (Schedule.t * int * int) list;
  (** [(schedule, trips, phase)] in execution order: the unrolled kernel
      followed by the remainder loop when present.  [phase] is the
      original-iteration index at which the schedule starts, so remainder
      references continue where the kernel stopped. *)
  unroll_factor : int;
  total_code_bytes : int;   (** kernel + remainder + glue *)
  outer_trip : int;         (** times the whole nest is re-entered *)
  exit_prob : float;        (** per-original-iteration early-exit probability *)
  entry_extra_cycles : int; (** per-entry fixed cost (exit mispredict, glue) *)
  total_spills : int;       (** spill values inserted by the allocator *)
}

type state = {
  machine : Machine.t;
  swp : bool;
  factor : int;
  source : Loop.t;
  unrolled : Unroll.t option;        (** after the unroll (and rle) passes *)
  kernel_sched : Schedule.t option;  (** after scheduling / allocation *)
  remainder_sched : Schedule.t option;
  exe : executable option;           (** after assembly *)
}

val init : Machine.t -> swp:bool -> Loop.t -> int -> state
(** A fresh state with only the inputs filled in. *)

val executable_exn : state -> executable
(** The assembled executable; raises [Invalid_argument] if the assemble
    pass has not run. *)
