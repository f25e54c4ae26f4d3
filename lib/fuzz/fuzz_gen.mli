(** Structured random loop generation for differential fuzzing.

    Where {!Synth} draws loops from benchmark-suite profiles so the
    {e learning} experiments see a realistic joint distribution, this
    generator is adversarial: it exists to break the compile pipeline, so
    it concentrates probability mass where transforms have historically
    been wrong — trip counts straddling the unroll factor (0, 1, factor−1,
    factor, factor+1, non-multiples), loop-carried recurrences at distance
    1..k built from rotation chains, stores aliasing the arrays a loop
    also reads, indirect references, predication and selects, opaque
    calls, early exits, and compile-time-unknown trip counts.

    Generation is deterministic: a {!case} is a pure function of
    [(seed, id)] via {!Rng.derive}, so a fuzzing campaign is reproducible
    and independent of how many worker domains ran it.  Every tenth [id]
    cycles through a fixed list of directed shapes, which guarantees that
    any budget ≥ 10 exercises every IR op kind and every oracle
    coordinate. *)

type cfg = {
  synth_prob : float;       (** mixed shapes draw a {!Synth} profile loop *)
  comps_max : int;          (** computations per structured body *)
  chain_max : int;          (** arithmetic chain length per computation *)
  rec_distance_max : int;   (** loop-carried recurrence distance 1..k *)
  arrays_max : int;         (** arrays beyond the first *)
  indirect_prob : float;
  guard_prob : float;       (** computation is predicated *)
  sel_prob : float;
  mov_prob : float;
  fmadd_prob : float;
  div_prob : float;
  call_prob : float;
  exit_prob : float;        (** loop body contains an early-exit branch *)
  reduction_prob : float;
  alias_prob : float;       (** a store targets an array the loop loads *)
  dynamic_trip_prob : float;(** trip count unknown at compile time *)
  small_array_prob : float; (** arrays short enough to wrap in-window *)
  strides : int array;
}

val default : cfg

type case = {
  id : int;
  loop : Loop.t;
  factor : int;        (** unroll factor 1..8 *)
  swp : bool;          (** modulo scheduling (with list fallback) *)
  rle : bool;          (** redundant-load elimination pass enabled *)
  machine : Machine.t;
}

val machines : Machine.t array
(** The machine models a campaign cycles through ({!Machine.all}). *)

val adversarial_trip : Rng.t -> factor:int -> int
(** A trip count drawn around the unroll factor: 0, 1, factor−1, factor,
    factor+1, small multiples and non-multiples, with an occasional
    {!Synth.snap_trip}-style larger value. *)

val loop : Rng.t -> cfg -> id:int -> factor:int -> name:string -> Loop.t
(** One structured loop.  [id] selects the directed shape ([id mod 10]);
    the trip count is drawn adversarially around [factor].  Always
    validates, and always has [exit_prob = 0] so compiled schedules carry
    exact trip counts (semantic oracles need that; the early-exit {e ops}
    are still generated). *)

val case : ?cfg:cfg -> seed:int -> id:int -> unit -> case
(** The [id]-th case of a campaign keyed by [seed]: a loop plus its
    pipeline coordinates.  [factor] is random per case; [swp], [rle] and
    [machine] cycle deterministically with [id] so the full oracle matrix
    is covered by any contiguous id range of length 12. *)

(** {1 Shared helpers for the property-test suites} *)

val synth_profile : int -> Synth.profile
(** The four-way profile rotation ([fp_numeric], [int_pointer], [media],
    [scientific_c]) the test suites key on [seed mod 4]. *)

val synth_loop : ?prefix:string -> int -> Loop.t
(** [synth_loop seed] is the {!Synth} loop the ad-hoc QCheck generators in
    [test_pipeline] and [test_sim_equiv] used to build by hand: profile by
    [seed mod 4], RNG [Rng.create seed], name [prefix ^ seed]. *)

val with_exact_trip : ?dynamic:bool -> Loop.t -> int -> Loop.t
(** Pin the runtime trip count, keep (or, with [~dynamic:true], erase) the
    compiler's knowledge of it, and zero [exit_prob] so the executable's
    expected-trip arithmetic is exact — the convention every semantic
    equivalence property uses. *)

val with_array_lengths : Loop.t -> int -> Loop.t
(** Shrink every array to [len] elements (address bases unchanged), so
    references wrap within the simulated window and exercise the
    simulator's wrap-around addressing. *)

val op_kind : Op.t -> string
(** Coverage key of an op: ["ialu"], ["fmadd"], ["load"], ["br-exit"], … *)

val op_kinds : string list
(** Every op kind the generator can emit; campaign coverage is checked
    against this list. *)

val op_histogram : Loop.t -> (string * int) list
(** Count of each {!op_kind} in the body (zero-count kinds omitted). *)
