(** Label collection (paper §4.4–4.6).

    Every loop in a suite is measured at unroll factors 1..8 through the
    simulated testbed; the factor with the fewest cycles is the loop's
    label.  Three filters from the paper apply before training: the reference
    compiler must be able to unroll the loop at all (no calls or early
    exits, §4.6), loops must
    run for at least 50,000 cycles (measurement noise otherwise dominates),
    and the optimal factor must beat the mean over all factors by at least
    1.05x (flat loops teach nothing).  The joint (unroll factor × SWP)
    space labels {!merge_joint}ed sweeps with the same {!to_dataset}. *)

type labeled = {
  bench : string;
  loop : Loop.t;
  weight : float;          (** runtime weight within its benchmark *)
  cycles : int array;
  (** measured cycles per factor, index 0 = u1; 16 entries (SWP off, then
      on) after {!merge_joint} *)
}

val best_factor : labeled -> int
(** 1-based optimal unroll factor. *)

val passes_filters : labeled -> bool

val tasks : Suite.benchmark list -> (string * int * Loop.t * float) array
(** The canonical per-loop flattening of a suite, in suite order:
    [(bench, index, loop, weight)].  Shared by {!collect} and the online
    trainer, which must rebuild the same ordering from journal records
    regardless of their arrival order. *)

val task_key : Config.t -> swp:bool -> bench:string -> index:int -> Loop.t -> string
(** The {!Label_store.sweep_key} of one task under a config — the key
    {!collect} journals that loop's measurements under. *)

val collect :
  ?progress:(done_:int -> total:int -> unit) ->
  ?jobs:int ->
  ?journal:Label_store.t ->
  Config.t -> swp:bool -> Suite.benchmark list -> labeled array
(** Sweeps every loop of every benchmark across [jobs] worker domains
    (default 1 = sequential).  Deterministic in the config: each loop's
    measurement RNG is derived from [(noise_seed, benchmark, loop index)],
    so the output is bit-identical for every [jobs] value.  [progress]
    callbacks are serialised but may arrive out of loop order when
    [jobs > 1].

    With [journal], measurements stream into the crash-safe
    {!Label_store} as they complete, and loops whose full sweep is
    already journalled are served from it without simulating — so a
    killed sweep resumed from its journal produces output bit-identical
    to an uninterrupted run (per-loop RNG derivation means skipping work
    perturbs nothing).  Resume skips and fresh measurements are counted
    in {!Telemetry.global} under ["label-store"]. *)

(** The joint (unroll factor × SWP on/off) decision space: 16 classes laid
    out to mirror the concatenated cost array [off ++ on] — classes 0..7
    are factors 1..8 with SWP off, 8..15 the same factors with SWP on. *)
module Joint : sig
  val classes : int

  val encode : factor:int -> swp:bool -> int
  (** 0-based joint class of a (1-based factor, swp) decision.  Raises
      [Invalid_argument] on a factor outside 1..{!Unroll.max_factor}. *)

  val decode : int -> int * bool
  (** Inverse of {!encode}: [(factor, swp)].  Raises [Invalid_argument]
      outside \[0, {!classes}). *)
end

val merge_joint : off:labeled array -> on:labeled array -> labeled array
(** Positionally merge an SWP-off sweep with an SWP-on sweep of the same
    suite into loops carrying 16-entry cost arrays (off cycles then on
    cycles).  Raises [Invalid_argument] if the sweeps differ in length or
    loop identity at any index. *)

val to_dataset :
  ?filtered:bool -> ?features:(int -> float array) -> Config.t -> labeled array -> Dataset.t
(** Feature extraction + labelling, for either label space.  A loop's
    label is the argmin of its cycle array and its costs are the measured
    cycles, so an 8-entry sweep gives factor − 1 labels over
    {!Unroll.max_factor} classes and a {!merge_joint} sweep gives
    {!Joint.encode} labels over {!Joint.classes}.  The class count is the
    width of the cycle arrays ({!Unroll.max_factor} for an empty array).
    [filtered] (default true) applies {!passes_filters} to the cycle
    array as given (over a merged sweep, best and mean span both SWP
    settings).  [features i] is the feature vector of the loop at position
    [i] (default: {!Features.extract} on the config's machine), asked only
    for loops that survive; callers building several datasets over the
    same loops pass one cached function. *)
