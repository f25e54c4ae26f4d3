(** Crash-safe label journal — the persistence layer of the labelling sweep.

    Labelling measures every loop of the suite at unroll factors 1..8;
    at full scale that is a multi-hour sweep, and before this store a
    crash anywhere lost all of it.  The journal is an append-only file of
    per-(sweep-key, factor) cycle measurements with atomic record framing:
    each record carries a digest of its own payload, records for one
    loop's sweep are written in a single [write] and fsync'd before
    {!append_sweep} returns, so the journal on disk is always a prefix of
    the logical record stream plus at most one torn tail.

    Recovery on {!open_} distinguishes the two corruption cases:
    - a {e trailing} partial record (the torn tail of an interrupted
      append) is silently truncated — by construction it is the only kind
      of damage a crash can produce;
    - {e interior} corruption (a bad record followed by good ones) can
      only mean bitrot or tampering, and is rejected loudly with the
      offending byte offset.

    A resumed sweep ({!Labeling.collect} with a journal) skips every
    fully-journalled loop and re-measures the rest; because each loop's
    measurement RNG is derived from stable identifiers, the resumed
    result is bit-identical to an uninterrupted run at any [-j].

    All operations are mutex-protected: worker domains of the parallel
    sweep share one store.  Counters feed [telemetry] under the
    ["label-store"] pass: [records-recovered], [truncated-bytes],
    [records-appended]. *)

type t

exception Injected_crash
(** Raised by the test-only fault injector ({!inject_crash_after}) after
    it has written a deliberately torn record. *)

val open_ : ?telemetry:Telemetry.t -> string -> (t, string) result
(** Open (creating if absent) and recover the journal at a path.  Returns
    [Error] on interior corruption, a foreign file, or an unsupported
    journal version; a torn trailing record is truncated and counted. *)

val close : t -> unit

val path : t -> string

val sweep_key :
  machine:Machine.t -> swp:bool -> noise:float -> noise_seed:int -> runs:int ->
  max_sim_iters:int -> bench:string -> index:int -> Loop.t -> string
(** The identity of one loop's measurement sweep: a hex digest over the
    loop's content (name blanked, like {!Loop.digest}), the full
    machine description, the SWP flag, every measurement parameter, and
    the (benchmark, loop index) pair that seeds the noise RNG.  Two
    structurally identical loops in different suite slots get different
    keys — they observe different noise, so their measurements are not
    interchangeable. *)

val find : t -> key:string -> factor:int -> int option
(** The journalled cycle count of one (sweep, factor), if present. *)

val find_sweep : t -> key:string -> n_factors:int -> int array option
(** All of factors 1..[n_factors] for a sweep, or [None] if any is
    missing (a partially-journalled sweep is re-measured whole). *)

val append_sweep : t -> key:string -> int array -> unit
(** Journal a complete sweep (index 0 = factor 1): all records in one
    write, one fsync.  Duplicate (key, factor) records are legal — the
    last one wins on recovery; measurements are deterministic, so
    duplicates always agree. *)

val size : t -> int
(** Number of distinct (key, factor) records currently known. *)

val recovered_records : t -> int
(** Records read back by {!open_}. *)

val truncated_bytes : t -> int
(** Bytes of torn tail discarded by recovery (0 for a clean journal). *)

val inject_crash_after : t -> int -> unit
(** Test hook: after [n] more records are written, write a torn prefix of
    the next record (no fsync) and raise {!Injected_crash} — simulating a
    [SIGKILL] landing mid-write.  The store is dead from then on: every
    later {!append_sweep} raises {!Injected_crash} without writing, since
    a real kill stops all writers at once (anything appended after the
    torn record would be interior corruption, which recovery rejects). *)

(** {1 Tail following}

    A follower is a read-only cursor over someone else's live journal —
    the feed of [unroll-ml train --follow].  It delivers every valid
    record {e exactly once}, in file order, by polling the file for newly
    fsync'd bytes; the cursor only ever advances past records already
    handed to the caller.  Damage is classified exactly like {!open_}
    recovery: an invalid or incomplete {e tail} is simply not consumed
    yet (re-read on the next poll, which also absorbs a recovering
    writer truncating the torn bytes), while an invalid chunk with a
    valid record after it raises {!Corrupt}. *)

exception Corrupt of string
(** Interior journal corruption seen by a follower, with the offending
    byte offset relative to the unconsumed tail.  ({!open_} reports the
    same condition as an [Error].) *)

type follower

val follow : string -> (follower, string) result
(** Open a follower at the start of an existing journal (the first
    {!follow_next} delivers the oldest record).  The header is validated
    lazily, so following a journal whose writer has not finished creating
    it is safe. *)

val follow_next :
  ?timeout:float -> ?poll:float -> follower -> (string * int * int) option
(** [follow_next f] blocks until the next record [(key, factor, cycles)]
    is available and returns it, polling the file every [poll] seconds
    (default 0.02).  With [timeout] (seconds), returns [None] once that
    much time passes with no new complete record.  Raises {!Corrupt} on
    interior corruption. *)

val follower_pos : follower -> int
(** Byte offset of the end of the last consumed record (the stable
    prefix this follower has fully delivered or buffered). *)

val close_follower : follower -> unit
