(** The schedulers' ready queues: a binary min-heap of int ranks with a
    fixed capacity.  Nothing is allocated after {!create}.  A rank must be
    unique among the elements held at once (the schedulers rank an op by
    its priority and then its body position), so pop order is fully
    determined. *)

type t

val create : int -> t
(** An empty heap holding at most the given number of ranks. *)

val is_empty : t -> bool

val push : t -> int -> unit
(** Raises [Invalid_argument] when the heap is full. *)

val pop : t -> int
(** Removes and returns the least rank.  Raises [Invalid_argument] when the
    heap is empty. *)
