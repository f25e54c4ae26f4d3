(** Dependence analysis over a loop body.

    Produces the data-dependence graph used by the list scheduler, the
    modulo scheduler (software pipelining), the simulator and feature
    extraction.  Nodes are body positions; every edge carries a latency and
    an iteration {e distance}: a scheduling constraint
    [start dst >= start src + latency - II * distance].

    Register dependences are exact (virtual registers, single reaching def
    by position).  Memory dependences use the affine references: two direct
    references to the same array with equal strides either never alias or
    alias at a constant iteration distance; differing strides and indirect
    references degrade to conservative edges — an indirect reference may
    alias {e any} array, modelling unanalysable pointers.

    There is one graph form, {!csr}: flat int arrays, built directly.
    {b Edge order} is part of the contract, because the edge index names
    an edge in every [e_*] array and schedulers and validators walk edges
    by index.  Edges come in four sections — register, memory, control,
    serial — and within each section in the reverse of this emission
    order:
    - register: per reading op in body order, per read register (guard
      predicate included) in {!Op.reg_key} order, its flow edge then its
      anti edge; then per defined register in key order, its output chain
      and the closing loop-carried output edge;
    - memory: per pair of references [(a, b)], [a] before [b] in body
      order, pairs ordered by [a] then [b];
    - control: per early exit in body order, one edge to each later op;
    - serial: per call in body order, one edge per other op; then one edge
      from every op into the backedge. *)

type kind =
  | Reg_flow    (** true dependence through a register *)
  | Reg_anti    (** write-after-read *)
  | Reg_output  (** write-after-write *)
  | Mem_flow    (** store → load *)
  | Mem_anti    (** load → store *)
  | Mem_output  (** store → store *)
  | Control     (** ordering below an early-exit branch *)
  | Serial      (** serialisation: calls, and op → backedge delimiting *)

type csr = {
  csr_n : int;            (** number of ops *)
  n_edges : int;
  e_src : int array;      (** body position of each edge's source op *)
  e_dst : int array;      (** body position of each edge's sink op *)
  e_kind : int array;     (** {!kind_code} per edge *)
  e_lat : int array;
  e_dist : int array;     (** iterations separating src and dst (>= 0) *)
  succ_off : int array;   (** [csr_n + 1] offsets into [succ_edge] *)
  succ_edge : int array;  (** edge indices grouped by source op, ascending *)
  pred_off : int array;
  pred_edge : int array;  (** edge indices grouped by sink op, ascending *)
}
(** Edge [i] occupies index [i] of every [e_*] array; the adjacency arrays
    list edge indices grouped by endpoint. *)

val build : latency:(Op.t -> int) -> Loop.t -> csr
(** Builds the dependence graph.  [latency] maps an op to its result
    latency on the target machine (so the IR stays machine-independent).
    Allocates only the result: the working tables are kept per domain. *)

val kind_code : kind -> int
(** Stable small-int encoding of {!kind} used by [e_kind]
    ([Reg_flow] = 0 … [Serial] = 7). *)

val kind_of_code : int -> kind
(** Inverse of {!kind_code}; raises [Invalid_argument] outside 0..7. *)

val serial_code : int
val reg_flow_code : int

val has_cycle_at_distance_zero : csr -> bool
(** Sanity check: true if the distance-0 subgraph contains a cycle (which
    would indicate a malformed loop or an analysis bug). *)
