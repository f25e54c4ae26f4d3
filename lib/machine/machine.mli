(** Target machine descriptions.

    An explicit EPIC/VLIW-style in-order machine model: issue width,
    functional units, operation latencies, register files, cache hierarchy
    and branch costs.  The default, {!itanium2}, approximates the 1.3 GHz
    Itanium 2 the paper targets.  Two alternates exercise the
    retune-to-a-new-machine workflow from §4.5 of the paper. *)

type unit_kind =
  | M  (** memory *)
  | I  (** integer ALU *)
  | F  (** floating point *)
  | B  (** branch *)

type cache_geom = {
  size_bytes : int;
  line_bytes : int;
  assoc : int;  (** ways; 1 = direct mapped *)
}

type t = {
  mach_name : string;
  issue_width : int;          (** ops issued per cycle, all units combined *)
  m_units : int;
  i_units : int;
  f_units : int;
  b_units : int;
  int_regs : int;             (** static integer registers allocatable to a loop *)
  fp_regs : int;
  rot_int_regs : int;         (** rotating registers available to the modulo
                                  scheduler (Itanium-style; larger than the
                                  static allocation budget) *)
  rot_fp_regs : int;
  lat_ialu : int;
  lat_imul : int;
  lat_fadd : int;
  lat_fmul : int;
  lat_fmadd : int;
  lat_fdiv : int;
  lat_load : int;             (** L1D-hit use latency *)
  lat_store : int;
  lat_cmp : int;
  lat_br : int;
  lat_sel : int;
  lat_call : int;
  lat_mov : int;
  fdiv_unpipelined : bool;    (** divides block their unit for their latency *)
  l1d : cache_geom;
  l1i : cache_geom;
  l2 : cache_geom;
  l2_hit_extra : int;         (** extra stall cycles for an L1 miss, L2 hit *)
  mem_extra : int;            (** extra stall cycles for an L2 miss *)
  l1i_miss_extra : int;       (** front-end stall per I-cache line miss *)
  taken_branch_cost : int;    (** pipeline bubble per taken branch *)
  mispredict_cost : int;      (** flush cost for a mispredicted branch *)
  spill_cost_regs : int;      (** registers reserved for spill addressing *)
}

val unit_of : Op.t -> unit_kind
(** The functional-unit class an op executes on. *)

val latency : t -> Op.t -> int
(** Result latency of an op on this machine (assuming an L1 hit for
    loads; cache misses add stalls at simulation time). *)

val digest : t -> Digest.t
(** MD5 of the marshalled description: every field participates.  Its hex
    form is the [machine] line of a model artifact. *)

val res_cycles : t -> Op.t array -> int
(** Resource-bound lower bound on cycles for one iteration of [ops]:
    the most-subscribed unit class, also bounded by total issue width.
    This is ResMII for modulo scheduling and the "estimated cycle length"
    feature. *)

val itanium2 : t
(** 6-issue, 2M/2I/2F/1B(+2), Itanium-2-like latencies, 16 KB L1D/L1I,
    256 KB L2. *)

val wide_vliw : t
(** A wider 8-issue machine with more FP capacity and a larger L1 —
    unrolling pays off longer before resources saturate. *)

val embedded2 : t
(** A narrow dual-issue machine with a small cache and expensive branches —
    unrolling saturates almost immediately but branch savings matter. *)

val all : t list
(** The shipped machine descriptions. *)

val by_name : string -> t option
