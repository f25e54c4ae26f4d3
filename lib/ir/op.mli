(** Operations of the three-address loop IR.

    A loop body is a straight-line sequence of operations over virtual
    registers, closed by a backward branch.  Memory operations carry an
    affine reference — base array, per-iteration stride and element offset —
    which is what dependence analysis, unrolling, redundant-load elimination
    and the cache simulator all consume.  Indirect references (address
    computed from loaded data) defeat precise analysis and force conservative
    dependences, exactly as in a real compiler. *)

type reg_class = Int | Flt

type reg = { id : int; cls : reg_class }
(** A virtual register.  Ids are unique within a loop, per class. *)

type mem_kind =
  | Direct    (** affine address: base + elem_size * (stride * i + offset) *)
  | Indirect  (** address depends on loaded data (pointer chasing) *)

type mref = {
  array : int;   (** index into the loop's array table *)
  stride : int;  (** elements advanced per original loop iteration *)
  offset : int;  (** constant element offset *)
  mkind : mem_kind;
}

type branch_kind =
  | Backedge  (** the loop-closing branch *)
  | Exit      (** a conditional early exit out of the loop *)
  | Internal  (** intra-body control flow (if-converted diamond edge) *)

type opcode =
  | Ialu                (** integer add/sub/logical, 1-cycle class *)
  | Imul                (** integer multiply *)
  | Fadd                (** FP add/sub *)
  | Fmul                (** FP multiply *)
  | Fmadd               (** fused multiply-add *)
  | Fdiv                (** FP divide (long latency, unpipelined) *)
  | Load of mref
  | Store of mref
  | Cmp                 (** comparison producing a predicate *)
  | Br of branch_kind
  | Sel                 (** predicated select *)
  | Call                (** opaque call: scheduling barrier *)
  | Mov                 (** register copy — an "implicit" instruction *)

type t = {
  uid : int;            (** position-independent unique id within the loop *)
  opcode : opcode;
  dst : reg option;
  srcs : reg list;
  pred : int option;    (** guarding predicate id, if the op is predicated *)
}

val make : uid:int -> ?dst:reg -> ?srcs:reg list -> ?pred:int -> opcode -> t

val is_memory : t -> bool
val is_load : t -> bool
val is_store : t -> bool
val is_branch : t -> bool
val is_float : t -> bool
(** FP arithmetic (not FP loads/stores). *)

val is_implicit : t -> bool
(** Compiler-inserted bookkeeping ops: register copies and selects. *)

val mref : t -> mref option
(** The memory reference of a load/store, if any. *)

val guard_reg : t -> reg option
(** The (integer) register holding an op's guarding predicate, if the op
    is predicated.  Predicates live in the integer class by convention;
    this is the one place that convention is encoded. *)

val defs : t -> reg list
val uses : t -> reg list

val reg_key : reg -> int
(** [2 * id + class] (integer 0, FP 1): a dense non-negative index for
    register-keyed tables, ascending in the order [compare] puts registers. *)

val operand_count : t -> int
(** Total number of register operands (defs + uses), the paper's
    "number of operands" feature. *)

val pp : Format.formatter -> t -> unit
val pp_reg : Format.formatter -> reg -> unit
val to_string : t -> string
