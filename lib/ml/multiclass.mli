(** Multi-class classification over binary machines via output codes.

    §5.2 of the paper: each class gets a binary codeword, one binary
    classifier is trained per codeword bit, and a query is assigned the
    class whose codeword is closest to the concatenated binary predictions.
    The paper uses the identity (one-vs-rest) code; error-correcting codes
    are supported as the extension it mentions but does not use. *)

type code =
  | One_vs_rest
  | Dense_random of { bits : int; seed : int }
  (** each class gets [bits] random ±1 bits (distinct rows guaranteed) *)

type t

val train :
  ?jobs:int ->
  ?code:code -> n_classes:int -> kernel:Kernel.t -> gamma:float ->
  (float array * int) array -> t
(** Trains one LS-SVM per codeword bit, sharing the kernel factorisation.
    The Gram build fans out over [jobs] domains, bit-identical at every
    value. *)

val predict : t -> float array -> int
(** Soft Hamming decoding: the class whose codeword best agrees with the
    signed decision values (margins break ties). *)

val decision_values : t -> float array -> float array
(** Raw per-bit decision values for a query. *)

val loo_predictions :
  ?jobs:int ->
  ?code:code -> n_classes:int -> kernel:Kernel.t -> gamma:float ->
  (float array * int) array -> int array
(** Leave-one-out multi-class predictions over a training set, using the
    closed-form LS-SVM LOO residuals (one O(N³) factorisation total).
    Identical output for every [jobs] value. *)

val training_predictions :
  ?code:code -> n_classes:int -> gamma:float -> gram:Mat.t -> int array ->
  int array
(** Train on a precomputed Gram matrix (e.g. {!Pairwise.rbf_gram}) and
    classify the training points in place — decision values are K·alpha
    rows, no kernel re-evaluation.  Bit-identical to training via {!train}
    on the same Gram and calling {!predict} on every training point. *)

val codeword : t -> int -> int array
(** The ±1 codeword of a class. *)

val export : t -> int array array * Lssvm.trained array
(** (codewords, binary machines) — for persistence. *)

val import : codewords:int array array -> machines:Lssvm.trained array -> t
