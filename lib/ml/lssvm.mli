(** Least-squares support vector machines.

    The paper prototypes its SVM with the LS-SVMlab toolkit [13]; this is
    the same formulation, built from scratch.  A binary LS-SVM (bias-free
    variant) solves the ridge system

    {v (K + I/gamma) alpha = y v}

    over the kernel Gram matrix K and targets y in {-1, +1}; the decision
    function is f(x) = sum_i alpha_i k(x_i, x).

    Two structural facts make full-dataset experiments tractable:
    - H = K + I/gamma does not depend on the labels, so one Cholesky
      factorisation is shared across all one-vs-rest subproblems; and
    - leave-one-out residuals have the closed form
      e_i = alpha_i / (H^-1)_ii, so LOOCV costs one inversion rather than
      N retrainings. *)

type trained

val train :
  ?jobs:int ->
  kernel:Kernel.t -> gamma:float -> float array array -> float array -> trained
(** [train ~kernel ~gamma points targets] with targets in {-1, +1}.  The
    Gram build fans out over [jobs] worker domains (default 1) with
    bit-identical results at every value. *)

val train_multi :
  ?jobs:int ->
  kernel:Kernel.t -> gamma:float -> float array array -> float array array ->
  trained array
(** Train one binary machine per target vector, sharing the factorisation
    of H across all of them. *)

val solve_gram : gamma:float -> Mat.t -> float array array -> float array array
(** [solve_gram ~gamma gram target_sets] solves (K + I/gamma) alpha = y
    per target set over a precomputed Gram matrix (which is not modified)
    — the entry point for the {!Pairwise} engine, where K comes from the
    running dist² triangle.  One shared Cholesky factorisation. *)

val decision : trained -> float array -> float
(** Signed decision value; positive means class +1. *)

val decision_batch : trained array -> float array -> float array
(** Decision values of several machines sharing the same training points,
    evaluating each kernel row once. *)

val export : trained -> float array
(** The dual coefficients (alphas) — for persistence; pair with the
    training points and kernel to reconstruct via {!import}. *)

val training_points : trained -> float array array
val kernel_of : trained -> Kernel.t

val import :
  kernel:Kernel.t -> points:float array array -> alphas:float array -> trained

val loo_decisions :
  ?jobs:int ->
  kernel:Kernel.t -> gamma:float -> float array array -> float array array ->
  float array array
(** [loo_decisions ~kernel ~gamma points targets] returns, per binary
    subproblem, the leave-one-out decision value for every training
    example: element [(c, i)] is f_c computed without example [i],
    evaluated at x_i.  Costs a single O(N³) inversion. *)
