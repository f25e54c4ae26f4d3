(** Direct solvers for dense linear systems.

    LS-SVM training reduces to solving (K + I/gamma) alpha = y with a
    symmetric positive-definite matrix, and its fast leave-one-out rule
    needs the explicit inverse; both are provided here, together with a
    pivoted LU for general systems (used by LDA). *)

exception Singular
(** Raised when a factorisation encounters a (numerically) singular pivot. *)

type cholesky
(** A Cholesky factorisation L with A = L Lᵀ. *)

val cholesky : Mat.t -> cholesky
(** Factorises a symmetric positive-definite matrix.  Only the lower triangle
    of the argument is read.  Raises {!Singular} if a pivot underflows. *)

val cholesky_solve : cholesky -> Vec.t -> Vec.t
(** Solves A x = b given the factorisation of A. *)

val cholesky_inverse : cholesky -> Mat.t
(** The full inverse A⁻¹. *)

val cholesky_inverse_diagonal : cholesky -> float array
(** diag(A⁻¹) alone, via (A⁻¹)_jj = ‖L⁻¹eⱼ‖² — one forward solve per
    column, n³/6 work instead of the inverse's n³.  This is all the
    closed-form LS-SVM LOOCV residuals need. *)

val cholesky_log_det : cholesky -> float
(** log determinant of A (useful for conditioning diagnostics). *)

type lu
(** An LU factorisation with partial pivoting, P A = L U. *)

val lu : Mat.t -> lu
(** Factorises a square matrix.  Raises {!Singular} on singular input. *)

val lu_solve : lu -> Vec.t -> Vec.t
(** Solves A x = b given the factorisation. *)

val lu_inverse : lu -> Mat.t

val solve : Mat.t -> Vec.t -> Vec.t
(** One-shot pivoted-LU solve of A x = b. *)

val inverse : Mat.t -> Mat.t
(** One-shot inverse via pivoted LU. *)
