(** Solution verification.

    Every solution the solvers return is re-checked against the instance:
    a dual (packing) vector must satisfy [λmax(Σᵢ xᵢAᵢ) <= 1] and is
    valued by [‖x‖₁]; a primal (covering) matrix must satisfy [Tr Y = 1]
    and is judged by [minᵢ Aᵢ•Y]. These checks are what makes the
    Adaptive solver mode sound: early exits only fire on verified
    certificates. *)

open Psdp_linalg

(** {1 The dual check}

    With [G = [√x₁Q₁ … √xₙQₙ]] (m × r, r = Σ rank Qᵢ),
    [λmax(Σᵢ xᵢAᵢ) = λmax(GGᵀ) = λmax(GᵀG)]. When [min(m, r) <= 160] the
    check forms that smaller Gram and solves it densely: [λmax] is exact
    up to rounding (about [min(m,r)·u·‖G‖²]). Past the cutoff it is a
    Lanczos estimate from below, inflated by 1% — not a bound. Each check
    computes [λmax] once. *)

type dual = {
  x : float array;
  value : float;  (** [‖x‖₁] *)
  lambda_max : float;
      (** [λmax(Σᵢ xᵢAᵢ)]: exact on the dense path, a Lanczos estimate
          past the cutoff *)
  feasible : bool;  (** [lambda_max <= 1 + tol] *)
}

type primal = {
  dots : float array;  (** [Aᵢ • Y] *)
  trace : float;  (** [Tr Y] *)
  min_dot : float;
  feasible : bool;  (** [min_dot >= 1 - tol] and [trace <= 1 + tol] *)
}

val check_dual : ?tol:float -> Instance.t -> float array -> dual
(** [tol] defaults to [1e-6]. Raises [Invalid_argument] on wrong length or
    negative entries. *)

val rescale_dual : ?tol:float -> Instance.t -> float array -> dual
(** Scales [x] by [1/λmax(Σ xᵢAᵢ)] — the cheap way to turn any
    non-negative vector into a packing solution on the boundary
    [λmax = 1]. On the dense path the scale goes up as well as down
    (whenever [λmax > 0]); past the cutoff, where [λmax] is an estimate
    that may under-report, it only goes down (when the estimate exceeds
    1). The record is derived from the one [λmax]: a scaled [x] reports
    [lambda_max = 1]. *)

val shrink_dual : ?tol:float -> Instance.t -> float array -> dual
(** Scales [x] by [1/λmax(Σ xᵢAᵢ)] only when [λmax > 1], on either path:
    the iterate as it stands, pulled back onto [λmax <= 1], worth at most
    [‖x‖₁]. The decision procedures' early exits use it, so a check
    answers once the iterate itself carries the mass the decision asks
    for; a caller that wants the largest value [x]'s direction certifies
    (the bisection) applies {!rescale_dual} to the answer. *)

val check_primal : ?tol:float -> Instance.t -> Mat.t -> primal
(** Dense check of a materialized [Y] (symmetry enforced, PSD not
    re-verified — the solvers construct [Y] as an average of PSD matrices). *)

val primal_of_dots : ?tol:float -> trace:float -> float array -> primal
(** Builds the verdict from already-computed constraint values — used by
    the sketched backend, which never materializes [Y]. *)

val psi_lambda_max : Instance.t -> float array -> float
(** [λmax(Σᵢ xᵢAᵢ)] for non-negative weights [x], on the path above. *)
