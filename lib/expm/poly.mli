(** Polynomial approximations of the matrix exponential applied to a
    vector: the paper's truncated Taylor prefix (Lemma 4.2, after [AK07]
    Lemma 6) and the certified Chebyshev expansion that is the default
    hot path (ROADMAP item 4, DESIGN §3.10).

    For PSD [B] with [‖B‖₂ <= κ], the degree-[<k] Taylor prefix
    [p̂(B) = Σ_{0<=i<k} Bⁱ/i!] with [k = max(e²κ, ln(2/ε))] satisfies
    [(1-ε)·exp(B) ≼ p̂(B) ≼ exp(B)]. The Chebyshev expansion reaches the
    same accuracy at degree [≈ κ/2 + O(√(κ·ln(1/ε)))] — several times
    shorter — and {!chebyshev_certified} restores the one-sided operator
    inequality the certificates rely on by computing a rigorous remainder
    bound [r] and shifting the evaluated polynomial to [p(B) + r·I ⪰
    exp(B)]. Each extra degree costs one matvec, and the matvec chain is
    the only sequential dependence — exactly the primitive Theorem 4.1
    prices. *)

open Psdp_linalg

type choice = Taylor | Chebyshev

val default_choice : choice ref
(** Process-wide default polynomial for the exp kernel ({!Big_dot_exp}).
    Initially [Chebyshev]; the [--poly taylor] CLI flag and
    {!with_choice} override it. *)

val set_default_choice : choice -> unit

val with_choice : choice -> (unit -> 'a) -> 'a
(** [with_choice c f] runs [f] with the default polynomial set to [c],
    restoring the previous default afterwards (exception-safe). *)

val clamp_kappa : cap:float -> float -> float
(** [clamp_kappa ~cap estimate] is the spectral interval actually handed
    to degree selection: [min cap estimate], except that a non-finite or
    negative [estimate] (e.g. an overflowed λmax upper bound on a spiked
    spectrum) yields [cap] — the analytic Lemma-3.2 bound is always a
    sound interval, a broken cheap estimate never is. Raises
    [Invalid_argument] unless [cap] is finite and positive. *)

val degree : kappa:float -> eps:float -> int
(** [degree ~kappa ~eps] is Lemma 4.2's [k = max(e²·max(1,κ), ln(2/ε))],
    rounded up. Raises [Invalid_argument] unless [eps] in [(0,1)] and
    [kappa] finite and non-negative. *)

val apply : matvec:(Vec.t -> Vec.t) -> degree:int -> Vec.t -> Vec.t
(** [apply ~matvec ~degree v] is [Σ_{0<=i<degree} Bⁱv/i!] using [degree-1]
    invocations of [matvec]. *)

val apply_many :
  matvec_many:(Vec.t array -> Vec.t array) -> degree:int -> Vec.t array -> Vec.t array
(** Panel variant of {!apply}: all columns advance through the chain in
    lockstep, so a batched [matvec_many] (e.g. {!Psdp_sparse.Csr.spmv_many})
    makes one pass over the operator per degree step. Column [r] of the
    result is byte-identical to [apply ~matvec ~degree vs.(r)]. *)

val apply_exp : matvec:(Vec.t -> Vec.t) -> kappa:float -> eps:float -> Vec.t -> Vec.t
(** Convenience: {!apply} with the degree from {!degree}. *)

(** {1 Certified Chebyshev default}

    The Chebyshev series of [e^x] on [[0, κ]] has coefficients
    [c₀ = e^{κ/2}I₀(κ/2)], [c_k = 2e^{κ/2}I_k(κ/2)], all positive; since
    [|T_k| <= 1] the degree-[d] truncation error is at most the tail sum
    [Σ_{k>d} c_k]. {!chebyshev_remainder} bounds that tail rigorously
    (computed coefficients up to a cap, a geometric majorant from
    [I_{k+1}(z) <= I_k(z)·z/(2(k+1))] beyond it, plus floating-point
    slack covering the [O(u·d·e^κ)] evaluation rounding — the
    coefficients are [O(e^κ)] while [p_d(x)] is [Θ(1)] at the spectrum's
    low end, so the cancellation is intrinsic). With [r] that bound,

    [exp(X) ⪯ p_d(X) + r·I ⪯ (1+2r)·exp(X)]

    for any PSD [X] with [‖X‖₂ <= κ]: both sides are functions of the
    same matrix, so the scalar inequalities on [[0, κ]] lift to the
    operator order, and they survive the squaring into Frobenius dots.
    When no degree certifies — [fp_slack] alone exceeds the target at
    large κ — {!chebyshev_certified} returns [None] and callers fall
    back to the Taylor prefix. *)

val chebyshev_coefficients : kappa:float -> degree:int -> float array
(** Coefficients [c₀ … c_degree] of the Chebyshev-series approximation of
    [e^x] on [[0, κ]] (scaled-Bessel values by Miller's downward
    recurrence; [c₀] already includes its conventional ½ factor). *)

val chebyshev_degree : kappa:float -> eps:float -> int
(** Smallest degree whose coefficient tail is below [eps] — determined
    numerically from the coefficient decay, without the certified shift.
    Retained for the EXP9c ablation. *)

val chebyshev_remainder : kappa:float -> degree:int -> float
(** [chebyshev_remainder ~kappa ~degree] is a certified upper bound on
    [max_{x ∈ [0,κ]} |p_degree(x) − e^x|] including evaluation rounding;
    [infinity] when [kappa > 600] (past double precision's reach). *)

val chebyshev_certified : kappa:float -> eps:float -> (int * float) option
(** [chebyshev_certified ~kappa ~eps] is [Some (degree, r)] for the
    smallest degree whose {!chebyshev_remainder} [r] satisfies
    [(1+2r)² <= 1+eps], or [None] when no degree certifies (the caller
    should fall back to {!degree}/{!apply}). *)

val chebyshev_apply :
  matvec:(Vec.t -> Vec.t) -> kappa:float -> degree:int -> Vec.t -> Vec.t
(** Evaluates the (unshifted) Chebyshev approximation of [exp] on a
    vector using the three-term recurrence ([degree] matvecs). *)

val chebyshev_apply_many :
  matvec_many:(Vec.t array -> Vec.t array) ->
  kappa:float ->
  degree:int ->
  Vec.t array ->
  Vec.t array
(** Panel variant of {!chebyshev_apply}; column [r] is byte-identical to
    the column-at-a-time evaluation. *)

val chebyshev_apply_shifted :
  matvec:(Vec.t -> Vec.t) ->
  kappa:float ->
  degree:int ->
  remainder:float ->
  Vec.t ->
  Vec.t
(** [chebyshev_apply_shifted ~remainder] evaluates [p_degree(X)v +
    remainder·v] — the certified one-sided form. Carries the
    ["expm.cheb.remainder"] failpoint: a fired corruption drives the
    shift a unit below zero so differential oracles can prove they catch
    a broken bound. *)

val chebyshev_apply_shifted_many :
  matvec_many:(Vec.t array -> Vec.t array) ->
  kappa:float ->
  degree:int ->
  remainder:float ->
  Vec.t array ->
  Vec.t array
(** Panel variant of {!chebyshev_apply_shifted}. *)

val remainder_failpoint : string
(** ["expm.cheb.remainder"] — the data failpoint name armed by the QA
    chaos self-test. *)
