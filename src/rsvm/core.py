"""Bayesian low-rank matrix solver with Wishart-type precision updates.

For fixed precisions the estimate is the regularized least-squares solve

    vec(x_hat) = beta * Sigma * A^T y,
    Sigma = ((alpha_r kron alpha_l) + beta A^T A)^{-1},

followed by closed-form updates of the left/right precision matrices, a
rescaling step keeping the two precisions commensurate, and a gamma-prior
update of the noise precision. Iterated to a relative-change tolerance.

Sigma is never formed: :func:`map_estimate` returns it in a Woodbury form
of :func:`rsvm.kronops.structured_covariance` (that module gives the forms
and their costs). The updates read any covariance, the accelerated
solver's :class:`rsvm.kronops.BlockCovariance` included, through
``contract_right``, ``contract_left`` and ``trace_quadratic``. Every
iteration is returned as an :class:`IterationRecord` in ``Estimate.trace``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .kronops import (
    BlockCovariance,
    CompletionCovariance,
    Prior,
    StructuredCovariance,
    structured_covariance,
    unvec,
    vec,
)
from .sensing import ProblemInstance


def require_count(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integer >= 1 (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


EPSILON = 1e-6  # precision-prior floor: EPSILON * I in the precision updates
GAMMA_C = 1e-6  # shape of the vague gamma prior on the noise precision
GAMMA_D = 1e-6  # rate of that prior


@dataclass(frozen=True)
class Hyperparameters:
    """The stopping rule of the Bayesian solvers.

    The iteration stops when the relative Frobenius change of the estimate
    drops below tol, which defines ``Estimate.converged``, or at max_iter.
    The prior's constants are fixed: EPSILON, GAMMA_C and GAMMA_D.

    The iteration is semi-convergent on noisy data: once the fit starts
    chasing noise the estimated noise precision inflates and accuracy
    slowly degrades, so the moderate iteration cap acts as the stopping
    regularizer. max_iter=None (the default) leaves the cap to the solver
    (:func:`with_cap`): 25 for :func:`solve` and the symmetric solver, 30
    for the accelerated one, whose block-diagonal covariance progresses
    more slowly per outer iteration. An integer caps every solver. The caps
    are calibrated across the benchmark regimes (well-sampled problems peak
    earlier, undersampled ones later); noiseless exact-recovery runs keep
    improving if run longer.
    """

    tol: float = 1e-6
    max_iter: int | None = None

    def __post_init__(self):
        if isinstance(self.tol, bool) or not 0 < self.tol <= 1:
            raise ValueError(f"need 0 < tol <= 1 (not a bool), got {self}")
        if self.max_iter is not None:
            require_count("max_iter", self.max_iter)


DEFAULT_MAX_ITER = 25


def with_cap(hyper: Hyperparameters | None, cap: int) -> Hyperparameters:
    """``hyper`` (``Hyperparameters()`` when None) with an unset max_iter
    resolved to the calling solver's ``cap``."""
    hyper = hyper or Hyperparameters()
    return replace(hyper, max_iter=hyper.max_iter or cap)


def _factored(side: str) -> property:
    """The precision matrix of the Prior held in ``side``; assigning a
    matrix factors it into a new Prior (a Prior is taken as it is)."""
    def assign(self, value):
        if not isinstance(value, Prior):
            value = Prior.from_precision(value)
        setattr(self, side, value)

    return property(lambda self: getattr(self, side).matrix, assign,
                    doc=f"The precision matrix of ``{side}``.")


class PrecisionState:
    """The prior precisions, each a :class:`rsvm.kronops.Prior` (``prior_l``,
    ``prior_r``), and the noise precision ``beta``. ``alpha_l`` and
    ``alpha_r`` read and assign the matrices, so a matrix and its
    factorization never disagree."""

    alpha_l = _factored("prior_l")
    alpha_r = _factored("prior_r")

    def __init__(self, alpha_l, alpha_r, beta: float):
        self.alpha_l, self.alpha_r, self.beta = alpha_l, alpha_r, beta

    def __repr__(self) -> str:
        return (f"PrecisionState(alpha_l={self.alpha_l!r}, "
                f"alpha_r={self.alpha_r!r}, beta={self.beta!r})")


@dataclass
class SolverState:
    x_hat: np.ndarray
    sigma: StructuredCovariance | CompletionCovariance | BlockCovariance | None
    precisions: PrecisionState


@dataclass(frozen=True)
class IterationRecord:
    """One iteration of :func:`iterate`, taken after its noise update.

    rel_change is ||X_k - X_{k-1}||_F over ||X_{k-1}||_F (||X_k||_F when
    X_{k-1} = 0), floored at 1e-12. X_0 = 0, so it starts at 1 (0 if X_1 = 0).
    """

    iteration: int
    rel_change: float     # relative Frobenius change of the estimate
    neg_log_joint: float
    beta: float           # noise precision
    effective_rank: int   # of X_k


@dataclass
class Estimate:
    """Solver output: point estimate plus convergence diagnostics; the
    Bayesian solvers' ``trace`` holds one record per iteration, the last
    one with the final noise precision and effective rank."""

    x_hat: np.ndarray
    iterations: int
    converged: bool
    trace: tuple[IterationRecord, ...] = ()


class SolverDivergenceError(RuntimeError):
    """Non-finite values appeared; carries the last state for diagnosis."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


def effective_rank(x: np.ndarray) -> int:
    """Number of singular values above 1e-3 of the largest."""
    s = np.linalg.svd(np.asarray(x, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] <= 0:
        return 0
    return int(np.count_nonzero(s > 1e-3 * s[0]))


def init_state(inst: ProblemInstance, hyper: Hyperparameters) -> SolverState:
    """Identity precisions; beta0 = 10 m / ||y||^2 (1 when y = 0).
    ``hyper`` is unused, kept for existing callers."""
    p, q = inst.p, inst.q
    energy = float(inst.y @ inst.y)
    beta0 = 10.0 * inst.m / energy if energy > 0 else 1.0
    prec = PrecisionState(np.eye(p), np.eye(q), beta0)
    return SolverState(x_hat=np.zeros((p, q)), sigma=None, precisions=prec)


def map_estimate(state: SolverState, inst: ProblemInstance
                 ) -> tuple[np.ndarray,
                            StructuredCovariance | CompletionCovariance]:
    """Posterior mode and structured covariance for the current precisions."""
    prec = state.precisions
    sigma = structured_covariance(prec.prior_l, prec.prior_r, inst.operator,
                                  prec.beta)
    rhs = unvec(inst.operator.apply_adjoint(inst.y), inst.p, inst.q)
    return prec.beta * sigma.apply(rhs), sigma


def update_precisions(state: SolverState) -> PrecisionState:
    """Gauss-Seidel precision update: alpha_l first (old alpha_r), then
    alpha_r, each the inverse of its second moment plus EPSILON * I, as a
    :meth:`rsvm.kronops.Prior.inverse_of`: one eigendecomposition per
    second moment, no other inverse.

    No scale factor: balancing fixes tr(alpha_l^-1) tr(alpha_r^-1) =
    ||X||_F^2, so a common factor on both precisions would cancel."""
    x = state.x_hat
    sigma = state.sigma
    prec = state.precisions
    p, q = x.shape

    left = Prior.inverse_of(sigma.contract_right(prec.alpha_r)
                            + x @ prec.alpha_r @ x.T + EPSILON * np.eye(p))
    al = left.matrix
    right = Prior.inverse_of(sigma.contract_left(al) + x.T @ al @ x
                             + EPSILON * np.eye(q))
    return PrecisionState(left, right, prec.beta)


def update_noise_precision(state: SolverState, inst: ProblemInstance) -> float:
    """Gamma-posterior mode for the noise precision, prior (GAMMA_C, GAMMA_D).

    Raises SolverDivergenceError when the denominator is not positive.
    """
    resid = inst.y - inst.operator.apply(vec(state.x_hat))
    denom = float(resid @ resid) + state.sigma.trace_quadratic() \
        + 2.0 * GAMMA_D
    if not denom > 0:
        raise SolverDivergenceError(
            "noise precision denominator must be positive", state)
    return (inst.m + 2.0 * GAMMA_C) / denom


def balance_precisions(prec: PrecisionState,
                       x_hat: np.ndarray) -> PrecisionState:
    """Rescale alpha_l -> alpha_l*g*h, alpha_r -> alpha_r*g/h.

    g = sqrt(tr(alpha_l^-1) tr(alpha_r^-1)) / ||x_hat||_F matches the scale
    of the precisions to the estimate; h = sqrt(||alpha_r||_F/||alpha_l||_F)
    equalizes their Frobenius norms. Both read the priors' eigenvalues v:
    tr(alpha^-1) = sum(1/v) and ||alpha||_F = ||v||. The rescaled priors
    keep their eigenvectors; nothing is inverted or factored. Skipped when
    ||x_hat||_F ~ 0.
    """
    fx = float(np.linalg.norm(x_hat, "fro"))
    if fx < 1e-14:
        return prec
    left, right = prec.prior_l, prec.prior_r
    tl = float(np.sum(1.0 / left.values))
    tr = float(np.sum(1.0 / right.values))
    g = np.sqrt(tl * tr) / fx
    h = np.sqrt(np.linalg.norm(right.values) / np.linalg.norm(left.values))
    return PrecisionState(left.scaled(g * h), right.scaled(g / h), prec.beta)


def neg_log_joint(state: SolverState, inst: ProblemInstance) -> float:
    """Data misfit plus prior quadratic form, up to X-independent constants."""
    prec = state.precisions
    x = state.x_hat
    resid = inst.y - inst.operator.apply(vec(x))
    prior = float(np.sum((prec.alpha_l @ x @ prec.alpha_r) * x))
    return 0.5 * prec.beta * float(resid @ resid) + 0.5 * prior


def _require_finite(state: SolverState, it: int, what: str,
                    finite: bool) -> None:
    if not finite:
        raise SolverDivergenceError(f"non-finite {what} at iteration {it}",
                                    state)


def iterate(inst: ProblemInstance, hyper: Hyperparameters, posterior,
            precisions) -> Estimate:
    """The iteration shared by the Bayesian solvers.

    Each iteration: posterior(state) -> (x_hat, sigma), precisions(state) ->
    PrecisionState, precision balancing, noise-precision update. Stops when
    the relative Frobenius change of the estimate drops below hyper.tol or
    at hyper.max_iter, which must be set (:func:`with_cap`). Every
    iteration is returned as an :class:`IterationRecord` in
    ``Estimate.trace``.

    Raises SolverDivergenceError (with the offending state attached) if the
    estimate, a precision or the noise precision turns non-finite.
    """
    state = init_state(inst, hyper)
    x_prev = state.x_hat
    trace = []
    for it in range(1, hyper.max_iter + 1):
        x, sigma = posterior(state)
        _require_finite(state, it, "estimate", np.isfinite(x).all())
        state.x_hat, state.sigma = x, sigma
        scale = np.linalg.norm(x_prev, "fro") or np.linalg.norm(x, "fro")
        rel = float(np.linalg.norm(x - x_prev, "fro") / max(scale, 1e-12))

        prec = state.precisions = precisions(state)
        _require_finite(state, it, "precisions",
                        np.isfinite(prec.alpha_l).all()
                        and np.isfinite(prec.alpha_r).all())
        state.precisions = balance_precisions(state.precisions, x)
        state.precisions.beta = update_noise_precision(state, inst)
        _require_finite(state, it, "noise precision",
                        math.isfinite(state.precisions.beta))

        trace.append(IterationRecord(it, rel, neg_log_joint(state, inst),
                                     state.precisions.beta, effective_rank(x)))
        if rel < hyper.tol:
            break
        x_prev = x
    return Estimate(x_hat=state.x_hat, iterations=len(trace),
                    converged=trace[-1].rel_change < hyper.tol,
                    trace=tuple(trace))


def solve(inst: ProblemInstance,
          hyper: Hyperparameters | None = None) -> Estimate:
    """Run the full solver until the estimate stabilizes.

    Posterior step: the exact posterior mode and covariance; precision step:
    the Gauss-Seidel left/right update. See :func:`iterate` for the loop,
    its stopping rule, the per-iteration records in ``Estimate.trace`` and
    SolverDivergenceError.
    """
    hyper = with_cap(hyper, DEFAULT_MAX_ITER)
    # update_precisions is looked up when the solve starts, map_estimate at
    # each call, so a wrapper installed before the solve sees every call.
    return iterate(inst, hyper, lambda state: map_estimate(state, inst),
                   update_precisions)
