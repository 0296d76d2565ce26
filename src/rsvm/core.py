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
    StructuredCovariance,
    spd_inverse,
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


@dataclass(frozen=True)
class Hyperparameters:
    """Solver knobs.

    epsilon_scale is the scale of the precision-prior floor (eps * I added
    inside the precision updates); c, d parameterize the gamma prior on the
    noise precision. The precision updates carry no scale factor: balancing
    fixes tr(alpha_l^-1) tr(alpha_r^-1) = ||X||_F^2, so a common factor on
    both precisions would cancel. A failed Cholesky factorization is
    retried with the fixed jitter schedule of :func:`rsvm.kronops.spd_inverse`.

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

    epsilon_scale: float = 1e-6
    c: float = 1e-6
    d: float = 1e-6
    tol: float = 1e-6
    max_iter: int | None = None

    def __post_init__(self):
        if self.epsilon_scale <= 0:
            raise ValueError("epsilon_scale must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter is not None:
            require_count("max_iter", self.max_iter)


DEFAULT_MAX_ITER = 25


def with_cap(hyper: Hyperparameters | None, cap: int) -> Hyperparameters:
    """``hyper`` (``Hyperparameters()`` when None) with an unset max_iter
    resolved to the calling solver's ``cap``."""
    hyper = hyper or Hyperparameters()
    return replace(hyper, max_iter=hyper.max_iter or cap)


@dataclass
class PrecisionState:
    alpha_l: np.ndarray
    alpha_r: np.ndarray
    beta: float


@dataclass
class SolverState:
    x_hat: np.ndarray
    sigma: StructuredCovariance | CompletionCovariance | BlockCovariance | None
    precisions: PrecisionState


@dataclass(frozen=True)
class IterationRecord:
    """One iteration of :func:`iterate`, taken after its noise update.

    X_0 = 0 and the denominator is floored at 1e-12, so the first
    rel_change is ||X_1||_F / 1e-12 unless X_1 = 0.
    """

    iteration: int
    rel_change: float     # ||X_k - X_{k-1}||_F / ||X_{k-1}||_F
    neg_log_joint: float
    beta: float           # noise precision
    effective_rank: int   # of X_k


@dataclass
class Estimate:
    """Solver output: point estimate plus convergence diagnostics; the
    Bayesian solvers' ``trace`` holds one record per iteration."""

    x_hat: np.ndarray
    effective_rank: int
    beta_hat: float
    iterations: int
    converged: bool
    trace: tuple[IterationRecord, ...] = ()


class SolverDivergenceError(RuntimeError):
    """Non-finite values appeared; carries the last state for diagnosis."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


def effective_rank(x: np.ndarray, rel_threshold: float = 1e-3) -> int:
    s = np.linalg.svd(np.asarray(x, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] <= 0:
        return 0
    return int(np.count_nonzero(s > rel_threshold * s[0]))


def init_state(inst: ProblemInstance, hyper: Hyperparameters) -> SolverState:
    """Identity precisions; beta0 = 10 m / ||y||^2 (1 when y = 0)."""
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
    sigma = structured_covariance(prec.alpha_l, prec.alpha_r, inst.operator,
                                  prec.beta)
    rhs = unvec(inst.operator.apply_adjoint(inst.y), inst.p, inst.q)
    return prec.beta * sigma.apply(rhs), sigma


def update_precisions(state: SolverState,
                      hyper: Hyperparameters) -> PrecisionState:
    """Gauss-Seidel precision update: alpha_l first (old alpha_r), then alpha_r."""
    x = state.x_hat
    sigma = state.sigma
    prec = state.precisions
    eps = hyper.epsilon_scale
    p, q = x.shape

    al = spd_inverse(sigma.contract_right(prec.alpha_r)
                     + x @ prec.alpha_r @ x.T + eps * np.eye(p))
    ar = spd_inverse(sigma.contract_left(al) + x.T @ al @ x + eps * np.eye(q))
    return PrecisionState(al, ar, prec.beta)


def update_noise_precision(state: SolverState, inst: ProblemInstance,
                           hyper: Hyperparameters) -> float:
    """Gamma-posterior mode for the noise precision.

    Raises SolverDivergenceError when the denominator is not positive.
    """
    resid = inst.y - inst.operator.apply(vec(state.x_hat))
    denom = float(resid @ resid) + state.sigma.trace_quadratic() \
        + 2.0 * hyper.d
    if not denom > 0:
        raise SolverDivergenceError(
            "noise precision denominator must be positive", state)
    return (inst.m + 2.0 * hyper.c) / denom


def balance_precisions(prec: PrecisionState,
                       x_hat: np.ndarray) -> PrecisionState:
    """Rescale alpha_l -> alpha_l*g*h, alpha_r -> alpha_r*g/h.

    g = sqrt(tr(alpha_l^-1) tr(alpha_r^-1)) / ||x_hat||_F matches the scale
    of the precisions to the estimate; h = sqrt(||alpha_r||_F/||alpha_l||_F)
    equalizes their Frobenius norms. Skipped when ||x_hat||_F ~ 0.
    """
    fx = float(np.linalg.norm(x_hat, "fro"))
    if fx < 1e-14:
        return prec
    tl = float(np.trace(spd_inverse(prec.alpha_l)))
    tr = float(np.trace(spd_inverse(prec.alpha_r)))
    g = np.sqrt(tl * tr) / fx
    h = np.sqrt(np.linalg.norm(prec.alpha_r, "fro")
                / np.linalg.norm(prec.alpha_l, "fro"))
    return PrecisionState(prec.alpha_l * (g * h), prec.alpha_r * (g / h),
                          prec.beta)


def neg_log_joint(state: SolverState, inst: ProblemInstance,
                  hyper: Hyperparameters) -> float:
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
        rel = float(np.linalg.norm(x - x_prev, "fro")
                    / max(np.linalg.norm(x_prev, "fro"), 1e-12))

        prec = state.precisions = precisions(state)
        _require_finite(state, it, "precisions",
                        np.isfinite(prec.alpha_l).all()
                        and np.isfinite(prec.alpha_r).all())
        state.precisions = balance_precisions(state.precisions, x)
        state.precisions.beta = update_noise_precision(state, inst, hyper)
        _require_finite(state, it, "noise precision",
                        math.isfinite(state.precisions.beta))

        trace.append(IterationRecord(it, rel,
                                     neg_log_joint(state, inst, hyper),
                                     state.precisions.beta, effective_rank(x)))
        if rel < hyper.tol:
            break
        x_prev = x
    last = trace[-1]
    return Estimate(x_hat=state.x_hat, effective_rank=last.effective_rank,
                    beta_hat=last.beta, iterations=len(trace),
                    converged=last.rel_change < hyper.tol, trace=tuple(trace))


def solve(inst: ProblemInstance,
          hyper: Hyperparameters | None = None) -> Estimate:
    """Run the full solver until the estimate stabilizes.

    Posterior step: the exact posterior mode and covariance; precision step:
    the Gauss-Seidel left/right update. See :func:`iterate` for the loop,
    its stopping rule, the per-iteration records in ``Estimate.trace`` and
    SolverDivergenceError.
    """
    hyper = with_cap(hyper, DEFAULT_MAX_ITER)
    # The steps look map_estimate/update_precisions up at call time, so a
    # wrapper installed on the module attribute sees every call.
    return iterate(inst, hyper,
                   lambda state: map_estimate(state, inst),
                   lambda state: update_precisions(state, hyper))
