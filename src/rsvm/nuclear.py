"""Nuclear-norm baseline: constrained minimization via FISTA + bisection.

Solves  min ||X||_*  s.t.  ||y - A vec(X)||_2 <= delta  by bisecting the
Lagrangian weight lambda until the residual of the accelerated
proximal-gradient solution matches the constraint radius. The proximal
step is singular value soft-thresholding; the step size is 1/L with L the
exact largest eigenvalue of A^T A, computed once per constrained solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Estimate
from .kronops import unvec, vec
from .sensing import COMPLETION, MeasurementOperator, ProblemInstance

FISTA_TOL = 1e-8        # FISTA stops at this relative objective change
MAX_FISTA_ITER = 2000   # FISTA steps per weight
MAX_BISECT_ITER = 60    # bisection weights per constrained solve
LAMBDA_FLOOR = 1e-8     # smallest Lagrangian weight tried


@dataclass(frozen=True)
class NuclearConfig:
    """Relative tolerance of the residual on the constraint radius, which
    is an argument of :func:`solve_constrained`."""

    bisect_tol: float = 1e-3

    def __post_init__(self):
        t = self.bisect_tol
        if isinstance(t, bool) or not 0 < t < math.inf:
            raise ValueError(
                f"tolerances must be finite, > 0 and not bools, got {self}")


def nuclear_norm(x: np.ndarray) -> float:
    return float(np.linalg.svd(x, compute_uv=False).sum())


def svt_prox(x: np.ndarray, tau: float) -> tuple[np.ndarray, float]:
    """Soft-threshold the singular values of x by tau; returns the result
    and its nuclear norm."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    x = np.asarray(x, dtype=float)
    if tau == 0:
        return x, nuclear_norm(x)
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    s = np.maximum(s - tau, 0.0)
    return (u * s) @ vt, float(s.sum())


def largest_gram_eigenvalue(op: MeasurementOperator) -> float:
    """Largest eigenvalue of A^T A, the Lipschitz constant of the gradient
    of 0.5 ||y - A vec(X)||^2.

    1 for a completion mask, whose A^T A selects the observed entries; for
    dense sensing the top eigenvalue of the smaller of A A^T and A^T A
    (0 when A has no rows).
    """
    if op.kind == COMPLETION:
        return 1.0
    a = op.matrix
    vals = np.linalg.eigvalsh(a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a)
    return float(vals[-1]) if vals.size else 0.0


def _objective(inst, x, lam, nuc):
    """Lagrangian objective at x, given nuc = ||x||_*."""
    r = inst.y - inst.operator.apply(vec(x))
    return 0.5 * float(r @ r) + lam * nuc


def _grad(inst, x):
    r = inst.y - inst.operator.apply(vec(x))
    return -unvec(inst.operator.apply_adjoint(r), inst.p, inst.q)


def _prox_step(inst, x, step, lam):
    """Proximal-gradient step from x and the objective at its result.

    The soft-threshold already yields the result's singular values, so the
    objective needs no second SVD.
    """
    cand, nuc = svt_prox(x - step * _grad(inst, x), step * lam)
    return cand, _objective(inst, cand, lam, nuc)


def _fista(inst, lam, x0, lip, objectives=None):
    """Monotone FISTA from x0 with step 1/lip; returns (x, iterations).

    lip is L = :func:`largest_gram_eigenvalue`, exact, so a plain
    proximal-gradient step of 1/L never increases the objective (Beck &
    Teboulle 2009) and no backtracking is needed (L = 0, an operator
    without rows, steps by 1). If the extrapolated step would increase the
    objective, the iterate is that plain step from the previous iterate
    instead, and the momentum restarts. Stops when the relative objective
    change drops below FISTA_TOL or after MAX_FISTA_ITER steps.
    ``objectives``, when given, collects the objective value of every
    accepted iterate.
    """
    step = 1.0 / lip if lip > 0 else 1.0
    x = np.array(x0, dtype=float)
    z = x.copy()
    t = 1.0
    f = _objective(inst, x, lam, nuclear_norm(x))
    if objectives is not None:
        objectives.append(f)
    it = 0
    for it in range(1, MAX_FISTA_ITER + 1):
        cand, f_cand = _prox_step(inst, z, step, lam)
        if f_cand > f:
            cand, f_cand = _prox_step(inst, x, step, lam)
            t = 1.0
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = cand + ((t - 1.0) / t_next) * (cand - x)
        rel = abs(f_cand - f) / max(abs(f), 1e-12)
        x, f, t = cand, f_cand, t_next
        if objectives is not None:
            objectives.append(f)
        if rel < FISTA_TOL:
            break
    return x, it


def solve_lagrangian(inst: ProblemInstance, lam: float) -> np.ndarray:
    """Accelerated proximal-gradient minimizer of
    0.5 ||y - A vec(X)||^2 + lam ||X||_*, from X = 0."""
    if not lam > 0:
        raise ValueError("lam must be positive")
    x, _ = _fista(inst, lam, np.zeros((inst.p, inst.q)),
                  largest_gram_eigenvalue(inst.operator))
    return x


def delta_from_sigma(m: int, sigma_n: float) -> float:
    """Constraint radius sigma_n * sqrt(m + sqrt(8 m))."""
    if not sigma_n >= 0:
        raise ValueError("sigma_n must be >= 0")
    return float(sigma_n * np.sqrt(m + np.sqrt(8.0 * m)))


def solve_constrained(inst: ProblemInstance, delta: float,
                      cfg: NuclearConfig | None = None) -> Estimate:
    """Tune the Lagrangian weight to meet the residual constraint.

    Returns the zero matrix at once when it is feasible. Otherwise one
    loop of warm-started FISTA runs walks the weight: down by 4 per run
    from a quarter of 2 ||A^T y|| (the zero-solution scale) to
    LAMBDA_FLOOR until the residual drops below delta (the residual is
    monotone in the weight), then log-bisection of that bracket for at
    most MAX_BISECT_ITER weights. The first residual within
    ``cfg.bisect_tol`` of delta ends the solve, converged. Otherwise the
    result is unconverged: the bracket's solution closest to delta, or,
    when even the floor weight leaves the residual above delta (e.g.
    delta ~ 0), that nearest-feasible solution.
    """
    cfg = cfg or NuclearConfig()
    delta = float(delta)
    if not delta >= 0:
        raise ValueError("delta must be >= 0")
    x = np.zeros((inst.p, inst.q))
    if float(np.linalg.norm(inst.y)) <= delta:
        return Estimate(x_hat=x, iterations=0, converged=True)

    lip = largest_gram_eigenvalue(inst.operator)
    aty = inst.operator.apply_adjoint(inst.y)
    lam_hi = max(2.0 * float(np.linalg.norm(aty)), 2.0 * LAMBDA_FLOOR)
    lam = max(lam_hi / 4.0, LAMBDA_FLOOR)
    lam_lo = None
    total_iters = bisections = 0
    while True:
        x, its = _fista(inst, lam, x, lip)
        total_iters += its
        r = float(np.linalg.norm(inst.y - inst.operator.apply(vec(x))))
        gap = abs(r - delta)
        if gap <= cfg.bisect_tol * delta:
            return Estimate(x_hat=x, iterations=total_iters, converged=True)
        # the latest run until the bracket holds, then the nearest to delta
        if lam_lo is None or gap < best_gap:
            best_x, best_gap = x, gap
        if r < delta:
            lam_lo = lam
        else:
            lam_hi = lam
        if lam_lo is None and lam > LAMBDA_FLOOR:
            lam = max(lam / 4.0, LAMBDA_FLOOR)
        elif lam_lo is not None and bisections < MAX_BISECT_ITER:
            bisections += 1
            lam = float(np.sqrt(lam_lo * lam_hi))
        else:
            return Estimate(x_hat=best_x, iterations=total_iters,
                            converged=False)
