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

from .core import Estimate, effective_rank, require_count
from .kronops import unvec, vec
from .sensing import COMPLETION, MeasurementOperator, ProblemInstance


@dataclass(frozen=True)
class NuclearConfig:
    """FISTA and bisection tolerances and iteration caps; the constraint
    radius is an argument of :func:`solve_constrained`."""

    fista_tol: float = 1e-8
    bisect_tol: float = 1e-3
    max_fista_iter: int = 2000
    max_bisect_iter: int = 60

    def __post_init__(self):
        tols = (self.fista_tol, self.bisect_tol)
        if any(isinstance(t, bool) or not 0 < t < math.inf for t in tols):
            raise ValueError(
                f"tolerances must be finite, > 0 and not bools, got {self}")
        require_count("max_fista_iter", self.max_fista_iter)
        require_count("max_bisect_iter", self.max_bisect_iter)


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


def _fista(inst, lam, cfg, x0=None, lipschitz=None, objectives=None):
    """Monotone FISTA with step 1/L; returns (x, iterations, converged).

    L is ``lipschitz`` or :func:`largest_gram_eigenvalue`, exact, so a plain
    proximal-gradient step of 1/L never increases the objective (Beck &
    Teboulle 2009) and no backtracking is needed. If the extrapolated step
    would increase the objective, the iterate is that plain step from the
    previous iterate instead, and the momentum restarts. ``objectives``,
    when given, collects the objective value of every accepted iterate.
    """
    lip = largest_gram_eigenvalue(inst.operator) if lipschitz is None else lipschitz
    if lip <= 0:
        lip = 1.0
    step = 1.0 / lip
    x = np.zeros((inst.p, inst.q)) if x0 is None else np.array(x0, dtype=float)
    z = x.copy()
    t = 1.0
    f = _objective(inst, x, lam, nuclear_norm(x))
    if objectives is not None:
        objectives.append(f)
    it = 0
    for it in range(1, cfg.max_fista_iter + 1):
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
        if rel < cfg.fista_tol:
            return x, it, True
    return x, it, False


def solve_lagrangian(inst: ProblemInstance, lam: float) -> np.ndarray:
    """Accelerated proximal-gradient minimizer of
    0.5 ||y - A vec(X)||^2 + lam ||X||_*, from X = 0 with the default
    :class:`NuclearConfig`."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    x, _, _ = _fista(inst, lam, NuclearConfig())
    return x


def delta_from_sigma(m: int, sigma_n: float) -> float:
    """Constraint radius sigma_n * sqrt(m + sqrt(8 m))."""
    if sigma_n < 0:
        raise ValueError("sigma_n must be >= 0")
    return float(sigma_n * np.sqrt(m + np.sqrt(8.0 * m)))


def solve_constrained(inst: ProblemInstance, delta: float,
                      cfg: NuclearConfig | None = None) -> Estimate:
    """Tune the Lagrangian weight to meet the residual constraint.

    Returns the zero matrix immediately when it is feasible. Otherwise a
    warm-started continuation walks the weight down from the zero-solution
    scale until the residual drops below delta (the residual is monotone
    in the weight), then log-bisection refines inside the bracket. If even
    the smallest bracketed weight leaves the residual at or above delta
    (e.g. delta ~ 0), that nearest-feasible solution is returned, flagged
    unconverged unless it meets the tolerance.
    """
    cfg = cfg or NuclearConfig()
    delta = float(delta)
    if delta < 0:
        raise ValueError("delta must be >= 0")
    p, q = inst.p, inst.q
    y_norm = float(np.linalg.norm(inst.y))

    def _estimate(x, iters, ok):
        return Estimate(x_hat=x, effective_rank=effective_rank(x),
                        beta_hat=float("nan"), iterations=iters, converged=ok)

    if y_norm <= delta:
        return _estimate(np.zeros((p, q)), 0, True)

    lo = 1e-8
    hi = 2.0 * float(np.linalg.norm(inst.operator.apply_adjoint(inst.y)))
    hi = max(hi, 2.0 * lo)
    lip = largest_gram_eigenvalue(inst.operator)
    total_iters = 0

    def _residual_at(lam, warm):
        nonlocal total_iters
        x, its, _ = _fista(inst, lam, cfg, x0=warm, lipschitz=lip)
        total_iters += its
        r = float(np.linalg.norm(inst.y - inst.operator.apply(vec(x))))
        return x, r

    def _within(r):
        return abs(r - delta) <= cfg.bisect_tol * delta

    # Continuation: decrease lambda geometrically (warm starts keep each
    # solve cheap and carry the low-rank structure down the path) until
    # the residual crosses delta or the bracket floor is hit.
    lam_hi = hi
    lam = hi / 4.0
    warm = None
    lam_lo = None
    x_lo = None
    while lam > lo:
        x_cur, r_cur = _residual_at(lam, warm)
        warm = x_cur
        if _within(r_cur):
            return _estimate(x_cur, total_iters, True)
        if r_cur < delta:
            lam_lo, x_lo, r_lo = lam, x_cur, r_cur
            break
        lam_hi = lam
        lam /= 4.0
    if lam_lo is None:
        x_cur, r_cur = _residual_at(lo, warm)
        if r_cur >= delta:
            # even the smallest weight cannot reach delta: nearest feasible
            return _estimate(x_cur, total_iters, _within(r_cur))
        lam_lo, x_lo, r_lo = lo, x_cur, r_cur

    best_x, best_gap = x_lo, abs(r_lo - delta)
    warm = x_lo
    lo_b, hi_b = lam_lo, lam_hi
    for _ in range(cfg.max_bisect_iter):
        mid = float(np.sqrt(lo_b * hi_b))
        x_mid, r_mid = _residual_at(mid, warm)
        warm = x_mid
        gap = abs(r_mid - delta)
        if gap < best_gap:
            best_x, best_gap = x_mid, gap
        if _within(r_mid):
            return _estimate(x_mid, total_iters, True)
        if r_mid < delta:
            lo_b = mid
        else:
            hi_b = mid
    return _estimate(best_x, total_iters, False)
