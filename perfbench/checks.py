"""Correctness checks on solver outputs, written with numpy alone.

None of these calls the rsvm package: each check recomputes what it needs
(forward map, residual, nuclear norm, posterior mean) from the raw instance
arrays, so a fault in the package cannot also hide its own error. The
sensing operator is passed as its raw data: ``indices`` (column-major vec
positions of a completion mask) or ``matrix`` (a dense m x pq array),
exactly one of them not None.

Each check returns None when it passes and a message when it fails.
"""

from __future__ import annotations

import math

import numpy as np


def vec(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=float).reshape(-1, order="F")


def forward(x: np.ndarray, indices, matrix) -> np.ndarray:
    """A vec(X) for a completion mask or a dense sensing matrix."""
    v = vec(x)
    return v[indices] if indices is not None else matrix @ v


def nuclear_norm(x: np.ndarray) -> float:
    return float(np.linalg.svd(np.asarray(x, dtype=float),
                               compute_uv=False).sum())


def constraint_radius(m: int, sigma_n: float) -> float:
    """The nuclear baseline's residual bound sigma_n * sqrt(m + sqrt(8 m))."""
    return sigma_n * math.sqrt(m + math.sqrt(8.0 * m))


def snr_db(err_sq: float, signal_sq: float) -> float:
    """-10 log10(sum ||X - Xhat||_F^2 / sum ||X||_F^2)."""
    if err_sq <= 0:
        return math.inf
    return -10.0 * math.log10(err_sq / signal_sq)


def check_shape_finite(x, p: int, q: int):
    x = np.asarray(x)
    if x.shape != (p, q):
        return f"estimate has shape {x.shape}, expected {(p, q)}"
    if not np.all(np.isfinite(x)):
        return "estimate has non-finite entries"
    return None


def check_symmetric(x, rtol: float = 1e-12):
    x = np.asarray(x, dtype=float)
    gap = float(np.max(np.abs(x - x.T)))
    if gap > rtol * max(1.0, float(np.max(np.abs(x)))):
        return f"estimate is not symmetric: max |X - X^T| = {gap:.3e}"
    return None


def check_nuclear_residual(x, y, indices, matrix, delta: float,
                           bisect_tol: float):
    """A converged nuclear solution sits on the constraint boundary."""
    r = float(np.linalg.norm(y - forward(x, indices, matrix)))
    # 1e-9: the solver computes the same residual in another summation order
    if abs(r - delta) > bisect_tol * delta * (1.0 + 1e-9):
        return (f"nuclear residual {r:.6g} is off the constraint radius "
                f"{delta:.6g} by more than {bisect_tol:g} of it")
    return None


def check_nuclear_norm_bound(x, truth, y, indices, matrix, delta: float):
    """Where the truth is feasible, the minimizer's nuclear norm is no larger."""
    if float(np.linalg.norm(y - forward(truth, indices, matrix))) > delta:
        return None
    got, bound = nuclear_norm(x), nuclear_norm(truth)
    if got > bound * (1.0 + 1e-9):
        return (f"nuclear solution has ||X||_* = {got:.6g} above the "
                f"feasible truth's {bound:.6g}")
    return None


def check_beats_baseline(name: str, snr: float, baseline: float):
    if not snr > baseline:
        return (f"{name} reconstruction SNR {snr:.3f} dB does not exceed "
                f"the nuclear baseline's {baseline:.3f} dB")
    return None


def check_posterior_mean(x_hat, alpha_l, alpha_r, beta: float, y, indices,
                         matrix, rtol: float = 1e-8):
    """Solve (alpha_r kron alpha_l + beta A^T A) vec(X) = beta A^T y densely."""
    x_hat = np.asarray(x_hat, dtype=float)
    p, q = x_hat.shape
    prec = np.kron(alpha_r, alpha_l)
    if indices is not None:
        prec[indices, indices] += beta
        rhs = np.zeros(p * q)
        rhs[indices] = beta * y
    else:
        prec += beta * (matrix.T @ matrix)
        rhs = beta * (matrix.T @ y)
    ref = np.linalg.solve(prec, rhs)
    err = float(np.linalg.norm(vec(x_hat) - ref)
                / max(float(np.linalg.norm(ref)), 1e-300))
    if not err <= rtol:
        return (f"posterior mean differs from the dense numpy solve by "
                f"{err:.3e} (relative), above {rtol:g}")
    return None
