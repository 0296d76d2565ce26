"""Tensor algebra for Kronecker-structured Gaussian models.

Conventions used throughout the package:

* ``vec`` stacks columns (column-major). Under this convention the prior
  quadratic form satisfies tr(L X R X^T) = vec(X)^T (R kron L) vec(X) for
  symmetric L, R, which is the identity the solver updates rely on.
* Covariances/precisions are kept symmetric explicitly; inversions go
  through Cholesky with an escalating jitter fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


class FactorizationError(np.linalg.LinAlgError):
    """Cholesky kept failing after the jitter escalation schedule."""


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product a kron b."""
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def vec(x: np.ndarray) -> np.ndarray:
    """Column-major stacking of a matrix into a vector."""
    return np.asarray(x, dtype=float).reshape(-1, order="F")


def unvec(v: np.ndarray, p: int, q: int) -> np.ndarray:
    """Inverse of :func:`vec`; requires len(v) == p*q."""
    v = np.asarray(v, dtype=float)
    if v.size != p * q:
        raise ValueError(f"cannot unvec length-{v.size} vector into {p}x{q}")
    return v.reshape((p, q), order="F")


def _split_dims(sigma: np.ndarray, block: int) -> tuple[int, int]:
    n = sigma.shape[0]
    if sigma.ndim != 2 or sigma.shape[1] != n:
        raise ValueError("sigma must be square")
    if n % block != 0:
        raise ValueError(f"sigma dimension {n} not divisible by {block}")
    return n // block, block


def trace_contract_right(sigma: np.ndarray, alpha_r: np.ndarray) -> np.ndarray:
    """Contract a pq x pq covariance against the right precision.

    Returns the p x p matrix with entries tr(sigma (alpha_r kron E_kl)),
    E_kl the p x p single-entry basis matrices. Computed as a block
    contraction instead of the quadratic basis loop.
    """
    alpha_r = np.asarray(alpha_r, dtype=float)
    q = alpha_r.shape[0]
    p, _ = _split_dims(np.asarray(sigma), q)
    t = np.asarray(sigma, dtype=float).reshape(q, p, q, p)
    # [out]_{kl} = sum_{a,b} alpha_r[b,a] * sigma[a*p+l, b*p+k]
    return np.einsum("ba,albk->kl", alpha_r, t)


def trace_contract_left(sigma: np.ndarray, alpha_l: np.ndarray) -> np.ndarray:
    """Mirror of :func:`trace_contract_right` for the left precision.

    Returns the q x q matrix with entries tr(sigma (E_kl kron alpha_l)),
    E_kl the q x q basis matrices.
    """
    alpha_l = np.asarray(alpha_l, dtype=float)
    p = alpha_l.shape[0]
    q, _ = _split_dims(np.asarray(sigma), p)
    t = np.asarray(sigma, dtype=float).reshape(q, p, q, p)
    # [out]_{kl} = sum_{i,j} alpha_l[j,i] * sigma[l*p+i, k*p+j]
    return np.einsum("ji,likj->kl", alpha_l, t)


def _jitter_attempts(m: np.ndarray, jitter: float) -> list[float]:
    dim = m.shape[0]
    floor = 1e-12 * abs(float(np.trace(m))) / dim
    if floor <= 0.0:
        floor = 1e-12
    return [jitter] + [max(jitter, floor * 10.0**k) for k in range(3)]


def _spd_factor(m: np.ndarray, jitter: float = 0.0):
    """Cholesky factor (``cho_factor`` pair) of an SPD matrix.

    Adds ``jitter * I`` up front; on factorization failure retries with a
    trace-scaled jitter floor escalated x10 up to three times, then raises
    :class:`FactorizationError`.
    """
    m = symmetrize(np.asarray(m, dtype=float))
    eye = np.eye(m.shape[0])
    for eps in _jitter_attempts(m, jitter):
        try:
            return scipy.linalg.cho_factor(m + eps * eye if eps else m,
                                           lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            continue
    raise FactorizationError(
        f"Cholesky factorization failed for dim {m.shape[0]} after jitter "
        "escalation"
    )


def spd_inverse(m: np.ndarray, jitter: float = 0.0) -> np.ndarray:
    """Invert a symmetric positive definite matrix via Cholesky.

    Uses the jitter schedule of :func:`_spd_factor`; raises
    :class:`FactorizationError` when it is exhausted.
    """
    c = _spd_factor(m, jitter)
    eye = np.eye(c[0].shape[0])
    return symmetrize(scipy.linalg.cho_solve(c, eye, check_finite=False))


def spd_solve(m: np.ndarray, rhs: np.ndarray, jitter: float = 0.0) -> np.ndarray:
    """Solve m x = rhs for SPD m, with the same jitter schedule as spd_inverse."""
    return scipy.linalg.cho_solve(_spd_factor(m, jitter), rhs,
                                  check_finite=False)


def _operator_parts(a):
    """Accept a measurement operator or a dense m x pq array.

    Returns (vec_indices, dense): exactly one is not None. Completion
    operators are recognized structurally so this module stays free of a
    dependency on the sensing module.
    """
    if isinstance(a, np.ndarray):
        return None, np.asarray(a, dtype=float)
    idx = getattr(a, "vec_indices", None)
    if idx is not None:
        return np.asarray(idx), None
    return None, np.asarray(a.dense(), dtype=float)


def posterior_covariance(
    alpha_l: np.ndarray,
    alpha_r: np.ndarray,
    a,
    beta: float,
    method: str = "auto",
    jitter: float = 0.0,
) -> np.ndarray:
    """Posterior covariance ((alpha_r kron alpha_l) + beta A^T A)^{-1}.

    ``a`` may be a measurement operator or a dense m x pq array. With
    ``method="auto"`` the Woodbury form (an m x m inverse) is used when
    m < pq/2, the direct pq x pq inverse otherwise; both paths agree.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    alpha_l = np.asarray(alpha_l, dtype=float)
    alpha_r = np.asarray(alpha_r, dtype=float)
    n = alpha_l.shape[0] * alpha_r.shape[0]
    idx, dense = _operator_parts(a)
    m = idx.size if idx is not None else dense.shape[0]
    if method == "auto":
        method = "woodbury" if m < n / 2 else "direct"

    if method == "direct":
        mat = np.kron(alpha_r, alpha_l)
        if idx is not None:
            mat[idx, idx] += beta
        else:
            mat += beta * (dense.T @ dense)
        return spd_inverse(mat, jitter)

    if method != "woodbury":
        raise ValueError(f"unknown method {method!r}")
    p_inv = np.kron(spd_inverse(alpha_r, jitter), spd_inverse(alpha_l, jitter))
    if idx is not None:
        pa = p_inv[:, idx]
        apa = pa[idx, :]
    else:
        pa = p_inv @ dense.T
        apa = dense @ pa
    cap = symmetrize(apa) + np.eye(m) / beta
    return symmetrize(p_inv - pa @ spd_solve(cap, pa.T, jitter))


@dataclass
class KronSum:
    """Sum of Kronecker products sum_k (left_k kron right_k)."""

    terms: list[tuple[np.ndarray, np.ndarray]]

    def reconstruct(self) -> np.ndarray:
        out = None
        for left, right in self.terms:
            term = np.kron(left, right)
            out = term if out is None else out + term
        return out


def nearest_kron_sum(sigma: np.ndarray, p: int, s: int) -> KronSum:
    """Best rank-s Kronecker-sum approximation of a p^2 x p^2 matrix.

    Rearranges sigma so Kronecker terms become rank-1 terms, takes the top
    s singular triplets, and folds them back into (left, right) factor
    pairs. With s = p^2 the reconstruction is exact.
    """
    sigma = np.asarray(sigma, dtype=float)
    n = p * p
    if sigma.shape != (n, n):
        raise ValueError(f"sigma must be {n}x{n} for p={p}")
    if not 1 <= s <= n:
        raise ValueError(f"s must be in [1, {n}]")
    # R[(a,b),(i,j)] = sigma[a*p+i, b*p+j]; kron terms <-> rank-1 terms of R
    r = sigma.reshape(p, p, p, p).transpose(0, 2, 1, 3).reshape(n, n)
    u, sv, vt = np.linalg.svd(r)
    terms = []
    for k in range(s):
        w = np.sqrt(sv[k])
        terms.append((w * u[:, k].reshape(p, p), w * vt[k, :].reshape(p, p)))
    return KronSum(terms)
