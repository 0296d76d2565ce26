"""Solver variant for symmetric p x p matrices with a single precision.

The left and right singular vectors of a symmetric matrix coincide up to
sign, so one precision matrix serves both sides. The solver runs the full
solver's loop (:func:`rsvm.core.iterate`) with that precision as both the
left and the right one. The exact precision update (the default) contracts
the structured posterior covariance (:class:`rsvm.kronops.StructuredCovariance`)
against alpha on both sides, without forming the p^2 x p^2 matrix. The
approximate update, chosen by s_terms < p^2, densifies the covariance and
keeps that many terms of its Kronecker-sum expansion (rearrangement + SVD).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Estimate,
    Hyperparameters,
    PrecisionState,
    iterate,
    map_estimate,
)
from .kronops import (
    KronSum,
    nearest_kron_sum,
    spd_inverse,
    symmetrize,
)
from .sensing import ProblemInstance


@dataclass
class SymmetricState:
    x_hat: np.ndarray
    alpha: np.ndarray
    beta: float
    sigma_kron: KronSum
    s_terms: int


def _sigma_contractions(ks: KronSum, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronecker-term contractions of the covariance against alpha.

    Returns (sum_k tr(left_k alpha) right_k, sum_k tr(right_k alpha) left_k).
    Antisymmetric factor pairs contribute nothing against a symmetric alpha.
    """
    p = alpha.shape[0]
    first = np.zeros((p, p))
    second = np.zeros((p, p))
    for left, right in ks.terms:
        first += float(np.sum(left * alpha.T)) * right
        second += float(np.sum(right * alpha.T)) * left
    return first, second


def _clip_psd(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(symmetrize(m))
    if vals[0] >= 0:
        return m
    return (vecs * np.maximum(vals, 0.0)) @ vecs.T


def _alpha_update(x: np.ndarray, alpha: np.ndarray, pair: np.ndarray,
                  hyper: Hyperparameters) -> np.ndarray:
    """alpha <- nu_eff (2 X alpha X + clip_psd(pair) + eps I)^{-1}."""
    mat = 2.0 * x @ alpha @ x + _clip_psd(pair) \
        + hyper.epsilon_scale * np.eye(x.shape[0])
    return symmetrize(hyper.nu_eff * spd_inverse(symmetrize(mat), hyper.jitter))


def update_precision_symmetric(state: SymmetricState,
                               hyper: Hyperparameters) -> np.ndarray:
    """alpha <- nu_eff (2 X alpha X + sigma_contractions + eps I)^{-1}.

    The exact (full-term) contraction pair is positive semidefinite; a
    truncated expansion can dip indefinite, so the pair is clipped to the
    nearest PSD matrix before inversion.
    """
    sig_a, sig_b = _sigma_contractions(state.sigma_kron, state.alpha)
    return _alpha_update(state.x_hat, state.alpha, sig_a + sig_b, hyper)


def solve_symmetric(inst: ProblemInstance,
                    hyper: Hyperparameters | None = None,
                    s_terms: int | None = None,
                    trace_path=None) -> Estimate:
    """Iterate the single-precision solver on a square instance.

    Runs :func:`rsvm.core.iterate` with alpha held as both precisions, so
    balancing reduces to alpha -> alpha tr(alpha^-1) / ||X||_F. The
    estimate is projected onto symmetric matrices each iteration (Frobenius
    projection (X + X^T)/2). s_terms defaults to p^2, the exact update,
    which contracts the structured covariance against alpha directly;
    s_terms < p^2 goes through the truncated Kronecker-sum expansion of the
    dense covariance.
    """
    hyper = hyper or Hyperparameters()
    p, q = inst.p, inst.q
    if p != q:
        raise ValueError(f"symmetric solver needs p == q, got {p}x{q}")
    s = p * p if s_terms is None else int(s_terms)
    if not 1 <= s <= p * p:
        raise ValueError(f"s_terms must be in [1, {p * p}]")

    def posterior(state):
        x, sigma = map_estimate(state, inst, hyper.jitter)
        return symmetrize(x), sigma

    def precisions(state):
        prec = state.precisions
        if s < p * p:
            ks = nearest_kron_sum(state.sigma.dense(), p, s)
            alpha = update_precision_symmetric(
                SymmetricState(state.x_hat, prec.alpha_l, prec.beta, ks, s),
                hyper)
        else:
            pair = state.sigma.contract_right(prec.alpha_l) \
                + state.sigma.contract_left(prec.alpha_l)
            alpha = _alpha_update(state.x_hat, prec.alpha_l, pair, hyper)
        return PrecisionState(alpha, alpha, prec.beta)

    return iterate(inst, hyper, posterior, precisions, trace_path)
