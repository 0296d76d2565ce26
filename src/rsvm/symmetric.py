"""Solver variant for symmetric p x p matrices with a single precision.

The left and right singular vectors of a symmetric matrix coincide up to
sign, so one precision matrix serves both sides. The solver runs the full
solver's loop (:func:`rsvm.core.iterate`) with that precision as both the
left and the right one. Its precision update contracts the structured
posterior covariance (either form of
:func:`rsvm.kronops.structured_covariance`) against alpha on both sides,
without forming the p^2 x p^2 matrix.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_MAX_ITER,
    Estimate,
    Hyperparameters,
    PrecisionState,
    SolverState,
    iterate,
    map_estimate,
    with_cap,
)
from .kronops import spd_inverse, symmetrize
from .sensing import ProblemInstance


def _clip_psd(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(symmetrize(m))
    if vals[0] >= 0:
        return m
    return (vecs * np.maximum(vals, 0.0)) @ vecs.T


def update_precision(state: SolverState,
                     hyper: Hyperparameters) -> PrecisionState:
    """alpha <- (2 X alpha X + clip_psd(pair) + eps I)^{-1}.

    pair = state.sigma.contract_right(alpha) + contract_left(alpha), the
    covariance contracted against alpha on both sides, is positive
    semidefinite; rounding can leave it slightly indefinite, so it is
    clipped to the nearest PSD matrix before inversion. Returns alpha as
    both precisions.
    """
    x, prec = state.x_hat, state.precisions
    alpha = prec.alpha_l
    pair = state.sigma.contract_right(alpha) + state.sigma.contract_left(alpha)
    mat = 2.0 * x @ alpha @ x + _clip_psd(pair) \
        + hyper.epsilon_scale * np.eye(x.shape[0])
    alpha = spd_inverse(mat)
    return PrecisionState(alpha, alpha, prec.beta)


def solve_symmetric(inst: ProblemInstance,
                    hyper: Hyperparameters | None = None) -> Estimate:
    """Iterate the single-precision solver on a square instance.

    Runs :func:`rsvm.core.iterate` with alpha held as both precisions, so
    balancing reduces to alpha -> alpha tr(alpha^-1) / ||X||_F. The
    estimate is projected onto symmetric matrices each iteration (Frobenius
    projection (X + X^T)/2); the precision step is :func:`update_precision`.
    Every iteration is returned as a record in ``Estimate.trace``.
    """
    hyper = with_cap(hyper, DEFAULT_MAX_ITER)
    if inst.p != inst.q:
        raise ValueError(f"symmetric solver needs p == q, got {inst.p}x{inst.q}")

    def posterior(state):
        x, sigma = map_estimate(state, inst)
        return symmetrize(x), sigma

    return iterate(inst, hyper, posterior,
                   lambda state: update_precision(state, hyper))
