"""Solver variant for symmetric p x p matrices with a single precision.

The left and right singular vectors of a symmetric matrix coincide up to
sign, so one precision matrix serves both sides. The solver runs the full
solver's loop (:func:`rsvm.core.iterate`) with that precision as both the
left and the right one. Its precision update contracts the structured
posterior covariance (either form of
:func:`rsvm.kronops.structured_covariance`) against alpha on both sides,
without forming the p^2 x p^2 matrix. That contraction is positive definite
by construction and is inverted as it is, with no PSD clip.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_MAX_ITER,
    EPSILON,
    Estimate,
    Hyperparameters,
    PrecisionState,
    SolverState,
    iterate,
    map_estimate,
)
from .kronops import Prior, symmetrize
from .sensing import ProblemInstance


def update_precision(state: SolverState) -> PrecisionState:
    """alpha <- (2 X alpha X + pair + EPSILON I)^{-1}.

    pair = state.sigma.contract_right(alpha) + contract_left(alpha), the
    covariance contracted against alpha on both sides, is positive definite
    whenever Sigma and alpha are. The new alpha is one
    :meth:`rsvm.kronops.Prior.inverse_of`, a single eigendecomposition;
    rounding is left to the EPSILON I floor and its jitter schedule, which
    raises FactorizationError when both fall short. Returns that one Prior
    as both precisions.
    """
    x, prec = state.x_hat, state.precisions
    alpha = prec.alpha_l
    pair = state.sigma.contract_right(alpha) + state.sigma.contract_left(alpha)
    mat = 2.0 * x @ alpha @ x + pair + EPSILON * np.eye(x.shape[0])
    prior = Prior.inverse_of(mat)
    return PrecisionState(prior, prior, prec.beta)


def solve_symmetric(inst: ProblemInstance,
                    hyper: Hyperparameters | None = None) -> Estimate:
    """Iterate the single-precision solver on a square instance.

    Runs :func:`rsvm.core.iterate` with alpha held as both precisions, so
    balancing reduces to alpha -> alpha tr(alpha^-1) / ||X||_F. The
    estimate is projected onto symmetric matrices each iteration (Frobenius
    projection (X + X^T)/2); the precision step is :func:`update_precision`.
    Stops after DEFAULT_MAX_ITER iterations, as :func:`rsvm.core.solve`
    does, unless ``hyper`` sets max_iter. Every iteration is returned as a
    record in ``Estimate.trace``.
    """
    if inst.p != inst.q:
        raise ValueError(f"symmetric solver needs p == q, got {inst.p}x{inst.q}")

    def posterior(state):
        x, sigma = map_estimate(state, inst)
        return symmetrize(x), sigma

    return iterate(inst, hyper, posterior, update_precision,
                   DEFAULT_MAX_ITER)
