"""Accelerated solver: block descent with a block-diagonal covariance.

The exact posterior solve is replaced by cyclic exact minimization over
groups of whole columns of X; the posterior covariance is approximated as
block diagonal over those groups (cross-block correlations treated as
zero). The prior restricted to a column block b is alpha_r[b, b] kron
alpha_l, again Kronecker, so each block's local posterior is a
:func:`rsvm.kronops.structured_covariance` and the approximation is a
:class:`rsvm.kronops.BlockCovariance`: nothing larger than one block's
Woodbury rows is formed. Only the posterior step (:func:`block_descent`)
is its own: the outer loop with its precision, balancing and noise
updates is the full solver's (:func:`rsvm.core.iterate`).
"""

from __future__ import annotations

import numpy as np

from .core import (
    Estimate,
    Hyperparameters,
    PrecisionState,
    iterate,
    require_count,
    update_precisions,
    with_cap,
)
from .kronops import BlockCovariance, Prior, structured_covariance
from .sensing import COMPLETION, MeasurementOperator, ProblemInstance


def partition_blocks(q: int, n_blocks: int) -> list[np.ndarray]:
    """Split the q columns into n_blocks contiguous near-equal groups.

    Group sizes differ by at most one. Groups of whole columns keep each
    block's prior Kronecker-structured.
    """
    require_count("n_blocks", n_blocks)
    if n_blocks > q:
        raise ValueError(f"need n_blocks <= {q}, got {n_blocks}")
    return np.array_split(np.arange(q), n_blocks)


def _block_operator(op: MeasurementOperator, cols: np.ndarray):
    """A stand-in for A_b, the columns of A for the columns ``cols`` of X,
    with the same Gram matrix A_b^T A_b: the observed positions within the
    block for completion (possibly none), the R factor of A_b = Q R for
    dense sensing (min(m, p len(cols)) rows)."""
    flat = np.arange(op.p * op.q).reshape(op.q, op.p)[cols].ravel()
    if op.kind == COMPLETION:
        local = np.full(op.p * op.q, -1)
        local[flat] = np.arange(flat.size)
        pos = local[op.vec_indices]
        return pos[pos >= 0]
    return np.linalg.qr(op.matrix[:, flat], mode="r")


def _block_rhs(inst: ProblemInstance, x: np.ndarray, prec: PrecisionState,
               cols: np.ndarray) -> np.ndarray:
    """Right-hand side of one block's normal equations, the rest fixed:
    (beta A^T (y - A vec X0) - alpha_l X0 alpha_r)[:, cols], X0 = X with
    the block's columns zeroed."""
    x0 = x.copy()
    x0[:, cols] = 0.0
    resid = inst.y - inst.operator.forward(x0)
    return prec.beta * inst.operator.adjoint(resid)[:, cols] \
        - prec.alpha_l @ (x0 @ prec.alpha_r[:, cols])


def block_descent(inst: ProblemInstance, columns: list[np.ndarray],
                  sweeps: int):
    """The posterior step ``state -> (X, BlockCovariance)``: ``sweeps``
    cyclic passes of exact minimization over the column groups
    ``columns``, in order, from ``state.x_hat``.

    Each group's local posterior, the other columns fixed, is a structured
    covariance with prior alpha_r[b, b] kron alpha_l. Its stand-in operator
    is built once here; its covariance once per call, shared across the
    passes. Every group reads the state's factorization of alpha_l; each
    factors its own alpha_r[b, b] once per call. One group and one pass
    give that group's conditional update; one all-column group gives the
    full posterior mode.

    The returned BlockCovariance stands for the whole q-column posterior
    only when ``columns`` covers range(q) exactly once, as
    :func:`partition_blocks` does; a caller that passes fewer columns
    reads its groups' covariances from ``.blocks``.
    """
    require_count("sweeps", sweeps)
    ops = [_block_operator(inst.operator, cols) for cols in columns]

    def posterior(state):
        prec = state.precisions
        x = state.x_hat.copy()
        sigmas = [structured_covariance(
                      prec.prior_l,
                      Prior.from_precision(prec.alpha_r[np.ix_(cols, cols)]),
                      op, prec.beta)
                  for cols, op in zip(columns, ops)]
        for _ in range(sweeps):
            for cols, sigma in zip(columns, sigmas):
                x[:, cols] = sigma.apply(_block_rhs(inst, x, prec, cols))
        return x, BlockCovariance(columns, sigmas)

    return posterior


DEFAULT_MAX_ITER = 30
N_BLOCKS = 4   # column groups (fewer when q is smaller)
K_SWEEPS = 3   # block-descent passes per outer iteration


def solve_accelerated(inst: ProblemInstance,
                      hyper: Hyperparameters | None = None) -> Estimate:
    """Full solver with the block-descent posterior step.

    Posterior step: :func:`block_descent` with K_SWEEPS passes over
    min(N_BLOCKS, q) column groups, warm-started from the previous outer
    iteration. Precision step: the full-solver update on the
    block-diagonal covariance. See :func:`rsvm.core.iterate` for the loop
    and the per-iteration records in ``Estimate.trace``.

    The block-diagonal approximation slows per-outer-iteration progress,
    so an unset ``hyper.max_iter`` means DEFAULT_MAX_ITER, a longer horizon
    than the full solver's.
    """
    hyper = with_cap(hyper, DEFAULT_MAX_ITER)
    columns = partition_blocks(inst.q, min(N_BLOCKS, inst.q))
    return iterate(inst, hyper, block_descent(inst, columns, K_SWEEPS),
                   update_precisions)
