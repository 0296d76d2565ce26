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
    iterate,
    require_count,
    update_precisions,
)
from .kronops import BlockCovariance, Prior, structured_covariance
from .sensing import COMPLETION, DENSE, MeasurementOperator, ProblemInstance


def partition_blocks(q: int, n_blocks: int) -> list[np.ndarray]:
    """Split the q columns into n_blocks contiguous near-equal groups.

    Group sizes differ by at most one. Groups of whole columns keep each
    block's prior Kronecker-structured.
    """
    require_count("n_blocks", n_blocks)
    if n_blocks > q:
        raise ValueError(f"need n_blocks <= {q}, got {n_blocks}")
    return np.array_split(np.arange(q), n_blocks)


def _contiguous(cols, q: int) -> slice:
    """The column group ``cols`` as a slice; ValueError unless it is a
    non-empty increasing run of consecutive integers in range(q)."""
    cols = np.asarray(cols)
    if cols.ndim != 1 or not cols.size or cols.dtype.kind not in "iu" \
            or not 0 <= cols[0] <= cols[-1] < q \
            or np.any(cols != np.arange(cols[0], cols[0] + cols.size)):
        raise ValueError("a column group must be an increasing run of "
                         f"consecutive columns in range({q}), got {cols}")
    return slice(int(cols[0]), int(cols[-1]) + 1)


def _block_operator(op: MeasurementOperator, cols: slice):
    """What one column group reads of A_b, the columns of A for the columns
    ``cols`` of X, as ``(stand_in, adjoint, subtract)``.

    ``stand_in`` is a p x w operator with the same Gram matrix A_b^T A_b,
    for the block's covariance: for completion the mask of the block's
    observed positions (possibly none), for dense sensing the R factor of
    A_b = Q R (min(m, p w) rows). ``adjoint(r)`` is unvec(A_b^T r), a
    p x w matrix, and ``subtract(r, d)`` sets r -= A_b vec(d) in place,
    for a length-m residual r: for completion they touch only the block's
    measurements, for dense sensing they multiply by A_b, a view of A.
    """
    p, w = op.p, cols.stop - cols.start
    flat = slice(cols.start * p, cols.stop * p)
    if op.kind == COMPLETION:
        local = op.vec_indices - flat.start
        rows = np.flatnonzero((local >= 0) & (local < p * w))
        local = local[rows]
        # the same positions in the C order of a p x w matrix
        c_order = local % p * w + local // p

        def adjoint(r):
            out = np.zeros(p * w)
            out[c_order] = r[rows]
            return out.reshape(p, w)

        def subtract(r, d):
            r[rows] -= d.ravel()[c_order]

        return (MeasurementOperator(COMPLETION, p, w, vec_indices=local),
                adjoint, subtract)
    a_b = op.matrix[:, flat]

    def adjoint(r):
        return (r @ a_b).reshape(w, p).T

    def subtract(r, d):
        r -= a_b @ d.T.ravel()

    return (MeasurementOperator(DENSE, p, w,
                                matrix=np.linalg.qr(a_b, mode="r")),
            adjoint, subtract)


def block_descent(inst: ProblemInstance, columns: list[np.ndarray],
                  sweeps: int):
    """The posterior step ``state -> (X, BlockCovariance)``: ``sweeps``
    cyclic passes of exact minimization over the column groups
    ``columns``, in order, from ``state.x_hat``. Each group must be an
    increasing run of consecutive columns, as :func:`partition_blocks`
    makes them (ValueError otherwise).

    Each group's local posterior, the other columns fixed, is a structured
    covariance Sigma_b with prior alpha_r[b, b] kron alpha_l. Its stand-in
    operator and its reads of A are built once here; its covariance once
    per call, shared across the passes. Every group reads the state's
    factorization of alpha_l; each factors its own alpha_r[b, b] once per
    call. One group and one pass give that group's conditional update;
    one all-column group gives the full posterior mode.

    A call computes the residual r = y - A vec(X) once. A block's exact
    minimization is then the gradient step
    X_b += Sigma_b (beta A_b^T r - alpha_l X alpha_r[:, b]), the block's
    normal equations (alpha_r[b, b] kron alpha_l + beta A_b^T A_b) X_b =
    rhs rewritten through Sigma_b^{-1} X_b, and r -= A_b vec(dX_b) keeps
    the residual current; no block reads the whole operator.

    The returned BlockCovariance stands for the whole q-column posterior
    only when ``columns`` covers range(q) exactly once, as
    :func:`partition_blocks` does; a caller that passes fewer columns
    reads its groups' covariances from ``.blocks``.
    """
    require_count("sweeps", sweeps)
    columns = [_contiguous(cols, inst.q) for cols in columns]
    blocks = [_block_operator(inst.operator, cols) for cols in columns]

    def posterior(state):
        prec = state.precisions
        alpha_l, alpha_r, beta = prec.alpha_l, prec.alpha_r, prec.beta
        x = state.x_hat.copy()
        resid = inst.y - inst.operator.forward(x)
        sigmas = [structured_covariance(
                      prec.prior_l, Prior.from_precision(alpha_r[cols, cols]),
                      stand_in, beta)
                  for cols, (stand_in, _, _) in zip(columns, blocks)]
        for _ in range(sweeps):
            for cols, (_, adjoint, subtract), sigma in zip(columns, blocks,
                                                           sigmas):
                step = sigma.apply(beta * adjoint(resid)
                                   - alpha_l @ (x @ alpha_r[:, cols]))
                x[:, cols] += step
                subtract(resid, step)
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
    so the solver stops after DEFAULT_MAX_ITER iterations, a longer horizon
    than the full solver's, unless ``hyper`` sets max_iter.
    """
    columns = partition_blocks(inst.q, min(N_BLOCKS, inst.q))
    return iterate(inst, hyper, block_descent(inst, columns, K_SWEEPS),
                   update_precisions, DEFAULT_MAX_ITER)
