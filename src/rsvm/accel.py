"""Accelerated solver: block descent with a block-diagonal covariance.

The exact posterior solve is replaced by cyclic exact minimization over
groups of whole columns of X; the posterior covariance is approximated as
block diagonal over those groups (cross-block correlations treated as
zero). The prior restricted to a column block b is alpha_r[b, b] kron
alpha_l, again Kronecker, so each block's local posterior is a
:func:`rsvm.kronops.structured_covariance` and the approximation is a
:class:`rsvm.kronops.BlockCovariance`: nothing larger than one block's
Woodbury rows is formed. Only the posterior step is its own: the outer
loop with its precision, balancing and noise updates is the full solver's
(:func:`rsvm.core.iterate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    Estimate,
    Hyperparameters,
    PrecisionState,
    SolverState,
    iterate,
    update_precisions,
    with_cap,
)
from .kronops import (
    BlockCovariance,
    CompletionCovariance,
    StructuredCovariance,
    structured_covariance,
    vec,
)
from .sensing import COMPLETION, MeasurementOperator, ProblemInstance


@dataclass
class BlockPartition:
    """Disjoint groups of whole columns covering the p x q index grid.

    ``blocks[b]`` holds the flat (column-major vec) indices of the columns
    ``columns[b]``.
    """

    p: int
    columns: list[np.ndarray]
    blocks: list[np.ndarray] = field(init=False)

    def __post_init__(self):
        self.blocks = [(np.asarray(c, dtype=np.intp)[:, None] * self.p
                        + np.arange(self.p)).ravel() for c in self.columns]

    @property
    def n_blocks(self) -> int:
        return len(self.columns)


def partition_blocks(p: int, q: int, strategy: str = "columns",
                     n_blocks: int = 4) -> BlockPartition:
    """Split the q columns into n_blocks contiguous near-equal groups.

    Group sizes differ by at most one. "columns" is the only strategy:
    column groups keep each block's prior Kronecker-structured.
    """
    if strategy != "columns":
        raise ValueError(f"unknown strategy {strategy!r}")
    k = int(n_blocks)
    if not 1 <= k <= q:
        raise ValueError(f"need 1 <= n_blocks <= {q}")
    return BlockPartition(p, np.array_split(np.arange(q), k))


def _block_operator(op: MeasurementOperator, flat: np.ndarray):
    """A stand-in for A_b, the columns ``flat`` of A, with the same Gram
    matrix A_b^T A_b: the observed positions within the block for
    completion (possibly none), the R factor of A_b = Q R for dense sensing
    (min(m, len(flat)) rows)."""
    if op.kind == COMPLETION:
        local = np.full(op.p * op.q, -1)
        local[flat] = np.arange(flat.size)
        pos = local[op.vec_indices]
        return pos[pos >= 0]
    return np.linalg.qr(op.matrix[:, flat], mode="r")


def _block_covariance(prec: PrecisionState, cols: np.ndarray, op
                      ) -> StructuredCovariance | CompletionCovariance:
    """Local posterior covariance of the columns ``cols``, the rest fixed."""
    return structured_covariance(prec.alpha_l,
                                 prec.alpha_r[np.ix_(cols, cols)], op,
                                 prec.beta)


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


def block_map_update(state: SolverState, inst: ProblemInstance,
                     part: BlockPartition, i: int
                     ) -> tuple[np.ndarray,
                                StructuredCovariance | CompletionCovariance]:
    """One conditional block update given the rest of the current estimate.

    Returns the block estimate (vec of its p x w columns) and its local
    posterior covariance. With a single all-column block this reduces to
    the full posterior mode.
    """
    prec = state.precisions
    cols = part.columns[i]
    sigma = _block_covariance(
        prec, cols, _block_operator(inst.operator, part.blocks[i]))
    return vec(sigma.apply(_block_rhs(inst, state.x_hat, prec, cols))), sigma


DEFAULT_MAX_ITER = 30


def solve_accelerated(inst: ProblemInstance,
                      hyper: Hyperparameters | None = None,
                      part: BlockPartition | None = None,
                      k_sweeps: int = 3) -> Estimate:
    """Full solver with the block-descent inner loop.

    Posterior step: k_sweeps cyclic passes of exact block minimization
    (ascending block order), warm-started from the previous outer
    iteration, and the block-diagonal covariance. Precision step: the
    full-solver update on that covariance. See :func:`rsvm.core.iterate`
    for the loop and the per-iteration records in ``Estimate.trace``.

    The block-diagonal approximation slows per-outer-iteration progress,
    so an unset ``hyper.max_iter`` means DEFAULT_MAX_ITER, a longer horizon
    than the full solver's.
    """
    hyper = with_cap(hyper, DEFAULT_MAX_ITER)
    p, q = inst.p, inst.q
    part = part or partition_blocks(p, q, "columns", min(4, q))
    if k_sweeps < 1:
        raise ValueError("k_sweeps must be >= 1")
    ops = [_block_operator(inst.operator, flat) for flat in part.blocks]
    x = np.zeros((p, q))

    def posterior(state):
        prec = state.precisions
        # Local covariances depend only on the precisions: one per block
        # per outer iteration, shared across sweeps.
        sigmas = [_block_covariance(prec, cols, op)
                  for cols, op in zip(part.columns, ops)]
        for _ in range(k_sweeps):
            for cols, sigma in zip(part.columns, sigmas):
                x[:, cols] = sigma.apply(_block_rhs(inst, x, prec, cols))
        # x is mutated across iterations: return a copy
        return x.copy(), BlockCovariance(part.columns, sigmas)

    return iterate(inst, hyper, posterior,
                   lambda state: update_precisions(state, hyper))
