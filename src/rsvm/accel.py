"""Accelerated solver: block descent with a block-diagonal covariance.

The expensive pq x pq posterior solve is replaced by cyclic exact
minimization over index blocks of vec(X); the posterior covariance is
approximated as block diagonal (cross-block correlations treated as zero),
which keeps every inverse at block size. Only the posterior step is its
own: the outer loop with its precision, balancing and noise updates is
the full solver's (:func:`rsvm.core.iterate`), run on the scattered
block-diagonal covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Estimate,
    Hyperparameters,
    SolverState,
    iterate,
    update_precisions,
)
from .kronops import spd_inverse, unvec, vec
from .sensing import ProblemInstance


@dataclass
class BlockPartition:
    """Disjoint flat (column-major vec) index blocks covering [0, p*q)."""

    blocks: list[np.ndarray]
    strategy: str

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def _column_groups(n: int, k: int) -> list[np.ndarray]:
    return np.array_split(np.arange(n), k)


def partition_blocks(p: int, q: int, strategy: str = "columns",
                     n_blocks=4) -> BlockPartition:
    """Partition the p x q index grid into near-equal blocks.

    strategy "columns"/"rows" takes an integer block count; "grid" takes a
    (s, t) pair splitting rows into s and columns into t groups. Group
    sizes differ by at most one.
    """
    if strategy == "columns":
        k = int(n_blocks)
        if not 1 <= k <= q:
            raise ValueError(f"need 1 <= n_blocks <= {q}")
        blocks = [np.concatenate([np.arange(j * p, (j + 1) * p) for j in grp])
                  for grp in _column_groups(q, k)]
    elif strategy == "rows":
        k = int(n_blocks)
        if not 1 <= k <= p:
            raise ValueError(f"need 1 <= n_blocks <= {p}")
        cols = np.arange(q) * p
        blocks = [np.sort(np.add.outer(cols, grp).ravel())
                  for grp in _column_groups(p, k)]
    elif strategy == "grid":
        s, t = n_blocks
        if not (1 <= s <= p and 1 <= t <= q):
            raise ValueError(f"need 1 <= s <= {p} and 1 <= t <= {q}")
        row_groups = _column_groups(p, s)
        col_groups = _column_groups(q, t)
        blocks = []
        for rows in row_groups:
            for cols in col_groups:
                blocks.append(np.sort(
                    (np.asarray(cols)[:, None] * p + np.asarray(rows)[None, :])
                    .ravel()))
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return BlockPartition([np.asarray(b, dtype=np.intp) for b in blocks],
                          strategy)


def _block_rhs(prior, a_dense, y, beta, x_flat, idx):
    """Right-hand side of the normal equations of one block, the rest fixed."""
    mask = np.ones(x_flat.size, dtype=bool)
    mask[idx] = False
    idx_c = np.nonzero(mask)[0]
    resid = y - a_dense[:, idx_c] @ x_flat[idx_c]
    return beta * (a_dense[:, idx].T @ resid) \
        - prior[np.ix_(idx, idx_c)] @ x_flat[idx_c]


def block_map_update(state: SolverState, inst: ProblemInstance,
                     part: BlockPartition, i: int,
                     jitter: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """One conditional block update given the rest of the current estimate.

    Returns the block estimate and its local posterior covariance. With a
    single all-index block this reduces to the full posterior mode.
    """
    prec = state.precisions
    prior = np.kron(prec.alpha_r, prec.alpha_l)
    a_dense = inst.operator.dense()
    idx = part.blocks[i]
    a_b = a_dense[:, idx]
    sigma_b = spd_inverse(prior[np.ix_(idx, idx)] + prec.beta * (a_b.T @ a_b),
                          jitter)
    rhs = _block_rhs(prior, a_dense, inst.y, prec.beta, vec(state.x_hat), idx)
    return sigma_b @ rhs, sigma_b


DEFAULT_MAX_ITER = 30


def solve_accelerated(inst: ProblemInstance,
                      hyper: Hyperparameters | None = None,
                      part: BlockPartition | None = None,
                      k_sweeps: int = 3,
                      trace_path=None) -> Estimate:
    """Full solver with the block-descent inner loop.

    Posterior step: k_sweeps cyclic passes of exact block minimization
    (ascending block order), warm-started from the previous outer
    iteration, and the block-diagonal covariance scattered into the full
    pq x pq pattern. Precision step: the full-solver update on that
    covariance. See :func:`rsvm.core.iterate` for the loop.

    The block-diagonal approximation slows per-outer-iteration progress,
    so the default horizon is longer than the full solver's.
    """
    hyper = hyper or Hyperparameters(max_iter=DEFAULT_MAX_ITER)
    p, q = inst.p, inst.q
    part = part or partition_blocks(p, q, "columns", min(4, q))
    if k_sweeps < 1:
        raise ValueError("k_sweeps must be >= 1")
    a_dense = inst.operator.dense()
    grams = [a_dense[:, idx].T @ a_dense[:, idx] for idx in part.blocks]
    x_flat = np.zeros(p * q)

    def posterior(state):
        prec = state.precisions
        prior = np.kron(prec.alpha_r, prec.alpha_l)
        # Local covariances depend only on the precisions: one inverse
        # per block per outer iteration, shared across sweeps.
        sigmas = [spd_inverse(prior[np.ix_(idx, idx)] + prec.beta * g,
                              hyper.jitter)
                  for idx, g in zip(part.blocks, grams)]
        for _ in range(k_sweeps):
            for idx, sig in zip(part.blocks, sigmas):
                x_flat[idx] = sig @ _block_rhs(prior, a_dense, inst.y,
                                               prec.beta, x_flat, idx)
        sigma = np.zeros((p * q, p * q))
        for idx, sig in zip(part.blocks, sigmas):
            sigma[np.ix_(idx, idx)] = sig
        # x_flat is mutated across iterations: return a copy
        return unvec(x_flat.copy(), p, q), sigma

    return iterate(inst, hyper, posterior,
                   lambda state: update_precisions(state, hyper),
                   trace_path, extra=(("sweeps", k_sweeps),))
