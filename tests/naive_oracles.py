"""Independent brute-force references the fast implementations are checked
against. Everything here is written for clarity, not speed: explicit basis
matrices, dense solves, no shared code with the package internals, except
:class:`DenseCovariance`, which reads a dense matrix through the package's
dense contractions."""

import numpy as np

from rsvm.kronops import trace_contract_left, trace_contract_right


def naive_sigma_right(sigma, alpha_r, p, q):
    """[out]_{kl} = tr(sigma (alpha_r kron E_kl)), E_kl in R^{p x p}."""
    out = np.zeros((p, p))
    for k in range(p):
        for l in range(p):
            e = np.zeros((p, p))
            e[k, l] = 1.0
            out[k, l] = np.trace(sigma @ np.kron(alpha_r, e))
    return out


def naive_sigma_left(sigma, alpha_l, p, q):
    """[out]_{kl} = tr(sigma (E_kl kron alpha_l)), E_kl in R^{q x q}."""
    out = np.zeros((q, q))
    for k in range(q):
        for l in range(q):
            e = np.zeros((q, q))
            e[k, l] = 1.0
            out[k, l] = np.trace(sigma @ np.kron(e, alpha_l))
    return out


def dense_map_solve(alpha_l, alpha_r, a_dense, y, beta):
    """Solve the normal equations of the posterior mode with plain numpy."""
    mat = np.kron(alpha_r, alpha_l) + beta * (a_dense.T @ a_dense)
    return np.linalg.solve(mat, beta * (a_dense.T @ y))


def dense_block_update(alpha_l, alpha_r, a_dense, y, beta, x_flat, idx):
    """Mode and covariance of the entries ``idx`` of vec(X), the others
    fixed at ``x_flat``, from the dense pq x pq normal equations."""
    prior = np.kron(alpha_r, alpha_l)
    rest = np.setdiff1d(np.arange(x_flat.size), idx)
    a_b = a_dense[:, idx]
    cov = np.linalg.inv(prior[np.ix_(idx, idx)] + beta * (a_b.T @ a_b))
    rhs = beta * (a_b.T @ (y - a_dense[:, rest] @ x_flat[rest])) \
        - prior[np.ix_(idx, rest)] @ x_flat[rest]
    return cov @ rhs, cov


def trace_quadratic(op, sigma):
    """tr(A sigma A^T) for a measurement operator and a pq x pq covariance."""
    a = op.dense()
    return float(np.einsum("ij,jk,ik->", a, sigma, a, optimize=True))


def random_spd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T) + scale * n * np.eye(n)


class DenseCovariance:
    """A pq x pq covariance behind the three reads the solver updates make.

    ``op`` (a measurement operator) is needed only by trace_quadratic.
    """

    def __init__(self, sigma, op=None):
        self.sigma = np.asarray(sigma, dtype=float)
        self.op = op

    def contract_right(self, alpha_r):
        return trace_contract_right(self.sigma, alpha_r)

    def contract_left(self, alpha_l):
        return trace_contract_left(self.sigma, alpha_l)

    def trace_quadratic(self):
        return trace_quadratic(self.op, self.sigma)
