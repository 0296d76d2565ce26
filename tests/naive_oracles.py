"""Independent brute-force references the fast implementations are checked
against. Everything here is written for clarity, not speed: explicit basis
matrices, dense solves, no shared code with the package internals."""

import numpy as np


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


def dense_map_solve(alpha_l, alpha_r, a_dense, y, beta, jitter=0.0):
    """Solve the normal equations of the posterior mode with plain numpy.

    ``jitter`` is added to the diagonal of the prior precision.
    """
    mat = np.kron(alpha_r, alpha_l) + jitter * np.eye(a_dense.shape[1]) \
        + beta * (a_dense.T @ a_dense)
    return np.linalg.solve(mat, beta * (a_dense.T @ y))


def random_spd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T) + scale * n * np.eye(n)
