"""Independent brute-force references the fast implementations are checked
against, written for clarity, not speed: explicit basis matrices, dense
pq x pq matrices and solves, which no solver forms. :func:`densify` reads a
covariance form through its own ``apply``, so comparing
``posterior_covariance(method="woodbury")`` with ``method="direct"`` (a
numpy inverse of the definition) checks the code every solve runs."""

from dataclasses import dataclass

import numpy as np

from rsvm.kronops import Prior, structured_covariance, unvec, vec


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


def naive_precision_step(sigma, x, alpha_l, alpha_r, epsilon):
    """The Gauss-Seidel precision update with numpy inverses of the second
    moments: alpha_l first (old alpha_r), then alpha_r from the new one."""
    p, q = x.shape
    al = np.linalg.inv(sigma.contract_right(alpha_r) + x @ alpha_r @ x.T
                       + epsilon * np.eye(p))
    ar = np.linalg.inv(sigma.contract_left(al) + x.T @ al @ x
                       + epsilon * np.eye(q))
    return al, ar


def naive_balance(alpha_l, alpha_r, x):
    """Precision balancing from traces of numpy inverses and the matrices'
    Frobenius norms."""
    g = np.sqrt(np.trace(np.linalg.inv(alpha_l))
                * np.trace(np.linalg.inv(alpha_r))) / np.linalg.norm(x)
    h = np.sqrt(np.linalg.norm(alpha_r) / np.linalg.norm(alpha_l))
    return alpha_l * (g * h), alpha_r * (g / h)


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


def recompute_block_descent(inst, prec, x, columns, sweeps):
    """``sweeps`` cyclic passes of exact block minimization over the column
    groups ``columns`` from X = ``x``, each step recomputed from the whole
    operator: the right-hand side
    (beta A^T (y - A vec X0) - alpha_l X0 alpha_r)[:, cols], X0 = X with
    the group's columns zeroed, solved against the block's dense precision
    alpha_r[cols, cols] kron alpha_l + beta A_b^T A_b."""
    a = dense_operator(inst.operator)
    p, q = x.shape
    x = np.array(x, dtype=float)
    for _ in range(sweeps):
        for cols in columns:
            x0 = x.copy()
            x0[:, cols] = 0.0
            resid = inst.y - a @ vec(x0)
            rhs = prec.beta * unvec(a.T @ resid, p, q)[:, cols] \
                - prec.alpha_l @ (x0 @ prec.alpha_r[:, cols])
            a_b = a[:, np.arange(p * q).reshape(q, p)[cols].ravel()]
            mat = np.kron(prec.alpha_r[np.ix_(cols, cols)], prec.alpha_l) \
                + prec.beta * (a_b.T @ a_b)
            x[:, cols] = unvec(np.linalg.solve(mat, vec(rhs)), p, len(cols))
    return x


def dense_operator(op):
    """A measurement operator's m x pq matrix; a completion mask has one
    standard basis vector per row."""
    if op.vec_indices is None:
        return op.matrix
    a = np.zeros((op.m, op.p * op.q))
    a[np.arange(op.m), op.vec_indices] = 1.0
    return a


def densify(cov, p, q):
    """The pq x pq matrix of a covariance form: column i is
    vec(cov.apply(unvec(e_i))) for the i-th unit vector e_i."""
    return np.column_stack([vec(cov.apply(unvec(e, p, q)))
                            for e in np.eye(p * q)])


def posterior_covariance(alpha_l, alpha_r, a, beta, method="direct"):
    """((alpha_r kron alpha_l) + beta A^T A)^{-1} as a dense pq x pq matrix.

    ``method="direct"`` inverts the definition with numpy, for ``a`` a
    measurement operator or a dense m x pq array; ``"woodbury"`` densifies
    :func:`rsvm.kronops.structured_covariance` of the two precisions'
    :class:`rsvm.kronops.Prior` factorizations, which takes only a
    measurement operator.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    p, q = len(alpha_l), len(alpha_r)
    if method == "woodbury":
        return densify(structured_covariance(Prior.from_precision(alpha_l),
                                             Prior.from_precision(alpha_r),
                                             a, beta), p, q)
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")
    a = a if isinstance(a, np.ndarray) else dense_operator(a)
    return np.linalg.inv(np.kron(alpha_r, alpha_l) + beta * (a.T @ a))


def _split_dims(sigma, block):
    n = sigma.shape[0]
    if sigma.shape != (n, n) or n % block:
        raise ValueError(f"sigma must be square, side divisible by {block}")
    return n // block


def trace_contract_right(sigma, alpha_r):
    """The p x p matrix with entries tr(sigma (alpha_r kron E_kl)), E_kl
    the p x p single-entry basis matrices, as one block contraction."""
    alpha_r = np.asarray(alpha_r, dtype=float)
    q = alpha_r.shape[0]
    p = _split_dims(np.asarray(sigma), q)
    t = np.asarray(sigma, dtype=float).reshape(q, p, q, p)
    # [out]_{kl} = sum_{a,b} alpha_r[b,a] * sigma[a*p+l, b*p+k]
    return np.einsum("ba,albk->kl", alpha_r, t)


def trace_contract_left(sigma, alpha_l):
    """Mirror of :func:`trace_contract_right`: the q x q matrix with
    entries tr(sigma (E_kl kron alpha_l))."""
    alpha_l = np.asarray(alpha_l, dtype=float)
    p = alpha_l.shape[0]
    q = _split_dims(np.asarray(sigma), p)
    t = np.asarray(sigma, dtype=float).reshape(q, p, q, p)
    # [out]_{kl} = sum_{i,j} alpha_l[j,i] * sigma[l*p+i, k*p+j]
    return np.einsum("ji,likj->kl", alpha_l, t)


@dataclass
class KronSum:
    """Sum of Kronecker products sum_k (left_k kron right_k)."""

    terms: list

    def reconstruct(self):
        return sum(np.kron(left, right) for left, right in self.terms)


def nearest_kron_sum(sigma, p, s):
    """Best rank-s Kronecker-sum approximation of a p^2 x p^2 matrix (Van
    Loan & Pitsianis's nearest Kronecker product, 1993).

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


def trace_quadratic(op, sigma):
    """tr(A sigma A^T) for a measurement operator and a pq x pq covariance."""
    a = dense_operator(op)
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
