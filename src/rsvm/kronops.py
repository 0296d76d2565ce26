"""Tensor algebra for Kronecker-structured Gaussian models.

Conventions used throughout the package:

* ``vec`` stacks columns (column-major). Under this convention the prior
  quadratic form satisfies tr(L X R X^T) = vec(X)^T (R kron L) vec(X) for
  symmetric L, R, which is the identity the solver updates rely on.
* Covariances/precisions are kept symmetric explicitly. A prior
  precision is a :class:`Prior`, factored once by one eigendecomposition
  when it is formed; the covariance forms, balancing and every block of
  the accelerated solver read that factorization. The one remaining
  inverse, the completion form's k x k Gram matrix, goes through
  Cholesky. A factorization that fails is retried with a fixed schedule
  of trace-scaled diagonal jitter (see :func:`_jitter_schedule`).

No solver forms the pq x pq posterior covariance
Sigma = ((alpha_r kron alpha_l) + beta A^T A)^{-1}.
:func:`structured_covariance` returns it in one of two Woodbury forms,
each over k index rows (m measurements, or whichever of the m observed
and pq - m missing entries of a completion mask are fewer):

* :class:`CompletionCovariance`, for a completion mask with m <= pq/2
  (observed side). In the original basis, with prior covariances
  C_l = alpha_l^{-1} and C_r = alpha_r^{-1},

      Sigma = (C_r kron C_l) - V K V^T,  V_t = vec(C_l[:, i_t] C_r[:, j_t]^T),

  one rank-one p x q matrix per observed entry (i_t, j_t). The k x k
  Gram matrix is a gather, K = (C_l[I, I] o C_r[J, J] + I/beta)^{-1}
  (o the Hadamard product), and every read is a k x k Hadamard product
  between the p x k and q x k sides: O(k^3 + k^2 (p + q)) time and
  O(k^2 + k (p + q)) memory, nothing k x pq.
* :class:`StructuredCovariance`, for dense sensing (sign -) and for the
  missing side of completion, m > pq/2 (sign +). With
  alpha_l = U_l D_l U_l^T, alpha_r = U_r D_r U_r^T and E = U_r kron U_l,

      Sigma = E [diag(lam) +/- W^T K W] E^T = E [diag(lam) +/- Z^T Z] E^T,

  a diagonal in the Kronecker eigenbasis plus a correction whose rows
  W_t = lam * (U_l^T A_t U_r) are p x q matrices, and Z = C^{-1} W with
  C C^T = K^{-1}. Its reads cost O(k pq (p + q) + k^2 pq) time and
  O(k pq) memory.

Both offer the posterior mean (``apply``: unvec(Sigma vec(Y))) and the
three reads the solver updates make: ``contract_right(alpha_r)``, the
p x p matrix tr(Sigma (alpha_r kron E_kl)) over the p x p single-entry
matrices E_kl; ``contract_left(alpha_l)``, the q x q matrix
tr(Sigma (E_kl kron alpha_l)); and ``trace_quadratic()``, tr(A Sigma A^T).
:class:`BlockCovariance` holds one form per column block (the prior
restricted to column block b is alpha_r[b, b] kron alpha_l) and offers
the same three reads. No solve needs a dense pq x pq form; the dense
references these are tested against live in ``tests/naive_oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg


class FactorizationError(np.linalg.LinAlgError):
    """A matrix stayed not positive definite through the jitter schedule."""


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def vec(x: np.ndarray) -> np.ndarray:
    """Column-major stacking of a matrix into a vector."""
    return np.asarray(x, dtype=float).reshape(-1, order="F")


def unvec(v: np.ndarray, p: int, q: int) -> np.ndarray:
    """Inverse of :func:`vec`; requires len(v) == p*q."""
    v = np.asarray(v, dtype=float)
    if v.size != p * q:
        raise ValueError(f"cannot unvec length-{v.size} vector into {p}x{q}")
    return v.reshape((p, q), order="F")


def _jitter_schedule(m: np.ndarray):
    """The diagonal shifts an SPD factorization of m tries, in order: 0,
    then f, 10 f and 100 f with f = 1e-12 tr(m) / dim (1e-12 when that is
    not positive). Past the last one it raises :class:`FactorizationError`.
    f is computed only once the unshifted attempt has failed.
    """
    yield 0.0
    dim = m.shape[0]
    floor = 1e-12 * abs(float(np.trace(m))) / dim if dim else 0.0
    if floor <= 0.0:
        floor = 1e-12
    for k in range(3):
        yield floor * 10.0**k


def _spd_factor(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor (Fortran-ordered) of an SPD matrix.

    Factors (m + m^T)/2 plus each shift of :func:`_jitter_schedule` in
    turn until one succeeds. Each attempt symmetrizes m into the same
    buffer and factors it in place; m is never written. The strict upper
    triangle of the factor is zero.
    """
    m = np.asarray(m, dtype=float)
    dim = m.shape[0]
    buf = np.empty((dim, dim))
    for eps in _jitter_schedule(m):
        np.add(m, m.T, out=buf)
        buf *= 0.5
        if eps:
            buf[np.diag_indices(dim)] += eps
        # buf is symmetric, so its Fortran-ordered transpose is the matrix
        _, info = scipy.linalg.lapack.dpotrf(buf.T, lower=1, clean=1,
                                             overwrite_a=1)
        if info == 0:
            return buf.T
    raise FactorizationError(
        f"Cholesky factorization failed for dim {dim} after jitter "
        "escalation"
    )


def _spd_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s, d, u): s = (m + m^T)/2 plus the first shift of
    :func:`_jitter_schedule` that leaves its eigenvalues positive, and
    s = u diag(d) u^T. One eigendecomposition: a shift moves every
    eigenvalue by itself. m is never written."""
    m = np.asarray(m, dtype=float)
    s = symmetrize(m)
    d, u = np.linalg.eigh(s)
    for eps in _jitter_schedule(m):
        if d.size == 0 or d[0] + eps > 0:
            if eps:
                s[np.diag_indices(d.size)] += eps
                d = d + eps
            return s, d, u
    raise FactorizationError(
        f"eigenvalue {d[0]:.3g} not positive for dim {d.size} after jitter "
        "escalation")


def _gram(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """u diag(w) u^T for w >= 0, as r r^T with r = u sqrt(w), which numpy
    evaluates as one exactly symmetric rank-k update."""
    r = u * np.sqrt(w)
    return r @ r.T


@dataclass(frozen=True)
class Prior:
    """A prior precision alpha = U diag(v) U^T with its eigendecomposition,
    built by :meth:`from_precision` or :meth:`inverse_of`. The constructor
    makes the arrays it is given read-only, without copying them, so the
    matrix and its factorization cannot disagree; it raises
    :class:`FactorizationError` unless every v is positive and finite.
    C = alpha^{-1} = U diag(1/v) U^T and tr(C) = sum(1/v) need no inverse.
    """

    matrix: np.ndarray    # alpha, symmetric
    values: np.ndarray    # v, positive, in the order of ``vectors``
    vectors: np.ndarray   # U, orthonormal columns

    def __post_init__(self):
        if not np.all((self.values > 0) & (self.values < np.inf)):
            raise FactorizationError(
                f"prior eigenvalues must be positive and finite, got "
                f"{self.values}")
        for a in (self.matrix, self.values, self.vectors):
            a.setflags(write=False)

    @classmethod
    def from_precision(cls, alpha: np.ndarray) -> Prior:
        """Factor (alpha + alpha^T)/2, jittered as :func:`_spd_eigh` does."""
        s, v, u = _spd_eigh(alpha)
        return cls(s, v, u)

    @classmethod
    def inverse_of(cls, s: np.ndarray) -> Prior:
        """alpha = S^{-1} for an SPD S, jittered as :func:`_spd_eigh` does:
        with S = U diag(d) U^T, alpha = U diag(1/d) U^T."""
        _, d, u = _spd_eigh(s)
        v = 1.0 / d
        return cls(_gram(u, v), v, u)

    @cached_property
    def covariance(self) -> np.ndarray:
        """C = alpha^{-1}, formed on first read and kept (read-only)."""
        c = _gram(self.vectors, 1.0 / self.values)
        c.setflags(write=False)
        return c

    def scaled(self, c: float) -> Prior:
        """The prior c alpha, c > 0, sharing the eigenvectors."""
        return Prior(self.matrix * c, self.values * c, self.vectors)


def spd_inverse(m: np.ndarray) -> np.ndarray:
    """Invert a symmetric positive definite matrix via Cholesky.

    LAPACK dpotri on the factor of :func:`_spd_factor` (same jitter
    schedule), in the factor's buffer; raises :class:`FactorizationError`
    when the schedule is exhausted. The result is exactly symmetric; a
    0 x 0 matrix is its own inverse.
    """
    c = _spd_factor(m)
    if not c.size:  # dpotri rejects a 0 x 0 argument
        return c
    _, info = scipy.linalg.lapack.dpotri(c, lower=1, overwrite_c=1)
    if info != 0:
        raise FactorizationError(f"dpotri failed with info={info}")
    # dpotri fills the lower triangle of c, the upper one of t = c^T, and
    # the factor left the other one zero. Mirror it by row blocks: rows s:e
    # of t precede rows e: in memory, so each block copy runs without a
    # matrix-sized temporary. A diagonal block d becomes d + d^T, the
    # inverse with its diagonal doubled; halving it back is exact.
    t = c.T
    for s in range(0, t.shape[0], 256):
        d = t[s:s + 256, s:s + 256]
        d += d.T
        d[np.diag_indices(d.shape[0])] *= 0.5
        t[s + 256:, s:s + 256] = t[s:s + 256, s + 256:].T
    return t


@dataclass
class StructuredCovariance:
    """Sigma = E [diag(lam) + sign Z^T Z] E^T with E = U_r kron U_l.

    Built by :func:`structured_covariance`. Matrices live in the Kronecker
    eigenbasis, where a p x q matrix Y reads U_l^T Y U_r. ``rows[:, t, :]``
    is the t-th of the k rows of Z, a p x q matrix. The p x k x q layout
    is the one copy every read uses: the mean runs two batched matrix
    products over its p leading slices, and both contractions run as plain
    matrix products on its (p k) x q and p x (k q) views. Nothing pq x pq
    is stored.
    """

    u_l: np.ndarray      # p x p eigenvectors of alpha_l
    u_r: np.ndarray      # q x q eigenvectors of alpha_r
    lam: np.ndarray      # p x q diagonal of the base term
    rows: np.ndarray     # p x k x q rows of the low-rank term
    sign: float          # -1 over measurements, +1 over missing entries
    quadratic: float     # tr(A Sigma A^T)

    def apply(self, y: np.ndarray) -> np.ndarray:
        """unvec(Sigma vec(Y)) for a p x q matrix Y."""
        yh = self.u_l.T @ np.asarray(y, dtype=float) @ self.u_r
        # coef_t = <Z_t, Yh>: p batched (k x q) (q x 1) products, summed
        coef = np.matmul(self.rows, yh[:, :, None]).sum(axis=0)[:, 0]
        z = self.lam * yh + self.sign * (coef @ self.rows)
        return self.u_l @ z @ self.u_r.T

    def contract_right(self, alpha_r: np.ndarray) -> np.ndarray:
        """tr(Sigma (alpha_r kron E_kl)) over the p x p basis matrices."""
        p, k, q = self.rows.shape
        a = self.u_r.T @ np.asarray(alpha_r, dtype=float) @ self.u_r
        # sum_t Z_t a Z_t^T
        za = (self.rows.reshape(p * k, q) @ a).reshape(p, k * q)
        low = za @ self.rows.reshape(p, k * q).T
        mid = np.diag(self.lam @ np.diag(a)) + self.sign * low
        return self.u_l @ mid @ self.u_l.T

    def contract_left(self, alpha_l: np.ndarray) -> np.ndarray:
        """tr(Sigma (E_kl kron alpha_l)) over the q x q basis matrices."""
        p, k, q = self.rows.shape
        a = self.u_l.T @ np.asarray(alpha_l, dtype=float) @ self.u_l
        # sum_t Z_t^T a Z_t
        az = (a @ self.rows.reshape(p, k * q)).reshape(p * k, q)
        low = self.rows.reshape(p * k, q).T @ az
        mid = np.diag(np.diag(a) @ self.lam) + self.sign * low
        return self.u_r @ mid @ self.u_r.T

    def trace_quadratic(self) -> float:
        """tr(A Sigma A^T) for the operator Sigma was built from."""
        return self.quadratic

@dataclass
class CompletionCovariance:
    """Sigma = (C_r kron C_l) - V K V^T over the observed entries of a
    completion mask, in the original basis.

    Built by :func:`structured_covariance`. ``left[:, t]`` = C_l[:, i_t]
    and ``right[:, t]`` = C_r[:, j_t] for the t-th observed entry
    (i_t, j_t), so V_t = vec(left[:, t] right[:, t]^T). Every read is a
    k x k Hadamard product between the two sides.
    """

    c_l: np.ndarray      # p x p prior covariance alpha_l^{-1}
    c_r: np.ndarray      # q x q prior covariance alpha_r^{-1}
    i: np.ndarray        # row of each observed entry (k,)
    j: np.ndarray        # column of each observed entry (k,)
    left: np.ndarray     # p x k, C_l[:, i]
    right: np.ndarray    # q x k, C_r[:, j]
    kmat: np.ndarray     # k x k, (C_l[I, I] o C_r[J, J] + I/beta)^{-1}
    quadratic: float     # tr(A Sigma A^T)

    def apply(self, y: np.ndarray) -> np.ndarray:
        """unvec(Sigma vec(Y)) for a p x q matrix Y."""
        h = self.c_l @ np.asarray(y, dtype=float) @ self.c_r
        coef = self.kmat @ h[self.i, self.j]
        return h - (self.left * coef) @ self.right.T

    def contract_right(self, alpha_r: np.ndarray) -> np.ndarray:
        """tr(Sigma (alpha_r kron E_kl)) over the p x p basis matrices."""
        a = np.asarray(alpha_r, dtype=float)
        m = self.right.T @ a @ self.right
        return float(np.vdot(self.c_r, a)) * self.c_l \
            - (self.left @ (self.kmat * m)) @ self.left.T

    def contract_left(self, alpha_l: np.ndarray) -> np.ndarray:
        """tr(Sigma (E_kl kron alpha_l)) over the q x q basis matrices."""
        a = np.asarray(alpha_l, dtype=float)
        m = self.left.T @ a @ self.left
        return float(np.vdot(self.c_l, a)) * self.c_r \
            - (self.right @ (self.kmat * m)) @ self.right.T

    def trace_quadratic(self) -> float:
        """tr(A Sigma A^T) for the mask Sigma was built from."""
        return self.quadratic

def _completion_covariance(prior_l: Prior, prior_r: Prior,
                           idx: np.ndarray, beta: float
                           ) -> CompletionCovariance:
    """:class:`CompletionCovariance` for the observed vec indices ``idx``.

    G = C_l[I, I] o C_r[J, J] is the prior covariance among the observed
    entries, gathered from the sides C_l[:, I] and C_r[:, J], and
    tr(A Sigma A^T) = tr(G - G K G) = <G, K> / beta.
    """
    c_l, c_r = prior_l.covariance, prior_r.covariance
    i, j = idx % c_l.shape[0], idx // c_l.shape[0]
    left, right = c_l[:, i], c_r[:, j]
    gram = left[i] * right[j]
    kinv = gram.copy()
    kinv[np.diag_indices(idx.size)] += 1.0 / beta
    kmat = spd_inverse(kinv)
    return CompletionCovariance(c_l, c_r, i, j, left, right, kmat,
                                float(np.vdot(gram, kmat)) / beta)


def structured_covariance(
    prior_l: Prior,
    prior_r: Prior,
    op,
    beta: float,
) -> StructuredCovariance | CompletionCovariance:
    """Posterior covariance ((alpha_r kron alpha_l) + beta A^T A)^{-1} in
    one of the two Woodbury forms of the module docstring, for the prior
    precisions alpha_l and alpha_r of two :class:`Prior` factorizations.

    ``op`` is a p x q :class:`rsvm.sensing.MeasurementOperator`, read
    through its ``vec_indices`` (a completion mask's observed vec
    indices, possibly none) and ``matrix`` (dense sensing's m x pq
    matrix, possibly with no rows); ValueError unless p x q is the
    priors' size. A completion mask observing at most half the entries
    gives a :class:`CompletionCovariance` over the m observed entries:
    O(k^3 + k^2 (p + q)) to build and read. Dense sensing and the missing
    side of completion (m > pq/2) give a :class:`StructuredCovariance`
    over k = m measurements or the pq - m missing entries:
    O(k^2 pq + k pq (p + q)). Neither factors a prior precision again:
    the observed side reads the priors' covariances, the eigenbasis form
    their eigenvectors and eigenvalues.

    In the eigenbasis form, D = d_l d_r^T holds the prior precision's
    eigenvalues and the atoms Ah_t = U_l^T A_t U_r the Woodbury index rows
    in the eigenbasis.

    * Measurements (dense sensing): lam = 1/D,
      K^{-1} = G + I/beta with G_ts = <Ah_t, lam * Ah_s>, sign -.
    * Missing entries (unit atoms): lam = 1/(D + beta),
      K^{-1} = <Ah_t, w * Ah_s> with w = D lam / beta, which equals
      I/beta - <Ah_t, lam * Ah_s> without the subtraction, sign +.

    The Gram part is B B^T with B = sqrt(lam or w) * Ah. With C the
    Cholesky factor of K^{-1} (the jitter schedule of :func:`spd_inverse`)
    the rows are Z = C^{-1} (lam * Ah) = (C^{-1} B) * lam / sqrt(lam or w):
    one triangular solve, no k x k inverse. B and Z overwrite the atoms'
    buffer; only the final p x k x q transpose copies it.
    """
    if not beta > 0:
        raise ValueError("beta must be positive")
    idx, dense = op.vec_indices, op.matrix
    p, q = prior_l.values.size, prior_r.values.size
    if (op.p, op.q) != (p, q):
        raise ValueError(f"{op.p}x{op.q} operator with {p}x{q} priors")
    sensing = dense is not None
    if not sensing and 2 * idx.size <= p * q:
        return _completion_covariance(prior_l, prior_r, idx, beta)
    u_l, u_r = prior_l.vectors, prior_r.vectors
    prior = np.outer(prior_l.values, prior_r.values)
    if sensing:
        atoms = u_l.T @ dense.reshape(-1, q, p).transpose(0, 2, 1) @ u_r
    else:
        missing = np.ones(p * q, dtype=bool)
        missing[idx] = False
        idx = np.nonzero(missing)[0]
        atoms = u_l[idx % p][:, :, None] * u_r[idx // p][:, None, :]
    k = atoms.shape[0]

    lam = 1.0 / prior if sensing else 1.0 / (prior + beta)
    root = np.sqrt(lam if sensing else prior * lam / beta)
    atoms *= root
    b = atoms.reshape(k, p * q)
    kinv = b @ b.T
    if sensing:
        kinv[np.diag_indices(k)] += 1.0 / beta
    c = _spd_factor(kinv)
    # C^{-1} B as the right-sided solve Y^T C^T = B^T on the Fortran-ordered
    # view B^T, in place, which leaves Y C-ordered.
    y = scipy.linalg.blas.dtrsm(1.0, c, b.T, side=1, lower=1, trans_a=1,
                                overwrite_b=1).T.reshape(k, p, q)
    if sensing:
        # tr(A Sigma A^T) = tr(G K) / beta = ||C^{-1} B||^2 / beta, B B^T = G
        quadratic = float(np.vdot(y, y)) / beta
    else:
        # tr Sigma minus the missing entries' variances
        quadratic = float(lam.sum()) \
            - float(np.vdot(np.einsum("tij,tij->ij", y, y), lam))
    y *= lam / root
    rows = np.ascontiguousarray(y.transpose(1, 0, 2))
    return StructuredCovariance(u_l, u_r, lam, rows,
                                -1.0 if sensing else 1.0, quadratic)


@dataclass
class BlockCovariance:
    """Block-diagonal Sigma over disjoint groups of whole columns of X:
    ``blocks[b]`` covers the contiguous columns ``columns[b]``, a slice,
    with prior alpha_r[b, b] kron alpha_l; entries across groups are
    zero."""

    columns: list[slice]
    blocks: list[StructuredCovariance | CompletionCovariance]

    def contract_right(self, alpha_r: np.ndarray) -> np.ndarray:
        """The p x p contraction of the module docstring, block summed."""
        alpha_r = np.asarray(alpha_r, dtype=float)
        return sum(s.contract_right(alpha_r[c, c])
                   for c, s in zip(self.columns, self.blocks))

    def contract_left(self, alpha_l: np.ndarray) -> np.ndarray:
        """The q x q contraction of the module docstring, block by block."""
        q = max(c.stop for c in self.columns)
        out = np.zeros((q, q))
        for c, s in zip(self.columns, self.blocks):
            out[c, c] = s.contract_left(alpha_l)
        return out

    def trace_quadratic(self) -> float:
        """tr(A Sigma A^T) when block b was built from A's columns in b."""
        return sum(s.trace_quadratic() for s in self.blocks)
