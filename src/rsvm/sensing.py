"""Measurement operators, synthetic low-rank ground truth, noise calibration.

Two operator kinds: completion masks (a subset of matrix entries, stored as
indices with matrix-free forward/adjoint actions) and dense Gaussian sensing
matrices with unit-norm columns. All constructors are deterministic given a
seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kronops import unvec, vec

COMPLETION = "completion"
DENSE = "dense"


class MeasurementOperator:
    """Linear map y = A vec(X) with forward/adjoint actions.

    Completion operators hold the observed positions as column-major vec
    indices; the equivalent dense form has standard basis vectors as rows.
    """

    def __init__(self, kind, p, q, vec_indices=None, matrix=None):
        self.kind = kind
        self.p = int(p)
        self.q = int(q)
        if kind == COMPLETION:
            idx = np.asarray(vec_indices, dtype=np.intp)
            if idx.ndim != 1 or idx.size == 0:
                raise ValueError("completion operator needs a 1-d index set")
            if np.unique(idx).size != idx.size:
                raise ValueError("completion indices must be distinct")
            if idx.min() < 0 or idx.max() >= self.p * self.q:
                raise ValueError("completion index out of range")
            self.vec_indices = idx
            self.matrix = None
            self.m = idx.size
        elif kind == DENSE:
            mat = np.asarray(matrix, dtype=float)
            if mat.ndim != 2 or mat.shape[1] != self.p * self.q:
                raise ValueError("dense operator must be m x (p*q)")
            if not np.all(np.isfinite(mat)):
                raise ValueError("dense operator has non-finite entries")
            self.vec_indices = None
            self.matrix = mat
            self.m = mat.shape[0]
        else:
            raise ValueError(f"unknown operator kind {kind!r}")

    # -- vector-level actions ------------------------------------------------

    def apply(self, v: np.ndarray) -> np.ndarray:
        """A v for a length-pq vector."""
        v = np.asarray(v, dtype=float)
        if self.kind == COMPLETION:
            return v[self.vec_indices]
        return self.matrix @ v

    def apply_adjoint(self, w: np.ndarray) -> np.ndarray:
        """A^T w for a length-m vector."""
        w = np.asarray(w, dtype=float)
        if self.kind == COMPLETION:
            out = np.zeros(self.p * self.q)
            out[self.vec_indices] = w
            return out
        return self.matrix.T @ w

    # -- matrix-level actions ------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """A vec(X) for a p x q matrix."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.p, self.q):
            raise ValueError(f"expected {self.p}x{self.q} matrix, got {x.shape}")
        return self.apply(vec(x))

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        """unvec(A^T w) as a p x q matrix."""
        return unvec(self.apply_adjoint(w), self.p, self.q)


@dataclass
class ProblemInstance:
    """One measurement problem: operator, observations, optional truth."""

    operator: MeasurementOperator
    y: np.ndarray
    ground_truth: np.ndarray | None = None
    sigma_n: float = 0.0

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        if self.y.shape != (self.operator.m,):
            raise ValueError("y length must equal operator.m")
        if not np.all(np.isfinite(self.y)):
            raise ValueError("y has non-finite entries")
        truth = self.ground_truth
        if truth is not None and (np.shape(truth) != (self.p, self.q)
                                  or not np.all(np.isfinite(truth))):
            raise ValueError(f"ground truth must be a finite {self.p}x{self.q}"
                             " array")
        if not 0 <= self.sigma_n < np.inf:
            raise ValueError("sigma_n must be finite and >= 0, "
                             f"got {self.sigma_n!r}")

    @property
    def p(self) -> int:
        return self.operator.p

    @property
    def q(self) -> int:
        return self.operator.q

    @property
    def m(self) -> int:
        return self.operator.m


def completion_operator(p: int, q: int, m: int, seed) -> MeasurementOperator:
    """Sample m distinct entry positions uniformly without replacement."""
    if not 0 < m <= p * q:
        raise ValueError(f"m must be in (0, {p * q}], got {m}")
    rng = np.random.default_rng(seed)
    idx = rng.choice(p * q, size=m, replace=False)
    return MeasurementOperator(COMPLETION, p, q, vec_indices=idx)


def gaussian_operator(p: int, q: int, m: int, seed) -> MeasurementOperator:
    """Dense N(0,1) sensing matrix with columns normalized to unit length."""
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, p * q))
    a /= np.linalg.norm(a, axis=0)
    return MeasurementOperator(DENSE, p, q, matrix=a)


def generate_low_rank(p: int, q: int, r: int, seed) -> np.ndarray:
    """X = L R^T with i.i.d. N(0,1) factors; rank r with probability 1."""
    if not 1 <= r <= min(p, q):
        raise ValueError(f"rank must be in [1, {min(p, q)}]")
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((p, r))
    right = rng.standard_normal((q, r))
    return left @ right.T


def noise_sigma_for_snr(kind: str, p: int, q: int, r: int, m: int,
                        snr: float) -> float:
    """Noise level hitting a target linear SNR for a scenario, "completion"
    or "reconstruction".

    sigma_n^2 = r/snr for completion, p*q*r/(m*snr) for reconstruction with
    unit-norm sensing columns.
    """
    if snr <= 0:
        raise ValueError("snr must be positive")
    if kind == COMPLETION:
        return float(np.sqrt(r / snr))
    if kind == "reconstruction":
        return float(np.sqrt(p * q * r / (m * snr)))
    raise ValueError(f"unknown scenario {kind!r}")


def measure(op: MeasurementOperator, x: np.ndarray, sigma_n: float,
            seed) -> ProblemInstance:
    """Observe y = A vec(X) + n with n ~ N(0, sigma_n^2 I)."""
    clean = op.forward(x)
    if sigma_n > 0:
        rng = np.random.default_rng(seed)
        y = clean + sigma_n * rng.standard_normal(op.m)
    else:
        y = clean
    return ProblemInstance(operator=op, y=y, ground_truth=np.asarray(x, dtype=float),
                           sigma_n=float(sigma_n))


# -- instance serialization ---------------------------------------------------

def instance_to_dict(inst: ProblemInstance) -> dict:
    """Structured document for replay and cross-implementation comparison."""
    op = inst.operator
    doc = {
        "p": op.p,
        "q": op.q,
        "m": op.m,
        "kind": op.kind,
        "y": inst.y.tolist(),
        "sigma_n": inst.sigma_n,
    }
    if op.kind == COMPLETION:
        rows = (op.vec_indices % op.p).tolist()
        cols = (op.vec_indices // op.p).tolist()
        doc["indices"] = [[int(i), int(j)] for i, j in zip(rows, cols)]
    else:
        doc["matrix"] = op.matrix.tolist()
    if inst.ground_truth is not None:
        doc["ground_truth"] = inst.ground_truth.tolist()
    return doc


def _integers(value, what: str) -> np.ndarray:
    """``value`` as integers; ValueError unless each entry is integral."""
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr) & (arr == np.round(arr))):
        raise ValueError(f"{what} must be integers")
    return arr.astype(np.intp)


def instance_from_dict(doc: dict) -> ProblemInstance:
    """Inverse of :func:`instance_to_dict`, checking p, q, m and indices."""
    p, q = _integers([doc["p"], doc["q"]], "p and q").tolist()
    if doc["kind"] == COMPLETION:
        ij = _integers(doc["indices"], "indices")
        if ij.shape[1:] != (2,):
            raise ValueError(f"indices must be (i, j) pairs, got {ij.shape}")
        op = MeasurementOperator(COMPLETION, p, q,
                                 vec_indices=ij[:, 1] * p + ij[:, 0])
    else:
        op = MeasurementOperator(DENSE, p, q, matrix=np.asarray(doc["matrix"]))
    if doc["m"] != op.m:
        raise ValueError(f"m = {doc['m']!r} but the operator has {op.m} rows")
    truth = doc.get("ground_truth")
    return ProblemInstance(
        operator=op,
        y=np.asarray(doc["y"], dtype=float),
        ground_truth=None if truth is None else np.asarray(truth, dtype=float),
        sigma_n=float(doc["sigma_n"]),
    )


def save_instance(inst: ProblemInstance, path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(inst)))


def load_instance(path) -> ProblemInstance:
    return instance_from_dict(json.loads(Path(path).read_text()))
