"""Experiment driver: parameter sweeps, NMSE aggregation, CSV emission.

A sweep runs a grid of n_matrices ground truths x n_measurements noise
draws at every sweep point, solves each instance with the selected
algorithms, and records one row per (trial, algorithm). RNG streams are
derived from (seed, sweep index, matrix index, noise index), so trials are
reproducible independently of execution order.
"""

from __future__ import annotations

import csv
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import accel, nuclear, symmetric
from .core import (Hyperparameters, SolverDivergenceError, require_count,
                   solve)
from .kronops import FactorizationError
from .sensing import (
    COMPLETION,
    completion_operator,
    gaussian_operator,
    generate_low_rank,
    measure,
    noise_sigma_for_snr,
)

ALGORITHMS = ("rsvm", "rsvm-accel", "rsvm-symmetric", "nuclear")
SWEEPABLE = ("p", "q", "r", "m_fraction")
# Numerical solver failures (failed rows, exit code 2); all else propagates.
SOLVER_FAILURES = (SolverDivergenceError, FactorizationError,
                   np.linalg.LinAlgError, FloatingPointError)


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Sweep description. Exactly one of p, q, r, m_fraction is a list."""

    scenario: str
    p: int | list = 15
    q: int | list = 30
    r: int | list = 3
    m_fraction: float | list = 0.7
    snr_db: float = 20.0
    n_matrices: int = 10
    n_measurements: int = 10
    algorithms: tuple = ("rsvm", "nuclear")
    seed: int = 0
    hyper: Hyperparameters | None = None  # None: each solver's own default
    nuclear_cfg: nuclear.NuclearConfig = field(default_factory=nuclear.NuclearConfig)
    psd_truth: bool = False
    record_timing: bool = True
    jobs: int = 1
    output_path: str | None = None

    def __post_init__(self):
        if self.scenario not in ("completion", "reconstruction"):
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {name!r}")
        if not self.algorithms:
            raise ConfigError("no algorithms selected")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        try:
            for name in ("n_matrices", "n_measurements", "jobs"):
                require_count(name, getattr(self, name))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        sweeps = [name for name in SWEEPABLE
                  if isinstance(getattr(self, name), (list, tuple))]
        if len(sweeps) != 1:
            raise ConfigError(
                f"exactly one of {SWEEPABLE} must be a sweep list, got {sweeps}")
        if not getattr(self, sweeps[0]):
            raise ConfigError("sweep list must be non-empty")
        self.sweep_axis = sweeps[0]
        if "rsvm-symmetric" in self.algorithms:
            for value in self.sweep_values():
                p, q, _, _ = _point_params(self, value)
                if p != q:
                    raise ConfigError(
                        f"rsvm-symmetric needs p == q, got {p}x{q} at "
                        f"{self.sweep_axis}={value}")

    def sweep_values(self) -> list:
        return list(getattr(self, self.sweep_axis))


@dataclass
class ResultRow:
    scenario: str
    algorithm: str
    p: int
    q: int
    r: int
    m: int
    trial_matrix: int
    trial_noise: int
    nmse_linear: float
    nmse_db: float
    iterations: int
    wall_time_seconds: float
    err_sq: float
    signal_sq: float
    failed: int = 0


@dataclass
class AggregateRow:
    sweep_value: float
    algorithm: str
    nmse_db: float
    n_trials: int
    n_failures: int
    mean_wall_time: float
    nmse_db_mean_of_ratios: float


def nmse(x_true: np.ndarray, x_hat: np.ndarray) -> float:
    """Per-trial squared-error ratio ||X - Xhat||_F^2 / ||X||_F^2."""
    x_true = np.asarray(x_true, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    if x_true.shape != x_hat.shape:
        raise ValueError("shape mismatch")
    denom = float(np.sum(x_true * x_true))
    if denom == 0:
        raise ValueError("ground truth has zero norm")
    return float(np.sum((x_true - x_hat) ** 2)) / denom


def to_db(ratio: float) -> float:
    return 10.0 * math.log10(ratio) if ratio > 0 else -math.inf


def m_from_fraction(p: int, q: int, frac: float) -> int:
    """Measurement count floor(frac * p * q), robust to float slop."""
    return int(math.floor(frac * p * q + 1e-9))


def _point_params(cfg: ExperimentConfig, value):
    params = {name: getattr(cfg, name) for name in SWEEPABLE}
    params[cfg.sweep_axis] = value
    p, q, r = int(params["p"]), int(params["q"]), int(params["r"])
    m = m_from_fraction(p, q, float(params["m_fraction"]))
    return p, q, r, m


def _ground_truth(cfg, p, q, r, seed):
    if cfg.psd_truth:
        if p != q:
            raise ConfigError("psd_truth requires p == q")
        left = np.random.default_rng(seed).standard_normal((p, r))
        return left @ left.T
    return generate_low_rank(p, q, r, seed)


def _make_instance(cfg, sweep_idx, mat_idx, noise_idx, p, q, r, m):
    truth = _ground_truth(cfg, p, q, r, [cfg.seed, sweep_idx, mat_idx, 0])
    op_rng = [cfg.seed, sweep_idx, mat_idx, noise_idx, 1]
    noise_rng = [cfg.seed, sweep_idx, mat_idx, noise_idx, 2]
    snr = 10.0 ** (cfg.snr_db / 10.0)
    if cfg.scenario == "completion":
        op = completion_operator(p, q, m, op_rng)
        sigma_n = noise_sigma_for_snr(COMPLETION, p, q, r, m, snr)
    else:
        op = gaussian_operator(p, q, m, op_rng)
        sigma_n = noise_sigma_for_snr("reconstruction", p, q, r, m, snr)
    return measure(op, truth, sigma_n, noise_rng)


def run_algorithm(name: str, inst, cfg: ExperimentConfig):
    """Dispatch one solver run; returns an Estimate."""
    if name == "rsvm":
        return solve(inst, cfg.hyper)
    if name == "rsvm-accel":
        return accel.solve_accelerated(inst, cfg.hyper)
    if name == "rsvm-symmetric":
        return symmetric.solve_symmetric(inst, cfg.hyper)
    if name == "nuclear":
        delta = nuclear.delta_from_sigma(inst.m, inst.sigma_n)
        return nuclear.solve_constrained(inst, delta, cfg.nuclear_cfg)
    raise ConfigError(f"unknown algorithm {name!r}")


def _run_trial(cfg, sweep_idx, value, mat_idx, noise_idx):
    p, q, r, m = _point_params(cfg, value)
    inst = _make_instance(cfg, sweep_idx, mat_idx, noise_idx, p, q, r, m)
    truth = inst.ground_truth
    signal_sq = float(np.sum(truth * truth))
    rows = []
    for name in cfg.algorithms:
        start = time.perf_counter()
        try:
            est = run_algorithm(name, inst, cfg)
            elapsed = time.perf_counter() - start
            err_sq = float(np.sum((truth - est.x_hat) ** 2))
            ratio = err_sq / signal_sq
            rows.append(ResultRow(
                scenario=cfg.scenario, algorithm=name, p=p, q=q, r=r, m=m,
                trial_matrix=mat_idx, trial_noise=noise_idx,
                nmse_linear=ratio, nmse_db=to_db(ratio),
                iterations=est.iterations,
                wall_time_seconds=elapsed if cfg.record_timing else 0.0,
                err_sq=err_sq, signal_sq=signal_sq))
        except SOLVER_FAILURES:
            elapsed = time.perf_counter() - start
            rows.append(ResultRow(
                scenario=cfg.scenario, algorithm=name, p=p, q=q, r=r, m=m,
                trial_matrix=mat_idx, trial_noise=noise_idx,
                nmse_linear=float("nan"), nmse_db=float("nan"),
                iterations=0,
                wall_time_seconds=elapsed if cfg.record_timing else 0.0,
                err_sq=float("nan"), signal_sq=signal_sq, failed=1))
    return rows


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """Run the full trial grid; deterministic for a fixed seed."""
    tasks = [(si, value, mi, ni)
             for si, value in enumerate(cfg.sweep_values())
             for mi in range(cfg.n_matrices)
             for ni in range(cfg.n_measurements)]
    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            nested = list(pool.map(lambda t: _run_trial(cfg, *t), tasks))
    else:
        nested = [_run_trial(cfg, *t) for t in tasks]
    return [row for rows in nested for row in rows]


def _sweep_value_of(row: ResultRow, axis: str) -> float:
    if axis == "m_fraction":
        return row.m / (row.p * row.q)
    return float(getattr(row, axis))


def infer_sweep_axis(rows) -> str:
    """Which of m, q, r, p varies across rows; m wins ties."""
    for axis, attr in (("m_fraction", "m"), ("q", "q"), ("r", "r"), ("p", "p")):
        if len({getattr(row, attr) for row in rows}) > 1:
            return axis
    return "m_fraction"


def aggregate(rows, axis: str | None = None) -> list[AggregateRow]:
    """Ratio-of-means NMSE per (sweep point, algorithm), in dB.

    Failed rows are excluded from the means and counted separately. The
    mean-of-ratios variant is emitted alongside for reference.
    """
    if not rows:
        return []
    axis = axis or infer_sweep_axis(rows)
    groups: dict[tuple, list[ResultRow]] = {}
    for row in rows:
        groups.setdefault((_sweep_value_of(row, axis), row.algorithm), []) \
            .append(row)
    out = []
    for (value, alg) in sorted(groups):
        grp = groups[(value, alg)]
        good = [row for row in grp if not row.failed]
        n_fail = len(grp) - len(good)
        if not good:
            continue
        ratio = sum(r.err_sq for r in good) / sum(r.signal_sq for r in good)
        mean_ratio = sum(r.nmse_linear for r in good) / len(good)
        out.append(AggregateRow(
            sweep_value=value, algorithm=alg, nmse_db=to_db(ratio),
            n_trials=len(grp), n_failures=n_fail,
            mean_wall_time=sum(r.wall_time_seconds for r in good) / len(good),
            nmse_db_mean_of_ratios=to_db(mean_ratio)))
    return out


_ROW_FIELDS = ("scenario", "algorithm", "p", "q", "r", "m", "trial_matrix",
               "trial_noise", "nmse_linear", "nmse_db", "iterations",
               "wall_time_seconds", "err_sq", "signal_sq", "failed")
_AGG_FIELDS = ("sweep_value", "algorithm", "nmse_db", "n_trials",
               "n_failures", "mean_wall_time", "nmse_db_mean_of_ratios")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def write_csv(items, path) -> None:
    """Emit result or aggregate rows, 6 significant digits, stable order."""
    items = list(items)
    fields = _ROW_FIELDS
    if items and isinstance(items[0], AggregateRow):
        fields = _AGG_FIELDS
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(fields) + "\n")
        for item in items:
            fh.write(",".join(_fmt(getattr(item, f)) for f in fields) + "\n")


def read_rows_csv(path) -> list[ResultRow]:
    rows = []
    with Path(path).open() as fh:
        for rec in csv.DictReader(fh):
            rows.append(ResultRow(
                scenario=rec["scenario"], algorithm=rec["algorithm"],
                p=int(rec["p"]), q=int(rec["q"]), r=int(rec["r"]),
                m=int(rec["m"]), trial_matrix=int(rec["trial_matrix"]),
                trial_noise=int(rec["trial_noise"]),
                nmse_linear=float(rec["nmse_linear"]),
                nmse_db=float(rec["nmse_db"]),
                iterations=int(rec["iterations"]),
                wall_time_seconds=float(rec["wall_time_seconds"]),
                err_sq=float(rec["err_sq"]),
                signal_sq=float(rec["signal_sq"]),
                failed=int(rec["failed"])))
    return rows
