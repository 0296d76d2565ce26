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
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import accel, nuclear, symmetric
from .core import (Hyperparameters, SolverDivergenceError, require_count,
                   solve)
from .kronops import FactorizationError
from .sensing import (
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
        for name, kinds, what in (
                ("algorithms", (list, tuple), "a list of names"),
                ("psd_truth", bool, "true or false"),
                ("record_timing", bool, "true or false"),
                ("output_path", (str, type(None)), "a path string")):
            if not isinstance(getattr(self, name), kinds):
                raise ConfigError(
                    f"{name} must be {what}, got {getattr(self, name)!r}")
        self.algorithms = tuple(self.algorithms)
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {name!r}")
        if not self.algorithms:
            raise ConfigError("no algorithms selected")
        if not _is_integer(self.seed) or self.seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not _is_real(self.snr_db):
            raise ConfigError(f"snr_db must be a number, got {self.snr_db!r}")
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
        for value in self.sweep_values():
            _point_params(self, value)

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
    """10 log10(ratio): -inf at 0, NaN (a failed trial) at NaN."""
    return 10.0 * math.log10(ratio) if ratio != 0 else -math.inf


def m_from_fraction(p: int, q: int, frac: float) -> int:
    """Measurement count floor(frac * p * q), robust to float slop."""
    return int(math.floor(frac * p * q + 1e-9))


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) \
        and math.isfinite(value)


def _point_params(cfg: ExperimentConfig, value):
    """(p, q, r, m) at one sweep point; ConfigError when it is out of range."""
    params = {name: getattr(cfg, name) for name in SWEEPABLE}
    params[cfg.sweep_axis] = value
    p, q, r, frac = (params[name] for name in SWEEPABLE)
    where = f"at {cfg.sweep_axis}={value!r}"
    if not all(_is_integer(v) for v in (p, q, r)):
        raise ConfigError(f"p, q and r must be integers, got {p!r}, {q!r}, "
                          f"{r!r} {where}")
    if not 1 <= r <= min(p, q):
        raise ConfigError(f"need 1 <= r <= min(p, q), got r={r} for "
                          f"{p}x{q} {where}")
    if not _is_real(frac):
        raise ConfigError(f"m_fraction must be a number, got {frac!r} {where}")
    m = m_from_fraction(p, q, frac)
    if m < 1 or cfg.scenario == "completion" and m > p * q:
        raise ConfigError(f"m={m} is out of range for {cfg.scenario} "
                          f"{p}x{q} {where}")
    if p != q and (cfg.psd_truth or "rsvm-symmetric" in cfg.algorithms):
        what = "psd_truth" if cfg.psd_truth else "rsvm-symmetric"
        raise ConfigError(f"{what} needs p == q, got {p}x{q} {where}")
    try:
        sigma_n = _noise_sigma(cfg.scenario, p, q, r, m, cfg.snr_db)
    except (OverflowError, ValueError):  # 10^(snr_db/10) overflows or is 0
        sigma_n = math.nan
    if not 0 < sigma_n < math.inf:
        raise ConfigError(f"snr_db={cfg.snr_db!r} gives no finite positive "
                          f"noise level {where}")
    return p, q, r, m


def _noise_sigma(scenario, p, q, r, m, snr_db) -> float:
    """The noise level of :func:`noise_sigma_for_snr` at snr_db decibels."""
    return noise_sigma_for_snr(scenario, p, q, r, m, 10.0 ** (snr_db / 10.0))


def make_instance(scenario, p, q, r, m, snr_db, psd_truth,
                  truth_seed, op_seed, noise_seed):
    """The low-rank truth (PSD when psd_truth), the scenario's operator with
    m measurements, and noise at snr_db; one RNG seed per part."""
    if psd_truth:
        left = np.random.default_rng(truth_seed).standard_normal((p, r))
        truth = left @ left.T
    else:
        truth = generate_low_rank(p, q, r, truth_seed)
    if scenario == "completion":
        op = completion_operator(p, q, m, op_seed)
    else:
        op = gaussian_operator(p, q, m, op_seed)
    return measure(op, truth, _noise_sigma(scenario, p, q, r, m, snr_db),
                   noise_seed)


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
    seed = [cfg.seed, sweep_idx, mat_idx]
    inst = make_instance(cfg.scenario, p, q, r, m, cfg.snr_db, cfg.psd_truth,
                         seed + [0], seed + [noise_idx, 1],
                         seed + [noise_idx, 2])
    truth = inst.ground_truth
    signal_sq = float(np.sum(truth * truth))
    rows = []
    for name in cfg.algorithms:
        start = time.perf_counter()
        try:
            est = run_algorithm(name, inst, cfg)
        except SOLVER_FAILURES:
            est = None
        elapsed = time.perf_counter() - start
        err_sq = math.nan if est is None \
            else float(np.sum((truth - est.x_hat) ** 2))
        ratio = err_sq / signal_sq
        rows.append(ResultRow(
            scenario=cfg.scenario, algorithm=name, p=p, q=q, r=r, m=m,
            trial_matrix=mat_idx, trial_noise=noise_idx,
            nmse_linear=ratio, nmse_db=to_db(ratio),
            iterations=0 if est is None else est.iterations,
            wall_time_seconds=elapsed if cfg.record_timing else 0.0,
            err_sq=err_sq, signal_sq=signal_sq, failed=int(est is None)))
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


def aggregate(rows) -> list[AggregateRow]:
    """Ratio-of-means NMSE per (sweep point, algorithm), in dB.

    The sweep point is p, q or r when it varies across the rows, else
    m/pq: a sweep varies exactly one axis, and m moves with p and q. Failed
    rows are excluded from the means and counted separately; a group whose
    every trial failed keeps its row, with NaN means. The mean-of-ratios
    variant is emitted alongside for reference.
    """
    axis = next((name for name in ("p", "q", "r")
                 if len({getattr(row, name) for row in rows}) > 1), None)
    groups: dict[tuple, list[ResultRow]] = {}
    for row in rows:
        value = float(getattr(row, axis)) if axis else row.m / (row.p * row.q)
        groups.setdefault((value, row.algorithm), []).append(row)
    out = []
    for (value, alg) in sorted(groups):
        grp = groups[(value, alg)]
        good = [row for row in grp if not row.failed]
        ratio = mean_ratio = wall = float("nan")
        if good:
            ratio = sum(r.err_sq for r in good) \
                / sum(r.signal_sq for r in good)
            mean_ratio = sum(r.nmse_linear for r in good) / len(good)
            wall = sum(r.wall_time_seconds for r in good) / len(good)
        out.append(AggregateRow(
            sweep_value=value, algorithm=alg, nmse_db=to_db(ratio),
            n_trials=len(grp), n_failures=len(grp) - len(good),
            mean_wall_time=wall, nmse_db_mean_of_ratios=to_db(mean_ratio)))
    return out


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def write_csv(items, path) -> None:
    """Emit result or aggregate rows, 6 significant digits, stable order.

    The columns are the dataclass fields, in order."""
    items = list(items)
    names = [f.name for f in fields(type(items[0]) if items else ResultRow)]
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for item in items:
            fh.write(",".join(_fmt(getattr(item, n)) for n in names) + "\n")


def read_rows_csv(path) -> list[ResultRow]:
    types = get_type_hints(ResultRow)
    with Path(path).open() as fh:
        return [ResultRow(**{name: parse(rec[name])
                             for name, parse in types.items()})
                for rec in csv.DictReader(fh)]
