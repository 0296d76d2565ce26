"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. The quantitative benchmark criteria run the full 10x10
trial grids and take tens of minutes combined; run with `pytest -s
tests/test_acceptance.py` to watch the lines appear."""

import time

import numpy as np
from numpy import kron

from rsvm.accel import block_descent, partition_blocks
from rsvm.bench import ExperimentConfig, aggregate, run_experiment, write_csv
from rsvm.core import (
    Hyperparameters,
    PrecisionState,
    SolverState,
    balance_precisions,
    map_estimate,
    solve,
)
from rsvm.kronops import vec
from rsvm.sensing import (
    completion_operator,
    gaussian_operator,
    generate_low_rank,
    measure,
    noise_sigma_for_snr,
)

from naive_oracles import naive_sigma_left, naive_sigma_right, nearest_kron_sum, posterior_covariance, random_spd, trace_contract_left, trace_contract_right


def report(number, description, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {number:2d} {tag}: {description}{suffix}")
    assert passed, f"criterion {number} failed: {description}{suffix}"


def gap_table(rows):
    """(sweep value -> algorithm -> aggregate NMSE dB) plus failure count."""
    table = {}
    failures = 0
    for agg in aggregate(rows):
        table.setdefault(agg.sweep_value, {})[agg.algorithm] = agg.nmse_db
        failures += agg.n_failures
    return table, failures


def test_criterion_01_kron_trace_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for p in range(2, 6):
        for q in range(2, 6):
            sigma = random_spd(rng, p * q)
            ar = random_spd(rng, q)
            al = random_spd(rng, p)
            ref_r = naive_sigma_right(sigma, ar, p, q)
            ref_l = naive_sigma_left(sigma, al, p, q)
            err_r = (np.abs(trace_contract_right(sigma, ar) - ref_r).max()
                     / np.abs(ref_r).max())
            err_l = (np.abs(trace_contract_left(sigma, al) - ref_l).max()
                     / np.abs(ref_l).max())
            x = rng.standard_normal((p, q))
            lhs = np.trace(al @ x @ ar @ x.T)
            rhs = vec(x) @ kron(ar, al) @ vec(x)
            err_v = abs(lhs - rhs) / abs(lhs)
            worst = max(worst, err_r, err_l, err_v)
    elapsed = time.perf_counter() - start
    report(1, "trace contractions and vec identity vs naive oracles",
           worst <= 1e-10 and elapsed < 10.0,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_woodbury_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for k in range(50):
        p = int(rng.integers(2, 7))
        q = int(rng.integers(2, 7))
        m = int(rng.integers(1, p * q + 1))
        op = gaussian_operator(p, q, m, [202, k])
        al = random_spd(rng, p)
        ar = random_spd(rng, q)
        beta = float(rng.uniform(0.2, 5.0))
        direct = posterior_covariance(al, ar, op, beta, method="direct")
        wood = posterior_covariance(al, ar, op, beta, method="woodbury")
        worst = max(worst, np.abs(direct - wood).max() / np.abs(direct).max())
    elapsed = time.perf_counter() - start
    report(2, "posterior covariance direct vs Woodbury on 50 instances",
           worst <= 1e-8 and elapsed < 30.0,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_block_descent_exactness():
    start = time.perf_counter()
    p, q = 6, 8
    worst = 0.0
    for n_blocks in (2, 4):
        inst = measure(completion_operator(p, q, 34, [303, n_blocks]),
                       generate_low_rank(p, q, 2, [304, n_blocks]),
                       0.1, [305, n_blocks])
        rng = np.random.default_rng([306, n_blocks])
        prec = PrecisionState(random_spd(rng, p), random_spd(rng, q), 1.5)
        state = SolverState(np.zeros((p, q)), None, prec)
        x_full, _ = map_estimate(state, inst)
        x, _ = block_descent(inst, partition_blocks(q, n_blocks), 400)(state)
        rel = (np.linalg.norm(x - x_full, "fro")
               / np.linalg.norm(x_full, "fro"))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    report(3, "fixed-precision block descent reaches the joint MAP",
           worst <= 1e-6 and elapsed < 60.0,
           f"max rel gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_balancing_identities():
    rng = np.random.default_rng(404)
    worst_bal = 0.0
    worst_map = 0.0
    inst = measure(gaussian_operator(4, 5, 12, 405),
                   generate_low_rank(4, 5, 2, 406), 0.1, 407)
    for k in range(20):
        prec = PrecisionState(random_spd(rng, 4), random_spd(rng, 5), 1.0)
        x = rng.standard_normal((4, 5))
        after = balance_precisions(prec, x)
        fx2 = np.linalg.norm(x, "fro") ** 2
        prod = (np.trace(np.linalg.inv(after.alpha_l))
                * np.trace(np.linalg.inv(after.alpha_r)))
        worst_bal = max(worst_bal, abs(prod - fx2) / fx2)
        nl = np.linalg.norm(after.alpha_l, "fro")
        nr = np.linalg.norm(after.alpha_r, "fro")
        worst_bal = max(worst_bal, abs(nl - nr) / nr)

        c = float(rng.uniform(0.05, 20.0))
        s1 = SolverState(np.zeros((4, 5)), None,
                         PrecisionState(prec.alpha_l, prec.alpha_r, 1.2))
        s2 = SolverState(np.zeros((4, 5)), None,
                         PrecisionState(c * prec.alpha_l,
                                        prec.alpha_r / c, 1.2))
        x1, _ = map_estimate(s1, inst)
        x2, _ = map_estimate(s2, inst)
        worst_map = max(worst_map,
                        np.abs(x1 - x2).max() / np.abs(x1).max())
    report(4, "balancing identities and MAP rescale invariance",
           worst_bal <= 1e-8 and worst_map <= 1e-10,
           f"balance err {worst_bal:.2e}, map err {worst_map:.2e}")


def test_criterion_05_completion_benchmark():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        scenario="completion", p=15, q=30, r=3,
        m_fraction=[0.4, 0.5, 0.6, 0.7], snr_db=20.0,
        n_matrices=10, n_measurements=10,
        algorithms=("rsvm", "nuclear"), seed=2024)
    rows = run_experiment(cfg)
    table, failures = gap_table(rows)
    gaps = {v: table[v]["nuclear"] - table[v]["rsvm"] for v in sorted(table)}
    detail = ", ".join(
        f"m/pq={v:g}: rsvm {table[v]['rsvm']:.1f} dB vs nuclear "
        f"{table[v]['nuclear']:.1f} dB (gap {gaps[v]:.1f})"
        for v in sorted(table))
    elapsed = time.perf_counter() - start
    report(5, "completion sweep: solver at least 2 dB below nuclear",
           all(g >= 2.0 for g in gaps.values()) and failures == 0,
           detail + f", {elapsed:.0f}s")


def test_criterion_06_reconstruction_benchmark():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        scenario="reconstruction", p=15, q=15, r=2,
        m_fraction=[0.3, 0.4, 0.5, 0.6], snr_db=20.0,
        n_matrices=10, n_measurements=10,
        algorithms=("rsvm", "rsvm-accel", "nuclear"), seed=2025)
    rows = run_experiment(cfg)
    table, failures = gap_table(rows)
    gaps = {v: table[v]["nuclear"] - table[v]["rsvm"] for v in sorted(table)}
    detail = ", ".join(
        f"m/pq={v:g}: rsvm {table[v]['rsvm']:.1f} / accel "
        f"{table[v]['rsvm-accel']:.1f} / nuclear {table[v]['nuclear']:.1f} dB"
        for v in sorted(table))
    elapsed = time.perf_counter() - start
    report(6, "reconstruction sweep: solver at least 3 dB below nuclear",
           all(g >= 3.0 for g in gaps.values()) and failures == 0,
           detail + f", {elapsed:.0f}s")


def test_criterion_07_rank_sweep_benchmark():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        scenario="reconstruction", p=15, q=15, r=[3, 4, 5, 6],
        m_fraction=0.7, snr_db=20.0,
        n_matrices=10, n_measurements=10,
        algorithms=("rsvm", "rsvm-accel", "nuclear"), seed=2026)
    rows = run_experiment(cfg)
    table, failures = gap_table(rows)
    ok = True
    parts = []
    for v in sorted(table):
        g_rsvm = table[v]["nuclear"] - table[v]["rsvm"]
        g_accel = table[v]["nuclear"] - table[v]["rsvm-accel"]
        ok = ok and g_rsvm >= 2.0 and g_accel >= 2.0
        parts.append(f"r={int(v)}: gaps rsvm {g_rsvm:.1f} / accel "
                     f"{g_accel:.1f} dB")
    elapsed = time.perf_counter() - start
    report(7, "rank sweep: solver and accelerated variant 2 dB below nuclear",
           ok and failures == 0, ", ".join(parts) + f", {elapsed:.0f}s")


def test_criterion_08_exact_recovery():
    start = time.perf_counter()
    x = generate_low_rank(10, 10, 1, 42)
    inst = measure(completion_operator(10, 10, 80, 43), x, 0.0, 44)
    est = solve(inst)
    db_partial = 10 * np.log10(np.sum((x - est.x_hat) ** 2) / np.sum(x * x))

    inst_full = measure(completion_operator(10, 10, 100, 43), x, 0.0, 44)
    est_full = solve(inst_full)
    db_full = 10 * np.log10(
        np.sum((x - est_full.x_hat) ** 2) / np.sum(x * x))
    elapsed = time.perf_counter() - start
    report(8, "noiseless exact recovery",
           db_partial < -40.0 and db_full < -60.0 and elapsed < 60.0,
           f"m/pq=0.8: {db_partial:.1f} dB, fully observed: {db_full:.1f} dB,"
           f" {elapsed:.1f}s")


def test_criterion_09_symmetric_variant():
    from rsvm.symmetric import solve_symmetric

    num = den = 0.0
    for k in range(5):
        rng = np.random.default_rng([909, k])
        left = rng.standard_normal((10, 2))
        x = left @ left.T
        op = completion_operator(10, 10, 70, [910, k])
        sn = noise_sigma_for_snr("completion", 10, 10, 2, 70, 100.0)
        inst = measure(op, x, sn, [911, k])
        est = solve_symmetric(inst)
        num += np.sum((x - est.x_hat) ** 2)
        den += np.sum(x * x)
    db = 10 * np.log10(num / den)

    rng = np.random.default_rng(912)
    sigma = random_spd(rng, 100)
    ks = nearest_kron_sum(sigma, 10, 100)
    rec_err = (np.linalg.norm(ks.reconstruct() - sigma, "fro")
               / np.linalg.norm(sigma, "fro"))
    report(9, "symmetric variant recovery and exact Kronecker-sum expansion",
           db < -20.0 and rec_err < 1e-10,
           f"NMSE {db:.1f} dB over 5 trials, reconstruction err {rec_err:.1e}")


def test_criterion_10_determinism(tmp_path):
    base = dict(scenario="completion", p=6, q=8, r=1, m_fraction=[0.5, 0.75],
                n_matrices=2, n_measurements=2,
                algorithms=("rsvm", "nuclear"), seed=99,
                hyper=Hyperparameters(max_iter=6), record_timing=False)
    paths = []
    for tag, jobs in (("serial_a", 1), ("serial_b", 1), ("parallel", 3)):
        cfg = ExperimentConfig(**base, jobs=jobs)
        path = tmp_path / f"{tag}.csv"
        write_csv(run_experiment(cfg), path)
        paths.append(path.read_bytes())
    byte_identical = paths[0] == paths[1] == paths[2]

    # with timing on, everything except the wall-time column still matches
    cfg_t = ExperimentConfig(**{**base, "record_timing": True})
    rows_a = run_experiment(cfg_t)
    rows_b = run_experiment(cfg_t)
    stable = all(
        (a.scenario, a.algorithm, a.p, a.q, a.r, a.m, a.trial_matrix,
         a.trial_noise, a.nmse_linear, a.nmse_db, a.iterations, a.err_sq,
         a.signal_sq, a.failed)
        == (b.scenario, b.algorithm, b.p, b.q, b.r, b.m, b.trial_matrix,
            b.trial_noise, b.nmse_linear, b.nmse_db, b.iterations, b.err_sq,
            b.signal_sq, b.failed)
        for a, b in zip(rows_a, rows_b))
    report(10, "byte-identical sweep CSV across reruns and thread counts",
           byte_identical and stable,
           "timing column zeroed for the byte comparison")
