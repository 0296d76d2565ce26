"""Each benchmark check accepts a right answer and rejects a wrong one.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
from rsvm.core import Hyperparameters, init_state, map_estimate  # noqa: E402
from rsvm.nuclear import solve_constrained  # noqa: E402
from rsvm.sensing import (completion_operator, gaussian_operator,  # noqa: E402
                          generate_low_rank, measure, noise_sigma_for_snr)


def instance(kind, seed=3, p=6, q=8, r=2, m=30):
    make = completion_operator if kind == "completion" else gaussian_operator
    sigma_n = noise_sigma_for_snr(kind, p, q, r, m, 100.0)
    return measure(make(p, q, m, [seed, 1]), generate_low_rank(p, q, r, [seed, 0]),
                   sigma_n, [seed, 2])


def raw(inst):
    return inst.operator.vec_indices, inst.operator.matrix


def test_forward_matches_operator():
    for kind in ("completion", "reconstruction"):
        inst = instance(kind)
        x = inst.ground_truth
        np.testing.assert_allclose(checks.forward(x, *raw(inst)),
                                   inst.operator.forward(x), rtol=1e-13)


def test_shape_finite():
    x = np.ones((3, 4))
    assert checks.check_shape_finite(x, 3, 4) is None
    assert checks.check_shape_finite(np.zeros((4, 3)), 3, 4)
    x[1, 2] = np.nan
    assert checks.check_shape_finite(x, 3, 4)


def test_symmetric():
    left = np.random.default_rng(0).standard_normal((5, 2))
    x = left @ left.T
    assert checks.check_symmetric(x) is None
    x[0, 1] += 1e-6
    assert checks.check_symmetric(x)


@pytest.mark.parametrize("kind", ["completion", "reconstruction"])
def test_nuclear_checks_reject_scaled_solution(kind):
    inst = instance(kind)
    delta = checks.constraint_radius(inst.m, inst.sigma_n)
    est = solve_constrained(inst, delta)
    assert est.converged
    tol = 1e-3
    truth = inst.ground_truth
    assert np.linalg.norm(inst.y - checks.forward(truth, *raw(inst))) <= delta
    args = (inst.y, *raw(inst), delta)
    assert checks.check_nuclear_residual(est.x_hat, *args, tol) is None
    assert checks.check_nuclear_residual(1.2 * est.x_hat, *args, tol)
    assert checks.check_nuclear_norm_bound(est.x_hat, truth, *args) is None
    above = 1.01 * checks.nuclear_norm(truth) / checks.nuclear_norm(est.x_hat)
    assert checks.check_nuclear_norm_bound(above * est.x_hat, truth, *args)


def test_nuclear_norm_bound_skips_infeasible_truth():
    inst = instance("completion")
    assert checks.check_nuclear_norm_bound(10 * inst.ground_truth,
                                           inst.ground_truth, inst.y,
                                           *raw(inst), delta=0.0) is None


def test_zero_estimate_loses_to_baseline():
    inst = instance("completion")
    truth = inst.ground_truth
    signal = float(np.sum(truth ** 2))
    est = solve_constrained(inst, checks.constraint_radius(inst.m, inst.sigma_n))
    baseline = checks.snr_db(float(np.sum((truth - est.x_hat) ** 2)), signal)
    zero = checks.snr_db(float(np.sum(truth ** 2)), signal)
    assert zero == 0.0 < baseline
    assert checks.check_beats_baseline("rsvm", zero, baseline)
    assert checks.check_beats_baseline("rsvm", baseline + 1.0, baseline) is None


@pytest.mark.parametrize("kind,m", [("completion", 20), ("completion", 40),
                                    ("reconstruction", 30)])
def test_posterior_mean_oracle(kind, m):
    inst = instance(kind, m=m)
    state = init_state(inst, Hyperparameters())
    state.precisions.alpha_l = np.diag(np.linspace(0.5, 2.0, inst.p))
    x, _ = map_estimate(state, inst)
    prec = state.precisions
    args = (prec.alpha_l, prec.alpha_r, prec.beta, inst.y, *raw(inst))
    assert checks.check_posterior_mean(x, *args) is None
    assert checks.check_posterior_mean(x * (1 + 1e-6), *args)


def test_benchmark_json_matches_run():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
