import math

import numpy as np
import pytest

import rsvm.nuclear
from rsvm.kronops import vec
from rsvm.nuclear import (
    NuclearConfig,
    _fista,
    delta_from_sigma,
    largest_gram_eigenvalue,
    nuclear_norm,
    solve_constrained,
    solve_lagrangian,
    svt_prox,
)
from rsvm.sensing import (
    MeasurementOperator,
    completion_operator,
    gaussian_operator,
    generate_low_rank,
    measure,
)


@pytest.mark.parametrize("field", ["bisect_tol"])
@pytest.mark.parametrize("flag", [True, False])
def test_bool_tolerance_rejected(field, flag):
    # 0 < True holds, so a JSON true would otherwise pass as tolerance 1
    with pytest.raises(ValueError, match="not bools"):
        NuclearConfig(**{field: flag})


def identity_instance(y_matrix, sigma_n=0.0):
    p, q = y_matrix.shape
    op = MeasurementOperator("completion", p, q, vec_indices=np.arange(p * q))
    inst = measure(op, y_matrix, 0.0, 0)
    inst.sigma_n = sigma_n
    return inst


class TestSvtProx:
    def test_diagonal_thresholding(self):
        out, nuc = svt_prox(np.diag([3.0, 1.0]), 2.0)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)
        assert nuc == pytest.approx(1.0, rel=1e-12)

    def test_zero_tau_is_identity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 5))
        out, nuc = svt_prox(x, 0.0)
        np.testing.assert_array_equal(out, x)
        assert nuc == nuclear_norm(x)

    def test_large_tau_zeroes(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 5))
        top = np.linalg.svd(x, compute_uv=False)[0]
        np.testing.assert_allclose(svt_prox(x, top + 1.0)[0], 0.0, atol=1e-12)

    def test_singular_values_shift(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 4))
        tau = 0.6
        s_in = np.linalg.svd(x, compute_uv=False)
        out, nuc = svt_prox(x, tau)
        s_out = np.linalg.svd(out, compute_uv=False)
        np.testing.assert_allclose(s_out, np.maximum(s_in - tau, 0.0),
                                   atol=1e-10)
        assert nuc == pytest.approx(s_out.sum(), rel=1e-12)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            svt_prox(np.eye(2), -1.0)


class TestLagrangian:
    def test_huge_lambda_gives_zero(self):
        rng = np.random.default_rng(4)
        inst = identity_instance(rng.standard_normal((3, 4)))
        lam = 1e6 * np.linalg.norm(inst.operator.apply_adjoint(inst.y))
        out = solve_lagrangian(inst, lam)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_tiny_lambda_identity_recovers_y(self):
        rng = np.random.default_rng(5)
        ym = rng.standard_normal((3, 3))
        inst = identity_instance(ym)
        out = solve_lagrangian(inst, 1e-8)
        np.testing.assert_allclose(out, ym, atol=1e-6)

    def test_identity_operator_matches_prox(self):
        # with A = I the minimizer is the soft-threshold of unvec(y)
        rng = np.random.default_rng(6)
        ym = rng.standard_normal((4, 4))
        inst = identity_instance(ym)
        lam = 0.8
        out = solve_lagrangian(inst, lam)
        np.testing.assert_allclose(out, svt_prox(ym, lam)[0], rtol=1e-6,
                                   atol=1e-8)

    @pytest.mark.parametrize("p, q, m, seed", [
        (5, 6, 18, 8), (15, 15, 67, 22)], ids=["5x6-m18", "15x15-m67"])
    def test_objective_monotone(self, p, q, m, seed):
        # 15x15-m67: the top two Gram eigenvalues are close, so an
        # iterative estimate of the step's Lipschitz constant falls short
        x = generate_low_rank(p, q, 2, 7)
        op = gaussian_operator(p, q, m, seed)
        inst = measure(op, x, 0.05, 9)
        hist = []
        _fista(inst, 0.3, np.zeros((p, q)), largest_gram_eigenvalue(op),
               objectives=hist)
        assert all(b <= a + 1e-10 * abs(a) for a, b in zip(hist, hist[1:]))

    def test_lambda_must_be_positive(self):
        inst = identity_instance(np.eye(2))
        for lam in (0.0, math.nan):
            with pytest.raises(ValueError, match="lam must be positive"):
                solve_lagrangian(inst, lam)


class TestPowerIteration:
    def test_completion_gram_eigenvalue_is_one(self):
        op = completion_operator(4, 5, 11, 10)
        assert abs(largest_gram_eigenvalue(op) - 1.0) <= 1e-10

    @pytest.mark.parametrize("p, q, m, seed", [
        (3, 4, 8, 11), (15, 15, 67, 22)], ids=["3x4-m8", "15x15-m67"])
    def test_matches_dense_spectrum(self, p, q, m, seed):
        # 15x15-m67: close top eigenvalues; 200 power steps are 5.4e-3 low
        op = gaussian_operator(p, q, m, seed)
        expected = np.linalg.norm(op.matrix, 2) ** 2
        assert abs(largest_gram_eigenvalue(op) - expected) <= 1e-12 * expected

    def test_empty_dense_operator(self):
        op = MeasurementOperator("dense", 2, 3, matrix=np.zeros((0, 6)))
        assert largest_gram_eigenvalue(op) == 0.0


class TestConstrained:
    def test_fista_runs_svt_prox(self, monkeypatch):
        # every FISTA step soft-thresholds through the svt_prox tested above
        taus = []
        real = rsvm.nuclear.svt_prox

        def spy(x, tau):
            taus.append(tau)
            return real(x, tau)

        monkeypatch.setattr(rsvm.nuclear, "svt_prox", spy)
        inst = measure(completion_operator(6, 8, 34, 18),
                       generate_low_rank(6, 8, 2, 17), 0.1, 19)
        est = solve_constrained(inst, delta_from_sigma(34, 0.1))
        assert est.iterations > 0
        assert len(taus) >= est.iterations
        assert all(tau > 0 for tau in taus)

    def test_huge_delta_returns_zero(self):
        rng = np.random.default_rng(12)
        inst = identity_instance(rng.standard_normal((3, 3)))
        est = solve_constrained(inst, float(np.linalg.norm(inst.y)) + 1.0)
        np.testing.assert_array_equal(est.x_hat, 0.0)
        assert est.converged

    def test_zero_delta_identity_noiseless(self):
        rng = np.random.default_rng(13)
        ym = rng.standard_normal((3, 4))
        inst = identity_instance(ym)
        est = solve_constrained(inst, 0.0)
        np.testing.assert_allclose(est.x_hat, ym, atol=1e-6)

    def test_noiseless_completion_recovery(self):
        x = generate_low_rank(10, 10, 1, 14)
        op = completion_operator(10, 10, 80, 15)
        inst = measure(op, x, 0.0, 16)
        est = solve_constrained(inst, 1e-9)
        err = np.sum((x - est.x_hat) ** 2) / np.sum(x * x)
        assert err < 1e-3

    def test_constraint_met_at_tolerance(self):
        x = generate_low_rank(6, 8, 2, 17)
        op = completion_operator(6, 8, 34, 18)
        inst = measure(op, x, 0.1, 19)
        delta = delta_from_sigma(34, 0.1)
        cfg = NuclearConfig()
        est = solve_constrained(inst, delta, cfg)
        resid = np.linalg.norm(inst.y - inst.operator.apply(vec(est.x_hat)))
        assert est.converged
        assert abs(resid - delta) <= cfg.bisect_tol * delta

    def test_feasible_floor_weight_within_tolerance(self):
        # the residual first drops below delta at the floor weight, within
        # the tolerance: that solution is the answer, not a bisection above
        ym = np.random.default_rng(0).standard_normal((3, 4))
        inst = identity_instance(ym)
        delta = 1.0002 * np.linalg.norm(ym - svt_prox(ym, 1e-8)[0])
        est = solve_constrained(inst, delta)
        resid = np.linalg.norm(inst.y - inst.operator.apply(vec(est.x_hat)))
        assert est.converged
        assert resid <= delta

    def test_bad_delta_rejected(self):
        inst = identity_instance(np.eye(2))
        for delta in (-1.0, math.nan):
            with pytest.raises(ValueError, match="delta must be >= 0"):
                solve_constrained(inst, delta)

    def test_residual_monotone_in_lambda(self):
        x = generate_low_rank(4, 5, 1, 20)
        op = gaussian_operator(4, 5, 12, 21)
        inst = measure(op, x, 0.05, 22)
        resids = []
        for lam in (1e-4, 1e-3, 1e-2, 1e-1, 1.0):
            sol = solve_lagrangian(inst, lam)
            resids.append(np.linalg.norm(
                inst.y - inst.operator.apply(vec(sol))))
        assert all(b >= a - 1e-8 for a, b in zip(resids, resids[1:]))

    def test_nuclear_norm_monotone_in_delta(self):
        x = generate_low_rank(5, 5, 2, 23)
        op = completion_operator(5, 5, 18, 24)
        inst = measure(op, x, 0.1, 25)
        norms = []
        base = float(np.linalg.norm(inst.y))
        for frac in (0.05, 0.2, 0.4, 0.7):
            est = solve_constrained(inst, frac * base)
            norms.append(nuclear_norm(est.x_hat))
        assert all(b <= a + 1e-6 for a, b in zip(norms, norms[1:]))


class TestDeltaFromSigma:
    def test_frozen_value(self):
        # 0.1 * sqrt(100 + sqrt(800)) evaluated by hand
        expected = 0.1 * math.sqrt(100.0 + math.sqrt(800.0))
        assert abs(expected - 1.1326265) <= 1e-6
        assert abs(delta_from_sigma(100, 0.1) - expected) <= 1e-15

    def test_zero_sigma(self):
        assert delta_from_sigma(50, 0.0) == 0.0

    def test_bad_sigma_rejected(self):
        for sigma_n in (-0.1, math.nan):
            with pytest.raises(ValueError, match="sigma_n must be >= 0"):
                delta_from_sigma(10, sigma_n)

    def test_small_m_value(self):
        assert abs(delta_from_sigma(2, 1.0) - math.sqrt(6.0)) <= 1e-12
