import numpy as np
import pytest
from numpy import kron
from hypothesis import given, settings
from hypothesis import strategies as st

from rsvm import core
from rsvm.accel import solve_accelerated
from rsvm.core import (
    EPSILON,
    GAMMA_C,
    GAMMA_D,
    Hyperparameters,
    PrecisionState,
    SolverDivergenceError,
    SolverState,
    balance_precisions,
    effective_rank,
    init_state,
    iterate,
    map_estimate,
    neg_log_joint,
    solve,
    update_noise_precision,
    update_precisions,
)
from rsvm.kronops import Prior, vec
from rsvm.sensing import (
    MeasurementOperator,
    completion_operator,
    gaussian_operator,
    generate_low_rank,
    measure,
    noise_sigma_for_snr,
)
from rsvm.symmetric import solve_symmetric

from naive_oracles import (
    DenseCovariance,
    dense_map_solve,
    dense_operator,
    densify,
    naive_sigma_left,
    naive_sigma_right,
    random_spd,
)


def identity_operator(p, q):
    return MeasurementOperator("completion", p, q,
                               vec_indices=np.arange(p * q))


# the three Bayesian solvers, all built on core.iterate
SOLVERS = {"rsvm": solve, "rsvm-accel": solve_accelerated,
           "rsvm-symmetric": solve_symmetric}


def small_instance(seed=0, p=3, q=3, m=5, noise=0.1):
    x = generate_low_rank(p, q, 1, [seed, 0])
    op = gaussian_operator(p, q, m, [seed, 1])
    return measure(op, x, noise, [seed, 2])


class TestInitState:
    def test_identity_precisions(self):
        inst = small_instance()
        state = init_state(inst, Hyperparameters())
        np.testing.assert_array_equal(state.precisions.alpha_l, np.eye(3))
        np.testing.assert_array_equal(state.precisions.alpha_r, np.eye(3))

    def test_beta_formula(self):
        op = completion_operator(2, 3, 4, 1)
        y = np.ones(4)  # ||y||^2 = m
        inst = measure(op, np.zeros((2, 3)), 0.0, 2)
        inst.y = y
        state = init_state(inst, Hyperparameters())
        assert abs(state.precisions.beta - 10.0) <= 1e-12

    def test_zero_y_fallback(self):
        op = completion_operator(2, 3, 4, 3)
        inst = measure(op, np.zeros((2, 3)), 0.0, 4)
        state = init_state(inst, Hyperparameters())
        assert state.precisions.beta == 1.0


class TestMapEstimate:
    def test_identity_operator_halves(self):
        p, q = 2, 3
        op = identity_operator(p, q)
        rng = np.random.default_rng(5)
        y = rng.standard_normal(p * q)
        inst = measure(op, np.zeros((p, q)), 0.0, 6)
        inst.y = y
        state = SolverState(np.zeros((p, q)), None,
                            PrecisionState(np.eye(p), np.eye(q), 1.0))
        x_hat, sigma = map_estimate(state, inst)
        np.testing.assert_allclose(vec(x_hat), y / 2.0, atol=1e-12)
        np.testing.assert_allclose(densify(sigma, p, q), 0.5 * np.eye(p * q),
                                   atol=1e-12)

    def test_tiny_beta_gives_prior_mean(self):
        inst = small_instance(7)
        state = SolverState(np.zeros((3, 3)), None,
                            PrecisionState(np.eye(3), np.eye(3), 1e-12))
        x_hat, _ = map_estimate(state, inst)
        assert np.abs(x_hat).max() <= 1e-9

    def test_matches_dense_normal_equations(self):
        inst = small_instance(8)
        rng = np.random.default_rng(9)
        prec = PrecisionState(random_spd(rng, 3), random_spd(rng, 3), 1.7)
        state = SolverState(np.zeros((3, 3)), None, prec)
        x_hat, _ = map_estimate(state, inst)
        ref = dense_map_solve(prec.alpha_l, prec.alpha_r,
                              dense_operator(inst.operator), inst.y, prec.beta)
        np.testing.assert_allclose(vec(x_hat), ref, rtol=1e-8)

    @pytest.mark.parametrize("side", ["alpha_l", "alpha_r"])
    def test_assigned_precision_replaces_factorization(self, side):
        # a state out of update_precisions carries factored priors; assigning
        # a matrix must re-factor it, or the mean would use the old prior
        inst = small_instance(12, p=4, q=3, m=7)
        state = init_state(inst, Hyperparameters())
        state.x_hat, state.sigma = map_estimate(state, inst)
        state.precisions = update_precisions(state)
        n = inst.p if side == "alpha_l" else inst.q
        setattr(state.precisions, side, np.diag(np.linspace(0.5, 2.0, n)))
        prec = state.precisions
        x_hat, _ = map_estimate(state, inst)
        ref = dense_map_solve(prec.alpha_l, prec.alpha_r,
                              dense_operator(inst.operator), inst.y, prec.beta)
        np.testing.assert_allclose(vec(x_hat), ref, rtol=1e-8)

    def test_linear_system_residual(self):
        inst = small_instance(10, p=4, q=3, m=7)
        rng = np.random.default_rng(11)
        prec = PrecisionState(random_spd(rng, 4), random_spd(rng, 3), 2.3)
        state = SolverState(np.zeros((4, 3)), None, prec)
        x_hat, _ = map_estimate(state, inst)
        a = dense_operator(inst.operator)
        mat = kron(prec.alpha_r, prec.alpha_l) + prec.beta * (a.T @ a)
        rhs = prec.beta * (a.T @ inst.y)
        resid = np.linalg.norm(mat @ vec(x_hat) - rhs)
        assert resid <= 1e-8 * np.linalg.norm(rhs)


class TestUpdatePrecisions:
    def test_zero_estimate_identity_sigma(self):
        p, q = 3, 4
        state = SolverState(np.zeros((p, q)), DenseCovariance(np.eye(p * q)),
                            PrecisionState(np.eye(p), np.eye(q), 1.0))
        prec = update_precisions(state)
        np.testing.assert_allclose(prec.alpha_l, np.eye(p) / (q + EPSILON),
                                   rtol=1e-12)

    def test_chained_alpha_r_value(self):
        # second half of the Gauss-Seidel pass evaluated from the formula
        p, q = 3, 4
        state = SolverState(np.zeros((p, q)), DenseCovariance(np.eye(p * q)),
                            PrecisionState(np.eye(p), np.eye(q), 1.0))
        prec = update_precisions(state)
        al_scalar = 1.0 / (q + EPSILON)
        expected_ar = 1.0 / (p * al_scalar + EPSILON)
        np.testing.assert_allclose(prec.alpha_r, expected_ar * np.eye(q),
                                   rtol=1e-12)

    def test_matches_naive_gauss_seidel(self):
        rng = np.random.default_rng(12)
        p = q = 3
        x = rng.standard_normal((p, q))
        sigma = random_spd(rng, p * q)
        al, ar = random_spd(rng, p), random_spd(rng, q)
        state = SolverState(x, DenseCovariance(sigma),
                            PrecisionState(al, ar, 1.0))
        prec = update_precisions(state)

        ref_al = np.linalg.inv(naive_sigma_right(sigma, ar, p, q)
                               + x @ ar @ x.T + EPSILON * np.eye(p))
        ref_ar = np.linalg.inv(naive_sigma_left(sigma, ref_al, p, q)
                               + x.T @ ref_al @ x + EPSILON * np.eye(q))
        np.testing.assert_allclose(prec.alpha_l, ref_al, rtol=1e-8)
        np.testing.assert_allclose(prec.alpha_r, ref_ar, rtol=1e-8)


class TestUpdateNoisePrecision:
    def test_perfect_fit(self):
        # choose x with A vec(x) == y via the identity operator
        p = q = 3
        op = identity_operator(p, q)
        inst = measure(op, np.zeros((p, q)), 0.0, 14)
        inst.y = np.arange(1.0, 10.0)
        x = np.asarray(op.adjoint(inst.y))
        sigma = DenseCovariance(0.5 * np.eye(9), op)
        state = SolverState(x, sigma, PrecisionState(np.eye(3), np.eye(3), 1.0))
        beta = update_noise_precision(state, inst)
        # (m + 2c) / (tr(A sigma A^T) + 2d)
        assert abs(beta - (9.0 + 2 * GAMMA_C) / (4.5 + 2 * GAMMA_D)) <= 1e-12

    def test_vanishing_sigma_gives_ml_estimate(self):
        inst = small_instance(15)
        state = SolverState(np.zeros((3, 3)),
                            DenseCovariance(1e-300 * np.eye(9), inst.operator),
                            PrecisionState(np.eye(3), np.eye(3), 1.0))
        beta = update_noise_precision(state, inst)
        expected = (inst.m + 2 * GAMMA_C) / (float(inst.y @ inst.y)
                                             + 2 * GAMMA_D)
        assert abs(beta - expected) <= 1e-10 * expected

    def test_matches_dense_formula(self):
        rng = np.random.default_rng(16)
        inst = small_instance(17, p=3, q=4, m=6)
        x = rng.standard_normal((3, 4))
        sigma = random_spd(rng, 12)
        state = SolverState(x, DenseCovariance(sigma, inst.operator),
                            PrecisionState(np.eye(3), np.eye(4), 1.0))
        beta = update_noise_precision(state, inst)
        a = dense_operator(inst.operator)
        resid = inst.y - a @ vec(x)
        expected = (inst.m + 2 * GAMMA_C) / (
            resid @ resid + np.trace(a @ sigma @ a.T) + 2 * GAMMA_D)
        assert abs(beta - expected) <= 1e-10 * expected

    def test_non_positive_denominator_is_divergence(self):
        # a covariance with negative trace is a numerical failure
        inst = small_instance(14)
        state = SolverState(np.zeros((3, 3)),
                            DenseCovariance(-1e6 * np.eye(9), inst.operator),
                            PrecisionState(np.eye(3), np.eye(3), 1.0))
        with pytest.raises(SolverDivergenceError):
            update_noise_precision(state, inst)


class TestBalancePrecisions:
    def test_fixed_point(self):
        p = 4
        x = np.zeros((p, p))
        x[0, 0] = p  # ||x||_F = p
        prec = balance_precisions(PrecisionState(np.eye(p), np.eye(p), 1.0), x)
        np.testing.assert_allclose(prec.alpha_l, np.eye(p), rtol=1e-12)
        np.testing.assert_allclose(prec.alpha_r, np.eye(p), rtol=1e-12)

    def test_ratio_rescaling(self):
        # alpha_l = 4I, alpha_r = I: h = sqrt(||I||_F / ||4I||_F) = 1/2,
        # and afterwards the Frobenius norms agree
        p = 3
        rng = np.random.default_rng(18)
        x = rng.standard_normal((p, p))
        before = PrecisionState(4.0 * np.eye(p), np.eye(p), 1.0)
        after = balance_precisions(before, x)
        h = np.sqrt(np.linalg.norm(before.alpha_r, "fro")
                    / np.linalg.norm(before.alpha_l, "fro"))
        assert abs(h - 0.5) <= 1e-12
        nl = np.linalg.norm(after.alpha_l, "fro")
        nr = np.linalg.norm(after.alpha_r, "fro")
        assert abs(nl - nr) <= 1e-8 * nr

    def test_postcondition_identities(self):
        rng = np.random.default_rng(19)
        for trial in range(5):
            p, q = rng.integers(2, 6), rng.integers(2, 6)
            prec = PrecisionState(random_spd(rng, p), random_spd(rng, q), 1.0)
            x = rng.standard_normal((p, q))
            after = balance_precisions(prec, x)
            fx2 = np.linalg.norm(x, "fro") ** 2
            prod = (np.trace(np.linalg.inv(after.alpha_l))
                    * np.trace(np.linalg.inv(after.alpha_r)))
            assert abs(prod - fx2) <= 1e-8 * fx2
            nl = np.linalg.norm(after.alpha_l, "fro")
            nr = np.linalg.norm(after.alpha_r, "fro")
            assert abs(nl - nr) <= 1e-8 * nr

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(p=st.integers(1, 6), q=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-3.0, 3.0),
           log_nu=st.floats(-3.0, 3.0))
    def test_balancing_property(self, p, q, seed, log_scale, log_nu):
        # After balancing, tr(alpha_l^-1) tr(alpha_r^-1) = ||X||_F^2 and
        # ||alpha_l||_F = ||alpha_r||_F; a common factor nu on both inputs
        # gives the same balanced pair, so no scale on the precision
        # updates can change an estimate.
        rng = np.random.default_rng(seed)
        prec = PrecisionState(random_spd(rng, p, 10.0 ** log_scale),
                              random_spd(rng, q), 1.0)
        x = rng.standard_normal((p, q))
        after = balance_precisions(prec, x)
        fx2 = np.linalg.norm(x, "fro") ** 2
        prod = (np.trace(np.linalg.inv(after.alpha_l))
                * np.trace(np.linalg.inv(after.alpha_r)))
        assert abs(prod - fx2) <= 1e-10 * fx2
        nl = np.linalg.norm(after.alpha_l, "fro")
        nr = np.linalg.norm(after.alpha_r, "fro")
        assert abs(nl - nr) <= 1e-10 * nr
        nu = 10.0 ** log_nu
        scaled = balance_precisions(
            PrecisionState(nu * prec.alpha_l, nu * prec.alpha_r, 1.0), x)
        for got, ref in ((scaled.alpha_l, after.alpha_l),
                         (scaled.alpha_r, after.alpha_r)):
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_zero_estimate_skips(self):
        prec = PrecisionState(2.0 * np.eye(2), np.eye(3), 1.0)
        after = balance_precisions(prec, np.zeros((2, 3)))
        assert after is prec


class TestNegLogJoint:
    def test_zero_estimate(self):
        inst = small_instance(20)
        state = SolverState(np.zeros((3, 3)), None,
                            PrecisionState(np.eye(3), np.eye(3), 2.0))
        val = neg_log_joint(state, inst)
        assert abs(val - float(inst.y @ inst.y)) <= 1e-12 * abs(val)

    def test_quadratic_term_kron_identity(self):
        rng = np.random.default_rng(21)
        p, q = 3, 4
        x = rng.standard_normal((p, q))
        al, ar = random_spd(rng, p), random_spd(rng, q)
        op = identity_operator(p, q)
        inst = measure(op, x, 0.0, 22)
        inst.y = op.forward(x)  # zero residual
        state = SolverState(x, None, PrecisionState(al, ar, 1.0))
        val = neg_log_joint(state, inst)
        expected = 0.5 * float(vec(x) @ kron(ar, al) @ vec(x))
        assert abs(val - expected) <= 1e-10 * abs(expected)


class TestSolveProperties:
    def test_map_is_minimizer(self):
        inst = small_instance(23, p=3, q=4, m=8)
        rng = np.random.default_rng(24)
        prec = PrecisionState(random_spd(rng, 3), random_spd(rng, 4), 1.3)
        state = SolverState(np.zeros((3, 4)), None, prec)
        x_hat, _ = map_estimate(state, inst)
        state.x_hat = x_hat
        base = neg_log_joint(state, inst)
        for _ in range(20):
            delta = rng.standard_normal((3, 4))
            delta *= 1e-3 / np.linalg.norm(delta, "fro")
            perturbed = SolverState(x_hat + delta, None, prec)
            assert neg_log_joint(perturbed, inst) \
                >= base - 1e-12

    def test_map_invariant_under_joint_rescaling(self):
        inst = small_instance(25, p=3, q=4, m=9)
        rng = np.random.default_rng(26)
        al, ar = random_spd(rng, 3), random_spd(rng, 4)
        for c in (0.1, 3.0, 250.0):
            s1 = SolverState(np.zeros((3, 4)), None,
                             PrecisionState(al, ar, 1.1))
            s2 = SolverState(np.zeros((3, 4)), None,
                             PrecisionState(c * al, ar / c, 1.1))
            x1, _ = map_estimate(s1, inst)
            x2, _ = map_estimate(s2, inst)
            np.testing.assert_allclose(x1, x2, rtol=1e-10)

    def test_precisions_stay_spd_and_beta_positive(self):
        inst = small_instance(27, p=4, q=5, m=12, noise=0.2)
        state = init_state(inst, Hyperparameters(max_iter=8))
        for _ in range(8):
            state.x_hat, state.sigma = map_estimate(state, inst)
            state.precisions = update_precisions(state)
            state.precisions = balance_precisions(state.precisions,
                                                  state.x_hat)
            state.precisions.beta = update_noise_precision(state, inst)
            assert np.linalg.eigvalsh(state.precisions.alpha_l).min() > 0
            assert np.linalg.eigvalsh(state.precisions.alpha_r).min() > 0
            assert state.precisions.beta > 0


class TestSolve:
    def test_noiseless_completion_recovery(self):
        x = generate_low_rank(10, 10, 1, 42)
        op = completion_operator(10, 10, 80, 43)
        inst = measure(op, x, 0.0, 44)
        est = solve(inst)
        err = np.sum((x - est.x_hat) ** 2) / np.sum(x * x)
        assert err < 1e-4

    def test_noiseless_longer_run_keeps_refining(self):
        x = generate_low_rank(10, 10, 1, 42)
        op = completion_operator(10, 10, 80, 43)
        inst = measure(op, x, 0.0, 44)
        short = solve(inst)
        long = solve(inst, Hyperparameters(max_iter=60))
        err_short = np.sum((x - short.x_hat) ** 2)
        err_long = np.sum((x - long.x_hat) ** 2)
        assert err_long < err_short
        assert long.trace[-1].effective_rank == 1

    def test_fully_observed_noiseless(self):
        x = generate_low_rank(10, 10, 2, 45)
        op = completion_operator(10, 10, 100, 46)
        inst = measure(op, x, 0.0, 47)
        est = solve(inst)
        err = np.sum((x - est.x_hat) ** 2) / np.sum(x * x)
        assert err < 1e-6

    def test_noisy_regime_beats_trivial(self):
        x = generate_low_rank(15, 30, 3, 48)
        op = completion_operator(15, 30, 315, 49)
        sigma = noise_sigma_for_snr("completion", 15, 30, 3, 315, 100.0)
        inst = measure(op, x, sigma, 50)
        est = solve(inst)
        err = np.sum((x - est.x_hat) ** 2) / np.sum(x * x)
        assert 10.0 * np.log10(err) < -10.0

    def test_deterministic_rerun(self):
        inst = small_instance(51, p=4, q=4, m=10, noise=0.1)
        a = solve(inst)
        b = solve(inst)
        assert a.x_hat.tobytes() == b.x_hat.tobytes()
        assert a.trace[-1].beta == b.trace[-1].beta
        assert a.iterations == b.iterations

    @pytest.mark.parametrize("solver", SOLVERS.values(), ids=SOLVERS)
    @pytest.mark.parametrize("max_iter, tol", [(5, core.TOL), (None, 1e-2)],
                             ids=["capped", "converged"])
    def test_trace_records(self, solver, max_iter, tol, monkeypatch):
        # one record per iteration, the last one matching the estimate
        monkeypatch.setattr(core, "TOL", tol)
        hyper = Hyperparameters(max_iter=max_iter)
        left = np.random.default_rng([1, 0]).standard_normal((6, 1))
        sigma_n = noise_sigma_for_snr("completion", 6, 6, 1, 25, 100.0)
        inst = measure(completion_operator(6, 6, 25, [1, 1]), left @ left.T,
                       sigma_n, [1, 2])
        est = solver(inst, hyper)
        trace = est.trace
        assert [r.iteration for r in trace] == \
            list(range(1, est.iterations + 1))
        assert trace[0].rel_change == 1.0  # X_0 = 0, X_1 != 0
        assert trace[-1].effective_rank == effective_rank(est.x_hat)
        assert est.converged == (trace[-1].rel_change < core.TOL)
        assert est.converged == (core.TOL == 1e-2)
        assert all(r.rel_change >= core.TOL for r in trace[:-1])
        assert np.isfinite([(r.rel_change, r.neg_log_joint, r.beta,
                             r.effective_rank) for r in trace]).all()
        assert solver(inst, hyper).trace == trace


class TestIterate:
    @pytest.mark.parametrize("name", ["alpha_l", "alpha_r"])
    def test_non_finite_precision_is_divergence(self, name):
        inst = small_instance(54)

        def precisions(state):
            prec = update_precisions(state)
            # a Prior's arrays are read-only: rebuild it with one NaN entry
            side = name.replace("alpha", "prior")
            prior = getattr(prec, side)
            m = prior.matrix.copy()
            m[0, 0] = np.nan
            setattr(prec, side, Prior(m, prior.values, prior.vectors))
            return prec

        with pytest.raises(SolverDivergenceError,
                           match="precisions at iteration 1") as info:
            iterate(inst, None, lambda state: map_estimate(state, inst),
                    precisions, cap=4)
        assert np.isnan(getattr(info.value.state.precisions, name)[0, 0])

    def test_non_finite_noise_precision_is_divergence(self, monkeypatch):
        inst = small_instance(55)
        monkeypatch.setattr(core, "update_noise_precision",
                            lambda state, inst: float("inf"))
        with pytest.raises(SolverDivergenceError,
                           match="noise precision at iteration 1"):
            solve(inst)


class TestEffectiveRank:
    def test_zero_matrix(self):
        assert effective_rank(np.zeros((3, 3))) == 0

    def test_exact_low_rank(self):
        x = generate_low_rank(6, 8, 2, 53)
        assert effective_rank(x) == 2
