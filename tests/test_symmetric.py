import numpy as np
import pytest

from rsvm.core import EPSILON, PrecisionState, SolverState
from rsvm.sensing import completion_operator, measure, noise_sigma_for_snr
from rsvm.symmetric import solve_symmetric, update_precision

from naive_oracles import (DenseCovariance, random_spd, trace_contract_left,
                           trace_contract_right)


def psd_truth(p, r, seed):
    left = np.random.default_rng(seed).standard_normal((p, r))
    return left @ left.T


def sym_state(x, alpha, sigma):
    return SolverState(x, DenseCovariance(sigma),
                       PrecisionState(alpha, alpha, 1.0))


class TestUpdatePrecision:
    def test_zero_state_floor_only(self):
        p = 3
        state = sym_state(np.zeros((p, p)), np.eye(p), np.zeros((p * p, p * p)))
        out = update_precision(state)
        np.testing.assert_allclose(out.alpha_l, (1.0 / EPSILON) * np.eye(p),
                                   rtol=1e-10)
        assert out.alpha_r is out.alpha_l

    def test_identity_sigma_single_term(self):
        # sigma = I contracts to tr(alpha) I on each side, so the pair
        # sums to 2 tr(alpha) I
        p = 4
        rng = np.random.default_rng(0)
        alpha = random_spd(rng, p)
        out = update_precision(
            sym_state(np.zeros((p, p)), alpha, np.eye(p * p)))
        expected = np.linalg.inv(
            2.0 * np.trace(alpha) * np.eye(p) + EPSILON * np.eye(p))
        np.testing.assert_allclose(out.alpha_l, expected, rtol=1e-10)

    @pytest.mark.parametrize("p", [2, 4])
    def test_full_decomposition_matches_dense_contractions(self, p):
        rng = np.random.default_rng(1)
        alpha = random_spd(rng, p)
        x = rng.standard_normal((p, p))
        x = 0.5 * (x + x.T)
        sigma = random_spd(rng, p * p)
        out = update_precision(sym_state(x, alpha, sigma))
        # dense reference: both contractions of sigma against alpha
        pair_sum = (trace_contract_right(sigma, alpha)
                    + trace_contract_left(sigma, alpha))
        expected = np.linalg.inv(2.0 * x @ alpha @ x + pair_sum
                                 + EPSILON * np.eye(p))
        np.testing.assert_allclose(out.alpha_l, expected, rtol=1e-8)

    def test_output_symmetrized(self):
        p = 3
        rng = np.random.default_rng(2)
        alpha = random_spd(rng, p)
        alpha[0, 1] += 1e-13  # symmetric-but-perturbed input
        out = update_precision(
            sym_state(np.zeros((p, p)), alpha, np.eye(p * p)))
        np.testing.assert_array_equal(out.alpha_l, out.alpha_l.T)


class TestSolveSymmetric:
    def test_requires_square(self):
        op = completion_operator(2, 3, 4, 3)
        inst = measure(op, np.zeros((2, 3)), 0.0, 4)
        with pytest.raises(ValueError):
            solve_symmetric(inst)

    def test_noiseless_rank_one_fully_observed(self):
        p = 8
        x = psd_truth(p, 1, 5)
        op = completion_operator(p, p, p * p, 6)
        inst = measure(op, x, 0.0, 7)
        est = solve_symmetric(inst)
        err = np.sum((x - est.x_hat) ** 2) / np.sum(x * x)
        assert err < 1e-6

    def test_estimate_is_symmetric(self):
        p = 6
        x = psd_truth(p, 2, 8)
        op = completion_operator(p, p, 28, 9)
        sigma = noise_sigma_for_snr("completion", p, p, 2, 28, 100.0)
        inst = measure(op, x, sigma, 10)
        est = solve_symmetric(inst)
        np.testing.assert_allclose(est.x_hat, est.x_hat.T, atol=1e-12)

    def test_noisy_psd_recovery(self):
        # aggregate over a few trials; NMSE is an expectation
        p, r, m = 10, 2, 70
        num = den = 0.0
        for k in range(3):
            x = psd_truth(p, r, [11, k])
            op = completion_operator(p, p, m, [12, k])
            sn = noise_sigma_for_snr("completion", p, p, r, m, 100.0)
            inst = measure(op, x, sn, [13, k])
            est = solve_symmetric(inst)
            num += np.sum((x - est.x_hat) ** 2)
            den += np.sum(x * x)
        assert 10.0 * np.log10(num / den) < -18.0

    def test_deterministic(self):
        p = 6
        x = psd_truth(p, 1, 17)
        op = completion_operator(p, p, 25, 18)
        inst = measure(op, x, 0.1, 19)
        a = solve_symmetric(inst)
        b = solve_symmetric(inst)
        assert a.x_hat.tobytes() == b.x_hat.tobytes()
