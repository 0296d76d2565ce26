import numpy as np
import pytest

from rsvm.core import Hyperparameters
from rsvm.kronops import KronSum, nearest_kron_sum, trace_contract_left, trace_contract_right
from rsvm.sensing import completion_operator, measure, noise_sigma_for_snr
from rsvm.symmetric import SymmetricState, solve_symmetric, update_precision_symmetric

from naive_oracles import random_spd


def psd_truth(p, r, seed):
    left = np.random.default_rng(seed).standard_normal((p, r))
    return left @ left.T


class TestUpdatePrecision:
    def test_zero_state_floor_only(self):
        p = 3
        hyper = Hyperparameters()
        ks = KronSum([(np.zeros((p, p)), np.zeros((p, p)))])
        state = SymmetricState(np.zeros((p, p)), np.eye(p), 1.0, ks, 1)
        out = update_precision_symmetric(state, hyper)
        np.testing.assert_allclose(
            out, (hyper.nu_eff / hyper.epsilon_scale) * np.eye(p), rtol=1e-10)

    def test_identity_sigma_single_term(self):
        # sigma = I decomposes as (c I, I/c); contraction pair sums to
        # 2 tr(alpha) I independent of the scalar split
        p = 4
        hyper = Hyperparameters()
        rng = np.random.default_rng(0)
        alpha = random_spd(rng, p)
        ks = nearest_kron_sum(np.eye(p * p), p, 1)
        state = SymmetricState(np.zeros((p, p)), alpha, 1.0, ks, 1)
        out = update_precision_symmetric(state, hyper)
        expected = np.linalg.inv(
            2.0 * np.trace(alpha) * np.eye(p)
            + hyper.epsilon_scale * np.eye(p))
        np.testing.assert_allclose(out, expected, rtol=1e-10)

    @pytest.mark.parametrize("p", [2, 4])
    def test_full_decomposition_matches_dense_contractions(self, p):
        hyper = Hyperparameters()
        rng = np.random.default_rng(1)
        alpha = random_spd(rng, p)
        x = rng.standard_normal((p, p))
        x = 0.5 * (x + x.T)
        sigma = random_spd(rng, p * p)
        ks = nearest_kron_sum(sigma, p, p * p)
        state = SymmetricState(x, alpha, 1.0, ks, p * p)
        out = update_precision_symmetric(state, hyper)
        # dense reference: both contractions of sigma against alpha
        pair_sum = (trace_contract_right(sigma, alpha)
                    + trace_contract_left(sigma, alpha))
        expected = np.linalg.inv(2.0 * x @ alpha @ x + pair_sum
                                 + hyper.epsilon_scale * np.eye(p))
        np.testing.assert_allclose(out, expected, rtol=1e-8)

    def test_output_symmetrized(self):
        p = 3
        rng = np.random.default_rng(2)
        alpha = random_spd(rng, p)
        alpha[0, 1] += 1e-13  # symmetric-but-perturbed input
        ks = nearest_kron_sum(np.eye(p * p), p, p * p)
        state = SymmetricState(np.zeros((p, p)), alpha, 1.0, ks, p * p)
        out = update_precision_symmetric(state, Hyperparameters())
        np.testing.assert_array_equal(out, out.T)


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

    def test_truncated_terms_still_run(self):
        p = 5
        x = psd_truth(p, 1, 14)
        op = completion_operator(p, p, 20, 15)
        inst = measure(op, x, 0.05, 16)
        est_full = solve_symmetric(inst, s_terms=p * p)
        est_trunc = solve_symmetric(inst, s_terms=3)
        assert np.all(np.isfinite(est_trunc.x_hat))
        # the truncated run is an approximation of the full one
        rel = (np.linalg.norm(est_trunc.x_hat - est_full.x_hat, "fro")
               / np.linalg.norm(est_full.x_hat, "fro"))
        assert rel < 0.5

    def test_trace_file(self, tmp_path):
        p = 4
        x = psd_truth(p, 1, 20)
        op = completion_operator(p, p, 12, 21)
        inst = measure(op, x, 0.1, 22)
        path = tmp_path / "trace.csv"
        solve_symmetric(inst, Hyperparameters(max_iter=5), trace_path=path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,rel_change,neg_log_joint,beta,effective_rank"
        assert len(lines) == 6

    def test_deterministic(self):
        p = 6
        x = psd_truth(p, 1, 17)
        op = completion_operator(p, p, 25, 18)
        inst = measure(op, x, 0.1, 19)
        a = solve_symmetric(inst)
        b = solve_symmetric(inst)
        assert a.x_hat.tobytes() == b.x_hat.tobytes()
