import numpy as np
import pytest

import rsvm.accel
from rsvm.accel import block_descent, partition_blocks, solve_accelerated
from rsvm.core import (
    Hyperparameters,
    PrecisionState,
    SolverState,
    iterate,
    map_estimate,
    neg_log_joint,
    solve,
    update_precisions,
    with_cap,
)
from rsvm.kronops import vec
from rsvm.sensing import (
    MeasurementOperator,
    completion_operator,
    gaussian_operator,
    generate_low_rank,
    measure,
    noise_sigma_for_snr,
)

from naive_oracles import (dense_block_update, dense_operator, densify,
                           random_spd)


def noisy_instance(p, q, r, m, seed, snr=100.0):
    x = generate_low_rank(p, q, r, [seed, 0])
    op = completion_operator(p, q, m, [seed, 1])
    sn = noise_sigma_for_snr("completion", p, q, r, m, snr)
    return measure(op, x, sn, [seed, 2])


def flat_indices(p, q, cols):
    """The vec(X) indices of the columns ``cols`` of a p x q matrix."""
    return np.arange(p * q).reshape(q, p)[cols].ravel()


def solve_partitioned(inst, n_blocks, sweeps, hyper=None):
    """The accelerated solver with ``n_blocks`` column groups and ``sweeps``
    passes in place of its fixed N_BLOCKS and K_SWEEPS."""
    return iterate(inst, with_cap(hyper, rsvm.accel.DEFAULT_MAX_ITER),
                   block_descent(inst, partition_blocks(inst.q, n_blocks),
                                 sweeps),
                   update_precisions)


def block_update(state, inst, cols):
    """One conditional update of the columns ``cols``, the rest fixed:
    a one-group, one-pass block-descent step."""
    x, cov = block_descent(inst, [cols], 1)(state)
    return x, cov.blocks[0]


class TestPartition:
    def test_near_equal_column_groups(self):
        sizes = [len(c) for c in partition_blocks(30, 4)]
        assert sizes == [8, 8, 7, 7]

    def test_one_column_each(self):
        columns = partition_blocks(4, 4)
        assert [c.tolist() for c in columns] == [[0], [1], [2], [3]]

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            partition_blocks(4, 5)

    @pytest.mark.parametrize("n_blocks", [0, 2.5, True, None])
    def test_non_count_rejected(self, n_blocks):
        with pytest.raises(ValueError, match="n_blocks"):
            partition_blocks(4, n_blocks)


class TestBlockMapUpdate:
    """The block-descent step, read one group and one pass at a time (the
    conditional block update) or over whole partitions."""

    def test_single_block_is_full_map(self):
        inst = noisy_instance(3, 4, 1, 8, 20)
        rng = np.random.default_rng(21)
        prec = PrecisionState(random_spd(rng, 3), random_spd(rng, 4), 1.4)
        state = SolverState(np.zeros((3, 4)), None, prec)
        xb, sigma_b = block_update(state, inst, partition_blocks(4, 1)[0])
        x_full, sigma_full = map_estimate(state, inst)
        np.testing.assert_allclose(xb, x_full, rtol=1e-8)
        np.testing.assert_allclose(densify(sigma_b, 3, 4),
                                   densify(sigma_full, 3, 4), rtol=1e-8)

    @pytest.mark.parametrize("kind, m", [("completion", 5),
                                         ("completion", 15),
                                         ("gaussian", 6), ("gaussian", 20)])
    def test_matches_dense_conditional(self, kind, m):
        # completion observes only columns 0-3, so the last of the three
        # column blocks has no observed entry; Gaussian sensing with m
        # below and above the block size p w = 8
        p, q = 4, 6
        rng = np.random.default_rng(m)
        if kind == "completion":
            op = MeasurementOperator("completion", p, q, vec_indices=rng.choice(
                16, size=m, replace=False))
        else:
            op = gaussian_operator(p, q, m, m)
        inst = measure(op, generate_low_rank(p, q, 2, m), 0.1, m)
        prec = PrecisionState(random_spd(rng, p), random_spd(rng, q), 1.3)
        state = SolverState(rng.standard_normal((p, q)), None, prec)
        for cols in partition_blocks(q, 3):
            xb, sigma_b = block_update(state, inst, cols)
            ref_x, ref_sigma = dense_block_update(
                prec.alpha_l, prec.alpha_r, dense_operator(op), inst.y,
                prec.beta, vec(state.x_hat), flat_indices(p, q, cols))
            np.testing.assert_allclose(vec(xb[:, cols]), ref_x, rtol=1e-9,
                                       atol=1e-12)
            np.testing.assert_allclose(densify(sigma_b, p, cols.size),
                                       ref_sigma, rtol=1e-9, atol=1e-12)

    def test_sweeps_converge_to_full_map(self):
        # fixed precisions: cyclic block descent reaches the joint solve
        inst = noisy_instance(4, 4, 2, 12, 22)
        rng = np.random.default_rng(23)
        prec = PrecisionState(random_spd(rng, 4), random_spd(rng, 4), 2.0)
        state = SolverState(np.zeros((4, 4)), None, prec)
        x_full, _ = map_estimate(state, inst)
        state.x_hat, _ = block_descent(inst, partition_blocks(4, 2),
                                       300)(state)
        rel = (np.linalg.norm(state.x_hat - x_full, "fro")
               / np.linalg.norm(x_full, "fro"))
        assert rel < 1e-6

    def test_diagonal_prior_closed_form(self):
        # diagonal alpha_r kron alpha_l and a completion operator: the
        # cross term vanishes and each entry solves independently
        p, q = 3, 3
        inst = noisy_instance(p, q, 1, 6, 24)
        dl = np.diag([1.0, 2.0, 3.0])
        dr = np.diag([0.5, 1.5, 2.5])
        beta = 1.7
        state = SolverState(np.zeros((p, q)), None,
                            PrecisionState(dl, dr, beta))
        prior_diag = np.kron(np.diag(dr), np.diag(dl))
        aty = inst.operator.apply_adjoint(inst.y)
        observed = np.zeros(p * q)
        observed[inst.operator.vec_indices] = 1.0
        for cols in partition_blocks(q, 3):
            idx = flat_indices(p, q, cols)
            xb, sigma_b = block_update(state, inst, cols)
            xb = vec(xb[:, cols])
            expected = beta * aty[idx] / (prior_diag[idx]
                                          + beta * observed[idx])
            np.testing.assert_allclose(xb, expected, rtol=1e-10)
            np.testing.assert_allclose(
                densify(sigma_b, p, 1), np.diag(1.0 / (prior_diag[idx]
                                        + beta * observed[idx])), rtol=1e-10)

    def test_objective_non_increasing_per_block(self):
        inst = noisy_instance(4, 6, 2, 14, 25)
        rng = np.random.default_rng(26)
        prec = PrecisionState(random_spd(rng, 4), random_spd(rng, 6), 1.2)
        state = SolverState(rng.standard_normal((4, 6)), None, prec)
        prev = neg_log_joint(state, inst)
        for sweep in range(3):
            for cols in partition_blocks(6, 3):
                state.x_hat, _ = block_update(state, inst, cols)
                cur = neg_log_joint(state, inst)
                assert cur <= prev + 1e-10 * abs(prev)
                prev = cur

    @pytest.mark.parametrize("sweeps", [2.5, True, 0])
    def test_non_count_sweeps_rejected(self, sweeps):
        inst = noisy_instance(5, 6, 1, 14, 40)
        with pytest.raises(ValueError, match="sweeps"):
            block_descent(inst, partition_blocks(6, 2), sweeps)


class TestSolveAccelerated:
    def test_single_block_reproduces_full_solver(self):
        inst = noisy_instance(5, 6, 2, 20, 27)
        hyper = Hyperparameters(max_iter=15)
        est_acc = solve_partitioned(inst, 1, 2, hyper)
        est_full = solve(inst, hyper)
        rel = (np.linalg.norm(est_acc.x_hat - est_full.x_hat, "fro")
               / np.linalg.norm(est_full.x_hat, "fro"))
        assert rel < 1e-8

    def test_more_sweeps_lower_objective(self):
        # with precisions frozen after init, the inner loop output after K
        # sweeps has non-increasing objective in K
        inst = noisy_instance(4, 8, 2, 18, 28)
        rng = np.random.default_rng(29)
        prec = PrecisionState(random_spd(rng, 4), random_spd(rng, 8), 1.5)
        columns = partition_blocks(8, 4)
        objectives = []
        for k_sweeps in (1, 2, 5, 10):
            state = SolverState(np.zeros((4, 8)), None,
                                PrecisionState(prec.alpha_l.copy(),
                                               prec.alpha_r.copy(),
                                               prec.beta))
            state.x_hat, _ = block_descent(inst, columns, k_sweeps)(state)
            objectives.append(neg_log_joint(state, inst))
        assert all(b <= a + 1e-10 * abs(a)
                   for a, b in zip(objectives, objectives[1:]))

    def test_tracks_full_solver_in_benign_regime(self):
        inst = noisy_instance(6, 8, 1, 38, 30)
        est_acc = solve_partitioned(inst, 4, 3)
        est_full = solve(inst)
        x = inst.ground_truth
        db_acc = 10 * np.log10(np.sum((x - est_acc.x_hat) ** 2) / np.sum(x * x))
        db_full = 10 * np.log10(np.sum((x - est_full.x_hat) ** 2) / np.sum(x * x))
        assert db_acc < db_full + 3.0

    def test_unobserved_column_block(self):
        # the last column block (columns 4-5) has no observed entry
        p, q = 4, 6
        op = MeasurementOperator("completion", p, q, vec_indices=np.arange(
            0, 16, 2))
        inst = measure(op, generate_low_rank(p, q, 1, 38), 0.05, 39)
        est = solve_partitioned(inst, 3, 3, Hyperparameters(max_iter=5))
        assert np.all(np.isfinite(est.x_hat))
        assert est.iterations == 5

    def test_gaussian_operator_supported(self):
        x = generate_low_rank(4, 5, 1, 32)
        op = gaussian_operator(4, 5, 14, 33)
        sn = noise_sigma_for_snr("reconstruction", 4, 5, 1, 14, 100.0)
        inst = measure(op, x, sn, 34)
        est = solve_partitioned(inst, 2, 3)
        assert np.all(np.isfinite(est.x_hat))

    def test_deterministic(self):
        inst = noisy_instance(4, 6, 1, 14, 35)
        a = solve_partitioned(inst, 3, 3)
        b = solve_partitioned(inst, 3, 3)
        assert a.x_hat.tobytes() == b.x_hat.tobytes()

    def test_smaller_blocks_fewer_woodbury_rows(self):
        # a block's covariance costs O(k^3 + k^2 (p + w)) over its k
        # observed entries, or O(k^2 p w) over its k missing ones (this
        # instance: m/pq 0.7, the missing side); six blocks of three
        # columns keep every k below the single all-column block's
        # min(m, pq - m)
        inst = noisy_instance(18, 18, 2, 227, 36)
        rng = np.random.default_rng(37)
        prec = PrecisionState(random_spd(rng, 18), random_spd(rng, 18), 1.0)
        state = SolverState(np.zeros((18, 18)), None, prec)

        def rows(n_blocks):
            _, cov = block_descent(inst, partition_blocks(18, n_blocks),
                                   1)(state)
            return [sigma.rows.shape[1] for sigma in cov.blocks]

        single = rows(1)
        assert single == [324 - 227]
        assert max(rows(6)) < single[0]

    def test_runs_block_descent(self, monkeypatch):
        # the solver's posterior step is the block_descent the tests check
        calls = []
        real = rsvm.accel.block_descent

        def spy(inst, columns, sweeps):
            step = real(inst, columns, sweeps)

            def counted(state):
                calls.append((len(columns), sweeps))
                return step(state)
            return counted

        monkeypatch.setattr(rsvm.accel, "block_descent", spy)
        inst = noisy_instance(4, 6, 1, 14, 35)
        est = solve_accelerated(inst, Hyperparameters(max_iter=4))
        assert calls == [(4, 3)] * est.iterations
