import tracemalloc

import numpy as np
import pytest
from numpy import kron

from rsvm import kronops
from rsvm.kronops import FactorizationError, Prior, spd_inverse, unvec, vec
from rsvm.sensing import (
    MeasurementOperator,
    completion_operator,
    gaussian_operator,
)

from naive_oracles import (
    dense_operator,
    naive_sigma_left,
    naive_sigma_right,
    nearest_kron_sum,
    posterior_covariance,
    random_spd,
    trace_contract_left,
    trace_contract_right,
)


class TestVec:
    def test_column_major_stacking(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(vec(x), [1.0, 3.0, 2.0, 4.0])

    def test_unvec_round_trip(self):
        np.testing.assert_array_equal(
            unvec(np.array([1.0, 3.0, 2.0, 4.0]), 2, 2),
            [[1.0, 2.0], [3.0, 4.0]])

    def test_row_matrix(self):
        x = np.array([[5.0, 6.0, 7.0]])
        np.testing.assert_array_equal(vec(x), [5.0, 6.0, 7.0])

    def test_round_trip_all_shapes(self):
        rng = np.random.default_rng(0)
        for p in (1, 2, 3, 5):
            for q in (1, 2, 4, 7):
                x = rng.standard_normal((p, q))
                np.testing.assert_array_equal(unvec(vec(x), p, q), x)

    def test_unvec_length_mismatch(self):
        with pytest.raises(ValueError):
            unvec(np.zeros(5), 2, 3)

    def test_quadratic_form_identity(self):
        # tr(L X R X^T) == vec(X)^T (R kron L) vec(X) pins the convention
        rng = np.random.default_rng(1)
        for p, q in ((2, 2), (3, 4), (5, 2), (4, 5)):
            x = rng.standard_normal((p, q))
            al = random_spd(rng, p)
            ar = random_spd(rng, q)
            lhs = np.trace(al @ x @ ar @ x.T)
            rhs = vec(x) @ kron(ar, al) @ vec(x)
            assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


class TestTraceContractions:
    def test_identity_sigma_right(self):
        rng = np.random.default_rng(2)
        p, q = 3, 4
        ar = random_spd(rng, q)
        out = trace_contract_right(np.eye(p * q), ar)
        np.testing.assert_allclose(out, np.trace(ar) * np.eye(p), atol=1e-12)

    def test_identity_sigma_left(self):
        rng = np.random.default_rng(3)
        p, q = 3, 4
        al = random_spd(rng, p)
        out = trace_contract_left(np.eye(p * q), al)
        np.testing.assert_allclose(out, np.trace(al) * np.eye(q), atol=1e-12)

    @pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 2), (4, 3), (5, 5)])
    def test_matches_naive_basis_loop(self, p, q):
        rng = np.random.default_rng(100 * p + q)
        sigma = random_spd(rng, p * q)
        ar = random_spd(rng, q)
        al = random_spd(rng, p)
        ref_r = naive_sigma_right(sigma, ar, p, q)
        ref_l = naive_sigma_left(sigma, al, p, q)
        np.testing.assert_allclose(trace_contract_right(sigma, ar), ref_r,
                                   rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(trace_contract_left(sigma, al), ref_l,
                                   rtol=1e-10, atol=1e-10)

    def test_kron_structured_sigma(self):
        rng = np.random.default_rng(4)
        p, q = 3, 3
        ar = random_spd(rng, q)
        m = random_spd(rng, p)
        sigma = kron(np.linalg.inv(ar), m)
        ref = naive_sigma_right(sigma, ar, p, q)
        np.testing.assert_allclose(trace_contract_right(sigma, ar), ref,
                                   rtol=1e-10, atol=1e-10)

    def test_small_alpha_limit(self):
        rng = np.random.default_rng(5)
        p, q = 2, 3
        sigma = random_spd(rng, p * q)
        al = 1e-8 * np.eye(p)
        ref = naive_sigma_left(sigma, al, p, q)
        np.testing.assert_allclose(trace_contract_left(sigma, al), ref,
                                   rtol=1e-10, atol=1e-18)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trace_contract_right(np.eye(6), np.eye(4))


# The SPD inverters of kronops. structured_covariance factors its Gram
# matrix through the same helper (_spd_factor) and jitter schedule;
# Prior.inverse_of, the precision steps' inverse, shares the schedule.
INVERTERS = {"spd_inverse": spd_inverse,
             "Prior.inverse_of": lambda m: Prior.inverse_of(m).matrix}


class TestSpdInverse:
    def test_identity(self):
        np.testing.assert_allclose(spd_inverse(np.eye(3)), np.eye(3),
                                   atol=1e-14)

    def test_empty(self):
        # an accelerated block observing nothing has a 0 x 0 Gram matrix
        out = spd_inverse(np.empty((0, 0)))
        assert out.shape == (0, 0)

    def test_diagonal(self):
        out = spd_inverse(np.diag([2.0, 4.0]))
        np.testing.assert_allclose(out, np.diag([0.5, 0.25]), atol=1e-14)

    def test_multiply_back(self):
        rng = np.random.default_rng(6)
        m = random_spd(rng, 5)
        np.testing.assert_allclose(spd_inverse(m) @ m, np.eye(5), atol=1e-10)

    @pytest.mark.parametrize("invert", INVERTERS.values(), ids=INVERTERS)
    def test_jitter_rescues_singular_input(self, invert):
        u = np.ones((4, 1))
        singular = u @ u.T  # rank one, Cholesky fails without jitter
        out = invert(singular)
        assert np.all(np.isfinite(out))
        assert np.all(np.linalg.eigvalsh(out) > 0)

    @pytest.mark.parametrize("invert", INVERTERS.values(), ids=INVERTERS)
    def test_hard_failure_raises(self, invert):
        bad = np.diag([1.0, -1e6])  # indefinite beyond any tiny jitter
        with pytest.raises(FactorizationError):
            invert(bad)

    def test_result_symmetric(self):
        rng = np.random.default_rng(7)
        m = random_spd(rng, 6)
        out = spd_inverse(m)
        assert np.abs(out - out.T).max() <= 1e-12 * np.abs(out).max()

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 300])
    def test_matches_numpy_inverse(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            m = random_spd(rng, n, scale=10.0 ** rng.uniform(-3, 3))
            ref = np.linalg.inv(m)
            out = spd_inverse(m)
            np.testing.assert_array_equal(out, out.T)
            assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("invert", INVERTERS.values(), ids=INVERTERS)
    @pytest.mark.parametrize("singular", [False, True],
                             ids=["spd", "jitter"])
    def test_input_not_written(self, invert, singular):
        rng = np.random.default_rng(8)
        m = np.ones((5, 5)) if singular else random_spd(rng, 5)
        m[0, 1] += 1e-3  # not exactly symmetric, same symmetric part
        m[1, 0] -= 1e-3
        before = m.copy()
        invert(m)
        np.testing.assert_array_equal(m, before)

    def test_peak_memory(self):
        # one symmetrized buffer, factored, inverted and mirrored in place
        n = 600
        m = random_spd(np.random.default_rng(9), n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = spd_inverse(m)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * m.nbytes
        np.testing.assert_array_equal(out, out.T)
        assert np.abs(out @ m - np.eye(n)).max() <= 1e-10


class TestPrior:
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_factorization_matches_numpy(self, n):
        rng = np.random.default_rng(20 + n)
        s, alpha = random_spd(rng, n), random_spd(rng, n)
        inv = Prior.inverse_of(s)
        fresh = Prior.from_precision(alpha)
        for prior, mat in ((inv, np.linalg.inv(s)), (fresh, alpha)):
            ref = np.abs(mat).max()
            assert np.abs(prior.matrix - mat).max() <= 1e-12 * ref
            u, v = prior.vectors, prior.values
            assert np.abs((u * v) @ u.T - mat).max() <= 1e-12 * ref
            cov = np.linalg.inv(mat)
            assert np.abs(prior.covariance - cov).max() \
                <= 1e-12 * np.abs(cov).max()
            scaled = prior.scaled(2.5)
            np.testing.assert_array_equal(scaled.matrix, 2.5 * prior.matrix)
            np.testing.assert_array_equal(scaled.values, 2.5 * v)
        assert abs(np.sum(1.0 / inv.values) - np.trace(s)) \
            <= 1e-12 * np.trace(s)

    def test_arrays_read_only(self):
        # the matrix can only change by building a new factorization
        prior = Prior.from_precision(random_spd(np.random.default_rng(30), 3))
        for a in (prior.matrix, prior.values, prior.vectors):
            with pytest.raises(ValueError):
                a[0] = 1.0
        # C is formed once per factorization and cannot be written either
        assert prior.covariance is prior.covariance
        with pytest.raises(ValueError):
            prior.covariance[0] = 1.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_invalid_eigenvalues_rejected(self, bad):
        prior = Prior.from_precision(random_spd(np.random.default_rng(31), 3))
        values = prior.values.copy()
        values[1] = bad
        with pytest.raises(FactorizationError, match="positive and finite"):
            Prior(prior.matrix, values, prior.vectors)
        with pytest.raises(FactorizationError, match="positive and finite"):
            prior.scaled(bad)


class TestPosteriorCovariance:
    def test_identity_case(self):
        op = completion_operator(2, 3, 6, 0)  # m = pq: A is a permutation
        out = posterior_covariance(np.eye(2), np.eye(3), op, 1.0)
        np.testing.assert_allclose(out, 0.5 * np.eye(6), atol=1e-12)

    def test_direct_vs_woodbury(self):
        rng = np.random.default_rng(8)
        op = gaussian_operator(3, 4, 6, 9)
        al = random_spd(rng, 3)
        ar = random_spd(rng, 4)
        direct = posterior_covariance(al, ar, op, 2.0, method="direct")
        wood = posterior_covariance(al, ar, op, 2.0, method="woodbury")
        np.testing.assert_allclose(direct, wood, rtol=1e-8, atol=1e-12)

    def test_completion_fast_path_matches_dense(self):
        rng = np.random.default_rng(10)
        op = completion_operator(3, 4, 5, 11)
        al = random_spd(rng, 3)
        ar = random_spd(rng, 4)
        # the mask's index form against its one-hot rows as dense sensing
        via_op = posterior_covariance(al, ar, op, 1.5, method="woodbury")
        via_arr = posterior_covariance(
            al, ar, MeasurementOperator("dense", 3, 4,
                                        matrix=dense_operator(op)),
            1.5, method="woodbury")
        np.testing.assert_allclose(via_op, via_arr, rtol=1e-10, atol=1e-14)

    def test_small_beta_limit(self):
        rng = np.random.default_rng(12)
        al = random_spd(rng, 2)
        ar = random_spd(rng, 3)
        op = gaussian_operator(2, 3, 4, 13)
        out = posterior_covariance(al, ar, op, 1e-12)
        prior_cov = kron(np.linalg.inv(ar), np.linalg.inv(al))
        np.testing.assert_allclose(out, prior_cov, rtol=1e-6)

    def test_beta_must_be_positive(self):
        with pytest.raises(ValueError):
            posterior_covariance(np.eye(2), np.eye(2), np.eye(4), 0.0)


class TestNearestKronSum:
    def test_exact_kron_input(self):
        rng = np.random.default_rng(14)
        a = random_spd(rng, 3)
        b = random_spd(rng, 3)
        sigma = kron(a, b)
        ks = nearest_kron_sum(sigma, 3, 1)
        left, right = ks.terms[0]
        np.testing.assert_allclose(kron(left, right), sigma, rtol=1e-10)

    def test_identity_single_term(self):
        ks = nearest_kron_sum(np.eye(9), 3, 1)
        left, right = ks.terms[0]
        # (c I, I / c) up to the scalar split
        scale = left[0, 0]
        np.testing.assert_allclose(left, scale * np.eye(3), atol=1e-12)
        np.testing.assert_allclose(right, np.eye(3) / scale, atol=1e-12)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(15)
        sigma = random_spd(rng, 4)
        sigma = 0.5 * (sigma + sigma.T)
        ks = nearest_kron_sum(sigma, 2, 4)
        err = np.linalg.norm(ks.reconstruct() - sigma, "fro")
        assert err <= 1e-10 * np.linalg.norm(sigma, "fro")

    def test_truncation_error_non_increasing(self):
        rng = np.random.default_rng(16)
        sigma = random_spd(rng, 9)
        errors = []
        for s in range(1, 10):
            ks = nearest_kron_sum(sigma, 3, s)
            errors.append(np.linalg.norm(ks.reconstruct() - sigma, "fro"))
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errors, errors[1:]))

    def test_invalid_term_count(self):
        with pytest.raises(ValueError):
            nearest_kron_sum(np.eye(4), 2, 5)


def test_package_ships_no_dense_references():
    # the dense references are test oracles; no solver reads them
    for name in ("kron", "_split_dims", "trace_contract_right",
                 "trace_contract_left", "posterior_covariance", "KronSum",
                 "nearest_kron_sum"):
        assert not hasattr(kronops, name), name
    for cls in (kronops.StructuredCovariance, kronops.CompletionCovariance):
        assert not hasattr(cls, "dense") and not hasattr(cls, "__array__")
    assert not hasattr(MeasurementOperator, "dense")
