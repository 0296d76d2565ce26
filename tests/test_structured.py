"""The structured posterior covariance against its dense references.

``posterior_covariance(method="direct")`` and ``dense_map_solve`` build and
solve the pq x pq system; both structured forms must reproduce them, no
solver may allocate a pq x pq array, and the observed-side completion form
allocates nothing k x pq. One iteration on factored priors (precision step,
balancing, posterior) must match the same iteration on plain matrices.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rsvm.accel import block_descent, partition_blocks, solve_accelerated
from rsvm.core import (
    EPSILON,
    Hyperparameters,
    PrecisionState,
    SolverState,
    balance_precisions,
    map_estimate,
    solve,
    update_noise_precision,
    update_precisions,
)
from rsvm.kronops import (
    BlockCovariance,
    CompletionCovariance,
    Prior,
    StructuredCovariance,
    spd_inverse,
    structured_covariance,
    vec,
)
from rsvm.sensing import (
    completion_operator,
    gaussian_operator,
    generate_low_rank,
    measure,
)
from rsvm.symmetric import solve_symmetric

from naive_oracles import (
    DenseCovariance,
    dense_map_solve,
    dense_operator,
    densify,
    naive_balance,
    naive_precision_step,
    posterior_covariance,
    random_spd,
    trace_contract_left,
    trace_contract_right,
    trace_quadratic,
)

RTOL = 1e-9


def spread_spd(rng, n, log_spread):
    """SPD matrix, eigenvalues from 1 to 10**log_spread, random eigenbasis."""
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = 10.0 ** rng.uniform(0.0, log_spread, n)
    vals[0] = 1.0
    vals[-1] = 10.0 ** log_spread
    mat = (basis * vals) @ basis.T
    return 0.5 * (mat + mat.T)


def assert_close(got, ref):
    """Max-norm error at most RTOL of the reference's largest entry."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert got.shape == ref.shape
    err = float(np.abs(got - ref).max())
    assert err <= RTOL * float(np.abs(ref).max()), err


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=st.integers(1, 6), q=st.integers(1, 6),
       kind=st.sampled_from(["completion", "gaussian"]),
       m_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       log_spread=st.floats(0.0, 6.0), share=st.floats(0.0, 1.0),
       log_beta=st.floats(-2.0, 2.0))
@example(p=4, q=5, kind="completion", m_frac=0.0, seed=1, log_spread=6.0,
         share=0.5, log_beta=0.0)  # m = 1
@example(p=4, q=5, kind="completion", m_frac=1.0, seed=2, log_spread=6.0,
         share=0.5, log_beta=0.0)  # m = pq, no Woodbury rows
def test_structured_matches_dense(p, q, kind, m_frac, seed, log_spread, share,
                                  log_beta):
    # Observed-side and missing-side completion, and Gaussian sensing. The
    # prior precision alpha_r kron alpha_l has eigenvalue spread up to 1e6,
    # split between the two factors by ``share``.
    m = 1 + int(round(m_frac * (p * q - 1)))
    rng = np.random.default_rng(seed)
    if kind == "completion":
        op = completion_operator(p, q, m, seed)
    else:
        op = gaussian_operator(p, q, m, seed)
    al = spread_spd(rng, p, share * log_spread)
    ar = spread_spd(rng, q, (1.0 - share) * log_spread)
    beta = 10.0 ** log_beta

    sigma = structured_covariance(Prior.from_precision(al),
                                  Prior.from_precision(ar), op, beta)
    ref = posterior_covariance(al, ar, op, beta, method="direct")
    if kind == "completion" and 2 * m <= p * q:
        # observed side: one rank-one Woodbury row per observed entry
        assert isinstance(sigma, CompletionCovariance)
        assert sigma.kmat.shape == (m, m)
    else:
        k = m if kind == "gaussian" else p * q - m
        assert isinstance(sigma, StructuredCovariance)
        assert sigma.rows.shape == (p, k, q)
    assert_close(densify(sigma, p, q), ref)
    assert_close(sigma.contract_right(ar), trace_contract_right(ref, ar))
    new_l = random_spd(rng, p)  # update_precisions contracts a new alpha_l
    assert_close(sigma.contract_left(new_l), trace_contract_left(ref, new_l))
    assert_close(sigma.trace_quadratic(), trace_quadratic(op, ref))
    y = rng.standard_normal(m)
    x_hat = beta * sigma.apply(op.adjoint(y))
    assert_close(vec(x_hat),
                 dense_map_solve(al, ar, dense_operator(op), y, beta))


class TestStructuredCovariance:
    def test_identity_prior_fully_observed(self):
        op = completion_operator(2, 3, 6, 0)
        sigma = structured_covariance(Prior.from_precision(np.eye(2)),
                                      Prior.from_precision(np.eye(3)), op, 1.0)
        assert sigma.rows.shape[1] == 0
        np.testing.assert_allclose(densify(sigma, 2, 3), 0.5 * np.eye(6),
                                   atol=1e-15)
        assert abs(sigma.trace_quadratic() - 3.0) <= 1e-15

    def test_no_observed_entry_gives_prior(self):
        # an accelerated block may observe nothing: Sigma = C_r kron C_l
        rng = np.random.default_rng(7)
        al, ar = random_spd(rng, 3), random_spd(rng, 2)
        sigma = structured_covariance(Prior.from_precision(al),
                                      Prior.from_precision(ar),
                                      np.array([], dtype=int), 0.5)
        assert isinstance(sigma, CompletionCovariance)
        prior = np.kron(spd_inverse(ar), spd_inverse(al))
        np.testing.assert_allclose(densify(sigma, 3, 2), prior, rtol=1e-12)
        np.testing.assert_allclose(sigma.contract_right(ar),
                                   trace_contract_right(prior, ar),
                                   rtol=1e-12)
        np.testing.assert_allclose(sigma.contract_left(al),
                                   trace_contract_left(prior, al), rtol=1e-12)
        assert sigma.trace_quadratic() == 0.0
        y = rng.standard_normal((3, 2))
        np.testing.assert_allclose(vec(sigma.apply(y)), prior @ vec(y),
                                   rtol=1e-12)

    def test_indefinite_prior_rejected(self):
        op = completion_operator(2, 2, 2, 0)
        with pytest.raises(np.linalg.LinAlgError):
            structured_covariance(Prior.from_precision(np.diag([1.0, -1.0])),
                                  Prior.from_precision(np.eye(2)), op, 1.0)

    def test_beta_must_be_positive(self):
        # observed-side completion, missing-side completion, dense sensing;
        # a NaN beta would give a NaN covariance in each
        left, right = Prior.from_precision(np.eye(3)), \
            Prior.from_precision(np.eye(4))
        for op in (completion_operator(3, 4, 3, 0),
                   completion_operator(3, 4, 9, 0),
                   gaussian_operator(3, 4, 5, 0)):
            for beta in (0.0, -1.0, np.nan):
                with pytest.raises(ValueError, match="beta must be positive"):
                    structured_covariance(left, right, op, beta)

    @pytest.mark.parametrize("m", [3, 9])
    def test_precision_update_matches_dense_sigma(self, m):
        # core reads the structured form and the dense matrix alike
        rng = np.random.default_rng(m)
        op = completion_operator(3, 4, m, m)
        inst = measure(op, rng.standard_normal((3, 4)), 0.1, m)
        prec = PrecisionState(random_spd(rng, 3), random_spd(rng, 4), 1.3)
        state = SolverState(rng.standard_normal((3, 4)), None, prec)
        _, sigma = map_estimate(state, inst)
        # m = 3 of 12 is the observed side, m = 9 the missing side
        assert isinstance(sigma, CompletionCovariance if m == 3
                          else StructuredCovariance)
        dense = SolverState(state.x_hat,
                            DenseCovariance(densify(sigma, 3, 4), op), prec)
        state.sigma = sigma
        got, ref = update_precisions(state), update_precisions(dense)
        np.testing.assert_allclose(got.alpha_l, ref.alpha_l, rtol=1e-10)
        np.testing.assert_allclose(got.alpha_r, ref.alpha_r, rtol=1e-10)
        assert abs(update_noise_precision(state, inst)
                   - update_noise_precision(dense, inst)) \
            <= 1e-12 * update_noise_precision(dense, inst)


@pytest.mark.parametrize("m_frac", [0.1, 0.9])
@pytest.mark.parametrize("solver", ["rsvm", "symmetric", "accel"])
def test_solvers_allocate_nothing_pq_by_pq(m_frac, solver):
    # 30 x 30 with k = 90 Woodbury rows: the k x pq arrays take a tenth of
    # one pq x pq array, so a dense covariance anywhere would show.
    p = q = 30
    rng = np.random.default_rng(3)
    left = rng.standard_normal((p, 2))
    op = completion_operator(p, q, int(m_frac * p * q), 4)
    inst = measure(op, left @ left.T, 0.1, 5)
    hyper = Hyperparameters(max_iter=2)
    run = {"rsvm": solve, "symmetric": solve_symmetric,
           "accel": solve_accelerated}[solver]
    tracemalloc.start()
    try:
        run(inst, hyper)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (p * q) ** 2 * 8


def test_observed_completion_allocates_nothing_k_by_pq():
    # 30 x 30 at m/pq 0.1: the build, the mean and both contractions stay
    # below one k x pq array (the eigenbasis form makes several)
    p = q = 30
    rng = np.random.default_rng(8)
    op = completion_operator(p, q, (p * q) // 10, 9)
    al, ar = random_spd(rng, p), random_spd(rng, q)
    y = rng.standard_normal((p, q))
    tracemalloc.start()
    try:
        sigma = structured_covariance(Prior.from_precision(al),
                                      Prior.from_precision(ar), op, 2.0)
        sigma.apply(y)
        sigma.contract_right(ar)
        sigma.contract_left(al)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(sigma, CompletionCovariance)
    assert peak < op.m * p * q * 8


def max_rel(got, ref):
    """Max-norm error relative to the reference's largest entry."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return float(np.abs(got - ref).max() / np.abs(ref).max())


# (operator kind, m, column groups or None for the full posterior) -> the
# covariance form the posterior step builds
FACTORED_CASES = {
    "observed-completion": ("completion", 8, None, CompletionCovariance),
    "missing-completion": ("completion", 18, None, StructuredCovariance),
    "dense-sensing": ("gaussian", 10, None, StructuredCovariance),
    "accel-blocks": ("completion", 14, 3, BlockCovariance),
}


@pytest.mark.parametrize("case", FACTORED_CASES)
def test_factored_iteration_matches_matrix_reference(case):
    # Criterion 2's style for the factored priors: a real precision step,
    # balancing and posterior step against the same steps on matrices, with
    # numpy inverses of the second moments, traces of numpy inverses and a
    # fresh eigendecomposition of the balanced precisions.
    kind, m, groups, form = FACTORED_CASES[case]
    p, q = 4, 6
    make = completion_operator if kind == "completion" else gaussian_operator
    inst = measure(make(p, q, m, [71, m]), generate_low_rank(p, q, 2, [72, m]),
                   0.1, [73, m])
    if groups is None:
        def posterior(state):
            return map_estimate(state, inst)
    else:
        posterior = block_descent(inst, partition_blocks(q, groups), 2)
    rng = np.random.default_rng([74, m])
    prec = PrecisionState(random_spd(rng, p), random_spd(rng, q), 1.3)
    state = SolverState(np.zeros((p, q)), None, prec)
    state.x_hat, state.sigma = posterior(state)
    assert isinstance(state.sigma, form)
    x = state.x_hat

    stepped = update_precisions(state)
    al, ar = naive_precision_step(state.sigma, x, prec.alpha_l, prec.alpha_r,
                                  EPSILON)
    worst = max(max_rel(stepped.alpha_l, al), max_rel(stepped.alpha_r, ar))

    fast = balance_precisions(stepped, x)
    al, ar = naive_balance(al, ar, x)
    worst = max(worst, max_rel(fast.alpha_l, al), max_rel(fast.alpha_r, ar))

    ref = PrecisionState(al, ar, prec.beta)  # factored afresh
    x_fast, sigma_fast = posterior(SolverState(x, state.sigma, fast))
    x_ref, sigma_ref = posterior(SolverState(x, state.sigma, ref))
    worst = max(worst, max_rel(x_fast, x_ref),
                max_rel(sigma_fast.contract_right(ar),
                        sigma_ref.contract_right(ar)),
                max_rel(sigma_fast.contract_left(al),
                        sigma_ref.contract_left(al)),
                max_rel(sigma_fast.trace_quadratic(),
                        sigma_ref.trace_quadratic()))
    if groups is None:
        dense = dense_map_solve(al, ar, dense_operator(inst.operator), inst.y,
                                prec.beta)
        worst = max(worst, max_rel(vec(x_fast), dense))
    assert worst <= 1e-10, worst
