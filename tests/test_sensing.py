import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsvm.kronops import vec
from rsvm.sensing import (
    MeasurementOperator,
    completion_operator,
    gaussian_operator,
    generate_low_rank,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    measure,
    noise_sigma_for_snr,
    save_instance,
)

from naive_oracles import dense_operator


class TestCompletionOperator:
    def test_full_observation_is_vec(self):
        rng = np.random.default_rng(0)
        op = completion_operator(3, 4, 12, 1)
        x = rng.standard_normal((3, 4))
        y = op.forward(x)
        np.testing.assert_array_equal(np.sort(y), np.sort(vec(x)))
        np.testing.assert_array_equal(y, vec(x)[op.vec_indices])

    def test_single_measurement(self):
        op = completion_operator(4, 5, 1, 2)
        dense = dense_operator(op)
        assert dense.shape == (1, 20)
        assert dense.sum() == 1.0
        assert set(np.unique(dense)) == {0.0, 1.0}

    def test_benchmark_scale_instance(self):
        op = completion_operator(15, 30, 315, 3)
        assert op.m == 315
        assert np.unique(op.vec_indices).size == 315

    def test_m_too_large(self):
        with pytest.raises(ValueError):
            completion_operator(3, 3, 10, 0)

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            MeasurementOperator("completion", 2, 2, vec_indices=[0, 0, 1])

    @pytest.mark.parametrize("indices", [[0.7, 1.2, 3.9], [True, False]],
                             ids=["fractional", "boolean"])
    def test_non_integer_indices_rejected(self, indices):
        # neither is truncated nor read as positions
        with pytest.raises(ValueError, match="must be integers"):
            MeasurementOperator("completion", 2, 2, vec_indices=indices)


class TestGaussianOperator:
    def test_unit_columns(self):
        op = gaussian_operator(4, 5, 12, 4)
        norms = np.linalg.norm(op.matrix, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_benchmark_scale_shape(self):
        op = gaussian_operator(15, 15, 157, 5)
        assert op.matrix.shape == (157, 225)

    def test_seed_reproducibility(self):
        a = gaussian_operator(3, 4, 7, 42).matrix
        b = gaussian_operator(3, 4, 7, 42).matrix
        assert a.tobytes() == b.tobytes()


class TestGenerateLowRank:
    def test_exact_rank_count(self):
        x = generate_low_rank(15, 30, 3, 6)
        s = np.linalg.svd(x, compute_uv=False)
        assert np.count_nonzero(s > 1e-9 * s[0]) == 3

    def test_full_rank_sample(self):
        x = generate_low_rank(5, 8, 5, 7)
        s = np.linalg.svd(x, compute_uv=False)
        assert np.count_nonzero(s > 1e-9 * s[0]) == 5

    def test_rank_one_minors_vanish(self):
        x = generate_low_rank(4, 6, 1, 8)
        scale = np.abs(x).max() ** 2
        for i in range(3):
            for j in range(5):
                minor = x[i, j] * x[i + 1, j + 1] - x[i, j + 1] * x[i + 1, j]
                assert abs(minor) <= 1e-9 * scale

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            generate_low_rank(4, 6, 5, 0)


class TestNoiseSigma:
    def test_completion_formula(self):
        sigma = noise_sigma_for_snr("completion", 15, 30, 3, 315, 100.0)
        assert abs(sigma**2 - 0.03) <= 1e-15

    def test_reconstruction_formula(self):
        sigma = noise_sigma_for_snr("reconstruction", 15, 15, 2, 157, 100.0)
        assert abs(sigma**2 - 450.0 / 15700.0) <= 1e-15

    def test_noiseless_limit(self):
        assert noise_sigma_for_snr("completion", 4, 4, 2, 8, 1e12) <= 2e-6


class TestMeasure:
    def test_noiseless_is_exact(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 5))
        op = completion_operator(3, 5, 9, 10)
        inst = measure(op, x, 0.0, 11)
        np.testing.assert_array_equal(inst.y, op.forward(x))

    def test_full_observation_copies_entries(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 3))
        op = completion_operator(3, 3, 9, 13)
        inst = measure(op, x, 0.0, 14)
        np.testing.assert_array_equal(inst.y, vec(x)[op.vec_indices])

    def test_noise_second_moment(self):
        # E||n||^2 over many draws ~ m sigma^2 within 5%
        p, q, m, sigma = 5, 4, 12, 0.7
        x = np.zeros((p, q))
        op = completion_operator(p, q, m, 15)
        total = 0.0
        n_draws = 10_000
        for k in range(n_draws):
            inst = measure(op, x, sigma, [16, k])
            total += float(inst.y @ inst.y)
        assert abs(total / n_draws - m * sigma**2) <= 0.05 * m * sigma**2


class TestAdjoint:
    @pytest.mark.parametrize("make_op", [
        lambda: completion_operator(4, 6, 13, 17),
        lambda: gaussian_operator(4, 6, 13, 18),
        # zero maps: an empty mask, a dense matrix with no rows
        lambda: MeasurementOperator("completion", 4, 6, vec_indices=[]),
        lambda: MeasurementOperator("dense", 4, 6, matrix=np.zeros((0, 24))),
    ])
    def test_inner_product_identity(self, make_op):
        op = make_op()
        rng = np.random.default_rng(19)
        for _ in range(10):
            v = rng.standard_normal(24)
            w = rng.standard_normal(op.m)
            lhs = float(op.apply(v) @ w)
            rhs = float(v @ op.apply_adjoint(w))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(p=st.integers(1, 6), q=st.integers(1, 6), m_frac=st.floats(0, 1),
           dense=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_inner_product_identity_property(self, p, q, m_frac, dense,
                                             seed):
        m = 1 + int(round(m_frac * (p * q - 1)))
        make = gaussian_operator if dense else completion_operator
        op = make(p, q, m, seed)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((p, q))
        w = rng.standard_normal(m)
        lhs = float(op.forward(x) @ w)
        rhs = float(np.sum(x * op.adjoint(w)))
        assert abs(lhs - rhs) <= 1e-12 * max(
            float(np.abs(x).sum() * np.abs(w).sum()), 1.0)

    def test_completion_adjoint_scatters(self):
        op = completion_operator(3, 4, 5, 20)
        w = np.arange(1.0, 6.0)
        back = op.adjoint(w)
        assert np.count_nonzero(back) == 5
        np.testing.assert_array_equal(vec(back)[op.vec_indices], w)


class TestSnrCalibration:
    @pytest.mark.parametrize("scenario", ["completion", "reconstruction"])
    def test_empirical_snr_within_1db(self, scenario):
        p, q, r, snr_db = 8, 10, 2, 20.0
        m = 56
        snr = 10.0 ** (snr_db / 10.0)
        sig_energy = 0.0
        noise_energy = 0.0
        for k in range(100):
            x = generate_low_rank(p, q, r, [30, k])
            if scenario == "completion":
                op = completion_operator(p, q, m, [31, k])
                sigma = noise_sigma_for_snr("completion", p, q, r, m, snr)
            else:
                op = gaussian_operator(p, q, m, [31, k])
                sigma = noise_sigma_for_snr("reconstruction", p, q, r, m, snr)
            clean = op.forward(x)
            inst = measure(op, x, sigma, [32, k])
            sig_energy += float(clean @ clean)
            noise_energy += float((inst.y - clean) @ (inst.y - clean))
        empirical_db = 10.0 * np.log10(sig_energy / noise_energy)
        assert abs(empirical_db - snr_db) <= 1.0


class TestSerialization:
    def test_completion_round_trip(self):
        x = generate_low_rank(3, 4, 2, 21)
        op = completion_operator(3, 4, 7, 22)
        inst = measure(op, x, 0.1, 23)
        doc = instance_to_dict(inst)
        assert doc["kind"] == "completion"
        assert len(doc["indices"]) == 7
        back = instance_from_dict(json.loads(json.dumps(doc)))
        np.testing.assert_array_equal(back.y, inst.y)
        np.testing.assert_array_equal(back.operator.vec_indices,
                                      op.vec_indices)
        np.testing.assert_array_equal(back.ground_truth, x)
        assert back.sigma_n == inst.sigma_n

    def test_dense_round_trip(self, tmp_path):
        x = generate_low_rank(3, 3, 1, 24)
        op = gaussian_operator(3, 3, 5, 25)
        inst = measure(op, x, 0.05, 26)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        back = load_instance(path)
        np.testing.assert_array_equal(back.operator.matrix, op.matrix)
        np.testing.assert_array_equal(back.y, inst.y)

    def test_ground_truth_optional(self):
        op = completion_operator(2, 2, 3, 27)
        inst = measure(op, np.zeros((2, 2)), 0.0, 28)
        inst.ground_truth = None
        doc = instance_to_dict(inst)
        assert "ground_truth" not in doc
        assert instance_from_dict(doc).ground_truth is None

    def test_determinism_same_seed(self):
        a = measure(completion_operator(4, 4, 8, 29),
                    generate_low_rank(4, 4, 2, 30), 0.3, 31)
        b = measure(completion_operator(4, 4, 8, 29),
                    generate_low_rank(4, 4, 2, 30), 0.3, 31)
        assert a.y.tobytes() == b.y.tobytes()
        assert (a.operator.vec_indices.tobytes()
                == b.operator.vec_indices.tobytes())

    @pytest.mark.parametrize("key", ["p", "q", "m"])
    @pytest.mark.parametrize("bad", [True, [1]], ids=["boolean", "list"])
    def test_size_must_be_one_integer(self, key, bad):
        # a 1x1 instance with one entry, where either would read as 1
        doc = instance_to_dict(measure(completion_operator(1, 1, 1, 0),
                                       np.ones((1, 1)), 0.0, 0))
        doc[key] = bad
        with pytest.raises(ValueError, match="must be"):
            instance_from_dict(doc)

    @pytest.mark.parametrize("field", ["p", "indices", "y", "matrix",
                                       "ground_truth", "sigma_n",
                                       "boolean-sigma_n"])
    def test_strings_rejected_where_numbers_belong(self, field):
        # none of these loads as the number it spells
        make = gaussian_operator if field == "matrix" else completion_operator
        doc = json.loads(json.dumps(instance_to_dict(measure(
            make(2, 3, 4, 43), generate_low_rank(2, 3, 1, 44), 0.1, 45))))
        if field == "indices":
            doc["indices"] = [[str(i), str(j)] for i, j in doc["indices"]]
        elif field in ("y", "ground_truth"):
            doc[field][1] = "0.5" if field == "y" else ["1", "2", "3"]
        elif field == "matrix":
            doc["matrix"][1][2] = "1"
        elif field == "p":
            doc["p"] = "2"
        else:
            doc["sigma_n"] = "0" if field == "sigma_n" else False
        with pytest.raises(ValueError, match="must be"):
            instance_from_dict(doc)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(p=st.integers(1, 5), q=st.integers(1, 5), m_frac=st.floats(0, 1),
           dense=st.booleans(), truth=st.booleans(),
           sigma_n=st.floats(0.0, 10.0), seed=st.integers(0, 2**32 - 1))
    def test_json_round_trip_property(self, p, q, m_frac, dense, truth,
                                      sigma_n, seed):
        m = 1 + int(round(m_frac * (p * q - 1)))
        make = gaussian_operator if dense else completion_operator
        inst = measure(make(p, q, m, seed),
                       np.random.default_rng(seed).standard_normal((p, q)),
                       sigma_n, seed)
        if not truth:
            inst.ground_truth = None
        back = instance_from_dict(json.loads(json.dumps(
            instance_to_dict(inst))))
        assert (back.p, back.q, back.m) == (p, q, m)
        assert back.operator.kind == inst.operator.kind
        assert back.y.tobytes() == inst.y.tobytes()
        if dense:
            assert back.operator.matrix.tobytes() \
                == inst.operator.matrix.tobytes()
        else:
            np.testing.assert_array_equal(back.operator.vec_indices,
                                          inst.operator.vec_indices)
        if truth:
            assert back.ground_truth.tobytes() == inst.ground_truth.tobytes()
        else:
            assert back.ground_truth is None
        assert back.sigma_n == inst.sigma_n

    @pytest.mark.parametrize("kind, field", [("completion", "y"),
                                             ("dense", "y"),
                                             ("dense", "matrix")])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_input_rejected(self, kind, field, bad):
        make = gaussian_operator if kind == "dense" else completion_operator
        doc = instance_to_dict(measure(make(3, 4, 6, 40),
                                       generate_low_rank(3, 4, 1, 41),
                                       0.1, 42))
        doc = json.loads(json.dumps(doc))
        if field == "y":
            doc["y"][2] = bad
        else:
            doc["matrix"][1][3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            instance_from_dict(doc)
