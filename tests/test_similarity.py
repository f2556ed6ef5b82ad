import numpy as np
import pytest

from graphbench.inference import similarity_matrix
from graphbench.similarity import (
    cosine_similarity,
    covariance_similarity,
    pairwise_sq_euclidean,
    rbf_kernel,
)


class TestPairwiseSqEuclidean:
    def test_identical_rows(self):
        X = np.array([[1.0, 2.0], [1.0, 2.0]])
        assert pairwise_sq_euclidean(X)[0, 1] == 0

    def test_three_four_five(self):
        X = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert pairwise_sq_euclidean(X)[0, 1] == pytest.approx(25.0)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((5, 3))
        Z = pairwise_sq_euclidean(X)
        for i in range(5):
            for j in range(5):
                expected = float(np.sum((X[i] - X[j]) ** 2))
                assert abs(Z[i, j] - expected) < 1e-10


# Feature arrays of one shape in each memory layout a caller may pass. From
# n = 257 on, the Gram product X @ X.T of a strided view not first copied into
# C order can come back asymmetric in its last bits; the 8x3 case alone does not.
LAYOUTS = {
    "C": lambda rng, n, F: rng.standard_normal((n, F)),
    "F": lambda rng, n, F: np.asfortranarray(rng.standard_normal((n, F))),
    "transposed": lambda rng, n, F: rng.standard_normal((F, n)).T,
    "strided": lambda rng, n, F: rng.standard_normal((n, 2 * F))[:, ::2],
}
SHAPES = [(8, 3), (257, 2), (257, 8), (257, 100), (300, 2), (300, 8), (300, 100)]


@pytest.mark.parametrize("kind", ["cosine", "covariance", "rbf", "sqeuclidean"])
def test_exact_symmetry_zero_diag(kind):
    rng = np.random.default_rng(12)
    for n, F in SHAPES:
        for layout, make in LAYOUTS.items():
            S = similarity_matrix(make(rng, n, F), kind)
            assert np.array_equal(S, S.T), f"{layout} n={n} F={F}"
            if kind == "sqeuclidean":
                assert np.all(np.diag(S) == 0)
                assert np.all(S >= 0)


class TestCosine:
    def test_parallel(self):
        X = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert cosine_similarity(X)[0, 1] == pytest.approx(1.0)

    def test_orthogonal(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert cosine_similarity(X)[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_45_degrees(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        assert cosine_similarity(X)[0, 1] == pytest.approx(1 / np.sqrt(2), abs=1e-5)

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            cosine_similarity(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((6, 4)) + 2
        scales = rng.uniform(0.1, 9.0, size=6)
        S1 = cosine_similarity(X)
        S2 = cosine_similarity(X * scales[:, None])
        assert np.max(np.abs(S1 - S2)) < 1e-10

    def test_range_and_unit_diagonal(self):
        rng = np.random.default_rng(14)
        S = cosine_similarity(rng.standard_normal((7, 3)))
        assert np.all(S >= -1) and np.all(S <= 1)
        assert np.allclose(np.diag(S), 1)


class TestCovariance:
    def test_constant_row_zeroed(self):
        X = np.array([[5.0, 5.0, 5.0], [1.0, 2.0, 3.0]])
        S = covariance_similarity(X)
        assert S[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert S[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_is_sample_variance(self):
        X = np.array([[1.0, 2.0, 3.0, 4.0]])
        S = covariance_similarity(X)
        assert S[0, 0] == pytest.approx(np.var(X[0], ddof=1))

    def test_matches_center_then_dot_oracle(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((4, 6))
        S = covariance_similarity(X)
        for i in range(4):
            for j in range(4):
                xi = X[i] - X[i].mean()
                xj = X[j] - X[j].mean()
                assert abs(S[i, j] - xi @ xj / 5) < 1e-10

    def test_needs_two_features(self):
        with pytest.raises(ValueError):
            covariance_similarity(np.array([[1.0], [2.0]]))


class TestRbf:
    def test_zero_distance(self):
        Z = np.zeros((2, 2))
        assert rbf_kernel(Z, 1.0)[0, 1] == 1.0

    def test_log2_distance(self):
        Z = np.full((2, 2), np.log(2.0))
        np.fill_diagonal(Z, 0)
        assert rbf_kernel(Z, 1.0)[0, 1] == pytest.approx(0.5)

    def test_scalar_evaluation(self):
        Z = np.array([[0.0, 25.0], [25.0, 0.0]])
        assert rbf_kernel(Z, 0.1)[0, 1] == pytest.approx(np.exp(-2.5), abs=1e-9)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            rbf_kernel(np.zeros((2, 2)), 0.0)

    def test_monotone_decreasing_in_distance(self):
        Z1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        Z2 = np.array([[0.0, 2.0], [2.0, 0.0]])
        assert rbf_kernel(Z2, 0.7)[0, 1] < rbf_kernel(Z1, 0.7)[0, 1]

    def test_entrywise_on_asymmetric_input(self):
        Z = np.random.default_rng(17).uniform(0.0, 4.0, size=(6, 6))
        S = rbf_kernel(Z, 0.3)
        off = ~np.eye(6, dtype=bool)
        assert np.array_equal(S[off], np.exp(-0.3 * Z)[off])
        assert np.all(np.diag(S) == 1)

    def test_range(self):
        rng = np.random.default_rng(16)
        Z = pairwise_sq_euclidean(rng.standard_normal((6, 3)))
        S = rbf_kernel(Z, 0.5)
        assert np.all(S > 0) and np.all(S <= 1)
