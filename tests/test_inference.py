import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import graphbench.inference as inference_module
from graphbench.core_graph import from_arrays, from_dense
from graphbench.harness import RunConfig, build_graph, load_dataset
from graphbench.inference import (
    DEFAULT_SIGMA,
    KNN_BLOCK_ROWS,
    SIMILARITY_KINDS,
    CalibrationError,
    knn_select,
    learn_log_degree_weights,
    nnk_graph,
    nnls_solve,
    similarity_matrix,
    smooth_graph,
)
from graphbench.similarity import pairwise_sq_euclidean, rbf_kernel
from test_harness import load_perfbench_module


def edge_set(g):
    return {(i, j) for i, j, _ in g.edges}


def naive_on(X, kind, k, gamma=None):
    return knn_select(similarity_matrix(X, kind, gamma), k)


def naive_point(M, k):
    """The naive method's graph on M as a grid point builds it."""
    return build_graph(M, RunConfig("ucv", "naive", "rbf", k))


def nnk_on(X, kind, k, sigma=DEFAULT_SIGMA, gamma=None):
    return nnk_graph(similarity_matrix(X, kind, gamma), kind, k, sigma)


def smooth_on(X, k, sigma=DEFAULT_SIGMA):
    return smooth_graph(pairwise_sq_euclidean(X), k, sigma)


@pytest.mark.parametrize(
    "build, reason",
    [
        (lambda X: naive_on(X, "euclid", 3), "unknown similarity 'euclid'"),
        (lambda X: nnk_graph(np.eye(6), "euclid", 3), "unknown kernel similarity 'euclid'"),
        (lambda X: naive_on(X, "rbf", 0), "k must satisfy 1 <= k < n=6, got 0"),
        (lambda X: nnk_on(X, "rbf", 0), "k must satisfy 1 <= k < n=6, got 0"),
        (lambda X: smooth_on(X, 0), "k must be a positive finite number, got 0"),
        (
            lambda X: nnk_on(X, "rbf", 3, sigma=0.0),
            "sigma must be a positive finite number, got 0.0",
        ),
        (
            lambda X: nnk_on(X, "rbf", 3, sigma=-1.0),
            "sigma must be a positive finite number, got -1.0",
        ),
        (lambda X: smooth_on(X, 3, sigma=0.0), "sigma must be a positive finite number, got 0.0"),
        (lambda X: smooth_on(X, 3, sigma=-1.0), "sigma must be a positive finite number, got -1.0"),
        (lambda X: knn_select(similarity_matrix(X, "rbf"), 1.5), "k must be an integer, got 1.5"),
        (lambda X: naive_on(X, "rbf", 1.5), "k must be an integer, got 1.5"),
        (lambda X: naive_on(X, "rbf", True), "k must be an integer, got True"),
        (lambda X: nnk_on(X, "rbf", 1.5), "k must be an integer, got 1.5"),
        (lambda X: nnk_on(X, "rbf", True), "k must be an integer, got True"),
        (
            lambda X: knn_select(similarity_matrix(X, "rbf"), -1),
            "k must satisfy 1 <= k < n=6, got -1",
        ),
        (lambda X: from_dense(np.where(np.eye(6), 0, np.nan)), "adjacency has non-finite entries"),
        (
            lambda X: rbf_kernel(pairwise_sq_euclidean(X), math.nan),
            "gamma must be a positive finite number, got nan",
        ),
        (
            lambda X: rbf_kernel(pairwise_sq_euclidean(X), math.inf),
            "gamma must be a positive finite number, got inf",
        ),
        (
            lambda X: similarity_matrix(X, "rbf", math.nan),
            "gamma must be a positive finite number, got nan",
        ),
        (
            lambda X: similarity_matrix(X, "rbf", math.inf),
            "gamma must be a positive finite number, got inf",
        ),
        (lambda X: from_dense([[0, 1], [1, 0]], threshold=math.nan), "threshold must be finite"),
        (
            lambda X: rbf_kernel([[0, math.nan], [math.nan, 0]], 1.0),
            "distance matrix has non-finite entries",
        ),
        (lambda X: knn_select(np.zeros((0, 0)), None), "similarity matrix is empty"),
        (lambda X: naive_point(np.zeros((0, 0)), None), "similarity matrix is empty"),
        (lambda X: nnk_graph(np.zeros((0, 0)), "rbf", 1), "similarity matrix is empty"),
        (lambda X: smooth_graph(np.zeros((0, 0)), 1), "distance matrix is empty"),
        (lambda X: learn_log_degree_weights(np.zeros((0, 0))), "distance matrix is empty"),
        (
            lambda X: learn_log_degree_weights(np.where(np.eye(6), 0, np.nan)),
            "distance matrix has non-finite entries",
        ),
        (
            lambda X: learn_log_degree_weights(-pairwise_sq_euclidean(X)),
            "distance matrix must be non-negative",
        ),
        (
            lambda X: learn_log_degree_weights(pairwise_sq_euclidean(X), beta=math.nan),
            "beta must be a positive finite number, got nan",
        ),
        (
            lambda X: learn_log_degree_weights(pairwise_sq_euclidean(X), beta=-1.0),
            "beta must be a positive finite number, got -1.0",
        ),
        (
            lambda X: learn_log_degree_weights(pairwise_sq_euclidean(X), beta=0.0),
            "beta must be a positive finite number, got 0.0",
        ),
        (
            lambda X: learn_log_degree_weights(pairwise_sq_euclidean(X), beta=math.inf),
            "beta must be a positive finite number, got inf",
        ),
        (
            lambda X: learn_log_degree_weights(pairwise_sq_euclidean(X), beta=None),
            "beta must be a positive finite number, got None",
        ),
        (lambda X: nnk_on(X, "rbf", None), "method 'nnk' needs k"),
        (lambda X: smooth_on(X, None), "method 'smooth' needs k"),
        (lambda X: smooth_on(X, "3"), "k must be a positive finite number, got '3'"),
        (lambda X: smooth_on(X, True), "k must be a positive finite number, got True"),
        (
            lambda X: nnk_on(X, "rbf", 3, sigma=None),
            "sigma must be a positive finite number, got None",
        ),
        (
            lambda X: nnk_on(X, "rbf", 3, sigma=True),
            "sigma must be a positive finite number, got True",
        ),
        (lambda X: smooth_on(X, 3, sigma=None), "sigma must be a positive finite number, got None"),
        (
            lambda X: rbf_kernel(pairwise_sq_euclidean(X), True),
            "gamma must be a positive finite number, got True",
        ),
        (lambda X: smooth_on(X, 10**400), f"k must be a positive finite number, got {10**400}"),
        (
            lambda X: learn_log_degree_weights(pairwise_sq_euclidean(X), beta=10**400),
            f"beta must be a positive finite number, got {10**400}",
        ),
    ],
    ids=[
        "naive-similarity",
        "nnk-similarity",
        "naive-k",
        "nnk-k",
        "smooth-k",
        "nnk-zero-sigma",
        "nnk-negative-sigma",
        "smooth-zero-sigma",
        "smooth-negative-sigma",
        "knn_select-fractional-k",
        "naive-fractional-k",
        "naive-bool-k",
        "nnk-fractional-k",
        "nnk-bool-k",
        "knn_select-negative-k",
        "from_dense-nan",
        "rbf_kernel-nan-gamma",
        "rbf_kernel-inf-gamma",
        "rbf-similarity-nan-gamma",
        "rbf-similarity-inf-gamma",
        "from_dense-nan-threshold",
        "rbf_kernel-nan-distance",
        "knn_select-empty",
        "naive-dense-empty",
        "nnk-empty",
        "smooth-empty",
        "learn-empty",
        "learn-nan-distance",
        "learn-negative-distance",
        "learn-nan-beta",
        "learn-negative-beta",
        "learn-zero-beta",
        "learn-inf-beta",
        "learn-none-beta",
        "nnk-none-k",
        "smooth-none-k",
        "smooth-string-k",
        "smooth-bool-k",
        "nnk-none-sigma",
        "nnk-bool-sigma",
        "smooth-none-sigma",
        "rbf_kernel-bool-gamma",
        "smooth-huge-int-k",
        "learn-huge-int-beta",
    ],
)
def test_solver_rejects_bad_argument(build, reason):
    X = np.random.default_rng(0).standard_normal((6, 2))
    with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
        build(X)


def test_numpy_integer_k_builds_the_graph_of_the_python_int():
    S = similarity_matrix(np.random.default_rng(0).standard_normal((6, 2)), "rbf")
    for build in (knn_select, lambda S, k: nnk_graph(S, "rbf", k)):
        assert build(S, np.int64(2)).edges.tobytes() == build(S, 2).edges.tobytes()


def test_smooth_k_is_a_mean_degree_and_may_be_fractional():
    g = smooth_on(np.random.default_rng(1).standard_normal((12, 2)), 2.5)
    assert 0.75 * 2.5 <= 2.0 * g.n_edges / g.n <= 1.25 * 2.5


@pytest.mark.parametrize(
    "build",
    [
        lambda M: knn_select(M, 1),
        lambda M: naive_point(M, 1),
        lambda M: knn_select(M, None),
        lambda M: nnk_graph(M, "rbf", 1),
        lambda M: smooth_graph(M, 1),
        lambda M: learn_log_degree_weights(M),
    ],
    ids=["knn_select", "naive", "naive-dense", "nnk", "smooth", "learn"],
)
@pytest.mark.parametrize(
    "M",
    [np.ones((2, 3)), np.ones((6, 8)), np.ones(3), np.ones((2, 2, 2)), np.float64(1.0)],
    ids=["2x3", "6x8", "1-D", "3-D", "0-D"],
)
def test_builders_reject_a_matrix_that_is_not_square(build, M):
    with pytest.raises(ValueError, match=r"^(similarity|distance) matrix must be square and 2-D"):
        build(M)


@pytest.mark.parametrize(
    "sigma, reason",
    [
        (math.nan, "sigma must be a positive finite number, got nan"),
        (math.inf, "sigma must be a positive finite number, got inf"),
    ],
    ids=["nan", "inf"],
)
@pytest.mark.parametrize(
    "build",
    [lambda S, sigma: nnk_graph(S, "rbf", 2, sigma), lambda S, sigma: smooth_graph(S, 2, sigma)],
    ids=["nnk", "smooth"],
)
def test_builders_reject_a_sigma_that_is_not_a_positive_finite_number(build, sigma, reason):
    S = np.exp(-pairwise_sq_euclidean(np.random.default_rng(0).standard_normal((6, 2))))
    with pytest.raises(ValueError, match=f"^{reason}$"):
        build(S, sigma)


def edge_dict(g):
    return {(i, j): w for i, j, w in g.edges}


def quad_objective(K, b, t):
    return 0.5 * t @ K @ t - t @ b


def nnls_oracle(K, b, resolution=1e-3):
    """Independent minimizer of 0.5 t'Kt - t'b over t >= 0.

    Orthant grid search refined coarse-to-fine down to the given resolution
    for 1 or 2 variables; exact cyclic coordinate minimization (closed-form
    1-D steps) for larger systems, where the full grid is not enumerable.
    """
    K = np.asarray(K, float)
    b = np.asarray(b, float)
    m = b.size
    bound = max(1.0, 2.0 * np.max(np.abs(np.linalg.lstsq(K + 1e-9 * np.eye(m), b, rcond=None)[0])))
    if m == 1:
        lo, hi = 0.0, bound
        while True:
            step = max(resolution, (hi - lo) / 800.0)
            grid = np.arange(lo, hi + step, step)
            vals = 0.5 * K[0, 0] * grid**2 - b[0] * grid
            c = grid[np.argmin(vals)]
            if step <= resolution:
                return c
            lo, hi = max(0.0, c - 2 * step), c + 2 * step
    if m == 2:
        lo = np.zeros(2)
        hi = np.full(2, bound)
        while True:
            step = max(resolution, float(np.max(hi - lo)) / 800.0)
            g0 = np.arange(lo[0], hi[0] + step, step)
            g1 = np.arange(lo[1], hi[1] + step, step)
            G0, G1 = np.meshgrid(g0, g1, indexing="ij")
            vals = (
                0.5 * (K[0, 0] * G0**2 + K[1, 1] * G1**2)
                + K[0, 1] * G0 * G1
                - b[0] * G0
                - b[1] * G1
            )
            flat = np.argmin(vals)
            c = np.array([G0.flat[flat], G1.flat[flat]])
            if step <= resolution:
                return c
            lo = np.maximum(0.0, c - 2 * step)
            hi = c + 2 * step
    t = np.zeros(m)
    for _ in range(5000):
        prev = t.copy()
        for j in range(m):
            if K[j, j] <= 0:
                continue
            r = b[j] - K[j] @ t + K[j, j] * t[j]
            t[j] = max(0.0, r / K[j, j])
        if np.max(np.abs(t - prev)) < 1e-12:
            break
    return t


class TestKnnSelect:
    def test_hand_enumerated_union(self):
        S = np.array([[1.0, 0.9, 0.5], [0.9, 1.0, 0.8], [0.5, 0.8, 1.0]])
        g = knn_select(S, 1)
        assert edge_dict(g) == {(0, 1): pytest.approx(0.9), (1, 2): pytest.approx(0.8)}

    def test_tie_break_deterministic(self):
        S = np.full((4, 4), 0.5)
        np.fill_diagonal(S, 1.0)
        g1 = knn_select(S, 1)
        g2 = knn_select(S, 1)
        assert edge_set(g1) == edge_set(g2)
        # lower index wins every tie: vertex 0 picks 1, others pick 0
        assert edge_set(g1) == {(0, 1), (0, 2), (0, 3)}

    def test_k_equals_n_minus_1_complete(self):
        rng = np.random.default_rng(20)
        S = np.abs(rng.random((5, 5))) + 0.01
        S = (S + S.T) / 2
        g = knn_select(S, 4)
        assert g.n_edges == 10

    def test_rejects_large_k(self):
        with pytest.raises(ValueError):
            knn_select(np.eye(3), 3)

    def test_negative_similarities_dropped(self):
        S = np.array([[1.0, -0.5, 0.2], [-0.5, 1.0, -0.1], [0.2, -0.1, 1.0]])
        g = knn_select(S, 2)
        assert edge_set(g) == {(0, 2)}

    def test_k_zero_is_rejected(self):
        with pytest.raises(ValueError, match=r"^k must satisfy 1 <= k < n=3, got 0$"):
            knn_select(np.full((3, 3), 0.5), 0)

    def test_min_neighbor_count_at_least_k(self):
        rng = np.random.default_rng(21)
        S = rng.uniform(0.1, 1.0, (12, 12))
        S = (S + S.T) / 2
        for k in (1, 3, 5):
            g = knn_select(S, k)
            assert g.neighbor_counts().min() >= k


def knn_reference(S, k):
    """First k columns of a stable argsort of -S with the diagonal at +inf."""
    M = -S
    np.fill_diagonal(M, np.inf)
    return np.argsort(M, axis=1, kind="stable")[:, :k]


@st.composite
def tied_similarities(draw):
    """(S, k): a small matrix of few distinct values, so most rows have ties."""
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, n - 1))
    values = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])
    S = np.array(draw(st.lists(values, min_size=n * n, max_size=n * n))).reshape(n, n)
    return S, k


class TestKnnIndices:
    @settings(max_examples=400, deadline=None)
    @given(tied_similarities())
    def test_equals_stable_argsort(self, case):
        S, k = case
        assert np.array_equal(inference_module._knn_indices(S, k), knn_reference(S, k))

    @pytest.mark.parametrize(
        "S",
        [
            [[1, 0.5, np.nan], [0.5, 1, np.nan], [np.nan, np.nan, 1]],
            [[1, 0.5, -np.inf], [0.5, 1, 0.2], [-np.inf, 0.2, 1]],
            [[1, 0.5, np.inf], [0.5, 1, 0.2], [np.inf, 0.2, 1]],
            [[np.nan, 0.5, 0.1], [0.5, 1, 0.2], [0.1, 0.2, 1]],
        ],
        ids=["nan", "minus-inf", "plus-inf", "nan-diagonal"],
    )
    def test_every_builder_rejects_non_finite_entries(self, S, monkeypatch):
        # before any work: no kernel is formed and no solve runs
        for work in ("_nnk_kernel", "learn_log_degree_weights"):
            monkeypatch.setattr(inference_module, work, None)
        S = np.array(S)
        builds = [knn_select]
        builds += [lambda S, k, kind=kind: nnk_graph(S, kind, k) for kind in SIMILARITY_KINDS]
        for build in builds:
            with pytest.raises(ValueError, match="^similarity matrix has non-finite entries$"):
                build(S, 2)
        with pytest.raises(ValueError, match="^distance matrix has non-finite entries$"):
            smooth_graph(S, 2)

    @pytest.mark.parametrize("k", [1, 10, 300, 599])
    def test_rows_across_blocks(self, k):
        n = 600
        assert n > 2 * KNN_BLOCK_ROWS
        rng = np.random.default_rng(22)
        for S in (rng.integers(0, 4, (n, n)).astype(float), rng.random((n, n))):
            S = S + S.T
            S_before = S.copy()
            assert np.array_equal(inference_module._knn_indices(S, k), knn_reference(S, k))
            assert np.array_equal(S, S_before)


class TestNaiveGraph:
    def make_blobs(self, seed=0):
        rng = np.random.default_rng(seed)
        a = rng.normal([10, 0, 0], 0.05, size=(20, 3))
        b = rng.normal([-10, 5, 0], 0.05, size=(20, 3))
        return np.vstack([a, b])

    @pytest.mark.parametrize("kind", ["rbf", "cosine"])
    def test_single_vertex_dense_graph_is_empty(self, kind):
        g = naive_on(np.ones((1, 3)), kind, None)
        assert (g.n, g.n_edges) == (1, 0)

    def test_separated_blobs_disconnect(self):
        X = self.make_blobs()
        g = naive_on(X, "cosine", 3)
        # component oracle: breadth-first search over the built edges
        adj = {i: [] for i in range(g.n)}
        for i, j, _ in g.edges:
            adj[i].append(j)
            adj[j].append(i)
        seen = set()
        comps = 0
        for s in range(g.n):
            if s in seen:
                continue
            comps += 1
            stack = [s]
            while stack:
                u = stack.pop()
                if u in seen:
                    continue
                seen.add(u)
                stack.extend(adj[u])
        assert comps >= 2
        # no edge crosses the blobs
        assert all((i < 20) == (j < 20) for i, j, _ in g.edges)

    def test_permutation_equivariance(self):
        X = self.make_blobs(1)
        rng = np.random.default_rng(22)
        perm = rng.permutation(X.shape[0])
        g = naive_on(X, "rbf", 4)
        gp = naive_on(X[perm], "rbf", 4)
        expected = {(min(perm_i, perm_j), max(perm_i, perm_j)) for perm_i, perm_j in (
            (int(np.flatnonzero(perm == i)[0]), int(np.flatnonzero(perm == j)[0]))
            for i, j in edge_set(g)
        )}
        assert edge_set(gp) == expected

    def test_duplicated_rows_connected(self):
        rng = np.random.default_rng(23)
        X = rng.standard_normal((8, 3))
        X[5] = X[2]
        for k in (1, 3):
            g = naive_on(X, "cosine", k)
            assert (2, 5) in edge_set(g)

    def test_dense_when_k_none(self):
        rng = np.random.default_rng(24)
        X = np.abs(rng.standard_normal((6, 3))) + 0.1
        g = naive_on(X, "rbf", None)
        assert g.n_edges == 15


class TestNnlsSolve:
    def test_scalar_positive(self):
        t, ok = nnls_solve(np.array([[1.0]]), np.array([0.7]))
        assert ok and t[0] == pytest.approx(0.7)

    def test_scalar_clipped(self):
        t, ok = nnls_solve(np.array([[1.0]]), np.array([-0.3]))
        assert ok and t[0] == 0.0

    def test_random_psd_vs_oracle(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            m = int(rng.integers(1, 5))
            A = rng.standard_normal((m, m + 1))
            K = A @ A.T
            b = rng.standard_normal(m)
            t, ok = nnls_solve(K, b)
            assert ok
            t_oracle = np.atleast_1d(nnls_oracle(K, b))
            assert quad_objective(K, b, t) <= quad_objective(K, b, t_oracle) + 1e-5

    def test_kkt_conditions(self):
        rng = np.random.default_rng(26)
        for _ in range(30):
            m = int(rng.integers(2, 6))
            A = rng.standard_normal((m, m + 2))
            K = A @ A.T
            b = rng.standard_normal(m)
            t, ok = nnls_solve(K, b)
            assert ok
            grad = K @ t - b
            assert np.all(grad[t > 0] <= 1e-7) and np.all(np.abs(grad[t > 1e-10]) <= 1e-6)
            assert np.all(grad[t == 0] >= -1e-8)

    def test_objective_bounds(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            m = 4
            A = rng.standard_normal((m, m))
            K = A @ A.T + 0.1 * np.eye(m)
            b = rng.standard_normal(m)
            t, _ = nnls_solve(K, b)
            assert quad_objective(K, b, t) <= 0.0 + 1e-12  # zeros vector gives 0
            clipped = np.maximum(np.linalg.solve(K, b), 0)
            assert quad_objective(K, b, t) <= quad_objective(K, b, clipped) + 1e-10

    @pytest.mark.parametrize(
        "K_shape, b_shape",
        [((3, 3), (2,)), ((3, 3), (3, 1)), ((2, 3, 3), (3, 3)), ((2, 3, 3), (2, 2)), ((3,), (3,))],
    )
    def test_rejects_mismatched_shapes_naming_both(self, K_shape, b_shape):
        message = re.escape(f"K of shape {K_shape} does not match b of shape {b_shape}")
        with pytest.raises(ValueError, match=f"^{message}"):
            nnls_solve(np.ones(K_shape), np.ones(b_shape))

    @pytest.mark.parametrize(
        "K, b, name", [([[math.nan]], [1.0], "K"), ([[1.0]], [math.inf], "b")], ids=["K", "b"]
    )
    def test_rejects_non_finite_input(self, K, b, name):
        with pytest.raises(ValueError, match=f"^{name} has non-finite entries$"):
            nnls_solve(np.array(K), np.array(b))

    def test_unbounded_problem_is_finite_and_not_converged(self):
        # 0.5 t'Kt - t'b falls without bound along t_2: no minimizer exists
        t, ok = nnls_solve(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([1.0, 1.0]))
        assert ok is False and t.tolist() == [1.0, 0.0]

    def test_whole_block_solve_with_a_zero_weight_backs_off_and_converges(self):
        # the whole-block solve (1, 0) is not positive; the loop then frees t_1 alone
        t, ok = nnls_solve(np.eye(2), np.array([1.0, 0.0]))
        assert ok is True and t.tolist() == [1.0, 0.0]

    def test_pseudo_inverse_drops_the_eigenvalues_lstsq_drops(self):
        # the eigenvalue 1e-15 lies between eps * max and lstsq's cutoff eps * 12 * max:
        # inverting it would put 1e7 in the last weight
        K = np.diag(np.r_[np.linspace(1.0, 0.5, 11), 1e-15])
        b = np.r_[np.ones(11), 1e-8]
        want = np.linalg.lstsq(K, b, rcond=None)[0]
        assert want[-1] == 0.0
        got = inference_module._pinv_solve(K[None], b[None])[0]
        assert np.max(np.abs(got - want)) < 1e-12


class TestNnkGraph:
    def test_k1_reduces_to_similarity_weight(self):
        X = np.array([[0.0], [1.0], [3.0]])
        g = nnk_on(X, "rbf", 1, gamma=1.0)
        d = edge_dict(g)
        # vertex 0 and 1 pick each other: both directions solved to K01
        assert d[(0, 1)] == pytest.approx(np.exp(-1.0))

    def test_redundant_collinear_neighbor_pruned(self):
        # points 0,1,2 on a line; for vertex 0, neighbor 2 is behind neighbor 1.
        # closed-form KKT: unconstrained theta_2 < 0, so NNK zeroes it.
        X = np.array([[0.0], [1.0], [2.0]])
        g = nnk_on(X, "rbf", 2, gamma=1.0)
        assert (0, 2) not in edge_set(g)
        # hand-checked 2x2 KKT solves: theta_{0->1} = e^{-1} (neighbor 2 clipped);
        # theta_{1->0} = e^{-1}/(1 + e^{-4}) from the unconstrained 2x2 system
        expected = (np.exp(-1.0) + np.exp(-1.0) / (1 + np.exp(-4.0))) / 2
        assert edge_dict(g)[(0, 1)] == pytest.approx(expected, abs=1e-10)
        # plain k-NN keeps the redundant edge
        gk = naive_on(X, "rbf", 2, gamma=1.0)
        assert (0, 2) in edge_set(gk)

    def test_huge_sigma_empty(self):
        rng = np.random.default_rng(28)
        X = rng.standard_normal((6, 2))
        with pytest.warns(UserWarning, match="^NNK produced isolated vertices$"):
            g = nnk_on(X, "rbf", 3, sigma=10.0)
        assert g.n_edges == 0

    def test_subset_of_knn(self):
        rng = np.random.default_rng(29)
        X = rng.standard_normal((15, 4))
        for k in (2, 5):
            gn = nnk_on(X, "rbf", k, gamma=0.25)
            gk = naive_on(X, "rbf", k, gamma=0.25)
            assert edge_set(gn) <= edge_set(gk)

    def test_sigma_monotone_pruning(self):
        rng = np.random.default_rng(30)
        X = rng.standard_normal((12, 3))
        prev = None
        for sigma in (1e-6, 1e-3, 1e-1):
            g = nnk_on(X, "rbf", 4, sigma=sigma, gamma=0.5)
            if prev is not None:
                assert edge_set(g) <= prev
            prev = edge_set(g)

    def test_cosine_kernel_clips_negatives(self):
        rng = np.random.default_rng(31)
        X = rng.standard_normal((10, 3))
        g = nnk_on(X, "cosine", 3)
        assert all(w > 0 for _, _, w in g.edges)


    def test_nnls_fallbacks_warn_once_per_graph(self, monkeypatch):
        real = inference_module.nnls_solve

        def not_converged(K, b, **kwargs):
            return real(K, b, **kwargs)[0], False

        monkeypatch.setattr(inference_module, "nnls_solve", not_converged)
        X = np.random.default_rng(32).standard_normal((9, 2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            g = nnk_on(X, "rbf", 3, gamma=0.5)
        messages = [str(w.message) for w in caught if "NNLS" in str(w.message)]
        assert messages == ["NNLS did not converge for 9 vertices; they keep k-NN weights"]
        # the fallback keeps plain k-NN weights, so every k-NN edge survives
        assert edge_set(g) == edge_set(naive_on(X, "rbf", 3, gamma=0.5))

    def test_one_failed_problem_falls_back_alone(self, monkeypatch):
        # vertex 4's problem reports no convergence wherever it is solved; the
        # other problems of its stack keep their NNK weights
        X = np.random.default_rng(32).standard_normal((9, 2))
        S = similarity_matrix(X, "rbf", 0.5)
        nbrs = inference_module._knn_indices(S, 3)
        failing = S[nbrs[4], 4]
        real = inference_module.nnls_solve

        def flaky(K, b, **kwargs):
            theta, ok = real(K, b, **kwargs)
            return theta, ok and not any(np.array_equal(row, failing) for row in np.atleast_2d(b))

        want = edge_dict(nnk_graph(S, "rbf", 3))
        monkeypatch.setattr(inference_module, "nnls_solve", flaky)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            g = nnk_graph(S, "rbf", 3)
        messages = [str(w.message) for w in caught if "NNLS" in str(w.message)]
        assert messages == ["NNLS did not converge for 1 vertices; they keep k-NN weights"]
        got = edge_dict(g)
        assert {e: w for e, w in got.items() if 4 not in e} == {
            e: w for e, w in want.items() if 4 not in e
        }

    def test_converged_solves_do_not_warn(self):
        X = np.random.default_rng(33).standard_normal((9, 2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            nnk_on(X, "rbf", 3, gamma=0.5)
        assert not [w for w in caught if "NNLS" in str(w.message)]


@pytest.fixture(scope="module")
def nnk_bundles(tmp_path_factory):
    """Small seeded Cora-shaped and road-shaped bundles from the benchmark's generator."""
    gen = load_perfbench_module("gen")
    root = tmp_path_factory.mktemp("nnk_bundles")
    shape = dict(n=200, F=500, words_per_doc=40, topic_frac=0.42)
    cora = [load_dataset(gen.cora_like(root / f"cora{s}", s, **shape)) for s in (0, 1)]
    road = load_dataset(gen.road_like(root / "road", 0, n=300, mean_degree=4.0, smoothness=2.0))
    return cora, road


def recorded_solves(monkeypatch):
    """Record every (K, b, kwargs, result) of nnk_graph's nnls_solve calls."""
    real = inference_module.nnls_solve
    calls = []

    def recording(K, b, **kwargs):
        calls.append((K, b, kwargs, real(K, b, **kwargs)))
        return calls[-1][3]

    monkeypatch.setattr(inference_module, "nnls_solve", recording)
    return calls


def nnls_solve_per_vertex(K, b):
    """One vertex's Lawson-Hanson solve through np.linalg.lstsq, frozen as the reference."""
    m = b.shape[0]
    max_iter = max(10 * m, 30)
    theta = np.zeros(m)
    passive = np.zeros(m, dtype=bool)
    for _ in range(max_iter):
        grad = K @ theta - b
        candidates = np.flatnonzero(~passive & (grad < -1e-8))
        if candidates.size == 0:
            return theta, True
        passive[candidates[np.argmin(grad[candidates])]] = True
        for _ in range(max_iter):
            idx = np.flatnonzero(passive)
            sol = np.linalg.lstsq(K[np.ix_(idx, idx)], b[idx], rcond=None)[0]
            if np.all(sol > 0):
                theta = np.zeros(m)
                theta[idx] = sol
                break
            cur = theta[idx]
            neg = sol <= 0
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(neg, cur / (cur - sol), np.inf)
            new = cur + float(np.min(ratios)) * (sol - cur)
            new[neg & (new <= 1e-14)] = 0.0
            theta = np.zeros(m)
            theta[idx] = np.maximum(new, 0.0)
            passive = theta > 0
            if not passive.any():
                break
    return theta, False


def nnk_graph_per_vertex(S, similarity, k, sigma=DEFAULT_SIGMA):
    """nnk_graph solving one vertex at a time, frozen as the reference.

    Returns the graph and the objective of each converged vertex, keyed by
    the bytes of its (K, b).
    """
    S = inference_module._nnk_kernel(np.asarray(S, dtype=float), similarity)
    n = S.shape[0]
    nbrs = inference_module._knn_indices(S, k)
    theta = np.zeros(nbrs.shape)
    objectives = {}
    for i in range(n):
        pos = np.flatnonzero(S[i, nbrs[i]] > 0)
        if pos.size == 0:
            continue
        sel = nbrs[i, pos]
        K, b = S[np.ix_(sel, sel)], S[sel, i]
        t, ok = nnls_solve_per_vertex(K, b)
        theta[i, pos] = t if ok else b
        if ok:
            objectives[K.tobytes() + b.tobytes()] = quad_objective(K, b, t)
    rows, cols, w = np.repeat(np.arange(n), k), nbrs.ravel(), theta.ravel()
    keep = w > sigma
    rows, cols, w = rows[keep], cols[keep], w[keep]
    i, j, slot = inference_module._undirected(n, rows, cols, return_inverse=True)
    merged = np.zeros(i.size)
    np.add.at(merged, slot, w / 2.0)
    keep = merged > sigma
    return from_arrays(n, i[keep], j[keep], merged[keep]), objectives


@st.composite
def nnls_stacks(draw):
    """R problems of m unknowns: Gaussian-kernel blocks as in nnk_graph, and rank-deficient A A'."""
    R, m = draw(st.integers(1, 20)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Ks, bs = [], []
    for _ in range(R):
        if draw(st.booleans()):
            P = rng.standard_normal((m + 1, draw(st.integers(1, 16)))) * draw(st.floats(0.05, 1.0))
            K = np.exp(-pairwise_sq_euclidean(P))
            Ks.append(K[1:, 1:])
            bs.append(K[1:, 0])
        else:
            A = rng.standard_normal((m, draw(st.integers(1, m))))
            Ks.append(A @ A.T)
            bs.append(A @ rng.standard_normal(A.shape[1]))  # in the range of K: bounded below
    return np.stack(Ks), np.stack(bs)


class TestWholeBlockFirstStep:
    @settings(max_examples=300, deadline=None)
    @given(stack=nnls_stacks())
    def test_keeps_the_whole_block_solve_when_every_weight_is_positive(self, stack):
        K, b = stack
        whole = inference_module._pinv_solve(K, b)
        theta, _ = nnls_solve(K, b)
        for q in np.flatnonzero(np.all(whole > 0, axis=1)):
            assert theta[q].tobytes() == whole[q].tobytes()
            t, ok = nnls_solve(K[q], b[q])
            assert ok is True and t.tobytes() == whole[q].tobytes()

    def test_one_call_per_chunk_reaches_every_vertex(self, monkeypatch, nnk_bundles):
        cora, road = nnk_bundles
        calls = recorded_solves(monkeypatch)
        for S, similarity, k in [
            (similarity_matrix(road.vertex_features, "rbf"), "rbf", 10),
            (similarity_matrix(cora[0].vertex_features, "cosine"), "cosine", 5),
            (similarity_matrix(cora[0].vertex_features, "cosine"), "cosine", 20),
        ]:
            calls.clear()
            nnk_graph(S, similarity, k)
            kernel = inference_module._nnk_kernel(S, similarity)
            nbrs = inference_module._knn_indices(kernel, k)
            counts = np.count_nonzero(np.take_along_axis(kernel, nbrs, axis=1) > 0, axis=1)
            # vertices with m candidates share calls of at most 1 MB of blocks
            m, vertices = np.unique(counts[counts > 0], return_counts=True)
            per_call = np.maximum(1, 2**20 // (8 * m * m))
            assert len(calls) == np.sum(-(-vertices // per_call))
            assert all(kwargs == {} for _, _, kwargs, _ in calls)
            assert sum(b.shape[0] for _, b, _, _ in calls) == np.count_nonzero(counts)
            assert all(b.ndim == 2 for _, b, _, _ in calls)


class TestStackedSolve:
    @settings(max_examples=300, deadline=None)
    @given(stack=nnls_stacks())
    def test_each_problem_has_its_solo_bits_and_meets_kkt(self, stack):
        K, b = stack
        theta, ok = nnls_solve(K, b)
        assert theta.shape == b.shape
        solo = [nnls_solve(K[q], b[q]) for q in range(len(b))]
        assert ok is all(ok_q for _, ok_q in solo)
        for q, (t, ok_q) in enumerate(solo):
            assert theta[q].tobytes() == t.tobytes()
            assert ok_q
            grad = K[q] @ t - b[q]
            assert np.all(grad[t > 0] <= 1e-7) and np.all(np.abs(grad[t > 1e-10]) <= 1e-6)
            assert np.all(grad[t == 0] >= -1e-8)

    def test_singular_passive_block_converges(self):
        # K = A A' of rank 6 with b in its range: the least-norm passive solve sends the
        # weight just freed back to 0, and without the nearest-theta step the loop cycles
        rng = np.random.default_rng(221)
        A = rng.standard_normal((8, 6))
        K, b = A @ A.T, A @ rng.standard_normal(6)
        theta, ok = nnls_solve(K, b)
        grad = K @ theta - b
        assert ok is True and np.all(theta >= 0)
        assert np.all(np.abs(grad[theta > 1e-10]) <= 1e-6) and np.all(grad[theta == 0] >= -1e-8)

    def test_empty_stacks(self):
        theta, ok = nnls_solve(np.zeros((0, 3, 3)), np.zeros((0, 3)))
        assert theta.shape == (0, 3) and ok is True
        theta, ok = nnls_solve(np.zeros((2, 0, 0)), np.zeros((2, 0)))
        assert theta.shape == (2, 0) and ok is True

    @pytest.mark.parametrize("k", [5, 10, 20])
    def test_graphs_match_the_per_vertex_solver(self, monkeypatch, nnk_bundles, k):
        cora, road = nnk_bundles
        cases = [(road.vertex_features, "rbf")]
        cases += [(b.vertex_features, kind) for b in cora for kind in SIMILARITY_KINDS]
        calls = recorded_solves(monkeypatch)
        for X, similarity in cases:
            S = similarity_matrix(X, similarity)
            calls.clear()
            got = edge_dict(nnk_graph(S, similarity, k))
            reference, objectives = nnk_graph_per_vertex(S, similarity, k)
            want = edge_dict(reference)
            assert got.keys() == want.keys()
            scale = max(want.values())
            assert all(abs(got[e] - w) <= 1e-10 * scale for e, w in want.items())
            # every vertex converges in both, none to a higher objective; a stack
            # that did not converge is solved again one problem at a time
            converged = set()
            for K, b, _, (theta, ok) in calls:
                b, theta = np.atleast_2d(b), np.atleast_2d(theta)
                for Kq, bq, tq in zip(K.reshape(b.shape + b.shape[-1:]), b, theta):
                    key = Kq.tobytes() + bq.tobytes()
                    if ok:
                        converged.add(key)
                        assert quad_objective(Kq, bq, tq) <= objectives[key] + 1e-14
            assert converged == objectives.keys()


def golden_section(f, lo, hi, iters=200):
    phi = (np.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    for _ in range(iters):
        if f(c) < f(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    # one parabolic fit to polish below the sqrt(eps) comparison-noise floor
    m, h = (a + b) / 2, 1e-5
    f0, fm, f1 = f(m - h), f(m), f(m + h)
    denom = f0 - 2 * fm + f1
    if denom > 0:
        m += h * (f0 - f1) / (2 * denom)
    return m


def sparse_operator_log_degree_weights(
    Z, alpha=1.0, beta=1.0, max_iter=10000, rel_tol=1e-6, patience=50, step_size=0.5
):
    """Reference primal-dual solver with a sparse CSR edge-to-vertex operator S.

    Returns the weight matrix and the number of iterations run.
    """
    Z = np.asarray(Z, dtype=float)
    n = Z.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    z = Z[iu, ju]
    m = iu.size
    edge = np.arange(m)
    S = sparse.csr_matrix(
        (np.ones(2 * m), (np.concatenate([iu, ju]), np.concatenate([edge, edge]))), shape=(n, m)
    )
    St = S.T.tocsr()
    gamma = step_size / (2.0 * beta + np.sqrt(2.0 * (n - 1)))
    w = np.zeros_like(z)
    v = np.zeros(n)

    def objective(wv):
        d = S @ wv
        if np.any(d <= 0):
            return np.inf
        return float(2.0 * z @ wv - alpha * np.log(d).sum() + beta * wv @ wv)

    history = [objective(w)]
    for it in range(max_iter):
        Y = w - gamma * (2.0 * beta * w + St @ v)
        y = v + gamma * (S @ w)
        P = np.maximum(Y - 2.0 * gamma * z, 0.0)
        p = (y - np.sqrt(y * y + 4.0 * alpha * gamma)) / 2.0
        Q = P - gamma * (2.0 * beta * P + St @ p)
        q = p + gamma * (S @ P)
        w = w - Y + Q
        v = v - y + q
        history.append(objective(w))
        if it >= patience:
            prev, cur = history[-1 - patience], history[-1]
            if np.isfinite(cur) and np.isfinite(prev):
                if (prev - cur) / max(abs(cur), 1.0) < rel_tol:
                    break
    W = np.zeros((n, n))
    wpos = np.maximum(w, 0.0)
    W[iu, ju] = wpos
    W[ju, iu] = wpos
    return W, len(history) - 1


def random_sq_distances(n, seed):
    return pairwise_sq_euclidean(np.random.default_rng(seed).standard_normal((n, 3)))


class TestSmoothLearner:
    def two_node_objective(self, z, alpha=1.0, beta=1.0):
        return lambda w: 2 * z * w - 2 * alpha * np.log(max(w, 1e-300)) + 2 * (beta / 2) * w**2

    def test_two_node_zero_distance(self):
        W = learn_log_degree_weights(np.array([[0.0, 0.0], [0.0, 0.0]]))
        assert W[0, 1] == pytest.approx(1.0, abs=1e-6)

    def test_two_node_closed_form(self):
        z = 3.0
        W = learn_log_degree_weights(np.array([[0.0, z], [z, 0.0]]))
        expected = (-z + np.sqrt(13)) / 2
        assert W[0, 1] == pytest.approx(expected, abs=1e-6)
        # 1-D golden-section oracle agrees
        w_star = golden_section(self.two_node_objective(z), 1e-6, 10.0)
        assert abs(w_star - expected) < 1e-8

    def test_uniform_distances_give_uniform_weights(self):
        n = 6
        Z = np.full((n, n), 2.0)
        np.fill_diagonal(Z, 0.0)
        W = learn_log_degree_weights(Z)
        off = W[np.triu_indices(n, 1)]
        assert off.max() - off.min() < 1e-6
        assert off.min() > 0

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(32)
        X = rng.standard_normal((8, 3))
        Z = pairwise_sq_euclidean(X)
        perm = rng.permutation(8)
        W = learn_log_degree_weights(Z)
        Wp = learn_log_degree_weights(Z[np.ix_(perm, perm)])
        assert np.max(np.abs(Wp - W[np.ix_(perm, perm)])) < 1e-8

    def test_threshold_monotone(self):
        rng = np.random.default_rng(33)
        Z = pairwise_sq_euclidean(rng.standard_normal((10, 2)))
        W = learn_log_degree_weights(Z * 5)
        prev = None
        for sigma in (1e-6, 1e-3, 1e-1):
            g = from_dense(W, threshold=sigma)
            if prev is not None:
                assert edge_set(g) <= prev
            prev = edge_set(g)

    # tobytes, not np.array_equal: the bytes also tell -0.0 from 0.0
    @pytest.mark.parametrize("beta", [1.0, 1e-4, 1e-8])
    @pytest.mark.parametrize("n", [2, 7, 40])
    def test_bit_identical_to_sparse_operator(self, n, beta):
        Z = random_sq_distances(n, seed=n)
        W_ref, _ = sparse_operator_log_degree_weights(Z, beta=beta)
        assert learn_log_degree_weights(Z, beta=beta).tobytes() == W_ref.tobytes()

    def test_bit_identical_at_iteration_cap(self):
        Z = random_sq_distances(40, seed=41)
        W_ref, iterations = sparse_operator_log_degree_weights(Z, beta=1e-4, max_iter=300)
        assert iterations == 300  # stopped by the cap, not by rel_tol
        W = learn_log_degree_weights(Z, beta=1e-4, max_iter=300)
        assert W.tobytes() == W_ref.tobytes()

    def test_bit_identical_on_rel_tol_stop(self):
        Z = random_sq_distances(7, seed=42)
        W_ref, iterations = sparse_operator_log_degree_weights(Z, rel_tol=1e-3)
        assert iterations < 10000  # stopped by rel_tol, not by the cap
        assert learn_log_degree_weights(Z, rel_tol=1e-3).tobytes() == W_ref.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        scale_exp=st.floats(-4.0, 4.0),
        beta_exp=st.floats(-8.0, 0.0),
        max_iter=st.integers(1, 200),
    )
    def test_bit_identical_to_sparse_operator_on_random_problems(
        self, n, seed, scale_exp, beta_exp, max_iter
    ):
        Z = 10.0**scale_exp * random_sq_distances(n, seed)
        beta = 10.0**beta_exp
        W_ref, _ = sparse_operator_log_degree_weights(Z, beta=beta, max_iter=max_iter)
        W = learn_log_degree_weights(Z, beta=beta, max_iter=max_iter)
        assert W.tobytes() == W_ref.tobytes()


class TestSmoothGraph:
    def test_mean_degree_calibrated(self):
        rng = np.random.default_rng(34)
        X = rng.standard_normal((30, 4))
        Z = pairwise_sq_euclidean(X)
        for k in (3, 8):
            g = smooth_graph(Z, k)
            mean_deg = 2 * g.n_edges / g.n
            assert 0.75 * k <= mean_deg <= 1.25 * k

    def test_graph_invariants(self):
        rng = np.random.default_rng(35)
        Z = pairwise_sq_euclidean(rng.standard_normal((20, 3)))
        g = smooth_graph(Z, 4)
        assert all(w > 0 for _, _, w in g.edges)
        assert np.all(g.diagonal == 0)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            smooth_graph(np.zeros((5, 5)), 5)

    def test_calibration_failure_reported(self):
        # a 3-vertex graph cannot reach mean degree near 2*0.75 with k=2? it can;
        # use k larger than achievable density instead: n=4, k=3 needs a complete
        # graph; with wildly uneven distances the learner cannot stay in band at
        # any scale only in pathological cases, so force failure via sigma.
        rng = np.random.default_rng(36)
        Z = pairwise_sq_euclidean(rng.standard_normal((6, 2)))
        with pytest.raises(CalibrationError):
            smooth_graph(Z, 5, sigma=1e6)

    @pytest.fixture
    def solves(self, monkeypatch):
        """The beta of every learn_log_degree_weights call smooth_graph makes."""
        calls = []
        solve = inference_module.learn_log_degree_weights

        def counting(Z, **kwargs):
            calls.append(kwargs.get("beta", 1.0))
            return solve(Z, **kwargs)

        monkeypatch.setattr(inference_module, "learn_log_degree_weights", counting)
        return calls

    def test_target_below_sparsest_degree_fails_after_two_solves(self, solves):
        Z = pairwise_sq_euclidean(np.random.default_rng(36).standard_normal((6, 2)))
        with pytest.raises(CalibrationError, match=r"mean degrees 5\.\.1\.33"):
            smooth_graph(Z, 1)
        assert solves == [1.0, 1e-8]  # the densest and the sparsest end of the range

    def test_target_above_densest_degree_fails_after_two_solves(self, solves):
        Z = pairwise_sq_euclidean(np.random.default_rng(36).standard_normal((6, 2)))
        with pytest.raises(CalibrationError, match=r"mean degrees 0\.\.0"):
            smooth_graph(Z, 5, sigma=1e6)
        assert len(solves) == 2

    @pytest.mark.parametrize("k, bisection_steps", [(3, 5), (8, 1)])
    def test_reachable_target_costs_two_extra_solves(self, solves, k, bisection_steps):
        # same inputs as test_mean_degree_calibrated; the bisection needs
        # bisection_steps solves to land in the band on them
        Z = pairwise_sq_euclidean(np.random.default_rng(34).standard_normal((30, 4)))
        smooth_graph(Z, k)
        assert len(solves) == 2 + bisection_steps
        assert solves[:3] == [1.0, 1e-8, pytest.approx(1.0)]  # both ends, then theta = 1

    def test_shared_memo_solves_each_scale_once(self, solves):
        # on this Z, k=1 is below the sparsest end's mean degree and k=3 calibrates
        Z = pairwise_sq_euclidean(np.random.default_rng(36).standard_normal((6, 2)))
        with pytest.raises(CalibrationError) as plain_error:
            smooth_graph(Z, 1)
        del solves[:]
        plain = smooth_graph(Z, 3)
        plain_solves = list(solves)
        assert len(plain_solves) > 2  # both ends, then at least one bisection step

        memo = {}
        del solves[:]
        with pytest.raises(CalibrationError) as shared_error:
            smooth_graph(Z, 1, solves=memo)
        assert str(shared_error.value) == str(plain_error.value)
        del solves[:]
        shared = smooth_graph(Z, 3, solves=memo)
        # neither end of the range is solved again, only the bisection steps
        assert solves == plain_solves[2:]
        assert shared.edges.tobytes() == plain.edges.tobytes()
        assert shared.diagonal.tobytes() == plain.diagonal.tobytes()
        del solves[:]
        smooth_graph(Z, 3, solves=memo)
        assert solves == []

    @pytest.mark.parametrize("other_sigma", [0.1, 0.5], ids=["sparser-graph", "out-of-reach"])
    def test_memo_shared_across_sigmas(self, other_sigma):
        # on this Z, k=3 keeps 8 edges at the default sigma, 7 at 0.1 and is
        # out of reach at 0.5, where both ends of the range prune to no edges
        Z = pairwise_sq_euclidean(np.random.default_rng(36).standard_normal((6, 2)))

        def outcome(sigma, solves=None):
            try:
                return smooth_graph(Z, 3, sigma, solves).edges.tobytes()
            except CalibrationError as exc:
                return str(exc)

        memo = {}
        for sigma in (DEFAULT_SIGMA, other_sigma, DEFAULT_SIGMA):
            assert outcome(sigma, memo) == outcome(sigma)
