import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from graphbench.core_graph import (
    VARIANTS,
    Graph,
    IsolatedVertexWarning,
    connected_components,
    degrees,
    eigendecompose,
    from_dense,
    laplacian,
    matrix_exponential,
    normalize,
    read_graph,
    write_graph,
)
from graphbench.inference import naive_graph, similarity_matrix


def path3():
    return Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])


def triangle(w=1.0):
    return Graph(3, [(0, 1, w), (0, 2, w), (1, 2, w)])


class TestGraphInvariants:
    def test_rejects_self_edge(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1, 1.0)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 1, 0.0)])

    def test_rejects_lower_triangular(self):
        with pytest.raises(ValueError):
            Graph(3, [(2, 1, 1.0)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 1, 1.0), (0, 1, 2.0)])

    def test_raw_variant_forbids_diagonal(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 1, 1.0)], diagonal=np.ones(2), variant="raw")

    @pytest.mark.parametrize("bad", [-3.0, -0.5e-300, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_self_loop(self, bad):
        with pytest.raises(ValueError, match="^self-loop weights must be finite and >= 0$"):
            Graph(3, [(0, 1, 1.0)], diagonal=[bad, 0.0, 0.0], variant="augmented")

    def test_dense_is_symmetric(self):
        A = triangle(0.3).to_sparse().toarray()
        assert np.array_equal(A, A.T)


class TestDegrees:
    def test_path(self):
        assert np.allclose(degrees(path3()), [1, 2, 1])

    def test_empty(self):
        assert np.allclose(degrees(Graph(4)), np.zeros(4))

    def test_triangle_half_weights(self):
        assert np.allclose(degrees(triangle(0.5)), [1.0, 1.0, 1.0])


class TestNormalize:
    def test_path_sym_norm(self):
        g = normalize(path3(), "sym_norm")
        w = dict(((i, j), w) for i, j, w in g.edges)
        assert w[(0, 1)] == pytest.approx(1 / np.sqrt(2))
        assert w[(1, 2)] == pytest.approx(1 / np.sqrt(2))
        assert g.variant == "sym_norm"

    def test_single_edge_augmented(self):
        g = normalize(Graph(2, [(0, 1, 1.0)]), "augmented")
        assert np.allclose(g.diagonal, [1, 1])
        assert g.edges[0][2] == pytest.approx(1.0)

    def test_single_edge_augmented_sym_norm(self):
        g = normalize(Graph(2, [(0, 1, 1.0)]), "augmented_sym_norm")
        assert np.allclose(g.diagonal, [0.5, 0.5])
        assert g.edges[0][2] == pytest.approx(0.5)

    def test_uniform_degree_equals_uniform_scaling(self):
        g = triangle(0.7)
        d = 1.4
        ng = normalize(g, "sym_norm")
        for (_, _, w_old), (_, _, w_new) in zip(g.edges, ng.edges):
            assert abs(w_new - w_old / d) < 1e-12

    def test_isolated_vertex_warns(self):
        g = Graph(3, [(0, 1, 1.0)])
        with pytest.warns(IsolatedVertexWarning):
            ng = normalize(g, "sym_norm")
        assert ng.n_edges == 1

    def test_requires_raw_input(self):
        g = normalize(path3(), "sym_norm")
        with pytest.raises(ValueError):
            normalize(g, "augmented")


class TestLaplacian:
    def test_k2(self):
        L = laplacian(Graph(2, [(0, 1, 1.0)])).toarray()
        assert np.allclose(L, [[1, -1], [-1, 1]])

    def test_empty(self):
        assert np.allclose(laplacian(Graph(3)).toarray(), np.zeros((3, 3)))

    def test_triangle(self):
        L = laplacian(triangle()).toarray()
        assert np.allclose(np.diag(L), [2, 2, 2])
        assert L[0, 1] == -1

    def test_zero_row_sums(self):
        rng = np.random.default_rng(0)
        A = rng.random((6, 6))
        A = np.triu(A, 1)
        g = from_dense(A + A.T)
        assert np.allclose(laplacian(g).toarray().sum(axis=1), 0)

    def test_psd(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            A = np.triu(rng.random((8, 8)) * (rng.random((8, 8)) < 0.4), 1)
            g = from_dense(A + A.T)
            vals = np.linalg.eigvalsh(laplacian(g).toarray())
            assert vals.min() >= -1e-8


class TestEigendecompose:
    def test_k2(self):
        vals, _ = eigendecompose(laplacian(Graph(2, [(0, 1, 1.0)])))
        assert np.allclose(vals, [0, 2])

    def test_triangle(self):
        vals, _ = eigendecompose(laplacian(triangle()))
        assert np.allclose(vals, [0, 3, 3])

    def test_zero_operator(self):
        vals, V = eigendecompose(np.zeros((4, 4)))
        assert np.allclose(vals, 0)
        assert np.allclose(V.T @ V, np.eye(4))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            eigendecompose(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_reconstruction_random(self):
        rng = np.random.default_rng(2)
        for n in (5, 40, 300):
            M = rng.standard_normal((n, n))
            A = (M + M.T) / 2
            vals, V = eigendecompose(A)
            rel = np.linalg.norm((V * vals) @ V.T - A) / np.linalg.norm(A)
            assert rel < 1e-6
            G = V.T @ V
            assert np.max(np.abs(G - np.eye(n))) < 1e-8
            assert np.all(np.diff(vals) >= 0)

    def test_zero_eigs_count_components(self):
        # union-find oracle on random sparse graphs
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(5, 50))
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            edges = []
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 2.0 / n:
                        edges.append((i, j, float(rng.random()) + 0.1))
                        parent[find(i)] = find(j)
            n_comp = len({find(i) for i in range(n)})
            g = Graph(n, edges)
            vals, _ = eigendecompose(laplacian(g))
            assert int(np.sum(np.abs(vals) < 1e-6)) == n_comp


class TestPartialEigendecompose:
    @staticmethod
    def operators():
        rng = np.random.default_rng(4)
        for n in (2, 7, 40, 120):
            M = rng.standard_normal((n, n))
            yield (M + M.T) / 2
            A = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.2), 1)
            yield laplacian(from_dense(A + A.T))

    def test_lowest_eigenpairs_match_full_call(self):
        for A in self.operators():
            n = A.shape[0]
            full, _ = eigendecompose(A)
            for m in sorted({1, 2, n // 2, n - 1} - {0}):
                vals, V = eigendecompose(A, lowest=m)
                assert vals.shape == (m,) and V.shape == (n, m)
                assert np.all(np.abs(vals - full[:m]) <= 1e-12 * np.maximum(1.0, np.abs(full[:m])))
                assert np.max(np.abs(V.T @ V - np.eye(m))) < 1e-10
                residual = np.linalg.norm(A @ V - V * vals, axis=0)
                dense = A.toarray() if sparse.issparse(A) else A
                assert np.all(residual < 1e-10 * max(1.0, np.linalg.norm(dense, 2)))

    def test_lowest_at_least_n_is_the_full_call(self):
        for A in self.operators():
            n = A.shape[0]
            full_vals, full_vecs = eigendecompose(A)
            for m in (n, n + 3):
                vals, vecs = eigendecompose(A, lowest=m)
                assert np.array_equal(vals, full_vals)
                assert np.array_equal(vecs, full_vecs)

    def test_rejects_asymmetric(self):
        A = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError):
            eigendecompose(A, lowest=1)

    def test_rejects_empty_request(self):
        with pytest.raises(ValueError):
            eigendecompose(laplacian(triangle()), lowest=0)

    @pytest.mark.parametrize("lowest", [None, 2])
    @pytest.mark.parametrize("form", ["dense", "sparse"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_operator(self, bad, form, lowest):
        # symmetric, and large enough that a partial call would reach Lanczos
        A = laplacian(Graph(25, [(v, v + 1, 1.0) for v in range(24)])).toarray()
        A[0, 1] = A[1, 0] = bad
        A = sparse.csr_matrix(A) if form == "sparse" else A
        with pytest.raises(ValueError, match="^operator has non-finite entries$"):
            eigendecompose(A, lowest=lowest)

    def test_import_does_not_load_scipy_linalg(self):
        # eigendecompose imports scipy.sparse.linalg on its first Lanczos solve, and
        # AMI's log-factorials come from math.lgamma, so that `import graphbench` (and
        # with it every process's set-up) pays for none of scipy.linalg,
        # scipy.sparse.linalg and scipy.special
        modules = ["scipy.linalg", "scipy.sparse.linalg", "scipy.special"]
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys, graphbench; print([m in sys.modules for m in {modules}])"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[False, False, False]"


class TestMatrixExponential:
    def test_zero(self):
        assert np.allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3))

    def test_swap_matrix(self):
        # Taylor-series oracle: sum A^k / k! to machine precision, times e^-lambda_max
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        term = np.eye(2)
        expected = np.eye(2)
        for k in range(1, 40):
            term = term @ A / k
            expected = expected + term
        E = matrix_exponential(A)
        assert np.max(np.abs(E - expected * np.exp(-1.0))) < 1e-12
        assert E[0, 0] == pytest.approx(math.cosh(1.0) / math.e, abs=1e-12)
        assert E[0, 1] == pytest.approx(math.sinh(1.0) / math.e, abs=1e-12)

    def test_diagonal(self):
        E = matrix_exponential(np.diag([1.0, -2.0]))
        assert np.allclose(E, np.diag([1.0, np.exp(-3.0)]))

    def test_permutation_commutes(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((7, 7))
        A = (M + M.T) / 2
        perm = rng.permutation(7)
        P = np.eye(7)[perm]
        lhs = matrix_exponential(P @ A @ P.T)
        rhs = P @ matrix_exponential(A) @ P.T
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_positive_definite(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((6, 6))
        E = matrix_exponential((M + M.T) / 2)
        assert np.linalg.eigvalsh(E).min() > 0


class TestConnectedComponents:
    def test_path_and_isolated_vertices(self):
        g = Graph(7, [(1, 2, 1.0), (2, 4, 1.0), (4, 6, 1.0), (0, 5, 0.5)])
        assert connected_components(g).tolist() == [0, 1, 1, 3, 1, 0, 1]

    def test_long_path_ends_in_one_component(self):
        n = 300
        perm = np.random.default_rng(6).permutation(n)
        edges = sorted((min(a, b), max(a, b), 1.0) for a, b in zip(perm, perm[1:]))
        assert np.all(connected_components(Graph(n, edges)) == 0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 40), st.floats(0.0, 0.2), st.integers(0, 2**32 - 1))
    def test_same_partition_as_scipy(self, n, density, seed):
        from scipy.sparse.csgraph import connected_components as scipy_components

        rng = np.random.default_rng(seed)
        A = np.triu(rng.random((n, n)) < density, k=1).astype(float)
        g = from_dense(A + A.T)
        ours = connected_components(g)
        _, theirs = scipy_components(g.to_sparse(), directed=False)
        # the same blocks, each named by its lowest vertex
        pairs = set(zip(ours.tolist(), theirs.tolist()))
        assert len(pairs) == len(set(ours.tolist())) == len(set(theirs.tolist()))
        assert all(ours[v] == np.flatnonzero(ours == ours[v]).min() for v in range(n))


class TestGraphFile:
    def test_round_trip(self, tmp_path):
        g = normalize(triangle(0.25), "augmented_sym_norm")
        path = tmp_path / "g.tsv"
        write_graph(g, path)
        g2 = read_graph(path)
        assert g2.n == g.n
        assert g2.variant == g.variant
        assert np.allclose(g2.to_sparse().toarray(), g.to_sparse().toarray())

    def test_header_format(self, tmp_path):
        path = tmp_path / "g.tsv"
        write_graph(Graph(2, [(0, 1, 0.5)]), path)
        first = path.read_text().splitlines()[0]
        assert first == "#n=2 variant=raw"

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("0\t1\t0.5\n")
        with pytest.raises(ValueError):
            read_graph(path)


# Property tests: the array-backed Graph against plain-Python references that
# loop over (i, j, w) triples the way the original list-of-tuples code did.

WEIGHTS = st.one_of(
    st.floats(min_value=1e-6, max_value=1e3),
    st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf]),
)


@st.composite
def any_edges(draw):
    n = draw(st.integers(1, 6))
    index = st.integers(-1, n)
    return n, draw(st.lists(st.tuples(index, index, WEIGHTS), max_size=12))


@st.composite
def valid_graphs(draw):
    n = draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    weight = st.floats(min_value=1e-3, max_value=1e3)
    return Graph(n, [(i, j, draw(weight)) for i, j in chosen])


def reference_is_valid(n, edges):
    seen = set()
    for i, j, w in edges:
        if not (0 <= i < j < n) or not (w > 0 and math.isfinite(w)) or (i, j) in seen:
            return False
        seen.add((i, j))
    return True


def reference_dense(n, edges, diagonal):
    A = np.zeros((n, n))
    for i, j, w in edges:
        A[i, j] = A[j, i] = w
    for v in range(n):
        A[v, v] = diagonal[v]
    return A


def reference_degrees(edges, diagonal):
    d = [float(x) for x in diagonal]
    for i, j, w in edges:
        d[i] += w
        d[j] += w
    return np.array(d)


def reference_normalize(n, edges, target):
    """(edges, diagonal, warned) of the requested variant of a raw graph."""
    diagonal = [1.0 if target.startswith("augmented") else 0.0] * n
    if not target.endswith("sym_norm"):
        return edges, diagonal, False
    d = reference_degrees(edges, diagonal)
    inv = [1.0 / math.sqrt(x) if x > 0 else 0.0 for x in d]
    new_edges = [(i, j, w * inv[i] * inv[j]) for i, j, w in edges]
    # square by multiplication as NumPy's ``**2`` does; Python's ``** 2`` calls
    # pow(), which can round the last bit differently
    new_diagonal = [x * (inv[v] * inv[v]) for v, x in enumerate(diagonal)]
    return new_edges, new_diagonal, bool(np.any(d <= 0))


def triples(g):
    return [(int(i), int(j), float(w)) for i, j, w in g.edges]


@st.composite
def graphs_with_isolated_vertices(draw):
    """A valid graph plus 1-3 vertices that no edge touches."""
    g = draw(valid_graphs())
    return Graph(g.n + draw(st.integers(1, 3)), triples(g))


@st.composite
def dense_knn_graphs(draw):
    """The naive graph at k=None on rbf similarities: every vertex pair an edge."""
    n = draw(st.integers(2, 8))
    X = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, 3))
    return naive_graph(similarity_matrix(X, "rbf"), None)


def reference_laplacian(n, edges):
    """D - W as a dense array, each entry set once, degrees summed in edge order."""
    L = np.zeros((n, n))
    d = [0.0] * n
    for i, j, w in edges:
        L[i, j] = L[j, i] = -w
        d[i] += w
        d[j] += w
    for v in range(n):
        L[v, v] = d[v]
    return L


class TestGraphProperties:
    @settings(max_examples=300, deadline=None)
    @given(any_edges())
    def test_validation_rejects_exactly_bad_edges(self, case):
        n, edges = case
        if reference_is_valid(n, edges):
            assert triples(Graph(n, edges)) == edges
        else:
            with pytest.raises(ValueError):
                Graph(n, edges)

    @settings(max_examples=200, deadline=None)
    @given(valid_graphs())
    def test_matrices_match_reference(self, g):
        edges = triples(g)
        assert np.array_equal(g.to_sparse().toarray(), reference_dense(g.n, edges, g.diagonal))
        assert np.array_equal(degrees(g), reference_degrees(edges, g.diagonal))
        counts = np.zeros(g.n, dtype=int)
        for i, j, _ in edges:
            counts[i] += 1
            counts[j] += 1
        assert np.array_equal(g.neighbor_counts(), counts)

    @settings(max_examples=200, deadline=None)
    @given(valid_graphs(), st.sampled_from(VARIANTS))
    @example(
        Graph(4, [(0, 1, 76.43994447919606), (0, 2, 1.0), (0, 3, 1.0), (2, 3, 1.0),
                  (1, 2, 1000.0), (1, 3, 1000.0)]),
        "augmented_sym_norm",
    )
    def test_normalize_matches_reference(self, g, target):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            h = normalize(g, target)
        edges, diagonal, warned = reference_normalize(g.n, triples(g), target)
        assert h.variant == target
        assert triples(h) == edges
        assert np.array_equal(h.diagonal, diagonal)
        assert any(issubclass(w.category, IsolatedVertexWarning) for w in caught) == warned

    @pytest.mark.filterwarnings("ignore::graphbench.core_graph.IsolatedVertexWarning")
    @settings(max_examples=200, deadline=None)
    @given(graphs_with_isolated_vertices(), st.sampled_from(["sym_norm", "augmented_sym_norm"]))
    def test_normalized_spectrum_lies_in_unit_interval(self, g, target):
        eigenvalues = np.linalg.eigvalsh(normalize(g, target).to_sparse().toarray())
        assert np.all(np.abs(eigenvalues) <= 1.0 + 1e-12)

    @pytest.mark.filterwarnings("ignore::graphbench.core_graph.IsolatedVertexWarning")
    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(valid_graphs(), graphs_with_isolated_vertices(), dense_knn_graphs()),
        st.sampled_from(VARIANTS),
    )
    def test_sparse_laplacian_equals_the_dense_build(self, g, target):
        h = normalize(g, target)
        L = laplacian(h)
        assert isinstance(L, sparse.csr_matrix)
        assert L.toarray().tobytes() == reference_laplacian(h.n, triples(h)).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(valid_graphs(), graphs_with_isolated_vertices()))
    def test_self_loops_leave_the_laplacian_bit_for_bit(self, g):
        L = laplacian(g).toarray()
        assert laplacian(normalize(g, "augmented")).toarray().tobytes() == L.tobytes()
        # on a graph without self-loops, L is D - A as computed before loops were left out
        assert L.tobytes() == (np.diag(degrees(g)) - g.to_sparse().toarray()).tobytes()

    @pytest.mark.filterwarnings("ignore::graphbench.core_graph.IsolatedVertexWarning")
    @settings(max_examples=100, deadline=None)
    @given(valid_graphs(), st.sampled_from(VARIANTS))
    def test_file_round_trip_is_exact(self, g, target):
        h = normalize(g, target)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.tsv"
            write_graph(h, path)
            back = read_graph(path)
        assert (back.n, back.variant) == (h.n, h.variant)
        assert triples(back) == triples(h)
        assert np.array_equal(back.diagonal, h.diagonal)

