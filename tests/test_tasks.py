import hashlib
import importlib.util
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import graphbench.core_graph as core_graph_module
import graphbench.tasks as tasks_module
from graphbench.core_graph import (
    VARIANTS,
    Graph,
    connected_components,
    from_dense,
    laplacian,
    matrix_exponential,
    normalize,
)
from graphbench.harness import (
    DatasetBundle,
    RunConfig,
    load_dataset,
    point_graph,
    run_task2,
    split_generator,
)
from graphbench.metrics import accuracy, add_noise_to_snr, ami, snr_db
from graphbench.tasks import (
    best_tau_denoise,
    denoise,
    diffuse_features,
    discretize,
    kmeans,
    propagate_labels,
    sgc_predict,
    simoncelli_response,
    spectral_cluster,
    spectral_embed,
    train_logistic_regression,
)


def clique_union(sizes):
    n = sum(sizes)
    edges = []
    start = 0
    labels = []
    for c, size in enumerate(sizes):
        for i in range(start, start + size):
            labels.append(c)
            for j in range(i + 1, start + size):
                edges.append((i, j, 1.0))
        start += size
    return Graph(n, edges), np.array(labels)


MULTIPLICITY = "^eigenvalue multiplicity across the embedding boundary"


class TestSpectralEmbed:
    def test_two_components_separate(self):
        g, labels = clique_union([4, 4])
        emb = spectral_embed(g, 2)
        # rows of the same component coincide, components differ
        assert np.allclose(emb[0], emb[1], atol=1e-8) or np.allclose(
            emb[0, 0], emb[1, 0], atol=1e-8
        )
        assert not np.allclose(emb[0], emb[4], atol=1e-6)

    def test_k4_spectrum_and_orthonormality(self):
        g, _ = clique_union([4])
        from graphbench.core_graph import eigendecompose

        [(_, vals, _)] = eigendecompose(laplacian(g))
        assert np.allclose(vals[1:], 4.0)
        with pytest.warns(UserWarning, match=MULTIPLICITY):
            emb = spectral_embed(g, 2)
        assert np.allclose(emb.T @ emb, np.eye(2), atol=1e-8)

    def test_p4_fiedler_monotone(self):
        g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        emb = spectral_embed(g, 1)
        col = emb[:, 0]
        # dense eigensolver oracle on the 4x4 Laplacian
        vals, vecs = np.linalg.eigh(laplacian(g).toarray())
        fiedler = vecs[:, 1]
        assert np.allclose(np.abs(col), np.abs(fiedler), atol=1e-10)
        diffs = np.diff(col)
        assert np.all(diffs < 0) or np.all(diffs > 0)

    def test_sign_convention(self):
        g, _ = clique_union([3, 5])
        with pytest.warns(UserWarning, match=MULTIPLICITY):
            emb = spectral_embed(g, 3)
        for c in range(emb.shape[1]):
            assert emb[np.argmax(np.abs(emb[:, c])), c] > 0

    def test_permutation_equivariance(self):
        # path graph: simple spectrum, so eigenvectors are unique up to sign
        g = Graph(7, [(i, i + 1, 1.0) for i in range(6)])
        rng = np.random.default_rng(50)
        perm = rng.permutation(7)
        A = g.to_sparse().toarray()
        gp = from_dense(A[np.ix_(perm, perm)])
        e1 = spectral_embed(g, 3)
        e2 = spectral_embed(gp, 3)
        assert np.allclose(np.abs(e2), np.abs(e1[perm]), atol=1e-8)

    def test_needs_enough_vertices(self):
        g, _ = clique_union([2])
        with pytest.raises(ValueError):
            spectral_embed(g, 2)

    @pytest.mark.parametrize("C", [0, -1])
    def test_needs_at_least_one_dimension(self, C):
        g, _ = clique_union([4])
        with pytest.raises(ValueError, match=r"^need 1 <= C and C \+ 1 <= n$"):
            spectral_embed(g, C)

    @pytest.mark.parametrize("C", [1.5, 2.0, True])
    @pytest.mark.parametrize("embed", [spectral_embed, spectral_cluster])
    def test_rejects_a_non_integer_C(self, embed, C):
        g, _ = clique_union([4])
        with pytest.raises(ValueError, match=f"^C must be an integer, got {C!r}$"):
            embed(g, C)

    def test_null_space_does_not_follow_the_eigensolver(self, monkeypatch):
        # each component's zero pair carries round-off, and its vector's sign is arbitrary;
        # three paths have a simple nonzero spectrum, so the rest of the embedding is unique
        g = Graph(15, [(v, v + 1, 1.0) for v in range(14) if v not in (3, 8)])
        want = spectral_embed(g, 4)
        indicators = (connected_components(g)[:, None] == [0, 4, 9]) / np.sqrt([4, 5, 6])
        assert np.array_equal(want[:, :3], indicators)
        real = tasks_module.eigendecompose

        def perturbed(A, lowest=None):
            blocks = real(A, lowest)
            # 0.3 lies above the 6-path's Fiedler value, 2 - 2 cos(pi / 6) ~ 0.27
            for (_, w, V), noise in zip(blocks, [0.3, -1e-14, 2e-14]):
                w[0], V[:, 0] = noise, -V[:, 0]
            return blocks

        monkeypatch.setattr(tasks_module, "eigendecompose", perturbed)
        assert np.array_equal(spectral_embed(g, 4), want)

    def test_skip_first_flag(self):
        g, _ = clique_union([5])
        with pytest.warns(UserWarning, match=MULTIPLICITY):
            e = spectral_embed(g, 2)
        # a connected graph's index-0 eigenvector is constant, and it is skipped
        assert not np.allclose(e[:, 0], e[0, 0], atol=1e-8)


def _reference_pp_starts(points, C, rng):
    """k-means++ starts as the dense c-means drew them: one n x F pass per center."""
    n = points.shape[0]
    centers = np.empty((C, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, C):
        total = d2.sum()
        centers[c] = points[rng.integers(n) if total <= 0 else rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((points - centers[c]) ** 2, axis=1))
    return centers


def _reference_means(points, assign, d2, C):
    """Cluster means as the dense c-means took them; an empty cluster takes a point in place."""
    centers = np.empty((C, points.shape[1]))
    for c in range(C):
        sel = assign == c
        if not sel.any():
            far = int(np.argmax(np.min(d2, axis=1)))
            assign[far] = c
            sel = assign == c
        centers[c] = points[sel].mean(axis=0)
    return centers


def _reference_kmeans(points, C, seed):
    """The dense c-means that kmeans replaced: the same draws and rules, on n x F arrays."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    point_sq = np.sum(points**2, axis=1)[:, None]
    best_assign, best_wcss = None, np.inf
    for _ in range(tasks_module.KMEANS_RESTARTS):
        centers = _reference_pp_starts(points, C, rng)
        assign = np.full(n, -1)
        for _ in range(tasks_module.KMEANS_MAX_ITER):
            d2 = point_sq - 2.0 * points @ centers.T + np.sum(centers**2, axis=1)[None, :]
            new_assign = np.argmin(d2, axis=1)
            centers = _reference_means(points, new_assign, d2, C)
            if np.array_equal(new_assign, assign):
                break
            assign = new_assign
        wcss = float(np.sum((points - centers[assign]) ** 2))
        if wcss < best_wcss:
            best_wcss, best_assign = wcss, assign.copy()
    return best_assign


def _binary_features(n, F, density, seed):
    return (np.random.default_rng(seed).random((n, F)) < density).astype(float)


def _csr_and_sq(points):
    return sparse.csr_matrix(points), np.einsum("ij,ij->i", points, points)


def _blobs(shift=0.0):
    rng = np.random.default_rng(51)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]]) + shift
    return np.vstack([rng.normal(c, 0.01, size=(15, 2)) for c in centers]), np.repeat([0, 1, 2], 15)


class TestKmeans:
    def test_single_cluster(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
        assignment = kmeans(pts, 1, seed=0)
        assert np.all(assignment == 0)

    def test_two_points_two_clusters(self):
        assignment = kmeans(np.array([[0.0], [5.0]]), 2, seed=0)
        assert assignment[0] != assignment[1]

    @pytest.mark.parametrize(
        "C, reason",
        [
            (0, "need at least 1 cluster"),
            (4, "need at least C points"),
            (1.5, "C must be an integer, got 1.5"),
            (2.0, "C must be an integer, got 2.0"),
        ],
    )
    def test_rejects_a_cluster_count_outside_1_to_n(self, C, reason):
        with pytest.raises(ValueError, match=f"^{reason}$"):
            kmeans(np.array([[0.0], [2.0], [4.0]]), C, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_a_point_that_is_not_finite(self, bad):
        with pytest.raises(ValueError, match="^points has non-finite entries$"):
            kmeans(np.array([[0.0], [2.0], [bad]]), 2, seed=0)

    def test_separated_blobs_all_seeds(self):
        pts, truth = _blobs()
        for seed in range(50):
            assignment = kmeans(pts, 3, seed=seed)
            assert ami(assignment, truth) == pytest.approx(1.0)
            assert np.array_equal(assignment, _reference_kmeans(pts, 3, seed))

    def test_blobs_far_from_origin(self):
        # |x|^2 ~ 2e16 there, so the expansion cancels to rounding noise inside a
        # blob: clipped at 0, every k-means++ probability stays non-negative
        pts, truth = _blobs(shift=1e8)
        for seed in range(10):
            assert ami(kmeans(pts, 3, seed=seed), truth) == pytest.approx(1.0)

    def test_empty_cluster_reseed_matches_reference(self):
        # 3 locations and C = 4: k-means++ repeats a location, the duplicate
        # center loses every argmin tie, and its cluster is reseeded
        pts = np.repeat([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]], 4, axis=0)
        pts = pts[np.random.default_rng(0).permutation(12)]
        for seed in range(10):
            assignment = kmeans(pts, 4, seed=seed)
            assert np.unique(assignment).size == 4  # only a reseed fills a fourth cluster
            assert np.array_equal(assignment, _reference_kmeans(pts, 4, seed))

    def test_cora_like_bundles_match_reference(self, tmp_path):
        gen = load_perfbench_gen()
        for seed in range(3):
            bundle = load_dataset(gen.cora_like(tmp_path / str(seed), seed, 300, 1433, 40, 0.42))
            X = bundle.vertex_features
            for kmeans_seed in (0, 1):
                want = _reference_kmeans(X, bundle.C, kmeans_seed)
                assert np.array_equal(kmeans(X, bundle.C, kmeans_seed), want), (seed, kmeans_seed)

    # On 0/1 features the k-means++ distances are integers and the center sums
    # are exact, so both steps match the dense reference bit for bit. Whole runs
    # are compared on inputs above, not here: on small 0/1 matrices two restarts
    # (or two centers) often tie exactly, and rounding then decides in each version.
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 30), st.integers(1, 40), st.integers(1, 6), st.floats(0.05, 0.7),
        st.integers(0, 2**32 - 1),
    )
    def test_pp_starts_bit_identical_on_binary_features(self, n, F, C, density, seed):
        points = _binary_features(n, F, density, seed)
        C = min(C, n)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = tasks_module._kmeans_pp(points, *_csr_and_sq(points), C, got_rng)
        assert np.array_equal(got, _reference_pp_starts(points, C, want_rng))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 20), st.integers(1, 40), st.integers(1, 6), st.floats(0.05, 0.7),
        st.integers(0, 2**32 - 1),
    )
    def test_means_bit_identical_on_binary_features(self, n, F, C, density, seed):
        points = _binary_features(n, F, density, seed)
        rng = np.random.default_rng([seed, 1])
        assign = rng.integers(C, size=n)  # empty clusters are common at small n
        d2 = rng.integers(0, 4, size=(n, C)).astype(float)  # with ties for the farthest point
        got_assign, want_assign = assign.copy(), assign.copy()
        got = tasks_module._cluster_means(_csr_and_sq(points)[0], got_assign, d2, C)
        assert np.array_equal(got, _reference_means(points, want_assign, d2, C))
        assert np.array_equal(got_assign, want_assign)


class TestDiscretize:
    def test_indicator_fixed_point(self):
        assign = np.array([0, 0, 1, 2, 1])
        M = np.zeros((5, 3))
        M[np.arange(5), assign] = 3.7
        assignment = discretize(M, seed=0)
        assert ami(assignment, assign) == pytest.approx(1.0)

    def test_rotated_indicator_recovered(self):
        rng = np.random.default_rng(52)
        assign = rng.integers(0, 3, 30)
        M = np.zeros((30, 3))
        M[np.arange(30), assign] = 1.0
        R = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        assignment = discretize(M @ R, seed=1)
        assert ami(assignment, assign) == pytest.approx(1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(53)
        X = rng.standard_normal((12, 3))
        p1 = discretize(X, seed=5)
        p2 = discretize(10.0 * X, seed=5)
        assert np.array_equal(p1, p2)

    def test_needs_two_columns(self):
        with pytest.raises(ValueError):
            discretize(np.ones((4, 1)))

    def test_needs_a_row(self):
        with pytest.raises(ValueError, match=r"n >= 1 rows and C >= 2 columns, got \(0, 3\)"):
            discretize(np.zeros((0, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_needs_a_finite_embedding(self, bad):
        with pytest.raises(ValueError, match="^embedding has non-finite entries$"):
            discretize([[bad, 1.0], [1.0, 0.0], [0.0, 1.0]])


class TestSpectralCluster:
    def test_two_components_recovered(self):
        g, labels = clique_union([5, 6])
        assignment = spectral_cluster(g, 2, seed=0)
        assert ami(assignment, labels) == pytest.approx(1.0)

    def test_three_cliques(self):
        g, labels = clique_union([5, 5, 5])
        assignment = spectral_cluster(g, 3, seed=0)
        assert ami(assignment, labels) == pytest.approx(1.0)

    def test_permutation_equivariance(self):
        g, labels = clique_union([4, 4, 5])
        rng = np.random.default_rng(54)
        perm = rng.permutation(13)
        gp = from_dense(g.to_sparse().toarray()[np.ix_(perm, perm)])
        p1 = spectral_cluster(g, 3, seed=2)
        p2 = spectral_cluster(gp, 3, seed=2)
        assert ami(p1[perm], p2) == pytest.approx(1.0)


def load_perfbench_gen():
    """The benchmark's seeded bundle generator, imported from perfbench/gen.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def full_spectrum_cluster(g, C, seed=0, null_space=None):
    """Reference spectral clustering from every eigenpair of np.linalg.eigh.

    ``null_space``, when given, replaces eigh's basis of the Laplacian's null
    space, which is arbitrary once that space has two or more dimensions.
    """
    vals, vecs = np.linalg.eigh(laplacian(g).toarray())
    lo = 0 if np.unique(connected_components(g)).size >= 2 else 1
    if null_space is not None:
        vecs[:, : null_space.shape[1]] = null_space
    emb = vecs[:, lo : lo + C].copy()
    for c in range(C):
        if emb[np.argmax(np.abs(emb[:, c])), c] < 0:
            emb[:, c] = -emb[:, c]
    return discretize(emb, seed=seed)


class TestPartialSpectrum:
    def test_cluster_embeds_through_spectral_embed(self, monkeypatch):
        g, _ = clique_union([4, 4])
        seen = []

        def capturing(emb, seed=0):
            seen.append(emb)
            return discretize(emb, seed=seed)

        monkeypatch.setattr(tasks_module, "discretize", capturing)
        spectral_cluster(g, 2)
        assert len(seen) == 1
        assert np.array_equal(seen[0], spectral_embed(g, 2))

    def test_requested_spectra(self, monkeypatch):
        requests = []
        real = core_graph_module.eigendecompose

        def recording(A, lowest=None):
            requests.append(lowest)
            return real(A, lowest)

        monkeypatch.setattr(tasks_module, "eigendecompose", recording)
        monkeypatch.setattr(core_graph_module, "eigendecompose", recording)
        g, _ = clique_union([4, 4, 5])
        spectral_cluster(g, 3)
        assert requests == [3 + 2]
        denoise(g, np.ones(13), [0.25, 0.5])
        core_graph_module.matrix_exponential(g.to_sparse())
        assert requests == [3 + 2, None, None]

    def test_same_ami_as_full_decomposition(self, tmp_path):
        # Cora-shaped bundles as in the benchmark, at n=200; every seed is asserted
        gen = load_perfbench_gen()
        graphs = (("naive", "cosine"), ("naive", "rbf"), ("nnk", "cosine"))
        for seed in range(10):
            root = gen.cora_like(tmp_path / str(seed), seed, 200, 1433, 40, 0.42)
            bundle = load_dataset(root)
            for method, similarity in graphs:
                raw = point_graph(bundle, RunConfig("ucv", method, similarity, k=10))
                for variant in VARIANTS:
                    g = normalize(raw, variant)
                    got = ami(spectral_cluster(g, bundle.C), bundle.labels)
                    want = ami(full_spectrum_cluster(g, bundle.C), bundle.labels)
                    assert round(got, 6) == round(want, 6), (seed, method, similarity, variant)


class TestLaplacianSpectrum:
    def test_null_space_is_exact_zeros_and_component_indicators(self):
        cliques, _ = clique_union([3, 4, 5])
        g = Graph(14, cliques.edges)  # two isolated vertices, 12 and 13
        components = connected_components(g)
        names = np.unique(components)
        for lowest in (None, 3, 8):
            vals, vecs = tasks_module._laplacian_spectrum(g, lowest)
            c = min(names.size, vals.size)
            assert np.count_nonzero(vals == 0) == c and np.all(vals[:c] == 0)
            member = components[:, None] == names[:c]
            assert np.array_equal(vecs[:, :c], member / np.sqrt(member.sum(axis=0)))
            assert np.all(vals[c:] > 0.5)

    def test_connected_graph_keeps_the_solver_pairs_bit_for_bit(self):
        rng = np.random.default_rng(94)
        A = rng.random((30, 30)) * (rng.random((30, 30)) < 0.3)
        g = from_dense(np.triu(A, 1) + np.triu(A, 1).T)
        assert np.all(connected_components(g) == 0)
        for lowest in (None, 4):
            vals, vecs = tasks_module._laplacian_spectrum(g, lowest)
            [(_, want_vals, want_vecs)] = core_graph_module.eigendecompose(laplacian(g), lowest)
            assert vals[0] == 0 and np.array_equal(vecs[:, 0], np.full(30, 1 / np.sqrt(30)))
            assert np.array_equal(vals[1:], want_vals[1:])
            assert np.array_equal(vecs[:, 1:], want_vecs[:, 1:])


    @staticmethod
    def light_path_beside_heavy_clique():
        """A weight-1e-15 path 0-1-2 beside a 6-clique on 3..8 with weights near 1e4, and its edges."""
        w = np.random.default_rng(0).uniform(0.5e4, 1.5e4, 15)
        clique = [(i, j) for i in range(3, 9) for j in range(i + 1, 9)]
        edges = [(0, 1, 1e-15), (1, 2, 1e-15)] + [(i, j, x) for (i, j), x in zip(clique, w)]
        return Graph(9, edges), edges

    def test_a_light_component_keeps_its_own_pairs(self):
        # the clique's round-off pair lies above the path's 1e-15, so an overwrite of the first
        # two merged pairs gave the clique's indicator twice and lost the path's pairs
        g, _ = self.light_path_beside_heavy_clique()
        vals, vecs = tasks_module._laplacian_spectrum(g)
        assert np.count_nonzero(vals == 0) == 2 and np.all(vals[:2] == 0)
        member = connected_components(g)[:, None] == [0, 3]
        assert np.array_equal(vecs[:, :2], member / np.sqrt([3, 6]))
        # 1e-15 times the unit 3-path's Laplacian, whose eigenvalues are 0, 1 and 3
        assert np.all(np.abs(vals[2:4] - [1e-15, 3e-15]) < 1e-25)
        assert np.all(vecs[3:, 2:4] == 0)
        assert np.all(vals[4:] > 1e3)

    def test_a_light_component_keeps_an_orthonormal_basis(self):
        g, _ = self.light_path_beside_heavy_clique()
        _, vecs = tasks_module._laplacian_spectrum(g)
        assert np.max(np.abs(vecs.T @ vecs - np.eye(9))) < 1e-12

    def test_denoise_keeps_the_light_component_apart(self):
        # tau = 0.025 passes the path's band and each component's mean, and stops the clique's
        g, _ = self.light_path_beside_heavy_clique()
        out = denoise(g, np.arange(9.0), [0.025])[0]
        assert np.max(np.abs(out - ([0.0, 1.0, 2.0] + [5.5] * 6))) < 1e-12

    def test_denoise_commutes_with_a_relabelling(self):
        g, edges = self.light_path_beside_heavy_clique()
        perm = np.random.default_rng(0).permutation(9)  # vertex v becomes perm[v]
        relabelled = Graph(9, [(min(perm[i], perm[j]), max(perm[i], perm[j]), w) for i, j, w in edges])
        x = np.arange(9.0)
        y = np.empty(9)
        y[perm] = x
        out = denoise(relabelled, y, [0.025])[0][perm]
        assert np.max(np.abs(out - denoise(g, x, [0.025])[0])) < 1e-12


class TestLanczosSpectrum:
    """The partial spectrum of Cora-shaped Laplacians, whose blocks go through eigsh."""

    @staticmethod
    def cora_graph(root, seed, n):
        bundle = load_dataset(load_perfbench_gen().cora_like(root, seed, n, 1433, 40, 0.42))
        return point_graph(bundle, RunConfig("ucv", "naive", "cosine", k=10)), bundle

    @staticmethod
    def counting_eigsh(monkeypatch):
        import scipy.sparse.linalg

        calls, real = [], scipy.sparse.linalg.eigsh

        def counting(*args, **kwargs):
            calls.append(args[0].shape[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting)
        return calls

    def test_disconnected_graph_keeps_every_zero(self, tmp_path, monkeypatch):
        # three graphs with their vertices interleaved (vertex v of graph b is
        # 3v + b), then two isolated vertices
        parts = [self.cora_graph(tmp_path / str(seed), seed, 150) for seed in range(3)]
        n = 3 * 150 + 2
        g = Graph(n, [(3 * u + b, 3 * v + b, x) for b, (part, _) in enumerate(parts)
                      for u, v, x in part.edges.tolist()])
        labels = np.zeros(n, dtype=int)
        for b, (_, bundle) in enumerate(parts):
            labels[b : 450 : 3] = bundle.labels
        C = parts[0][1].C
        components = connected_components(g)
        n_components = np.unique(components).size
        assert n_components == 5 < C + 2
        calls = self.counting_eigsh(monkeypatch)
        L = laplacian(g)
        blocks = core_graph_module.eigendecompose(L, lowest=C + 2)
        assert calls == [150, 150, 150]
        # one block per component, in the order of its lowest vertex
        assert [idx.tolist() for idx, _, _ in blocks] == [
            np.flatnonzero(components == name).tolist() for name in np.unique(components)
        ]
        vals = np.sort(np.concatenate([w for _, w, _ in blocks]))[: C + 2]
        full = np.linalg.eigvalsh(L.toarray())
        assert np.max(np.abs(vals - full[: C + 2])) < 1e-10
        for idx, w, V in blocks:
            # each component's one zero comes first, its eigenvector covering the whole component
            assert np.sum(np.abs(w) < 1e-8) == 1 and abs(w[0]) < 1e-8
            assert np.all(np.abs(V[:, 0]) > 0)
        # eigh's basis of the null space changes with the BLAS thread count, and the order
        # of the zero pairs with the kernel, so spectral_embed and the reference both span
        # it by the normalised component indicators, in connected_components order
        member = components[:, None] == np.unique(components)
        indicators = member / np.sqrt(member.sum(axis=0))
        got = ami(spectral_cluster(g, C), labels)
        want = ami(full_spectrum_cluster(g, C, null_space=indicators), labels)
        assert got == pytest.approx(want, abs=1e-12)

    def test_partial_call_is_deterministic(self, tmp_path, monkeypatch):
        g, _ = self.cora_graph(tmp_path / "a", 0, 300)
        L = laplacian(g)
        calls = self.counting_eigsh(monkeypatch)

        def digest():
            [(_, vals, vecs)] = core_graph_module.eigendecompose(L, lowest=9)
            return hashlib.sha256(vals.tobytes() + vecs.tobytes()).hexdigest()

        first = digest()
        assert calls == [300]
        # other solves in between, so a start vector drawn from ARPACK's own
        # generator would differ on the next call
        from scipy.sparse.linalg import eigsh

        eigsh(L, k=3, which="LA")
        core_graph_module.eigendecompose(laplacian(self.cora_graph(tmp_path / "b", 1, 300)[0]), 5)
        assert digest() == first
        sparse.save_npz(tmp_path / "L.npz", L)
        code = (
            "import hashlib; from scipy import sparse; from graphbench.core_graph import eigendecompose; "
            f"[(_, vals, vecs)] = eigendecompose(sparse.load_npz({str(tmp_path / 'L.npz')!r}), lowest=9); "
            "print(hashlib.sha256(vals.tobytes() + vecs.tobytes()).hexdigest())"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == first


class TestLabelPropagate:
    def test_zero_graph_majority_fallback(self):
        g = Graph(3)
        with pytest.warns(UserWarning, match="disconnected"):
            (pred,) = propagate_labels(g, [1, 1, 0], [[True, True, False]])
        assert pred[2] == 1

    def test_path_single_source(self):
        g = Graph(2, [(0, 1, 1.0)])
        (pred,) = propagate_labels(g, [0, 0], [[True, False]])
        assert pred[1] == 0

    def test_triangle_tie_goes_to_class_zero(self):
        g, _ = clique_union([3])
        (pred,) = propagate_labels(g, [0, 1, 0], [[True, True, False]])
        assert pred[2] == 0

    def test_a_light_component_keeps_its_labels_next_to_a_heavy_one(self):
        # a 6-clique of weight 200 beside a unit-weight path: one global shift, e^-998,
        # would flush the path's exponential to 0 and give its vertices class 0
        clique = [(i, j, 200.0) for i in range(6) for j in range(i + 1, 6)]
        g = Graph(14, clique + [(v, v + 1, 1.0) for v in range(6, 13)])
        observed = np.isin(np.arange(14), [0, 6, 13])
        (pred,) = propagate_labels(g, [0] * 6 + [1] * 4 + [2] * 4, [observed])
        assert pred[7:13].tolist() == [1, 1, 1, 2, 2, 2]

    def test_shifted_operator_stays_finite_past_exp_overflow(self):
        # two 5-cliques of weight 200 joined by a unit edge: lambda_max > 800,
        # past the ~709 where exp(W) overflows
        cliques, labels = clique_union([5, 5])
        W = 200.0 * cliques.to_sparse().toarray()
        W[4, 5] = W[5, 4] = 1.0
        assert np.linalg.eigvalsh(W)[-1] > 709
        assert np.all(np.isfinite(matrix_exponential(sparse.csr_matrix(W))))
        observed = np.zeros(10, dtype=bool)
        observed[[0, 9]] = True
        (pred,) = propagate_labels(from_dense(W), labels, [observed])
        assert pred.tolist() == labels.tolist()

    def test_sscv_lp_scores_from_the_shifted_operator(self):
        # lambda_max ~ 1800; half the vertices observed, so each clique holds labels
        cliques, labels = clique_union([10, 10])
        W = 200.0 * cliques.to_sparse().toarray()
        W[9, 10] = W[10, 9] = 1.0
        bundle = DatasetBundle("heavy-cliques", np.eye(20), labels=labels, C=2)
        cfg = RunConfig("sscv-lp", "naive", "cosine", 3, split_fraction=0.5, n_splits=5)
        assert run_task2(bundle, cfg, from_dense(W)).primary_score == 1.0

    def test_onehot_scale_invariance(self):
        # argmax through the linear map is invariant to scaling the one-hot mass;
        # equivalent check: predictions from exp(2W) differ, from 3*Y0 do not
        g, _ = clique_union([4, 3])
        labels = np.array([0, 0, 0, 0, 1, 1, 1])
        observed = np.array([True, False, True, False, True, False, True])
        E = matrix_exponential(g.to_sparse())
        Y0 = np.zeros((7, 2))
        obs = np.flatnonzero(observed)
        Y0[obs, labels[obs]] = 1.0
        p1 = np.argmax(E @ Y0, axis=1)
        p2 = np.argmax(E @ (3.0 * Y0), axis=1)
        assert np.array_equal(p1, p2)

    @pytest.mark.parametrize("variant", ["raw", "sym_norm"])
    def test_unreached_component_gets_majority_in_any_vertex_order(self, variant):
        g, labels, observed, unreached = interleaved_components(variant)
        majority = int(np.argmax(np.bincount(labels[observed], minlength=3)))
        with pytest.warns(UserWarning, match="^40 unlabeled vertices disconnected"):
            (pred,) = propagate_labels(g, labels, [observed])
        assert np.all(pred[unreached] == majority)

    @pytest.mark.parametrize("variant", ["raw", "sym_norm"])
    @pytest.mark.parametrize("graph", ["interleaved", "cora"])
    def test_matches_the_per_mask_composition(self, tmp_path, monkeypatch, graph, variant):
        if graph == "interleaved":
            g, labels, observed, _ = interleaved_components(variant)
            masks = [observed] + split_generator(g.n, 0.2, 19, 0)
        else:
            root = load_perfbench_gen().cora_like(tmp_path / "d", 0, 300, 1433, 40, 0.42)
            bundle = load_dataset(root)
            cfg = RunConfig("sscv-lp", "naive", "cosine", 10, adjacency_variant=variant)
            g = point_graph(bundle, cfg)
            labels, masks = bundle.labels, split_generator(g.n, 0.1, 20, 0)
        with warnings.catch_warnings(record=True) as want_warnings:
            warnings.simplefilter("always")
            want = propagate_per_mask(g, labels, masks)
        calls = []
        real = tasks_module.matrix_exponential
        monkeypatch.setattr(tasks_module, "matrix_exponential", lambda A: calls.append(A) or real(A))
        with warnings.catch_warnings(record=True) as got_warnings:
            warnings.simplefilter("always")
            got = propagate_labels(g, labels, masks)
        assert len(calls) == 1
        assert sparse.issparse(calls[0]) and calls[0].format == "csr"  # the head densifies nothing
        assert len(got) == len(want) == 20
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        assert [str(w.message) for w in got_warnings] == [str(w.message) for w in want_warnings]
        if graph == "interleaved":
            assert str(got_warnings[0].message).startswith("40 unlabeled vertices")


# Each semi-supervised head, called on a graph, labels and masks; SGC reads identity features.
SSCV_HEADS = {
    "propagate_labels": propagate_labels,
    "sgc_predict": lambda g, labels, masks: sgc_predict(g, np.eye(g.n), labels, masks, 0),
}


@pytest.mark.parametrize(
    "labels, masks, message",
    [
        ([0, -1, 1, 1], [[True, False, True, False]], r"labels must be >= 0, got -1"),
        ([0.9, 1.7, 1.2, 0.4], [[True, True, False, False]], r"labels must be integers, got 0.9"),
        ([0, 1, np.nan, 1], [[True, True, False, False]], r"labels must be integers, got nan"),
        ([0, 1, 1], [[True, False, True, False]], r"labels must have shape \(4,\), got \(3,\)"),
        ([[0, 1, 1, 0]], [[True, False, True, False]], r"labels must have shape .* got \(1, 4\)"),
        ([0, 1, 1, 0], [[True, False, True]], r"masks must be bool of shape \(S, 4\), got bool"),
        ([0, 1, 1, 0], [True, False, True, False], r"got bool \(4,\)"),
        ([0, 1, 1, 0], [[1, 0, 1, 0]], r"got int64 \(1, 4\)"),
        ([0, 1, 1, 0], [[True, False, True, False], [False] * 4], r"mask 1 observes none"),
    ],
    ids=[
        "negative-label",
        "fractional-label",
        "nan-label",
        "short-labels",
        "2d-labels",
        "short-mask",
        "1d-mask",
        "int-mask",
        "blind",
    ],
)
@pytest.mark.parametrize("head", sorted(SSCV_HEADS))
def test_sscv_heads_reject_bad_labels_and_masks(head, labels, masks, message):
    g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    with pytest.raises(ValueError, match=message):
        SSCV_HEADS[head](g, labels, masks)


@pytest.mark.parametrize(
    "X, on_graph, message",
    [
        (np.ones(4), True, r"X must be 2-D, got shape \(4,\)"),
        (np.ones((3, 2)), True, r"X must have a row per vertex \(4\), got 3"),
        ([[0.0, 1.0]] * 3 + [[np.nan, 1.0]], True, r"X has non-finite entries"),
        ([[0.0, 1.0]] * 3 + [[np.nan, 1.0]], False, r"X has non-finite entries"),
        ([[0.0, 1.0]] * 3 + [[1.0, -np.inf]], True, r"X has non-finite entries"),
    ],
    ids=["1d-features", "short-features", "nan-unobserved", "nan-no-graph", "inf"],
)
def test_sgc_rejects_bad_features(X, on_graph, message):
    # vertex 3, whose row holds the non-finite entries, is never observed
    g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]) if on_graph else None
    with pytest.raises(ValueError, match=message):
        sgc_predict(g, X, [0, 1, 1, 0], [[True, True, False, False]], 0)


BLOCK_COUNTS = [1, 9, 11, 100]


def dead_vertex_masks(observed, count):
    """``count`` masks on interleaved_components: every third one observes only ``observed``.

    The rest are random 20 % splits, so masks that leave the unreached
    component dead alternate with masks that reach it.
    """
    splits = split_generator(observed.size, 0.2, count, 3)
    return [observed if i % 3 == 0 else m for i, m in enumerate(splits)]


class TestHeadBlocks:
    @pytest.mark.parametrize("count", BLOCK_COUNTS)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_propagation_matches_the_per_mask_form(self, variant, count):
        g, labels, observed, _ = interleaved_components(variant)
        masks = dead_vertex_masks(observed, count)
        with warnings.catch_warnings(record=True) as want_warnings:
            warnings.simplefilter("always")
            want = propagate_per_mask(g, labels, masks)
        with warnings.catch_warnings(record=True) as got_warnings:
            warnings.simplefilter("always")
            got = propagate_labels(g, labels, masks)
        assert len(got) == len(want) == count
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        assert [str(w.message) for w in got_warnings] == [str(w.message) for w in want_warnings]
        assert len(got_warnings) == (count + 2) // 3

    @pytest.mark.parametrize("count", BLOCK_COUNTS)
    @pytest.mark.parametrize("variant", [None, *VARIANTS])
    def test_sgc_matches_the_per_mask_form(self, cora_like_150, variant, count):
        X, labels = cora_like_150.vertex_features, cora_like_150.labels
        g = None
        if variant is not None:
            cfg = RunConfig("sscv-sgc", "naive", "cosine", 10, adjacency_variant=variant)
            g = point_graph(cora_like_150, cfg)
        masks = split_generator(cora_like_150.n, 0.1, count, 1)
        want = sgc_per_mask(g, X, labels, masks, 6)
        got = sgc_predict(g, X, labels, masks, 6)
        assert len(got) == len(want) == count
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_sgc_on_a_disconnected_graph_matches_the_per_mask_form(self, variant):
        g, labels, observed, _ = interleaved_components(variant)
        X = np.random.default_rng(8).random((g.n, 30))
        masks = dead_vertex_masks(observed, 11)
        want = sgc_per_mask(g, X, labels, masks, 2)
        got = sgc_predict(g, X, labels, masks, 2)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


@pytest.fixture(scope="module")
def cora_like_150(tmp_path_factory):
    root = tmp_path_factory.mktemp("cora150") / "d"
    return load_dataset(load_perfbench_gen().cora_like(root, 0, 150, 200, 20, 0.42))


def interleaved_components(variant):
    """Components of 60 and 40 vertices, interleaved by a permutation, in ``variant``.

    Returns the graph, a class per vertex, an observed mask and the vertices of
    the 40. Every observed vertex is in the 60, so none of the 40 can receive mass.
    """
    rng = np.random.default_rng(59)
    A = np.zeros((100, 100))
    for lo, hi in ((0, 60), (60, 100)):
        W = rng.random((hi - lo, hi - lo)) * (rng.random((hi - lo, hi - lo)) < 0.2)
        W += np.eye(hi - lo, k=1)  # a path keeps the block connected
        A[lo:hi, lo:hi] = np.triu(W, 1) + np.triu(W, 1).T
    labels = np.concatenate([rng.integers(0, 3, 60), np.zeros(40, dtype=int)])
    observed = np.zeros(100, dtype=bool)
    observed[rng.choice(60, size=20, replace=False)] = True
    perm = rng.permutation(100)
    g = normalize(from_dense(A[np.ix_(perm, perm)]), variant)
    return g, labels[perm], observed[perm], np.flatnonzero(perm >= 60)


def propagate_per_mask(g, labels, masks):
    """Label propagation as composed before propagate_labels built its own operator.

    exp(W) and the components are computed once, then each mask runs the
    single-mask head that took them as inputs.
    """
    E = matrix_exponential(g.to_sparse())
    components = connected_components(g)
    labels = np.asarray(labels, dtype=int)
    preds = []
    for observed in masks:
        observed = np.asarray(observed, dtype=bool)
        C = int(labels.max()) + 1
        Y0 = np.zeros((labels.size, C))
        obs = np.flatnonzero(observed)
        Y0[obs, labels[obs]] = 1.0
        Yhat = E @ Y0
        pred = labels.copy()
        pred[~observed] = np.argmax(Yhat[~observed], axis=1)
        dead = ~observed & ~np.isin(components, components[obs])
        if dead.any():
            pred[dead] = int(np.argmax(np.bincount(labels[obs], minlength=C)))
            warnings.warn(f"{int(dead.sum())} unlabeled vertices disconnected from all labels")
        preds.append(pred)
    return preds


class TestSgc:
    def blobs(self, seed=0):
        rng = np.random.default_rng(seed)
        a = rng.normal([3, 0], 0.2, size=(20, 2))
        b = rng.normal([-3, 0], 0.2, size=(20, 2))
        X = np.vstack([a, b])
        labels = np.repeat([0, 1], 20)
        return X, labels

    def identity_graph(self, n):
        return Graph(n, [], diagonal=np.ones(n), variant="augmented")

    def test_identity_reduces_to_logistic_regression(self):
        X, labels = self.blobs()
        mask = np.zeros(40, dtype=bool)
        mask[::4] = True
        g = self.identity_graph(40)
        (pred_sgc,) = sgc_predict(g, X, labels, [mask], 3)
        W, b = train_logistic_regression(X[mask], labels[mask], 2, drawn_start([3, 0, 7], 2, 2))
        pred_lr = np.argmax(X[~mask] @ W + b, axis=1)
        assert np.array_equal(pred_sgc[~mask], pred_lr)

    def test_separable_blobs_perfect_accuracy(self):
        X, labels = self.blobs(1)
        mask = np.zeros(40, dtype=bool)
        mask[[0, 1, 20, 21]] = True
        g = self.identity_graph(40)
        # SGC_EPOCHS Adam steps of ADAM_LEARNING_RATE move each weight by at most ~0.1,
        # so the drawn start decides the class order: seeds 0 and 1 reverse it here
        (pred,) = sgc_predict(g, X, labels, [mask], 2)
        assert accuracy(pred, labels, ~mask) == 1.0

    def test_duplicated_column_delta_identity(self):
        # identical gradient streams give identical Adam weight deltas per copy
        rng = np.random.default_rng(55)
        X = rng.standard_normal((10, 3))
        Xdup = np.hstack([X, X[:, [1]]])
        labels = rng.integers(0, 2, 10)
        seed = 7
        rng_init = np.random.default_rng(seed)
        s = 1.0 / math.sqrt(4)
        W0 = rng_init.uniform(-s, s, size=(4, 2))
        W, _ = train_logistic_regression(Xdup, labels, 2, init_weights=W0)
        delta1 = W[1] - W0[1]
        delta2 = W[3] - W0[3]
        assert np.allclose(delta1, delta2, atol=1e-12)

    def test_duplicated_column_prediction_equivalence(self):
        # dedup oracle: doubled column with averaged init predicts identically
        rng = np.random.default_rng(56)
        X = rng.standard_normal((10, 3))
        Xdup = np.hstack([X, X[:, [1]]])
        labels = rng.integers(0, 2, 10)
        seed = 11
        rng_init = np.random.default_rng(seed)
        s = 1.0 / math.sqrt(4)
        W0 = rng_init.uniform(-s, s, size=(4, 2))
        Wd, bd = train_logistic_regression(Xdup, labels, 2, init_weights=W0)
        Xdedup = X.copy()
        Xdedup[:, 1] *= 2.0
        W0_dedup = W0[:3].copy()
        W0_dedup[1] = (W0[1] + W0[3]) / 2.0
        Ws, bs = train_logistic_regression(Xdedup, labels, 2, init_weights=W0_dedup)
        test = rng.standard_normal((30, 3))
        test_dup = np.hstack([test, test[:, [1]]])
        test_dedup = test.copy()
        test_dedup[:, 1] *= 2.0
        pred_dup = np.argmax(test_dup @ Wd + bd, axis=1)
        pred_dedup = np.argmax(test_dedup @ Ws + bs, axis=1)
        assert np.array_equal(pred_dup, pred_dedup)

    def test_seeded_reproducibility(self):
        X, labels = self.blobs(2)
        mask = np.zeros(40, dtype=bool)
        mask[::3] = True
        g = self.identity_graph(40)
        (p1,) = sgc_predict(g, X, labels, [mask], 9)
        (p2,) = sgc_predict(g, X, labels, [mask], 9)
        a1, a2 = accuracy(p1, labels, ~mask), accuracy(p2, labels, ~mask)
        assert np.array_equal(p1, p2) and a1 == a2

    @pytest.mark.parametrize("variant", [None, *VARIANTS])
    def test_matches_the_per_mask_composition(self, tmp_path, monkeypatch, variant):
        root = load_perfbench_gen().cora_like(tmp_path / "d", 0, 150, 200, 20, 0.42)
        bundle = load_dataset(root)
        X, labels = bundle.vertex_features, bundle.labels
        g = None
        if variant is not None:
            cfg = RunConfig("sscv-sgc", "naive", "cosine", 10, adjacency_variant=variant)
            g = point_graph(bundle, cfg)
        masks = split_generator(bundle.n, 0.1, 5, 0)
        want = sgc_per_mask(g, X, labels, masks, 4)
        seen = []
        real = tasks_module.diffuse_features
        monkeypatch.setattr(tasks_module, "diffuse_features", lambda *a: seen.append(a) or real(*a))
        got = sgc_predict(g, X, labels, masks, 4)
        assert len(seen) == (variant is not None)
        assert len(got) == len(want) == 5
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        assert all(np.array_equal(p[m], labels[m]) for p, m in zip(got, masks))


def sgc_per_mask(g, X, labels, masks, seed):
    """SGC as composed in the harness before sgc_predict owned its head.

    The features diffuse once; each mask i then trains one logistic regression
    seeded by [seed, i, 7], and every unobserved vertex takes its argmax class.
    """
    Xhat = X if g is None else diffuse_features(g, X)
    preds = []
    for i, m in enumerate(masks):
        W, b = logistic_regression_per_epoch(Xhat[m], labels[m], int(labels.max()) + 1, [seed, i, 7])
        preds.append(np.where(m, labels, np.argmax(Xhat @ W + b, axis=1)))
    return preds


def drawn_start(seed, F, C):
    """The (F, C) start weights sgc_predict draws from ``seed``: uniform in +-1/sqrt(F)."""
    s = 1.0 / math.sqrt(F)
    return np.random.default_rng(seed).uniform(-s, s, size=(F, C))


def logistic_regression_per_epoch(X, labels, C, seed=None, init_weights=None):
    """train_logistic_regression as written before its weights and bias shared one array.

    W and b have their own Adam moments, each step allocates its results, and
    the cross-entropy loss is computed every epoch only to test that it is finite.
    """
    n, F = X.shape
    if init_weights is not None:
        W = np.array(init_weights, dtype=float)
    else:
        rng = np.random.default_rng(seed)
        s = 1.0 / math.sqrt(F)
        W = rng.uniform(-s, s, size=(F, C))
    b = np.zeros(C)
    mW, vW = np.zeros_like(W), np.zeros_like(W)
    mb, vb = np.zeros_like(b), np.zeros_like(b)
    onehot = np.zeros((n, C))
    onehot[np.arange(n), labels] = 1.0
    beta1, beta2 = tasks_module.ADAM_BETA1, tasks_module.ADAM_BETA2
    lr, eps = tasks_module.ADAM_LEARNING_RATE, tasks_module.ADAM_EPS
    for t in range(1, tasks_module.SGC_EPOCHS + 1):
        z = X @ W + b
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        probs = e / e.sum(axis=1, keepdims=True)
        loss = -np.mean(np.log(np.clip(probs[np.arange(n), labels], 1e-300, None)))
        if not np.isfinite(loss):
            raise FloatingPointError("non-finite training loss")
        G = (probs - onehot) / n
        gW = X.T @ G
        gb = G.sum(axis=0)
        mW = beta1 * mW + (1 - beta1) * gW
        vW = beta2 * vW + (1 - beta2) * gW**2
        mb = beta1 * mb + (1 - beta1) * gb
        vb = beta2 * vb + (1 - beta2) * gb**2
        c1 = 1 - beta1**t
        c2 = 1 - beta2**t
        W -= lr * (mW / c1) / (np.sqrt(vW / c2) + eps)
        b -= lr * (mb / c1) / (np.sqrt(vb / c2) + eps)
    return W, b


class TestLogisticRegression:
    @staticmethod
    def problem(n, F, C, seed):
        """Sparse non-negative features, like a diffused bag of words, and every class present."""
        rng = np.random.default_rng(seed)
        X = (rng.random((n, F)) < 0.2) * rng.random((n, F)) * 3.0
        labels = rng.permutation(np.arange(n) % C)
        return X, labels

    @pytest.mark.parametrize(
        "n, F, C",
        [(30, 20, 2), (60, 40, 7), (25, 1, 3), (40, 150, 7), (1, 12, 3)],
        ids=["C2", "C7", "F1", "F150", "one-row"],
    )
    def test_matches_the_epoch_loop(self, n, F, C):
        X, labels = self.problem(n, F, C, seed=n + F + C)
        if n == 1:
            labels = np.array([C - 1])  # a single observed vertex of the last class
        W, b = train_logistic_regression(X, labels, C, drawn_start([5, 0, 7], F, C))
        W_ref, b_ref = logistic_regression_per_epoch(X, labels, C, [5, 0, 7])
        assert W.shape == (F, C) and b.shape == (C,)
        assert W.tobytes() == W_ref.tobytes()
        assert b.tobytes() == b_ref.tobytes()

    def test_init_weights_match_the_epoch_loop(self):
        X, labels = self.problem(35, 9, 4, seed=3)
        W0 = np.random.default_rng(4).uniform(-1, 1, size=(9, 4))
        W, b = train_logistic_regression(X, labels, 4, init_weights=W0.tolist())
        W_ref, b_ref = logistic_regression_per_epoch(X, labels, 4, None, init_weights=W0)
        assert W.tobytes() == W_ref.tobytes()
        assert b.tobytes() == b_ref.tobytes()
        assert not np.shares_memory(W, W0)

    @pytest.mark.parametrize("labels", [[0, -1, 2], [0, 3, 2]])
    def test_rejects_labels_outside_the_class_range(self, labels):
        X = np.ones((3, 2))
        with pytest.raises(ValueError, match=r"labels must lie in 0\.\.2"):
            train_logistic_regression(X, np.array(labels), 3, np.zeros((2, 3)))

    @pytest.mark.parametrize("shape", [(3,), (4, 4), (3, 4), (1, 4, 3)])
    def test_rejects_init_weights_of_the_wrong_shape(self, shape):
        X, labels = self.problem(6, 4, 3, seed=0)
        with pytest.raises(ValueError, match=r"init_weights must have shape \(4, 3\)"):
            train_logistic_regression(X, labels, 3, init_weights=np.zeros(shape))

    def test_rejects_no_rows(self):
        with pytest.raises(ValueError, match="at least one"):
            train_logistic_regression(np.zeros((0, 4)), np.zeros(0, dtype=int), 3, np.zeros((4, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("train", [train_logistic_regression, logistic_regression_per_epoch])
    def test_non_finite_features_raise(self, train, bad):
        X, labels = self.problem(8, 5, 3, seed=1)
        X[4, 2] = bad
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError) as info:
            train(X, labels, 3, init_weights=drawn_start(0, 5, 3))
        assert str(info.value) == "non-finite training loss"


class TestSimoncelli:
    def test_band_edges(self):
        for tau in (0.2, 0.5, 0.8, 1.0):
            assert simoncelli_response(np.array([tau / 2]), tau)[0] == pytest.approx(1.0, abs=1e-12)
            assert simoncelli_response(np.array([tau]), tau)[0] == pytest.approx(0.0, abs=1e-12)

    def test_transition_value(self):
        [val] = simoncelli_response(np.array([0.6]), 0.8)
        expected = math.cos(math.pi / 2 * math.log2(2 * 0.6 / 0.8))
        assert val == pytest.approx(expected, abs=1e-12)
        assert val == pytest.approx(0.60673, abs=1e-4)

    def test_tau_zero(self):
        assert simoncelli_response(np.array([0.0]), 0.0)[0] == 1.0
        assert simoncelli_response(np.array([0.3]), 0.0)[0] == 0.0

    @pytest.mark.parametrize("tau", [0.0, 0.3, 0.8, 1.0])
    def test_array_equals_one_entry_calls_bit_for_bit(self, tau):
        # 0, tau/2, tau and points inside each band, with lambda = 0 where tau is 0
        lam = np.array([0.0, tau / 2, tau, 0.1 * tau, 0.6 * tau, 0.9 * tau, 1.5 * tau + 0.1, 1.0])
        gains = simoncelli_response(lam, tau)
        assert gains.shape == lam.shape
        singles = [simoncelli_response(np.array([l]), tau) for l in lam.tolist()]
        assert gains.tobytes() == np.concatenate(singles).tobytes()

    def test_monotone_in_lambda(self):
        tau = 0.7
        lams = np.linspace(0, 1, 200)
        vals = simoncelli_response(lams, tau).tolist()
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def two_block_graph(block=20, bridge=0.05):
    n = 2 * block
    edges = []
    for s in (0, block):
        for i in range(s, s + block):
            for j in range(i + 1, s + block):
                edges.append((i, j, 1.0))
    edges.append((block - 1, block, bridge))
    return Graph(n, sorted(edges))


class TestDenoise:
    def test_all_pass_when_spectrum_below_half_tau(self):
        # K2: normalized eigenvalues {0, 1}; tau=1 passes lambda<=0.5 fully but
        # use a graph whose spectrum collapses: complete graph normalized
        # eigenvalues are {0, 1,...,1}; instead check the empty-graph identity
        g = Graph(3)
        x = np.array([1.0, -2.0, 0.5])
        assert np.allclose(denoise(g, x, [0.3])[0], x)

    def test_tau_to_zero_projects_onto_dc(self):
        g, _ = clique_union([6])
        x = np.arange(6.0)
        out = denoise(g, x, [1e-9])[0]
        assert np.allclose(out, x.mean(), atol=1e-6)

    def test_linearity(self):
        g = two_block_graph(5)
        rng = np.random.default_rng(57)
        x1 = rng.standard_normal(10)
        x2 = rng.standard_normal(10)
        lhs = denoise(g, 2.0 * x1 - 3.0 * x2, [0.4])[0]
        rhs = 2.0 * denoise(g, x1, [0.4])[0] - 3.0 * denoise(g, x2, [0.4])[0]
        assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_energy_never_grows(self):
        g = two_block_graph(6)
        rng = np.random.default_rng(58)
        x = rng.standard_normal(12)
        for tau in (0.1, 0.5, 0.9):
            assert np.linalg.norm(denoise(g, x, [tau])[0]) <= np.linalg.norm(x) + 1e-10

    def test_an_empty_graph_gives_an_empty_signal(self):
        assert denoise(Graph(0), [], [0.5])[0].shape == (0,)
        assert denoise(Graph(0), [], [0.0, 0.5, 1.0]).shape == (3, 0)

    def test_monte_carlo_snr_improvement(self):
        g = two_block_graph(20)
        clean = np.concatenate([np.ones(20), -np.ones(20)])
        improved = 0
        for draw in range(100):
            noisy = add_noise_to_snr(clean, 7.0, seed=draw)
            out = denoise(g, noisy, [0.5])[0]
            if snr_db(clean, out) > snr_db(clean, noisy):
                improved += 1
        assert improved >= 95


class TestBestTau:
    def test_noiseless_signal_infinite_snr(self):
        # empty graph: the filter is the identity, every tau is all-pass,
        # the +inf sentinel is reported and the smallest tau wins the tie
        g = Graph(6)
        clean = np.arange(1.0, 7.0)
        tau, snr = best_tau_denoise(g, clean, clean)
        assert math.isinf(snr)
        assert tau == 0.0

    def test_near_perfect_on_disconnected_blocks(self):
        g, labels = clique_union([5, 5])
        clean = np.where(labels == 0, 1.0, -1.0)
        tau, snr = best_tau_denoise(g, clean, clean)
        assert snr > 100.0

    def test_zero_clean_rejected(self):
        g = two_block_graph(3)
        with pytest.raises(ValueError):
            best_tau_denoise(g, np.ones(6), np.zeros(6))

    def test_a_clean_power_that_underflows_is_scored(self):
        # the clean power 2e-340 underflows to 0, but the signal is not zero
        tau, snr = best_tau_denoise(path_graph(2), [0, 1e-170], [1e-170, 1e-170])
        assert tau == 0.0
        assert snr == pytest.approx(snr_db([1e-170, 1e-170], [5e-171, 5e-171]), abs=1e-9)

    def test_seeded_instance_interior_optimum(self):
        g = two_block_graph(20)
        clean = np.concatenate([np.ones(20), -np.ones(20)])
        noisy = add_noise_to_snr(clean, 7.0, seed=77)
        tau, snr = best_tau_denoise(g, noisy, clean)
        assert 0.0 < tau < 1.0
        assert snr > 7.0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda g, x: denoise(g, x, [0.5]), "noisy signal has non-finite entries"),
        (lambda g, x: best_tau_denoise(g, x, np.ones(6)), "noisy signal has non-finite entries"),
        (lambda g, x: best_tau_denoise(g, np.ones(6), x), "clean signal has non-finite entries"),
    ],
    ids=["denoise", "best-tau-noisy", "best-tau-clean"],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dgs_heads_reject_a_non_finite_signal(call, message, bad):
    x = np.ones(6)
    x[2] = bad
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(two_block_graph(3), x)


BENCH_TAUS = np.round(np.arange(0, 41) * 0.025, 6)


def path_graph(n):
    return Graph(n, [(i, i + 1, 1.0) for i in range(n - 1)])


class TestDenoiseSweep:
    def test_rows_equal_single_cutoff_calls_bit_for_bit(self):
        rng = np.random.default_rng(90)
        A = rng.random((30, 30)) * (rng.random((30, 30)) < 0.3)
        g = from_dense(np.triu(A, 1) + np.triu(A, 1).T)
        x = rng.standard_normal(30)
        rows = denoise(g, x, BENCH_TAUS)
        assert rows.shape == (BENCH_TAUS.size, 30)
        for r, tau in enumerate(BENCH_TAUS):
            assert np.array_equal(rows[r], denoise(g, x, [float(tau)])[0])

    def test_rows_equal_the_filter_response(self):
        rng = np.random.default_rng(93)
        A = rng.random((30, 30)) * (rng.random((30, 30)) < 0.3)
        g = from_dense(np.triu(A, 1) + np.triu(A, 1).T)
        x = rng.standard_normal(30)
        vals, F = tasks_module._laplacian_spectrum(g)
        lam = np.divide(vals, vals[-1], out=np.zeros(30), where=vals > 0)
        rows = denoise(g, x, BENCH_TAUS)
        for r, tau in enumerate(BENCH_TAUS.tolist()):
            gains = simoncelli_response(lam, tau)
            assert np.array_equal(rows[r], F @ (gains * (F.T @ x)))

    def test_best_tau_decomposes_once(self, monkeypatch):
        calls = []
        real = tasks_module.eigendecompose

        def counting(A, lowest=None):
            calls.append(1)
            return real(A, lowest)

        monkeypatch.setattr(tasks_module, "eigendecompose", counting)
        g = two_block_graph(10)
        clean = np.concatenate([np.ones(10), -np.ones(10)])
        best_tau_denoise(g, add_noise_to_snr(clean, 7.0, seed=91), clean)
        assert len(calls) == 1

    def test_empty_graph_returns_one_copy_per_cutoff(self):
        x = np.array([1.0, -2.0, 0.5])
        rows = denoise(Graph(3), x, [0.0, 0.5, 1.0])
        assert rows.shape == (3, 3)
        assert all(np.array_equal(row, x) for row in rows)

    def test_tau_zero_on_path_graph_gives_mean(self):
        x = np.array([3.0, -1.0, 4.0, 1.0, -5.0])
        assert np.allclose(denoise(path_graph(5), x, [0.0])[0], x.mean(), atol=1e-12)

    def test_tau_zero_gives_the_mean_across_a_weak_bridge(self):
        # a connected graph whose Fiedler value lies far below 1e-8 lambda_max
        cliques, _ = clique_union([5, 5])
        g = Graph(10, [*cliques.edges.tolist(), (4, 5, 1e-9)])
        assert np.allclose(denoise(g, np.arange(10.0), [0.0])[0], 4.5, atol=1e-12)

    def test_tau_zero_gives_component_means(self):
        g, labels = clique_union([3, 4, 5])
        x = np.random.default_rng(92).standard_normal(12)
        means = np.array([x[labels == c].mean() for c in range(3)])
        assert np.allclose(denoise(g, x, [0.0])[0], means[labels], atol=1e-12)

    @pytest.mark.parametrize(
        "tau",
        [[-0.1], [-1e-300], [math.nan], [math.inf], [-math.inf]]
        + [[0.5, -0.1], [0.5, math.nan], [[0.5]]],
    )
    def test_invalid_cutoffs_rejected(self, tau):
        with pytest.raises(ValueError):
            denoise(path_graph(4), np.ones(4), tau)
