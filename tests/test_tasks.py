import math

import numpy as np
import pytest

import graphbench.tasks as tasks_module
from graphbench.core_graph import Graph, from_dense, laplacian
from graphbench.metrics import add_noise_to_snr, ami, snr_db
from graphbench.tasks import (
    Partition,
    SemiSupervisedLabels,
    SgcParams,
    best_tau_denoise,
    denoise,
    diffuse_features,
    discretize,
    kmeans,
    label_propagate,
    sgc_fit_predict,
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

        vals = eigendecompose(laplacian(g)).eigenvalues
        assert np.allclose(vals[1:], 4.0)
        emb = spectral_embed(g, 2)
        assert np.allclose(emb.T @ emb, np.eye(2), atol=1e-8)

    def test_p4_fiedler_monotone(self):
        g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        emb = spectral_embed(g, 1)
        col = emb[:, 0]
        # dense eigensolver oracle on the 4x4 Laplacian
        vals, vecs = np.linalg.eigh(laplacian(g))
        fiedler = vecs[:, 1]
        assert np.allclose(np.abs(col), np.abs(fiedler), atol=1e-10)
        diffs = np.diff(col)
        assert np.all(diffs < 0) or np.all(diffs > 0)

    def test_sign_convention(self):
        g, _ = clique_union([3, 5])
        emb = spectral_embed(g, 3)
        for c in range(emb.shape[1]):
            assert emb[np.argmax(np.abs(emb[:, c])), c] > 0

    def test_permutation_equivariance(self):
        # path graph: simple spectrum, so eigenvectors are unique up to sign
        g = Graph(7, [(i, i + 1, 1.0) for i in range(6)])
        rng = np.random.default_rng(50)
        perm = rng.permutation(7)
        A = g.to_dense()
        gp = from_dense(A[np.ix_(perm, perm)])
        e1 = spectral_embed(g, 3)
        e2 = spectral_embed(gp, 3)
        assert np.allclose(np.abs(e2), np.abs(e1[perm]), atol=1e-8)

    def test_needs_enough_vertices(self):
        g, _ = clique_union([2])
        with pytest.raises(ValueError):
            spectral_embed(g, 2)

    def test_skip_first_flag(self):
        g, _ = clique_union([5])
        e_skip = spectral_embed(g, 2, skip_first=True)
        e_keep = spectral_embed(g, 2, skip_first=False)
        # keeping index 0 includes the constant vector
        assert np.allclose(e_keep[:, 0], e_keep[0, 0], atol=1e-8)
        assert not np.allclose(e_skip[:, 0], e_skip[0, 0], atol=1e-8)


class TestKmeans:
    def test_single_cluster(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
        part = kmeans(pts, 1, seed=0)
        assert np.all(part.assignment == 0)

    def test_two_points_two_clusters(self):
        part = kmeans(np.array([[0.0], [5.0]]), 2, seed=0)
        assert part.assignment[0] != part.assignment[1]

    def test_separated_blobs_all_seeds(self):
        rng = np.random.default_rng(51)
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        pts = np.vstack([rng.normal(c, 0.01, size=(15, 2)) for c in centers])
        truth = np.repeat([0, 1, 2], 15)
        for seed in range(50):
            part = kmeans(pts, 3, seed=seed)
            assert ami(part.assignment, truth) == pytest.approx(1.0)


class TestDiscretize:
    def test_indicator_fixed_point(self):
        assign = np.array([0, 0, 1, 2, 1])
        M = np.zeros((5, 3))
        M[np.arange(5), assign] = 3.7
        part = discretize(M, seed=0)
        assert ami(part.assignment, assign) == pytest.approx(1.0)

    def test_rotated_indicator_recovered(self):
        rng = np.random.default_rng(52)
        assign = rng.integers(0, 3, 30)
        M = np.zeros((30, 3))
        M[np.arange(30), assign] = 1.0
        R = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        part = discretize(M @ R, seed=1)
        assert ami(part.assignment, assign) == pytest.approx(1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(53)
        X = rng.standard_normal((12, 3))
        p1 = discretize(X, seed=5)
        p2 = discretize(10.0 * X, seed=5)
        assert np.array_equal(p1.assignment, p2.assignment)

    def test_needs_two_columns(self):
        with pytest.raises(ValueError):
            discretize(np.ones((4, 1)))


class TestSpectralCluster:
    def test_two_components_recovered(self):
        g, labels = clique_union([5, 6])
        part = spectral_cluster(g, 2, seed=0)
        assert ami(part.assignment, labels) == pytest.approx(1.0)

    def test_three_cliques(self):
        g, labels = clique_union([5, 5, 5])
        part = spectral_cluster(g, 3, seed=0)
        assert ami(part.assignment, labels) == pytest.approx(1.0)

    def test_permutation_equivariance(self):
        g, labels = clique_union([4, 4, 5])
        rng = np.random.default_rng(54)
        perm = rng.permutation(13)
        gp = from_dense(g.to_dense()[np.ix_(perm, perm)])
        p1 = spectral_cluster(g, 3, seed=2)
        p2 = spectral_cluster(gp, 3, seed=2)
        assert ami(p1.assignment[perm], p2.assignment) == pytest.approx(1.0)


class TestLabelPropagate:
    def test_zero_graph_majority_fallback(self):
        g = Graph(3)
        y = SemiSupervisedLabels([1, 1, 0], [True, True, False])
        with pytest.warns(UserWarning, match="disconnected"):
            pred = label_propagate(g, y)
        assert pred[2] == 1

    def test_path_single_source(self):
        g = Graph(2, [(0, 1, 1.0)])
        y = SemiSupervisedLabels([0, 0], [True, False])
        pred = label_propagate(g, y)
        assert pred[1] == 0

    def test_triangle_tie_goes_to_class_zero(self):
        g, _ = clique_union([3])
        y = SemiSupervisedLabels([0, 1, 0], [True, True, False])
        pred = label_propagate(g, y)
        assert pred[2] == 0

    def test_onehot_scale_invariance(self):
        # argmax through the linear map is invariant to scaling the one-hot mass;
        # equivalent check: predictions from exp(2W) differ, from 3*Y0 do not
        g, _ = clique_union([4, 3])
        y = SemiSupervisedLabels([0, 0, 0, 0, 1, 1, 1], [True, False, True, False, True, False, True])
        from graphbench.core_graph import matrix_exponential

        E = matrix_exponential(g.to_dense())
        Y0 = np.zeros((7, 2))
        obs = np.flatnonzero(y.observed_mask)
        Y0[obs, y.labels[obs]] = 1.0
        p1 = np.argmax(E @ Y0, axis=1)
        p2 = np.argmax(E @ (3.0 * Y0), axis=1)
        assert np.array_equal(p1, p2)


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
        y = SemiSupervisedLabels(labels, mask)
        p = SgcParams(seed=3)
        g = self.identity_graph(40)
        pred_sgc, _ = sgc_fit_predict(g, X, y, p)
        W, b = train_logistic_regression(X[mask], labels[mask], 2, p)
        pred_lr = np.argmax(X[~mask] @ W + b, axis=1)
        assert np.array_equal(pred_sgc[~mask], pred_lr)

    def test_fit_predict_is_diffusion_then_predict(self):
        X, labels = self.blobs(2)
        g = two_block_graph(20, bridge=0.3)
        mask = np.zeros(40, dtype=bool)
        mask[::5] = True
        y = SemiSupervisedLabels(labels, mask)
        p = SgcParams(seed=4)
        pred_a, acc_a = sgc_fit_predict(g, X, y, p)
        pred_b, acc_b = sgc_predict(diffuse_features(g, X, hops=p.diffusion_hops), y, p)
        assert np.array_equal(pred_a, pred_b)
        assert acc_a == acc_b

    def test_separable_blobs_perfect_accuracy(self):
        X, labels = self.blobs(1)
        mask = np.zeros(40, dtype=bool)
        mask[[0, 1, 20, 21]] = True
        y = SemiSupervisedLabels(labels, mask)
        _, acc = sgc_fit_predict(self.identity_graph(40), X, y, SgcParams(seed=0))
        assert acc == 1.0

    def test_duplicated_column_delta_identity(self):
        # identical gradient streams give identical Adam weight deltas per copy
        rng = np.random.default_rng(55)
        X = rng.standard_normal((10, 3))
        Xdup = np.hstack([X, X[:, [1]]])
        labels = rng.integers(0, 2, 10)
        p = SgcParams(seed=7, epochs=40)
        rng_init = np.random.default_rng(p.seed)
        s = 1.0 / math.sqrt(4)
        W0 = rng_init.uniform(-s, s, size=(4, 2))
        W, _ = train_logistic_regression(Xdup, labels, 2, p, init_weights=W0)
        delta1 = W[1] - W0[1]
        delta2 = W[3] - W0[3]
        assert np.allclose(delta1, delta2, atol=1e-12)

    def test_duplicated_column_prediction_equivalence(self):
        # dedup oracle: doubled column with averaged init predicts identically
        rng = np.random.default_rng(56)
        X = rng.standard_normal((10, 3))
        Xdup = np.hstack([X, X[:, [1]]])
        labels = rng.integers(0, 2, 10)
        p = SgcParams(seed=11, epochs=60)
        rng_init = np.random.default_rng(p.seed)
        s = 1.0 / math.sqrt(4)
        W0 = rng_init.uniform(-s, s, size=(4, 2))
        Wd, bd = train_logistic_regression(Xdup, labels, 2, p, init_weights=W0)
        Xdedup = X.copy()
        Xdedup[:, 1] *= 2.0
        W0_dedup = W0[:3].copy()
        W0_dedup[1] = (W0[1] + W0[3]) / 2.0
        Ws, bs = train_logistic_regression(Xdedup, labels, 2, p, init_weights=W0_dedup)
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
        y = SemiSupervisedLabels(labels, mask)
        g = self.identity_graph(40)
        p1, a1 = sgc_fit_predict(g, X, y, SgcParams(seed=9))
        p2, a2 = sgc_fit_predict(g, X, y, SgcParams(seed=9))
        assert np.array_equal(p1, p2) and a1 == a2


class TestSimoncelli:
    def test_band_edges(self):
        for tau in (0.2, 0.5, 0.8, 1.0):
            assert simoncelli_response(tau / 2, tau) == pytest.approx(1.0, abs=1e-12)
            assert simoncelli_response(tau, tau) == pytest.approx(0.0, abs=1e-12)

    def test_transition_value(self):
        val = simoncelli_response(0.6, 0.8)
        expected = math.cos(math.pi / 2 * math.log2(2 * 0.6 / 0.8))
        assert val == pytest.approx(expected, abs=1e-12)
        assert val == pytest.approx(0.60673, abs=1e-4)

    def test_tau_zero(self):
        assert simoncelli_response(0.0, 0.0) == 1.0
        assert simoncelli_response(0.3, 0.0) == 0.0

    def test_monotone_in_lambda(self):
        tau = 0.7
        lams = np.linspace(0, 1, 200)
        vals = [simoncelli_response(l, tau) for l in lams]
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
        assert np.allclose(denoise(g, x, 0.3), x)

    def test_tau_to_zero_projects_onto_dc(self):
        g, _ = clique_union([6])
        x = np.arange(6.0)
        out = denoise(g, x, 1e-9)
        assert np.allclose(out, x.mean(), atol=1e-6)

    def test_linearity(self):
        g = two_block_graph(5)
        rng = np.random.default_rng(57)
        x1 = rng.standard_normal(10)
        x2 = rng.standard_normal(10)
        lhs = denoise(g, 2.0 * x1 - 3.0 * x2, 0.4)
        rhs = 2.0 * denoise(g, x1, 0.4) - 3.0 * denoise(g, x2, 0.4)
        assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_energy_never_grows(self):
        g = two_block_graph(6)
        rng = np.random.default_rng(58)
        x = rng.standard_normal(12)
        for tau in (0.1, 0.5, 0.9):
            assert np.linalg.norm(denoise(g, x, tau)) <= np.linalg.norm(x) + 1e-10

    def test_monte_carlo_snr_improvement(self):
        g = two_block_graph(20)
        clean = np.concatenate([np.ones(20), -np.ones(20)])
        improved = 0
        for draw in range(100):
            noisy = add_noise_to_snr(clean, 7.0, seed=[100, draw])
            out = denoise(g, noisy, 0.5)
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

    def test_seeded_instance_interior_optimum(self):
        g = two_block_graph(20)
        clean = np.concatenate([np.ones(20), -np.ones(20)])
        noisy = add_noise_to_snr(clean, 7.0, seed=77)
        tau, snr = best_tau_denoise(g, noisy, clean)
        assert 0.0 < tau < 1.0
        assert snr > 7.0


BENCH_TAUS = np.round(np.arange(0, 41) * 0.025, 6)


def path_graph(n):
    return Graph(n, [(i, i + 1, 1.0) for i in range(n - 1)])


class TestDenoiseSweep:
    def test_rows_equal_scalar_calls_bit_for_bit(self):
        rng = np.random.default_rng(90)
        A = rng.random((30, 30)) * (rng.random((30, 30)) < 0.3)
        g = from_dense(np.triu(A, 1) + np.triu(A, 1).T)
        x = rng.standard_normal(30)
        rows = denoise(g, x, BENCH_TAUS)
        assert rows.shape == (BENCH_TAUS.size, 30)
        for r, tau in enumerate(BENCH_TAUS):
            assert np.array_equal(rows[r], denoise(g, x, float(tau)))

    def test_best_tau_decomposes_once(self, monkeypatch):
        calls = []
        real = tasks_module.eigendecompose

        def counting(A):
            calls.append(1)
            return real(A)

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
        assert np.allclose(denoise(path_graph(5), x, 0.0), x.mean(), atol=1e-12)

    def test_tau_zero_gives_component_means(self):
        g, labels = clique_union([3, 4, 5])
        x = np.random.default_rng(92).standard_normal(12)
        means = np.array([x[labels == c].mean() for c in range(3)])
        assert np.allclose(denoise(g, x, 0.0), means[labels], atol=1e-12)

    @pytest.mark.parametrize(
        "tau", [-0.1, -1e-300, math.nan, math.inf, -math.inf, [0.5, -0.1], [0.5, math.nan], [[0.5]]]
    )
    def test_invalid_cutoffs_rejected(self, tau):
        with pytest.raises(ValueError):
            denoise(path_graph(4), np.ones(4), tau)


class TestPartitionTypes:
    def test_partition_validation(self):
        with pytest.raises(ValueError):
            Partition([0, 2], C=2)

    def test_labels_need_both_sides(self):
        with pytest.raises(ValueError):
            SemiSupervisedLabels([0, 1], [True, True])
