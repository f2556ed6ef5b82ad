"""Acceptance suite: one test per shipped criterion, one pass/fail line each.

Reproduction-tier tests (1-3) need the released benchmark datasets.  Point
GRAPHBENCH_DATA at a directory containing ``cora/`` and ``toronto/`` bundles
(dataset directory format described in the README); without it they skip.
Property-tier tests (4-9) are self-contained and always run, and so do the
synthetic reproduction-tier tests, which assert the same score orderings on
seeded bundles from perfbench/gen.py.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graphbench.core_graph import normalize
from graphbench.harness import (
    DGS_INPUT_SNR_DB,
    RunConfig,
    full_grid,
    load_dataset,
    run_grid,
    run_one,
    split_generator,
)
from graphbench.inference import learn_log_degree_weights, nnls_solve
from graphbench.metrics import add_noise_to_snr, ami, snr_db
from graphbench.tasks import (
    best_tau_denoise,
    denoise,
    simoncelli_response,
    spectral_cluster,
    train_logistic_regression,
)

from test_harness import load_perfbench_module
from test_inference import golden_section, nnls_oracle, quad_objective
from test_metrics import ami_oracle
from test_tasks import clique_union, two_block_graph

DATA_ROOT = os.environ.get("GRAPHBENCH_DATA")


def _reproduction_bundle(name):
    if not DATA_ROOT:
        pytest.skip("GRAPHBENCH_DATA not set; released benchmark data unavailable")
    path = Path(DATA_ROOT) / name
    if not path.is_dir():
        pytest.skip(f"dataset directory {path} not found under GRAPHBENCH_DATA")
    return load_dataset(path)


class TestReproductionTier:
    def test_criterion_1_citation_network_clustering(self):
        bundle = _reproduction_bundle("cora")
        base = run_one(bundle, RunConfig("ucv", "cmeans-baseline"))
        assert base.primary_score == pytest.approx(0.10, abs=0.03)
        grid = [c for c in full_grid("ucv", bundle) if c.method == "naive"]
        _, best = run_grid(bundle, grid)
        assert best is not None
        assert best.primary_score == pytest.approx(0.34, abs=0.05)

    def test_criterion_2_semi_supervised_classification(self):
        bundle = _reproduction_bundle("cora")
        # raw-feature logistic baseline over the 100-split protocol
        masks = split_generator(bundle.n, 0.05, 100, bundle.seed)
        accs = []
        for i, mask in enumerate(masks):
            W, b = train_logistic_regression(
                bundle.features[mask],
                bundle.labels[mask],
                bundle.C,
                [bundle.seed, i, 7],
            )
            pred = np.argmax(bundle.features[~mask] @ W + b, axis=1)
            accs.append(float(np.mean(pred == bundle.labels[~mask])))
        assert float(np.mean(accs)) == pytest.approx(0.4684, abs=0.03)
        # diffusion classifier at one representative grid point
        cfg = RunConfig(
            "sscv-sgc",
            "naive",
            "cosine",
            10,
            adjacency_variant="augmented_sym_norm",
            seed=bundle.seed,
        )
        res = run_one(bundle, cfg)
        assert not res.failed, res.auxiliary.get("error")
        assert res.primary_score == pytest.approx(0.6719, abs=0.03)
        assert 0.005 <= res.dispersion <= 0.035

    def test_criterion_3_road_network_denoising(self):
        bundle = _reproduction_bundle("toronto")
        ks = (5, 10, 20, 30, 40, 50)

        def best(method):
            sim = "rbf" if method in ("naive", "nnk") else None
            grid = [RunConfig("dgs", method, sim, k) for k in ks]
            if method == "reference-graph":
                grid = [RunConfig("dgs", method)]
            _, b = run_grid(bundle, grid)
            assert b is not None
            return b.primary_score

        road = best("reference-graph")
        knn = best("naive")
        nnk = best("nnk")
        smooth = best("smooth")
        assert road == pytest.approx(10.32, abs=0.3)
        assert knn >= 9.5
        assert smooth > knn
        assert smooth > road > nnk > knn  # published ordering of the four rows


# Ten seeds each; every seed must pass. The margins sit below the smallest
# seen over seeds 0-9: inferred graphs gained 2.54-3.26 dB over the input,
# the reference graph beat the best inferred one by 0.61-1.75 dB, and naive
# and nnk beat logistic regression by 0.21-0.30 in accuracy with label
# propagation and by 0.25-0.34 with SGC.
SYNTHETIC_SEEDS = range(10)
MIN_DENOISING_GAIN_DB = 1.0
MIN_REFERENCE_LEAD_DB = 0.3
MIN_PROPAGATION_LEAD = 0.1


class TestSyntheticReproductionTier:
    def test_road_inferred_graphs_denoise_and_the_reference_graph_wins(
        self, tmp_path, monkeypatch
    ):
        # workloads.py imports its sibling gen.py as `gen`
        monkeypatch.setitem(sys.modules, "gen", load_perfbench_module("gen"))
        road = load_perfbench_module("workloads").WORKLOADS["dgs-road"]
        ((task, entries),) = road.stages
        grid = [RunConfig(task=task, **entry) for entry in entries]
        for seed in SYNTHETIC_SEEDS:
            bundle = load_dataset(road.make_bundle(tmp_path / str(seed), seed))
            results, _ = run_grid(bundle, grid)
            assert not any(r.failed for r in results), seed
            reference = [r.primary_score for r in results if r.config.method == "reference-graph"]
            inferred = [r.primary_score for r in results if r.config.method != "reference-graph"]
            assert len(reference) == 1 and inferred, seed
            assert min(inferred) > DGS_INPUT_SNR_DB + MIN_DENOISING_GAIN_DB, (seed, inferred)
            assert reference[0] > max(inferred) + MIN_REFERENCE_LEAD_DB, (seed, reference)

    def test_cora_graphs_beat_logistic_regression_on_label_propagation(self, tmp_path):
        self.check_cora_graphs_beat_logistic_regression(tmp_path, "sscv-lp")

    def test_cora_graphs_beat_logistic_regression_on_sgc(self, tmp_path):
        self.check_cora_graphs_beat_logistic_regression(tmp_path, "sscv-sgc")

    def check_cora_graphs_beat_logistic_regression(self, tmp_path, task):
        """naive and nnk cosine k=10 sym_norm beat logistic regression on every seed."""
        gen = load_perfbench_module("gen")
        splits = dict(n_splits=20)
        grid = [
            RunConfig(task, "logreg-baseline", **splits),
            RunConfig(task, "naive", "cosine", 10, adjacency_variant="sym_norm", **splits),
            RunConfig(task, "nnk", "cosine", 10, adjacency_variant="sym_norm", **splits),
        ]
        for seed in SYNTHETIC_SEEDS:
            root = gen.cora_like(
                tmp_path / str(seed), seed, n=300, F=500, words_per_doc=40, topic_frac=0.42
            )
            results, _ = run_grid(load_dataset(root), grid)
            baseline, *graphs = [r.primary_score for r in results]
            for score in graphs:
                assert score > baseline + MIN_PROPAGATION_LEAD, (seed, baseline, graphs)


class TestPropertyTier:
    def test_criterion_4_ami_matches_exact_oracle(self):
        rng = np.random.default_rng(2026)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            u = rng.integers(0, 4, n)
            v = rng.integers(0, 4, n)
            assert ami(u, v) == pytest.approx(ami_oracle(u, v), abs=1e-10)

    def test_criterion_5_nnls_matches_grid_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = int(rng.integers(1, 5))
            A = rng.standard_normal((m, m + 1))
            K = A @ A.T + 1e-6 * np.eye(m)
            b = rng.uniform(0.0, 1.0, m)
            theta, _ = nnls_solve(K, b)
            ref = np.atleast_1d(nnls_oracle(K, b))
            assert quad_objective(K, b, theta) <= quad_objective(K, b, ref) + 1e-5

    def test_criterion_6_two_node_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            z = float(rng.uniform(0.05, 5.0))
            W = learn_log_degree_weights(
                np.array([[0.0, z], [z, 0.0]]),
                rel_tol=1e-14,
                max_iter=200000,
                patience=200,
            )
            expected = (-z + np.sqrt(z * z + 4.0)) / 2.0
            assert abs(W[0, 1] - expected) < 1e-8
            obj = lambda w: 2 * z * w - 2 * np.log(max(w, 1e-300)) + w**2
            assert abs(golden_section(obj, 1e-6, 2.0) - expected) < 1e-8

    def test_criterion_7_clique_unions_recovered_exactly(self):
        for C, sizes in ((2, (6, 9)), (3, (5, 7, 6)), (5, (4, 5, 6, 4, 5))):
            g, truth = clique_union(sizes)
            assignment = spectral_cluster(normalize(g, "sym_norm"), C, seed=0)
            assert ami(assignment, truth) == pytest.approx(1.0, abs=1e-12)

    def test_criterion_8_filter_properties(self):
        rng = np.random.default_rng(13)
        for tau in rng.uniform(0.01, 1.0, 100):
            assert abs(simoncelli_response(tau / 2.0, tau) - 1.0) < 1e-12
            assert abs(simoncelli_response(tau, tau)) < 1e-12
        g = two_block_graph()
        x = rng.standard_normal(g.n)
        y = rng.standard_normal(g.n)
        a, b = 1.7, -0.4
        combo = denoise(g, a * x + b * y, 0.3)
        parts = a * denoise(g, x, 0.3) + b * denoise(g, y, 0.3)
        assert np.max(np.abs(combo - parts)) < 1e-8
        clean = np.concatenate([np.ones(20), -np.ones(20)])
        noisy = add_noise_to_snr(clean, 7.0, seed=0)
        _, best = best_tau_denoise(g, noisy, clean)
        assert best - snr_db(clean, noisy) >= 1.0

    def test_criterion_9_byte_identical_reports(self, tmp_path):
        rng = np.random.default_rng(17)
        centers = np.array([[6.0, 0.0], [0.0, 6.0], [-6.0, -6.0]])
        X = np.vstack([rng.normal(c, 0.2, size=(8, 2)) for c in centers])
        data = tmp_path / "blobs"
        data.mkdir()
        np.savetxt(data / "features.txt", X)
        (data / "labels.txt").write_text(
            "\n".join(str(i // 8) for i in range(24)) + "\n"
        )
        (data / "meta.txt").write_text("name=blobs\nseed=1\n")
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps([
            {"method": "cmeans-baseline"},
            {"method": "naive", "similarity": "cosine", "k": 4},
            {"method": "naive", "similarity": "rbf", "k": 4,
             "adjacency_variant": "sym_norm"},
        ]))
        reports = []
        for tag, jobs in (("a", "1"), ("b", "1"), ("c", "8")):
            out = tmp_path / f"report_{tag}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "graphbench.cli", "run",
                 "--task", "ucv", "--data", str(data),
                 "--grid", str(grid_file), "--seed", "5",
                 "--jobs", jobs, "--report", str(out)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]  # rerun
        assert reports[0] == reports[2]  # serial vs 8 workers
