import subprocess
import sys

import numpy as np
import pytest

from graphbench.core_graph import Graph, write_graph
from graphbench.harness import (
    DatasetError,
    RunConfig,
    emit_report,
    full_grid,
    load_dataset,
    run_grid,
    run_one,
    run_task1,
    run_task2,
    run_task3,
    split_generator,
)


def write_blob_dataset(root, n_per=10, seed=0, name="blobs"):
    rng = np.random.default_rng(seed)
    centers = np.array([[8.0, 0.0, 0.0], [0.0, 8.0, 0.0], [0.0, 0.0, 8.0]])
    X = np.vstack([rng.normal(c, 0.1, size=(n_per, 3)) for c in centers])
    labels = np.repeat([0, 1, 2], n_per)
    root.mkdir(parents=True, exist_ok=True)
    np.savetxt(root / "features.txt", X)
    (root / "labels.txt").write_text("\n".join(str(x) for x in labels) + "\n")
    (root / "meta.txt").write_text(f"name={name}\nseed=5\n")
    return X, labels


def write_signal_dataset(root, f=24, seed=1):
    rng = np.random.default_rng(seed)
    # piecewise-constant signal over two halves
    clean = np.concatenate([np.full(f // 2, 2.0), np.full(f - f // 2, -1.0)])
    clean += rng.normal(0, 0.05, f)
    root.mkdir(parents=True, exist_ok=True)
    np.savetxt(root / "features.txt", clean[None, :])
    np.savetxt(root / "signal.txt", clean[:, None])
    edges = [(i, i + 1, 1.0) for i in range(f - 1)]
    write_graph(Graph(f, edges), root / "graph.tsv")
    (root / "meta.txt").write_text("name=toy-signal\nseed=3\n")
    return clean


class TestLoadDataset:
    def test_blob_bundle(self, tmp_path):
        X, labels = write_blob_dataset(tmp_path / "d")
        bundle = load_dataset(tmp_path / "d")
        assert bundle.name == "blobs"
        assert bundle.C == 3
        assert bundle.n == 30
        assert bundle.seed == 5
        assert np.allclose(bundle.features, X)

    def test_label_gap_rejected(self, tmp_path):
        root = tmp_path / "d"
        root.mkdir()
        np.savetxt(root / "features.txt", np.eye(3))
        (root / "labels.txt").write_text("0\n2\n0\n")
        with pytest.raises(DatasetError, match="dense"):
            load_dataset(root)

    def test_dimension_mismatch_rejected(self, tmp_path):
        root = tmp_path / "d"
        root.mkdir()
        np.savetxt(root / "features.txt", np.eye(3))
        (root / "labels.txt").write_text("0\n1\n")
        with pytest.raises(DatasetError, match="labels.txt"):
            load_dataset(root)

    def test_non_numeric_rejected_with_line(self, tmp_path):
        root = tmp_path / "d"
        root.mkdir()
        (root / "features.txt").write_text("1.0 2.0\nfoo 3.0\n")
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(root)

    def test_unknown_meta_key_rejected(self, tmp_path):
        root = tmp_path / "d"
        root.mkdir()
        np.savetxt(root / "features.txt", np.eye(2))
        (root / "meta.txt").write_text("bogus=1\n")
        with pytest.raises(DatasetError, match="unknown key"):
            load_dataset(root)

    def test_signal_bundle(self, tmp_path):
        clean = write_signal_dataset(tmp_path / "s")
        bundle = load_dataset(tmp_path / "s")
        assert bundle.features.shape == (1, clean.size)
        assert bundle.clean_signal.size == clean.size
        assert bundle.reference_graph.n == clean.size

    def test_ragged_features_rejected(self, tmp_path):
        root = tmp_path / "d"
        root.mkdir()
        (root / "features.txt").write_text("1 2 3\n1 2\n")
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(root)


class TestSplitGenerator:
    def test_counts(self):
        masks = split_generator(100, 0.05, 10, 0)
        assert all(m.sum() == 5 for m in masks)

    def test_determinism(self):
        m1 = split_generator(50, 0.1, 5, 42)
        m2 = split_generator(50, 0.1, 5, 42)
        assert all(np.array_equal(a, b) for a, b in zip(m1, m2))

    def test_rounding_rule(self):
        masks = split_generator(2708, 0.05, 1, 0)
        assert masks[0].sum() == 135

    def test_rejects_empty_selection(self):
        with pytest.raises(ValueError):
            split_generator(5, 0.01, 1, 0)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            split_generator(10, 1.5, 1, 0)


class TestRunTask1:
    def test_cmeans_baseline_perfect_blobs(self, tmp_path):
        write_blob_dataset(tmp_path / "d")
        bundle = load_dataset(tmp_path / "d")
        res = run_task1(bundle, RunConfig("ucv", "cmeans-baseline", seed=0))
        assert res.primary_score == pytest.approx(1.0)

    def test_naive_cosine_cliques(self, tmp_path):
        write_blob_dataset(tmp_path / "d")
        bundle = load_dataset(tmp_path / "d")
        cfg = RunConfig("ucv", "naive", "cosine", 4, adjacency_variant="sym_norm")
        res = run_task1(bundle, cfg)
        assert res.primary_score == pytest.approx(1.0)


class TestRunTask2:
    def test_separable_blobs_high_accuracy(self, tmp_path):
        write_blob_dataset(tmp_path / "d", n_per=20)
        bundle = load_dataset(tmp_path / "d")
        cfg = RunConfig(
            "sscv-sgc",
            "naive",
            "rbf",
            5,
            adjacency_variant="augmented_sym_norm",
            n_splits=5,
            split_fraction=0.1,
        )
        res = run_task2(bundle, cfg)
        # fixed 100-epoch budget underfits tiny fixtures; check it beats chance
        assert res.primary_score >= 0.5
        assert res.dispersion is not None

    def test_label_propagation_blobs(self, tmp_path):
        write_blob_dataset(tmp_path / "d", n_per=15)
        bundle = load_dataset(tmp_path / "d")
        cfg = RunConfig(
            "sscv-lp",
            "naive",
            "cosine",
            3,
            adjacency_variant="sym_norm",
            n_splits=5,
            split_fraction=0.2,
        )
        res = run_task2(bundle, cfg)
        assert res.primary_score >= 0.9

    def test_std_uses_n_minus_one(self, tmp_path):
        write_blob_dataset(tmp_path / "d", n_per=8)
        bundle = load_dataset(tmp_path / "d")
        cfg = RunConfig("sscv-lp", "naive", "cosine", 3, n_splits=4, split_fraction=0.2)
        res = run_task2(bundle, cfg)
        assert res.dispersion >= 0.0


class TestRunTask3:
    def test_reference_graph_denoises(self, tmp_path):
        write_signal_dataset(tmp_path / "s")
        bundle = load_dataset(tmp_path / "s")
        res = run_task3(bundle, RunConfig("dgs", "reference-graph"))
        assert res.primary_score > 7.0
        assert 0.0 <= res.auxiliary["tau"] <= 1.0

    def test_rbf_knn_denoises(self, tmp_path):
        write_signal_dataset(tmp_path / "s")
        bundle = load_dataset(tmp_path / "s")
        res = run_task3(bundle, RunConfig("dgs", "naive", "rbf", 4))
        assert res.primary_score > 7.0

    def test_cosine_rejected(self, tmp_path):
        write_signal_dataset(tmp_path / "s")
        bundle = load_dataset(tmp_path / "s")
        with pytest.raises(ValueError, match="rbf"):
            run_task3(bundle, RunConfig("dgs", "naive", "cosine", 4))

    def test_smooth_method(self, tmp_path):
        write_signal_dataset(tmp_path / "s")
        bundle = load_dataset(tmp_path / "s")
        res = run_task3(bundle, RunConfig("dgs", "smooth", None, 10))
        assert res.primary_score > 7.0


class TestRunGrid:
    def small_grid(self):
        return [
            RunConfig("ucv", "cmeans-baseline"),
            RunConfig("ucv", "naive", "cosine", 2, adjacency_variant="sym_norm"),
            RunConfig("ucv", "naive", "rbf", 3, adjacency_variant="raw"),
        ]

    def test_runs_and_picks_best(self, tmp_path):
        write_blob_dataset(tmp_path / "d")
        bundle = load_dataset(tmp_path / "d")
        results, best = run_grid(bundle, self.small_grid())
        assert len(results) == 3
        assert best is not None
        assert best.primary_score == max(r.primary_score for r in results)

    def test_failure_isolated(self, tmp_path):
        write_blob_dataset(tmp_path / "d")
        bundle = load_dataset(tmp_path / "d")
        grid = self.small_grid() + [RunConfig("ucv", "naive", "cosine", 500)]
        results, best = run_grid(bundle, grid)
        assert results[3].failed
        assert not results[0].failed
        assert best is not None

    def test_full_grid_count_small_n(self, tmp_path):
        write_blob_dataset(tmp_path / "d")
        bundle = load_dataset(tmp_path / "d")
        grid = full_grid("ucv", bundle)
        # k from Table 1 below n=30: 5, 10, 20
        n_k = 3
        expected = 1 + 3 * n_k * 4 * 2 + n_k * 4
        assert len(grid) == expected

    def test_parallel_matches_serial(self, tmp_path):
        write_blob_dataset(tmp_path / "d")
        bundle = load_dataset(tmp_path / "d")
        r1, _ = run_grid(bundle, self.small_grid(), jobs=1)
        r2, _ = run_grid(bundle, self.small_grid(), jobs=2)
        for a, b in zip(r1, r2):
            assert a.primary_score == b.primary_score


class TestEmitReport:
    def test_csv_shape(self, tmp_path):
        write_blob_dataset(tmp_path / "d")
        bundle = load_dataset(tmp_path / "d")
        results, _ = run_grid(bundle, [RunConfig("ucv", "cmeans-baseline")])
        out = tmp_path / "report.csv"
        emit_report(results, out, bundle.name)
        lines = out.read_text().splitlines()
        assert lines[0] == "task,dataset,method,similarity,k,variant,score,std,tau,warnings,seconds"
        assert len(lines) == 2
        assert (tmp_path / "report.csv.best.txt").exists()

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], tmp_path / "r.csv", "x")

    def test_byte_identical_reruns(self, tmp_path):
        write_blob_dataset(tmp_path / "d")
        bundle = load_dataset(tmp_path / "d")
        grid = [
            RunConfig("ucv", "cmeans-baseline", seed=1),
            RunConfig("ucv", "naive", "cosine", 2, seed=1),
        ]
        outs = []
        for tag in ("a", "b"):
            results, _ = run_grid(bundle, grid)
            out = tmp_path / f"report_{tag}.csv"
            emit_report(results, out, bundle.name)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "graphbench.cli", *args],
            capture_output=True,
            text=True,
        )

    def test_validate_ok(self, tmp_path):
        write_blob_dataset(tmp_path / "d")
        proc = self.run_cli("datasets", "validate", str(tmp_path / "d"))
        assert proc.returncode == 0
        assert "valid" in proc.stdout

    def test_validate_bad(self, tmp_path):
        (tmp_path / "d").mkdir()
        proc = self.run_cli("datasets", "validate", str(tmp_path / "d"))
        assert proc.returncode == 1

    def test_infer_writes_graph(self, tmp_path):
        write_blob_dataset(tmp_path / "d")
        out = tmp_path / "g.tsv"
        proc = self.run_cli(
            "infer",
            "--data", str(tmp_path / "d"),
            "--method", "naive",
            "--similarity", "cosine",
            "--k", "3",
            "--variant", "sym",
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        assert out.read_text().startswith("#n=30 variant=sym_norm")

    @pytest.mark.parametrize("method", ["naive", "nnk"])
    def test_infer_without_similarity_is_usage_error(self, tmp_path, method):
        write_blob_dataset(tmp_path / "d")
        out = tmp_path / "g.tsv"
        proc = self.run_cli(
            "infer",
            "--data", str(tmp_path / "d"),
            "--method", method,
            "--k", "3",
            "--out", str(out),
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "similarity" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "graph_text, reason",
        [
            ("#variant=raw\n0\t1\t1.0\n", "line 1: header needs n="),
            ("#n=3 variant=raw\n5\t5\t1.0\n", "line 2: vertex index outside 0..2"),
            ("#n=24 variant=raw\n0\t1\tone\n", "line 2: non-numeric field"),
            ("#n=24 variant=raw\n0\t1\tnan\n", "line 2: non-finite weight"),
        ],
        ids=["missing-n", "index-out-of-range", "non-numeric", "nan-weight"],
    )
    def test_validate_malformed_graph(self, tmp_path, graph_text, reason):
        write_signal_dataset(tmp_path / "d")
        (tmp_path / "d" / "graph.tsv").write_text(graph_text)
        proc = self.run_cli("datasets", "validate", str(tmp_path / "d"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("invalid: graph.tsv: " + reason)
        assert "Traceback" not in proc.stderr

    def test_run_with_grid_file(self, tmp_path):
        write_blob_dataset(tmp_path / "d")
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(
            '[{"method": "cmeans-baseline"}, '
            '{"method": "naive", "similarity": "cosine", "k": 2, '
            '"adjacency_variant": "sym"}]'
        )
        report = tmp_path / "r.csv"
        proc = self.run_cli(
            "run",
            "--task", "ucv",
            "--data", str(tmp_path / "d"),
            "--grid", str(grid_file),
            "--seed", "7",
            "--report", str(report),
        )
        assert proc.returncode == 0, proc.stderr
        assert report.exists()
        assert len(report.read_text().splitlines()) == 3

    def test_run_partial_failure_exit_code(self, tmp_path):
        write_blob_dataset(tmp_path / "d")
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(
            '[{"method": "cmeans-baseline"}, '
            '{"method": "naive", "similarity": "cosine", "k": 500}]'
        )
        report = tmp_path / "r.csv"
        proc = self.run_cli(
            "run",
            "--task", "ucv",
            "--data", str(tmp_path / "d"),
            "--grid", str(grid_file),
            "--report", str(report),
        )
        assert proc.returncode == 2
        assert report.exists()

    def test_jobs_byte_identical(self, tmp_path):
        write_blob_dataset(tmp_path / "d")
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(
            '[{"method": "cmeans-baseline"}, '
            '{"method": "naive", "similarity": "rbf", "k": 3, '
            '"adjacency_variant": "augsym"}]'
        )
        reports = []
        for jobs in ("1", "2"):
            report = tmp_path / f"r{jobs}.csv"
            proc = self.run_cli(
                "run",
                "--task", "ucv",
                "--data", str(tmp_path / "d"),
                "--grid", str(grid_file),
                "--seed", "3",
                "--jobs", jobs,
                "--report", str(report),
            )
            assert proc.returncode == 0, proc.stderr
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]


class TestRunOne:
    def test_records_error(self, tmp_path):
        write_blob_dataset(tmp_path / "d")
        bundle = load_dataset(tmp_path / "d")
        res = run_one(bundle, RunConfig("dgs", "reference-graph"))
        assert res.failed
        assert "error" in res.auxiliary
