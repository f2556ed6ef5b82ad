import csv
import functools
import importlib.util
import inspect
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphbench.inference as inference_module
from graphbench import cli, harness, tasks
from graphbench.core_graph import (
    VARIANTS,
    Graph,
    IsolatedVertexWarning,
    normalize,
    read_graph,
    write_graph,
)
from graphbench.harness import (
    CSV_HEADER,
    TABLE1_K,
    TASKS,
    DatasetError,
    GridCache,
    RunConfig,
    emit_report,
    full_grid,
    load_dataset,
    point_graph,
    run_grid,
    run_one,
    run_task1,
    run_task2,
    run_task3,
    split_generator,
)
from graphbench.metrics import add_noise_to_snr
from graphbench.tasks import best_tau_denoise

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench_module(name):
    """A benchmark module, imported from perfbench/<name>.py as perfbench_<name>."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def openblas_on_avx2() -> bool:
    """Whether numpy's BLAS is OpenBLAS on a CPU with AVX2, as OPENBLAS_CORETYPE=Haswell needs."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        flags = Path("/proc/cpuinfo").read_text().split()
    except (TypeError, KeyError, OSError):  # numpy before 1.26 has no mode="dicts"
        return False
    return "openblas" in blas.lower() and "avx2" in flags


def small_grid_reports(tmp_path, task, envs) -> list[tuple[bytes, bytes]]:
    """The CSV and best-score bytes of one small grid of ``task`` through `graphbench run`, in
    a subprocess per entry of ``envs``: variables to set, or to unset where the value is None."""
    gen = load_perfbench_module("gen")
    if task != "dgs":
        data = gen.cora_like(tmp_path / "d", 0, 200, 1433, 40, 0.42)
        points = [
            {"method": harness.BASELINES[task]},
            {"method": "naive", "similarity": "cosine", "k": 10, "adjacency_variant": "sym_norm"},
            {"method": "naive", "similarity": "rbf", "k": 10,
             "adjacency_variant": "augmented_sym_norm"},
            {"method": "nnk", "similarity": "cosine", "k": 10},
        ]
        if task != "ucv":
            points = [dict(point, n_splits=10) for point in points]
    else:
        data = gen.road_like(tmp_path / "d", 0, 150, 4.0, 2.0)
        points = [
            {"method": "reference-graph"},
            {"method": "naive", "similarity": "rbf", "k": 10, "adjacency_variant": "sym_norm"},
            {"method": "naive", "similarity": "rbf", "k": None},
            {"method": "nnk", "similarity": "rbf", "k": 10},
        ]
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps(points))
    reports = []
    for r, overrides in enumerate(envs):
        report = tmp_path / f"r{r}.csv"
        env = {**os.environ, **overrides}
        proc = subprocess.run(
            [
                sys.executable, "-m", "graphbench.cli", "run", "--task", task,
                "--data", str(data), "--grid", str(grid_file), "--report", str(report),
            ],
            capture_output=True,
            text=True,
            env={name: value for name, value in env.items() if value is not None},
        )
        assert proc.returncode == 0, proc.stderr
        reports.append((report.read_bytes(), Path(f"{report}.best.txt").read_bytes()))
    return reports


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


def write_outlier_dataset(root, n=30, seed=0):
    """Positive rows plus one all-negative row: a cosine k-NN graph isolates the last vertex."""
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.uniform(0.5, 1.5, size=(n, 4)), -np.ones((1, 4))])
    root.mkdir(parents=True, exist_ok=True)
    np.savetxt(root / "features.txt", X)
    (root / "labels.txt").write_text("\n".join(str(i % 3) for i in range(n + 1)) + "\n")
    (root / "meta.txt").write_text("name=outlier\nseed=2\n")
    return n  # index of the isolated vertex


def nonblank_lines(path):
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if line:
                    yield lineno, line
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"{path.name}: unreadable ({exc})") from None


def load_matrix_per_line(path, dtype=float):
    """The bundle-file reader that parses one line at a time, frozen as the reference."""
    rows = []
    for lineno, line in nonblank_lines(path):
        try:
            row = np.array(line.split(), dtype=dtype)
        except (ValueError, OverflowError) as exc:
            raise DatasetError(f"{path.name} line {lineno}: non-numeric entry ({exc})")
        if rows and row.size != rows[0].size:
            raise DatasetError(
                f"{path.name} line {lineno}: expected {rows[0].size} columns, got {row.size}"
            )
        rows.append(row)
    if not rows:
        raise DatasetError(f"{path.name}: empty file")
    out = np.stack(rows)
    if not np.all(np.isfinite(out)):
        raise DatasetError(f"{path.name} contains non-finite values")
    return out


# Tokens at the edges of the numeric syntax: signed zeros, an overflow to inf, NaN, and
# forms only Python's parser accepts (a digit separator, an Arabic-Indic digit).
EDGE_TOKENS = ("0", "-0", "+1", "1e400", "nan", "1_0", "\u0663")
INT_EDGE_TOKENS = ("1.5", "99999999999999999999")  # a float, and an int64 overflow


@st.composite
def numeric_file_text(draw, int_file):
    """A bundle file's text: rows of edge tokens, some ragged, amid blank lines."""
    token = st.sampled_from(("0", "-0", "+1")) | st.sampled_from(
        EDGE_TOKENS + (INT_EDGE_TOKENS if int_file else ())
    )
    space = st.sampled_from((" ", "\t", "\xa0"))
    cols = draw(st.integers(1, 3))
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(("", " ", "\t", "\xa0 "))))
            continue
        width = draw(st.sampled_from((cols,) * 6 + (cols + 1, max(cols - 1, 1))))
        line = draw(token)
        for _ in range(width - 1):
            line += draw(space) + draw(token)
        pad = st.sampled_from(("", " ", "\t"))
        lines.append(draw(pad) + line + draw(pad))
    newline = draw(st.sampled_from(("\n", "\r\n")))
    return newline.join(lines) + draw(st.sampled_from(("", newline)))


def reference_full_grid(task, bundle, master_seed):
    """The full grid written out as nested loops, in report order."""

    def cfg(method, sim=None, k=None, variant="raw"):
        return RunConfig(task, method, sim, k, adjacency_variant=variant, seed=master_seed)

    configs = []
    if task == "dgs":
        ks = [k for k in TABLE1_K if k < bundle.features.shape[1]]
        if bundle.reference_graph is not None:
            configs.append(cfg("reference-graph", variant=bundle.reference_graph.variant))
        for k in ks + [None]:
            for variant in VARIANTS:
                configs.append(cfg("naive", "rbf", k, variant))
        for k in ks:
            for variant in VARIANTS:
                configs.append(cfg("nnk", "rbf", k, variant))
                configs.append(cfg("smooth", None, k, variant))
        return configs
    ks = [k for k in TABLE1_K if k < bundle.features.shape[0]]
    configs.append(cfg("cmeans-baseline" if task == "ucv" else "logreg-baseline"))
    for sim in ("cosine", "covariance", "rbf"):
        for k in ks:
            for variant in VARIANTS:
                configs.append(cfg("naive", sim, k, variant))
                configs.append(cfg("nnk", sim, k, variant))
    for k in ks:
        for variant in VARIANTS:
            configs.append(cfg("smooth", None, k, variant))
    return configs


def warning_cells(results, path):
    """The report's `warnings` column, one cell per grid point."""
    emit_report(results, path, "d")
    index = CSV_HEADER.split(",").index("warnings")
    return [line.split(",")[index] for line in path.read_text().splitlines()[1:]]


def outcome(result):
    """Everything a result records except its wall time, with NaN equal to NaN."""
    auxiliary = {key: v for key, v in result.auxiliary.items() if key != "seconds"}
    return repr(result.config), repr(result.primary_score), repr(result.dispersion), auxiliary


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

    def test_bad_row_after_blank_lines_names_its_file_line(self, tmp_path):
        root = tmp_path / "d"
        root.mkdir()
        (root / "features.txt").write_text("\n1.0 2.0\n\n\n3.0 x\n")  # the second row
        with pytest.raises(DatasetError, match="features.txt line 5: non-numeric entry"):
            load_dataset(root)

    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.integers(1, 5),
        cols=st.integers(1, 5),
        data=st.data(),
    )
    def test_matrix_round_trips_bit_for_bit(self, rows, cols, data):
        # -0.0 and subnormals must survive the text round trip too
        value = st.sampled_from([-0.0, 5e-324, -2.5e-310]) | st.floats(
            allow_nan=False, allow_infinity=False
        )
        X = np.array(data.draw(st.lists(value, min_size=rows * cols, max_size=rows * cols)))
        X = X.reshape(rows, cols)
        with tempfile.TemporaryDirectory() as tmp:
            np.savetxt(Path(tmp) / "features.txt", X, fmt="%.17g")
            features = load_dataset(tmp).features
        assert features.shape == X.shape
        assert np.array_equal(features.view(np.int64), X.view(np.int64))

    @settings(max_examples=400, deadline=None)
    @given(int_file=st.booleans(), data=st.data())
    def test_reader_matches_the_per_line_reader(self, int_file, data):
        # same dtype, shape and bytes, or the same error, and no warning escapes either
        text = data.draw(numeric_file_text(int_file))
        dtype = int if int_file else float

        def read(reader, path):
            try:
                return reader(path, dtype)
            except DatasetError as exc:
                return str(exc)

        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            path = Path(tmp) / "features.txt"
            path.write_bytes(text.encode("utf-8"))
            got = read(harness._load_matrix, path)
            want = read(load_matrix_per_line, path)
        assert [str(w.message) for w in seen] == []
        if isinstance(want, str):
            assert got == want
        else:
            assert isinstance(got, np.ndarray), got
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("0\n1.5\n2\n", r"labels.txt line 2: non-numeric entry \(invalid literal for int\(\)"),
            ("0\n99999999999999999999\n2\n", "labels.txt line 2: non-numeric entry"),
            ("0 0\n1 1\n2 2\n", "labels.txt: expected one integer per line, got 2"),
            ("", "labels.txt: empty file"),
        ],
        ids=["non-integer", "too-large", "two-per-line", "empty"],
    )
    def test_malformed_labels_rejected(self, tmp_path, text, reason):
        root = tmp_path / "d"
        root.mkdir()
        np.savetxt(root / "features.txt", np.eye(3))
        (root / "labels.txt").write_text(text)
        with pytest.raises(DatasetError, match=reason):
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

    def test_signal_bundle_needs_a_label_per_vertex(self, tmp_path):
        write_signal_dataset(tmp_path / "s")  # 24 vertices in one feature row
        (tmp_path / "s" / "labels.txt").write_text("0\n")
        with pytest.raises(DatasetError, match="labels.txt has 1 entries for 24 vertices"):
            load_dataset(tmp_path / "s")

    def test_ragged_features_rejected(self, tmp_path):
        root = tmp_path / "d"
        root.mkdir()
        (root / "features.txt").write_text("1 2 3\n1 2\n")
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(root)

    @pytest.mark.parametrize("entry", ["C=abc", "seed=x", "C=2.0"])
    def test_non_integer_meta_value_rejected(self, tmp_path, entry):
        write_blob_dataset(tmp_path / "d")
        (tmp_path / "d" / "meta.txt").write_text(f"name=blobs\n{entry}\n")
        with pytest.raises(DatasetError, match="meta.txt line 2: .* is not an integer"):
            load_dataset(tmp_path / "d")

    def test_non_utf8_features_rejected(self, tmp_path):
        root = tmp_path / "d"
        root.mkdir()
        (root / "features.txt").write_bytes(b"\xff1 2\n3 4\n")
        with pytest.raises(DatasetError, match="features.txt"):
            load_dataset(root)

    @pytest.mark.parametrize("name", ["signal.txt", "noisy.txt"])
    def test_non_finite_signal_rejected(self, tmp_path, name):
        values = write_signal_dataset(tmp_path / "s")
        values[3] = np.nan
        np.savetxt(tmp_path / "s" / name, values[:, None])
        with pytest.raises(DatasetError, match=f"{name} contains non-finite values"):
            load_dataset(tmp_path / "s")

    @pytest.mark.parametrize("name", ["signal.txt", "noisy.txt"])
    def test_signal_with_two_values_per_line_rejected(self, tmp_path, name):
        values = write_signal_dataset(tmp_path / "s")
        np.savetxt(tmp_path / "s" / name, values.reshape(-1, 2))
        with pytest.raises(DatasetError, match=f"^{name}: expected one value per line, got 2$"):
            load_dataset(tmp_path / "s")

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("C=3\nC=3\n", "meta.txt line 2: key 'C' repeats line 1"),
            ("name=a\n# note\nseed=1\n\nname=b\n", "meta.txt line 5: key 'name' repeats line 1"),
        ],
        ids=["same-value", "after-comment-and-blank"],
    )
    def test_repeated_meta_key_rejected(self, tmp_path, text, reason):
        write_blob_dataset(tmp_path / "d")
        (tmp_path / "d" / "meta.txt").write_text(text)
        with pytest.raises(DatasetError, match=f"^{reason}$"):
            load_dataset(tmp_path / "d")

    @pytest.mark.parametrize(
        "write, graph_n, bundle_n",
        [(write_signal_dataset, 1, 24), (write_blob_dataset, 3, 30)],
        ids=["signal-bundle-N", "label-bundle-F"],
    )
    def test_graph_vertex_count_must_match_bundle(self, tmp_path, write, graph_n, bundle_n):
        # a signal bundle's vertices are its F feature columns, any other bundle's its N rows
        write(tmp_path / "d")
        edges = [(0, 1, 1.0)] if graph_n > 1 else []
        write_graph(Graph(graph_n, edges), tmp_path / "d" / "graph.tsv")
        with pytest.raises(
            DatasetError, match=f"graph.tsv has {graph_n} vertices, the bundle has {bundle_n}"
        ):
            load_dataset(tmp_path / "d")

    @pytest.mark.parametrize("name", ["features.txt", "meta.txt", "graph.tsv"])
    def test_directory_in_place_of_file_rejected(self, tmp_path, name):
        write_signal_dataset(tmp_path / "s")
        target = tmp_path / "s" / name
        target.unlink()
        target.mkdir()
        with pytest.raises(DatasetError, match=name):
            load_dataset(tmp_path / "s")


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

    def test_rejects_no_splits(self):
        with pytest.raises(ValueError, match=r"^n_splits must be >= 1, got 0$"):
            split_generator(30, 0.1, 0, 0)

    @pytest.mark.parametrize(
        "n, n_splits, message",
        [
            (10.0, 2, "n must be an integer, got 10.0"),
            (10, 1.5, "n_splits must be an integer, got 1.5"),
            (10, True, "n_splits must be an integer, got True"),
        ],
        ids=["float-n", "fractional-splits", "boolean-splits"],
    )
    def test_rejects_a_count_that_is_not_an_integer(self, n, n_splits, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            split_generator(n, 0.5, n_splits, 0)

    def test_rejects_observing_every_vertex(self):
        with pytest.raises(ValueError, match=r"^fraction 0\.999 observes all 30 vertices$"):
            split_generator(30, 0.999, 1, 0)

    @pytest.mark.parametrize(
        "seed, message",
        [
            (True, "seed must be an integer, got True"),
            (1.5, "seed must be an integer, got 1.5"),
            (None, "seed must be an integer, got None"),
            (-1, "seed must be >= 0, got -1"),
        ],
        ids=["boolean-seed", "fractional-seed", "no-seed", "negative-seed"],
    )
    def test_rejects_a_master_seed_outside_the_seed_rule(self, seed, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            split_generator(30, 0.1, 2, seed)


class TestRunTask1:
    def test_cmeans_baseline_perfect_blobs(self, tmp_path):
        write_blob_dataset(tmp_path / "d")
        bundle = load_dataset(tmp_path / "d")
        res = run_task1(bundle, RunConfig("ucv", "cmeans-baseline", seed=0), None)
        assert res.primary_score == pytest.approx(1.0)

    def test_naive_cosine_cliques(self, tmp_path):
        write_blob_dataset(tmp_path / "d")
        bundle = load_dataset(tmp_path / "d")
        cfg = RunConfig("ucv", "naive", "cosine", 4, adjacency_variant="sym_norm")
        res = run_task1(bundle, cfg, point_graph(bundle, cfg))
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
        res = run_task2(bundle, cfg, point_graph(bundle, cfg))
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
        res = run_task2(bundle, cfg, point_graph(bundle, cfg))
        assert res.primary_score >= 0.9

    def test_std_uses_n_minus_one(self, tmp_path):
        write_blob_dataset(tmp_path / "d", n_per=8)
        bundle = load_dataset(tmp_path / "d")
        cfg = RunConfig("sscv-lp", "naive", "cosine", 3, n_splits=4, split_fraction=0.2)
        with pytest.warns(UserWarning, match="unlabeled vertices disconnected"):
            res = run_task2(bundle, cfg, point_graph(bundle, cfg))
        assert res.dispersion >= 0.0


class TestRunTask3:
    def test_non_raw_reference_graph_keeps_its_variant(self, tmp_path):
        clean = write_signal_dataset(tmp_path / "s")
        chain = Graph(clean.size, [(i, i + 1, 1.0) for i in range(clean.size - 1)])
        write_graph(normalize(chain, "sym_norm"), tmp_path / "s" / "graph.tsv")
        bundle = load_dataset(tmp_path / "s")
        reference = [cfg for cfg in full_grid("dgs", bundle) if cfg.method == "reference-graph"]
        assert [cfg.adjacency_variant for cfg in reference] == ["sym_norm"]
        res = run_one(bundle, reference[0])
        assert not res.failed
        noisy = add_noise_to_snr(clean, 7.0, bundle.seed)
        assert res.primary_score == best_tau_denoise(bundle.reference_graph, noisy, clean)[1]
        for variant in ("raw", "augmented"):
            res = run_one(bundle, RunConfig("dgs", "reference-graph", adjacency_variant=variant))
            assert res.failed
            assert "sym_norm" in res.auxiliary["error"] and variant in res.auxiliary["error"]

    def test_reference_graph_denoises(self, tmp_path):
        write_signal_dataset(tmp_path / "s")
        bundle = load_dataset(tmp_path / "s")
        cfg = RunConfig("dgs", "reference-graph")
        res = run_task3(bundle, cfg, point_graph(bundle, cfg))
        assert res.primary_score > 7.0
        assert 0.0 <= res.auxiliary["tau"] <= 1.0

    def test_rbf_knn_denoises(self, tmp_path):
        write_signal_dataset(tmp_path / "s")
        bundle = load_dataset(tmp_path / "s")
        cfg = RunConfig("dgs", "naive", "rbf", 4)
        res = run_task3(bundle, cfg, point_graph(bundle, cfg))
        assert res.primary_score > 7.0

    def test_cosine_rejected(self, tmp_path):
        write_signal_dataset(tmp_path / "s")
        bundle = load_dataset(tmp_path / "s")
        with pytest.raises(ValueError, match="rbf"):
            cfg = RunConfig("dgs", "naive", "cosine", 4)
            run_task3(bundle, cfg, point_graph(bundle, cfg))

    def test_smooth_method(self, tmp_path):
        write_signal_dataset(tmp_path / "s")
        bundle = load_dataset(tmp_path / "s")
        cfg = RunConfig("dgs", "smooth", None, 10)
        res = run_task3(bundle, cfg, point_graph(bundle, cfg))
        assert res.primary_score > 7.0


@pytest.fixture
def inline_pools(monkeypatch):
    """Make run_grid's pool run every task in this process; returns each pool's max_workers.

    A task runs when its result is asked for: after this process has run
    its first group and claimed every other, so each task runs only the
    group it starts on.
    """
    pools = []

    class Deferred:
        """A task that runs when its result is asked for."""

        def __init__(self, fn, args):
            self.result = functools.partial(fn, *args)

        def done(self):
            return False

    class InlineExecutor:
        """Records max_workers and defers every task it is given; starts no process."""

        def __init__(self, max_workers, mp_context, initializer, initargs):
            pools.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def submit(self, fn, *args):
            return Deferred(fn, args)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlineExecutor)
    monkeypatch.setattr(harness, "_worker_state", None)
    return pools


def use_start_method(monkeypatch, method):
    """Make run_grid's pool start its workers by ``method``, whatever the platform's default.

    A harness function that a test wraps reaches the workers only when they fork.
    """
    context = multiprocessing.get_context(method)
    monkeypatch.setattr(harness.multiprocessing, "get_context", lambda: context)


@contextmanager
def deadline(seconds):
    """Fail the block with TimeoutError, instead of hanging, once it has run ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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

    @pytest.mark.parametrize(
        "task, bundle_kind",
        [
            ("ucv", "labels"),
            ("ucv", "labels+graph"),
            ("sscv-lp", "labels"),
            ("sscv-sgc", "labels"),
            ("dgs", "signal"),
            ("dgs", "signal+graph"),
            ("dgs", "signal+sym_norm-graph"),
        ],
    )
    def test_full_grid_order(self, tmp_path, task, bundle_kind):
        root = tmp_path / "d"
        if bundle_kind.startswith("labels"):
            X, _ = write_blob_dataset(root)
            n = X.shape[0]
        else:
            n = write_signal_dataset(root).size
            (root / "graph.tsv").unlink()
        if bundle_kind.endswith("graph"):
            chain = Graph(n, [(i, i + 1, 1.0) for i in range(n - 1)])
            variant = "sym_norm" if "sym_norm" in bundle_kind else "raw"
            write_graph(normalize(chain, variant), root / "graph.tsv")
        bundle = load_dataset(root)
        grid = full_grid(task, bundle, master_seed=4)
        # the bundles' 24 and 30 vertices cut TABLE1_K after k=20
        assert {cfg.k for cfg in grid} - {None} == {5, 10, 20}
        assert [repr(cfg) for cfg in grid] == [
            repr(cfg) for cfg in reference_full_grid(task, bundle, 4)
        ]

    def test_parallel_matches_serial(self, tmp_path):
        write_blob_dataset(tmp_path / "d")
        bundle = load_dataset(tmp_path / "d")
        r1, _ = run_grid(bundle, self.small_grid(), jobs=1)
        r2, _ = run_grid(bundle, self.small_grid(), jobs=2)
        for a, b in zip(r1, r2):
            assert a.primary_score == b.primary_score

    def test_mixed_grid_reports_match_across_jobs(self, tmp_path):
        write_outlier_dataset(tmp_path / "d")
        write_signal_dataset(tmp_path / "s")
        labelled = [
            RunConfig(task, method, "cosine", 4, adjacency_variant=v, seed=11, n_splits=20)
            for task in ("ucv", "sscv-lp")
            for method in ("naive", "nnk")
            for v in VARIANTS
        ]
        signal = [
            RunConfig("dgs", method, similarity, k, adjacency_variant=v, seed=11)
            for method, similarity, k in (
                ("naive", "rbf", 4),
                ("nnk", "rbf", 4),
                ("reference-graph", None, None),
            )
            for v in VARIANTS
        ]
        for name, grid in (("d", labelled), ("s", signal)):
            bundle = load_dataset(tmp_path / name)
            reports = []
            for jobs in (1, 2):
                results, _ = run_grid(bundle, grid, jobs=jobs)
                assert not any(r.failed for r in results)
                out = tmp_path / f"{name}{jobs}.csv"
                emit_report(results, out, bundle.name)
                reports.append(out.read_bytes())
            assert reports[0] == reports[1]

    def test_jobs_below_one_rejected(self, tmp_path):
        write_blob_dataset(tmp_path / "d")
        bundle = load_dataset(tmp_path / "d")
        for jobs in (0, -1):
            with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
                run_grid(bundle, self.small_grid(), jobs=jobs)

    def test_pool_has_at_most_one_worker_per_group(self, tmp_path, inline_pools):
        write_blob_dataset(tmp_path / "d")
        bundle = load_dataset(tmp_path / "d")
        one_graph = [RunConfig("ucv", "naive", "cosine", 2, adjacency_variant=v) for v in VARIANTS]
        two_groups = one_graph + [RunConfig("ucv", "cmeans-baseline")]
        serial, _ = run_grid(bundle, two_groups)
        pooled, _ = run_grid(bundle, two_groups, jobs=8)
        assert inline_pools == [1]  # this process runs one of the two groups
        assert [outcome(r) for r in pooled] == [outcome(r) for r in serial]
        run_grid(bundle, one_graph, jobs=8)
        assert inline_pools == [1]  # a single group runs in this process, without a pool

    def pool_grid(self, tmp_path):
        """The blob bundle and a grid of six groups, some sharing a matrix, one failing."""
        write_blob_dataset(tmp_path / "d")
        grid = [
            RunConfig("ucv", "naive", similarity, k, adjacency_variant=v, seed=2)
            for similarity, k in (("cosine", 2), ("rbf", 3), ("cosine", 4), ("cosine", 500))
            for v in ("raw", "sym_norm")
        ]
        grid += [RunConfig("ucv", "nnk", "cosine", 3), RunConfig("ucv", "cmeans-baseline", seed=2)]
        return load_dataset(tmp_path / "d"), grid

    @pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
    def test_pool_matches_serial_under_each_start_method(self, tmp_path, monkeypatch, method):
        # each method runs, whichever is the platform's default: fork lets the workers
        # inherit _start_worker's arguments, forkserver (Linux's default from Python 3.14)
        # and spawn (macOS's) pickle them
        bundle, grid = self.pool_grid(tmp_path)
        serial, _ = run_grid(bundle, grid)
        use_start_method(monkeypatch, method)
        pooled, _ = run_grid(bundle, grid, jobs=2)
        assert [outcome(r) for r in pooled] == [outcome(r) for r in serial]
        assert multiprocessing.active_children() == []

    def test_reports_match_across_one_two_and_three_jobs(self, tmp_path):
        bundle, grid = self.pool_grid(tmp_path)
        reports = []
        for jobs in (1, 2, 3):
            results, _ = run_grid(bundle, grid, jobs=jobs)
            assert [r.config for r in results] == grid
            assert [r.failed for r in results] == [False] * 6 + [True] * 2 + [False] * 2
            emit_report(results, tmp_path / f"r{jobs}.csv", bundle.name)
            reports.append((tmp_path / f"r{jobs}.csv").read_bytes())
        assert reports[1] == reports[0]
        assert reports[2] == reports[0]

    def test_each_group_runs_once_under_fast_thread_switches(self, tmp_path, monkeypatch):
        use_start_method(monkeypatch, "fork")
        bundle, grid = self.pool_grid(tmp_path)
        serial = [outcome(r) for r in run_grid(bundle, grid)[0]]
        runs, run_group = multiprocessing.Value("i", 0), harness._run_group

        def counted(*args):
            with runs.get_lock():
                runs.value += 1
            return run_group(*args)

        monkeypatch.setattr(harness, "_run_group", counted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the pool's threads and this one interleave often
        try:
            with deadline(120):
                # two, three and five processes race on the claims of the six groups
                for repeat, jobs in enumerate((2, 3, 5), 1):
                    results, _ = run_grid(bundle, grid, jobs=jobs)
                    assert [outcome(r) for r in results] == serial
                    assert runs.value == 6 * repeat
        finally:
            sys.setswitchinterval(interval)

    def test_a_worker_that_dies_raises_broken_process_pool(self, tmp_path, monkeypatch):
        use_start_method(monkeypatch, "fork")
        bundle, grid = self.pool_grid(tmp_path)
        parent, run_group = os.getpid(), harness._run_group

        def run_group_or_die(*args):
            if os.getpid() != parent:
                os._exit(3)
            return run_group(*args)

        monkeypatch.setattr(harness, "_run_group", run_group_or_die)
        with deadline(60), pytest.raises(BrokenProcessPool):
            run_grid(bundle, grid, jobs=3)

    def test_a_worker_that_raises_stops_the_claims(self, tmp_path, monkeypatch):
        use_start_method(monkeypatch, "fork")
        bundle, grid = self.pool_grid(tmp_path)
        parent, run_group, run_claimed = os.getpid(), harness._run_group, harness._run_claimed
        worker_raised, ours = multiprocessing.Event(), []

        def run_claimed_and_signal(*args):
            try:
                return run_claimed(*args)
            finally:
                if os.getpid() != parent:
                    worker_raised.set()  # after its loop has stopped the claims

        def run_group_or_raise(*args):
            if os.getpid() != parent:
                raise KeyError("a worker's group")
            ours.append(args[2])
            assert worker_raised.wait(30)  # this process's first group outlasts the worker
            return run_group(*args)

        monkeypatch.setattr(harness, "_run_claimed", run_claimed_and_signal)
        monkeypatch.setattr(harness, "_run_group", run_group_or_raise)
        with deadline(60), pytest.raises(KeyError, match="a worker's group"):
            run_grid(bundle, grid, jobs=2)
        # the worker raises on group 0; this process runs group 1 and claims none after it
        assert len(ours) == 1

    def test_claims_stop_once_a_workers_future_is_done(self, monkeypatch):
        ran = []
        monkeypatch.setattr(
            harness, "_run_group", lambda bundle, cache, group: ran.append(group) or [group]
        )
        claims = multiprocessing.Value("i", 1)
        finished = Future()
        finished.set_result({})  # a worker that died, raised or ran out of groups
        done = harness._run_claimed(None, None, ["g0", "g1", "g2"], claims, 0, futures=[finished])
        assert ran == ["g0"] and done == {0: ["g0"]}
        assert claims.value == 1

    def test_an_exception_in_this_processs_share_propagates(self, tmp_path, monkeypatch):
        use_start_method(monkeypatch, "fork")
        bundle, grid = self.pool_grid(tmp_path)
        parent, run_group = os.getpid(), harness._run_group
        workers_ran = multiprocessing.Value("i", 0)

        def run_group_or_raise(*args):
            if os.getpid() == parent:
                raise KeyError("this process's group")
            with workers_ran.get_lock():
                workers_ran.value += 1
            return run_group(*args)

        monkeypatch.setattr(harness, "_run_group", run_group_or_raise)
        with deadline(60), pytest.raises(KeyError, match="this process's group"):
            run_grid(bundle, grid, jobs=2)
        # this process raises on its first group; the worker finishes the one it holds
        # (and, if that ended first, the next) and takes no more of the six
        assert 1 <= workers_ran.value <= 2

    def test_smooth_points_share_solves(self, tmp_path, monkeypatch):
        write_blob_dataset(tmp_path / "d", n_per=4)
        bundle = load_dataset(tmp_path / "d")
        grid = [
            RunConfig("ucv", "smooth", k=3, adjacency_variant="raw"),
            RunConfig("ucv", "smooth", k=3, adjacency_variant="sym_norm"),
            RunConfig("ucv", "smooth", k=2),
            # pruned at a larger sigma, the same solves give graphs too sparse for k=3
            RunConfig("ucv", "smooth", k=3, sigma=0.5),
        ]
        solves = []
        solve = inference_module.learn_log_degree_weights

        def counting(Z, **kwargs):
            solves.append(kwargs.get("beta", 1.0))
            return solve(Z, **kwargs)

        monkeypatch.setattr(inference_module, "learn_log_degree_weights", counting)
        alone, solves_alone = [], []
        for cfg in grid:
            del solves[:]
            alone.append(run_one(bundle, cfg))
            solves_alone.append(len(solves))
        # k=2 is below the sparsest end's mean degree: it fails after the two ends
        assert alone[2].auxiliary["error"].startswith("CalibrationError: mean degree 2")
        assert alone[3].auxiliary["error"].startswith("CalibrationError: mean degree 3")
        assert solves_alone[2] == solves_alone[3] == 2
        assert solves_alone[0] == solves_alone[1] > 2
        del solves[:]
        results, _ = run_grid(bundle, grid)
        # one build for both k=3 points; k=2 finds both ends solved, sigma=0.5 neither
        assert len(solves) == solves_alone[0] + 2
        assert [outcome(r) for r in results] == [outcome(r) for r in alone]


def count_calls(monkeypatch, module, names):
    """Wrap module.<name> for each name; the returned Counter counts their calls."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


SIMILARITY_FUNCTIONS = (
    "cosine_similarity",
    "covariance_similarity",
    "pairwise_sq_euclidean",
    "rbf_kernel",
)


class TestStartMatrixMemo:
    def test_each_matrix_once_per_grid(self, tmp_path, monkeypatch):
        write_blob_dataset(tmp_path / "d", n_per=4)
        bundle = load_dataset(tmp_path / "d")
        grid = [
            RunConfig("ucv", "naive", "cosine", 3),
            RunConfig("ucv", "nnk", "rbf", 3, adjacency_variant="sym_norm"),
            RunConfig("ucv", "naive", "rbf", 3, gamma=0.5),
            RunConfig("ucv", "nnk", "cosine", 3, adjacency_variant="augmented"),
            RunConfig("ucv", "smooth", k=3),
        ]
        alone = [outcome(run_one(bundle, cfg)) for cfg in grid]
        assert not any("error" in aux for *_, aux in alone)
        calls = count_calls(monkeypatch, inference_module, SIMILARITY_FUNCTIONS)
        results, _ = run_grid(bundle, grid)
        assert [outcome(r) for r in results] == alone
        # one matrix per (kind, gamma): the cosine similarity, the rbf kernels at
        # gamma None and 0.5 (each from its own squared distances) and smooth's distances
        assert calls == {"cosine_similarity": 1, "rbf_kernel": 2, "pairwise_sq_euclidean": 3}

    def test_serial_run_keeps_the_matrix_and_a_pool_worker_drops_it(
        self, tmp_path, monkeypatch, inline_pools
    ):
        write_blob_dataset(tmp_path / "d")
        bundle = load_dataset(tmp_path / "d")
        # two groups on one cosine matrix, and a baseline so that jobs=2 makes a pool
        grid = [RunConfig("ucv", "naive", "cosine", k) for k in (3, 4)]
        grid.append(RunConfig("ucv", "cmeans-baseline"))
        calls = count_calls(monkeypatch, inference_module, SIMILARITY_FUNCTIONS)
        serial, _ = run_grid(bundle, grid)
        assert calls == {"cosine_similarity": 1}
        pooled, _ = run_grid(bundle, grid, jobs=2)
        assert inline_pools == [1]
        # both processes of the jobs=2 run drop the matrix after a build: each group computes it
        assert calls == {"cosine_similarity": 3}
        assert [outcome(r) for r in pooled] == [outcome(r) for r in serial]

    def test_pool_worker_keeps_the_matrix_after_a_build_that_raises(
        self, tmp_path, monkeypatch, inline_pools
    ):
        write_blob_dataset(tmp_path / "d")
        bundle = load_dataset(tmp_path / "d")
        # one group whose build raises (k=500 is not below the 30 vertices) for
        # three scored variants, and a baseline so that jobs=2 makes a pool
        variants = ("raw", "sym_norm", "augmented_sym_norm")
        grid = [RunConfig("ucv", "naive", "cosine", 500, adjacency_variant=v) for v in variants]
        grid.append(RunConfig("ucv", "cmeans-baseline"))
        calls = count_calls(monkeypatch, inference_module, SIMILARITY_FUNCTIONS)
        results, _ = run_grid(bundle, grid, jobs=2)
        assert inline_pools == [1]
        # each point is rejected for its k before any matrix is computed
        assert calls == {}
        assert [r.failed for r in results] == [True, True, True, False]
        assert len({r.auxiliary["error"] for r in results[:3]}) == 1

    def test_pool_worker_keeps_the_matrix_after_a_calibration_failure(
        self, tmp_path, monkeypatch, inline_pools
    ):
        write_blob_dataset(tmp_path / "d", n_per=4)
        bundle = load_dataset(tmp_path / "d")
        # smooth k=2 is below the sparsest end's mean degree: its build raises
        # after the matrix exists, for each of three scored variants
        variants = ("raw", "sym_norm", "augmented_sym_norm")
        grid = [RunConfig("ucv", "smooth", k=2, adjacency_variant=v) for v in variants]
        grid.append(RunConfig("ucv", "cmeans-baseline"))
        calls = count_calls(monkeypatch, inference_module, SIMILARITY_FUNCTIONS)
        results, _ = run_grid(bundle, grid, jobs=2)
        assert inline_pools == [1]
        # each point builds again, from the matrix the first failed build left
        assert calls == {"pairwise_sq_euclidean": 1}
        assert [r.failed for r in results] == [True, True, True, False]

    def test_build_that_raises_is_not_kept(self, tmp_path, monkeypatch):
        write_blob_dataset(tmp_path / "d", n_per=4)
        bundle = load_dataset(tmp_path / "d")
        cfg = RunConfig("ucv", "smooth", k=2)  # below the sparsest end's mean degree
        calls = count_calls(monkeypatch, harness, ["build_graph"])
        similarity = count_calls(monkeypatch, inference_module, SIMILARITY_FUNCTIONS)
        solves = count_calls(monkeypatch, inference_module, ["learn_log_degree_weights"])
        cache = GridCache()
        errors = []
        for _ in range(2):
            with pytest.raises(inference_module.CalibrationError) as failed:
                cache.raw_graph(bundle, cfg)
            errors.append(str(failed.value))
            assert solves == {"learn_log_degree_weights": 2}  # the second build reuses both ends
        assert calls == {"build_graph": 2}
        assert errors[0] == errors[1] and errors[0].startswith("mean degree 2")
        assert similarity == {"pairwise_sq_euclidean": 1}


# The head each loop-blind task runs once per graph, as harness calls it.
LOOP_BLIND_HEADS = {
    "ucv": (tasks, "spectral_cluster"),
    "dgs": (tasks, "best_tau_denoise"),
    "sscv-lp": (tasks, "propagate_labels"),
}


class TestHeadSharing:
    def bundle_and_points(self, tmp_path, task, variants):
        if task == "dgs":
            write_signal_dataset(tmp_path / "d")
            similarity, options = "rbf", {}
        else:
            write_blob_dataset(tmp_path / "d")
            similarity, options = "cosine", dict(n_splits=10, split_fraction=0.2)
        points = [
            RunConfig(task, "naive", similarity, 4, adjacency_variant=v, seed=3, **options)
            for v in variants
        ]
        return load_dataset(tmp_path / "d"), points

    @pytest.mark.parametrize(
        "augmented_first", [False, True], ids=["raw-first", "augmented-first"]
    )
    @pytest.mark.parametrize("task", sorted(LOOP_BLIND_HEADS))
    def test_augmented_reports_the_raw_head(self, tmp_path, monkeypatch, task, augmented_first):
        variants = ["augmented", "raw"] if augmented_first else ["raw", "augmented"]
        bundle, grid = self.bundle_and_points(tmp_path, task, variants)
        module, head = LOOP_BLIND_HEADS[task]
        calls = count_calls(monkeypatch, module, [head])
        results, _ = run_grid(bundle, grid)
        assert calls == {head: 1}
        emit_report(results, tmp_path / "r.csv", bundle.name)
        rows = (tmp_path / "r.csv").read_text().splitlines()[1:]
        raw_row = rows[variants.index("raw")]
        assert [row.replace(",augmented,", ",raw,") for row in rows] == [raw_row, raw_row]
        if task != "sscv-lp":
            # the head called directly on the augmented graph gives the same bits
            cfg = grid[variants.index("augmented")]
            runner = harness.run_task1 if task == "ucv" else harness.run_task3
            direct = runner(bundle, cfg, point_graph(bundle, cfg))
            assert repr(direct.primary_score) == repr(results[0].primary_score)

    @pytest.mark.parametrize(
        "task, variants, runs",
        [
            ("sscv-sgc", ["raw", "augmented"], {"sgc_predict": 2, "diffuse_features": 2}),
            ("ucv", VARIANTS, {"spectral_cluster": 3}),
            ("sscv-lp", VARIANTS, {"propagate_labels": 3}),
        ],
        ids=["sgc-augmented", "ucv-augmented-sym-norm", "lp-augmented-sym-norm"],
    )
    def test_other_variants_run_their_own_head(self, tmp_path, monkeypatch, task, variants, runs):
        bundle, grid = self.bundle_and_points(tmp_path, task, variants)
        calls = count_calls(monkeypatch, tasks, list(runs))
        results, _ = run_grid(bundle, grid)
        assert not any(r.failed for r in results)
        assert calls == runs

    @pytest.mark.parametrize("task", ["sscv-lp", "sscv-sgc"])
    def test_baseline_runs_the_sgc_head_undiffused(self, tmp_path, monkeypatch, task):
        write_blob_dataset(tmp_path / "d")
        bundle = load_dataset(tmp_path / "d")
        cfg = RunConfig(task, "logreg-baseline", seed=3, n_splits=10, split_fraction=0.2)
        heads = ["sgc_predict", "diffuse_features", "train_logistic_regression"]
        calls = count_calls(monkeypatch, tasks, heads)
        (result,), _ = run_grid(bundle, [cfg])
        assert not result.failed
        assert calls == {"sgc_predict": 1, "train_logistic_regression": 10}

    def test_augmented_replays_the_raw_warnings(self, tmp_path):
        write_outlier_dataset(tmp_path / "d")
        bundle = load_dataset(tmp_path / "d")
        lp = dict(seed=4, n_splits=20, split_fraction=0.2)
        grid = [
            RunConfig("sscv-lp", "naive", "cosine", 4, adjacency_variant=v, **lp)
            for v in ("augmented", "raw", "sym_norm")
        ]
        results, _ = run_grid(bundle, grid)
        cells = warning_cells(results, tmp_path / "r.csv")
        # every split that leaves the isolated vertex unobserved warns once
        assert int(cells[1]) > 0
        assert cells[0] == cells[1]

    def test_shared_heads_match_across_jobs(self, tmp_path):
        write_outlier_dataset(tmp_path / "d")
        bundle = load_dataset(tmp_path / "d")
        grid = [
            RunConfig(task, method, "cosine", 4, adjacency_variant=v, n_splits=10)
            for task in ("sscv-lp", "ucv")
            for method in ("nnk", "naive")
            for v in ("augmented", "sym_norm", "raw")
        ]
        reports = []
        for jobs in (1, 2):
            results, _ = run_grid(bundle, grid, jobs=jobs)
            assert not any(r.failed for r in results)
            emit_report(results, tmp_path / f"r{jobs}.csv", bundle.name)
            reports.append((tmp_path / f"r{jobs}.csv").read_bytes())
        assert reports[0] == reports[1]


POINT_OPTIONS = dict(n_splits=5, split_fraction=0.2)
RANDOM_GRID_POINTS = [
    RunConfig("ucv", "cmeans-baseline", seed=1),
    RunConfig("sscv-lp", "logreg-baseline", **POINT_OPTIONS),
    *(
        RunConfig(task, method, sim, k, adjacency_variant=v, seed=seed, **POINT_OPTIONS)
        for task, seed in (("ucv", 0), ("sscv-lp", 3))
        for method, sim, k in (("naive", "cosine", 2), ("naive", "rbf", 3), ("nnk", "cosine", 3))
        for v in VARIANTS
    ),
]
FAILING_GRID_POINTS = [
    RunConfig("ucv", "reference-graph"),  # the bundle has no reference graph
    RunConfig("ucv", "naive", "cosine", 500, **POINT_OPTIONS),  # k >= n: the build raises
    RunConfig("sscv-lp", "naive", "cosine", 500, adjacency_variant="sym_norm", **POINT_OPTIONS),
]


@pytest.fixture(scope="module")
def blob_bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("blobs")
    write_blob_dataset(root)
    return load_dataset(root)


class TestRandomGrids:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_grouped_grid_equals_points_run_alone(self, blob_bundle, data):
        picks = data.draw(st.lists(st.sampled_from(RANDOM_GRID_POINTS), min_size=1, max_size=6))
        failing = data.draw(st.lists(st.sampled_from(FAILING_GRID_POINTS), min_size=1, max_size=2))
        grid = data.draw(st.permutations(picks + picks[:1] + failing))
        alone = [outcome(run_one(blob_bundle, cfg)) for cfg in grid]
        assert any("error" in aux for *_, aux in alone)
        with tempfile.TemporaryDirectory() as tmp:
            reports = []
            for jobs in (1, 2):
                results, _ = run_grid(blob_bundle, grid, jobs=jobs)
                assert [r.config for r in results] == grid
                assert [outcome(r) for r in results] == alone
                report = Path(tmp) / f"r{jobs}.csv"
                emit_report(results, report, blob_bundle.name)
                reports.append(report.read_bytes())
        assert reports[0] == reports[1]


class TestWarningCount:
    def test_counts_each_points_warnings(self, tmp_path):
        isolated = write_outlier_dataset(tmp_path / "d")
        bundle = load_dataset(tmp_path / "d")
        lp = dict(seed=4, n_splits=20, split_fraction=0.2)
        grid = [
            RunConfig("ucv", "naive", "cosine", 4, adjacency_variant="raw"),
            RunConfig("ucv", "naive", "cosine", 4, adjacency_variant="sym_norm"),
            RunConfig("sscv-lp", "naive", "cosine", 4, adjacency_variant="raw", **lp),
            RunConfig("sscv-lp", "naive", "cosine", 4, adjacency_variant="sym_norm", **lp),
        ]
        masks = split_generator(bundle.n, lp["split_fraction"], lp["n_splits"], lp["seed"])
        # one "disconnected from all labels" warning per split leaving the isolated vertex out
        dead = sum(not mask[isolated] for mask in masks)
        assert 0 < dead < len(masks)
        results, _ = run_grid(bundle, grid)
        assert not any(r.failed for r in results)
        cells = warning_cells(results, tmp_path / "r.csv")
        # sym_norm adds one IsolatedVertexWarning per point
        assert cells == ["0", "1", str(dead), str(dead + 1)]

    def test_build_warnings_count_for_every_point_of_the_group(self, tmp_path):
        write_outlier_dataset(tmp_path / "d")
        bundle = load_dataset(tmp_path / "d")
        group = [
            RunConfig("ucv", "nnk", "cosine", 4, adjacency_variant=v) for v in ("raw", "augmented")
        ]
        with warnings.catch_warnings(record=True) as built:
            warnings.simplefilter("always")
            point_graph(bundle, group[0])
        assert "NNK produced isolated vertices" in [str(w.message) for w in built]
        # a second group, so that jobs=2 runs the nnk group in a pool worker
        grid = group + [RunConfig("ucv", "cmeans-baseline")]
        expected = warning_cells([run_one(bundle, cfg) for cfg in grid], tmp_path / "alone.csv")
        assert all(int(cell) >= len(built) for cell in expected[:2])
        for jobs in (1, 2):
            results, _ = run_grid(bundle, grid, jobs=jobs)
            assert not any(r.failed for r in results)
            assert warning_cells(results, tmp_path / f"r{jobs}.csv") == expected

    def test_failed_point_reports_zero(self, tmp_path):
        root = tmp_path / "d"
        root.mkdir()
        np.savetxt(root / "features.txt", [[1.0, 0.0], [1.0, 0.1], [-1.0, -1.0]])
        (root / "labels.txt").write_text("0\n1\n2\n")
        bundle = load_dataset(root)
        # the point warns while normalizing, then fails: 3 classes need 4 eigenpairs of 3
        cfg = RunConfig("ucv", "naive", "cosine", 1, adjacency_variant="sym_norm")
        with pytest.warns(IsolatedVertexWarning):
            point_graph(bundle, cfg)
        results, _ = run_grid(bundle, [cfg])
        assert results[0].failed
        assert warning_cells(results, tmp_path / "r.csv") == ["0"]


class TestFloatingPointFault:
    GRID = [
        {"method": "reference-graph"},
        *(
            {"method": "naive", "similarity": "rbf", "k": 5, "adjacency_variant": v}
            for v in VARIANTS
        ),
    ]

    def plant_overflow(self, monkeypatch):
        """Make the dgs head overflow on sym_norm graphs, and only there."""
        real = tasks.best_tau_denoise

        def overflowing(g, noisy, clean):
            tau, snr = real(g, noisy, clean)
            if g.variant == "sym_norm":
                snr *= np.exp(np.float64(1000.0))
            return tau, snr

        monkeypatch.setattr(tasks, "best_tau_denoise", overflowing)

    def test_fault_fails_its_point_and_spares_the_rest(self, tmp_path, monkeypatch):
        write_signal_dataset(tmp_path / "s")
        bundle = load_dataset(tmp_path / "s")
        grid = [RunConfig("dgs", **entry) for entry in self.GRID]
        clean, _ = run_grid(bundle, grid)
        assert not any(r.failed for r in clean)
        self.plant_overflow(monkeypatch)
        planted, _ = run_grid(bundle, grid)
        for before, after in zip(clean, planted):
            if after.config.adjacency_variant == "sym_norm":
                assert math.isnan(after.primary_score)
                assert after.auxiliary["error"].startswith("FloatingPointError: overflow")
            else:
                assert not after.failed
                assert after.primary_score == before.primary_score
                assert after.auxiliary["warnings"] == before.auxiliary["warnings"]

    def test_non_finite_features_fail_only_their_sgc_point(self, tmp_path, monkeypatch):
        write_blob_dataset(tmp_path / "d", n_per=15)
        bundle = load_dataset(tmp_path / "d")
        splits = dict(n_splits=3, split_fraction=0.2)
        grid = [
            RunConfig(task, "naive", "cosine", 4, adjacency_variant=v, **splits)
            for task in ("sscv-lp", "sscv-sgc")
            for v in VARIANTS
        ]
        grid.append(RunConfig("sscv-sgc", "logreg-baseline", **splits))
        clean, _ = run_grid(bundle, grid)
        assert not any(r.failed for r in clean)
        real = tasks.diffuse_features
        # NaN raises no floating-point flag, so only the head's own finiteness check can stop it
        monkeypatch.setattr(
            tasks,
            "diffuse_features",
            lambda g, X: real(g, X) * (np.nan if g.variant == "sym_norm" else 1.0),
        )
        planted, _ = run_grid(bundle, grid)
        for before, after in zip(clean, planted):
            cfg = after.config
            if (cfg.task, cfg.adjacency_variant) == ("sscv-sgc", "sym_norm"):
                assert math.isnan(after.primary_score)
                assert after.auxiliary["error"] == "FloatingPointError: non-finite training loss"
            else:
                assert not after.failed
                assert after.primary_score == before.primary_score
                assert after.auxiliary["warnings"] == before.auxiliary["warnings"]

    def test_run_exits_2_with_the_point_marked(self, tmp_path, monkeypatch, capsys):
        write_signal_dataset(tmp_path / "s")
        spec = tmp_path / "grid.json"
        spec.write_text(json.dumps(self.GRID))
        self.plant_overflow(monkeypatch)
        report = tmp_path / "r.csv"
        args = ["run", "--task", "dgs", "--data", str(tmp_path / "s"), "--grid", str(spec)]
        assert cli.main([*args, "--report", str(report)]) == 2
        assert "5 grid points, 1 failed" in capsys.readouterr().out
        with open(report) as fh:
            rows = [(row["variant"], row["score"]) for row in csv.DictReader(fh)]
        assert [variant for variant, score in rows if score == "nan"] == ["sym_norm"]


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

    def test_dataset_name_with_comma_and_quote(self, tmp_path):
        name = 'cora, v2 "beta"'
        write_blob_dataset(tmp_path / "d", name=name)
        bundle = load_dataset(tmp_path / "d")
        grid = [RunConfig("ucv", "cmeans-baseline"), RunConfig("ucv", "naive", "cosine", 2)]
        results, _ = run_grid(bundle, grid)
        out = tmp_path / "report.csv"
        emit_report(results, out, bundle.name)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3
        assert all(len(row) == 11 for row in rows)
        assert [row[1] for row in rows[1:]] == [name, name]

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
            "--variant", "sym_norm",
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
        "method, reason",
        [("naive", "k must be >= 1"), ("nnk", "k must be >= 1"), ("smooth", "k must be >= 1")],
    )
    def test_infer_k_below_one_is_error(self, tmp_path, method, reason):
        write_blob_dataset(tmp_path / "d")
        out = tmp_path / "g.tsv"
        similarity = [] if method == "smooth" else ["--similarity", "rbf"]
        proc = self.run_cli(
            "infer", "--data", str(tmp_path / "d"), "--method", method, *similarity,
            "--k", "0", "--out", str(out),
        )
        assert proc.returncode == 1
        assert proc.stderr == f"error: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "options, reach",
        [(["--k", "1"], "mean degrees 8..2"), (["--k", "3", "--sigma", "1e6"], "mean degrees 0..0")],
        ids=["k-below-sparsest", "sigma-prunes-all"],
    )
    def test_infer_smooth_unreachable_degree_is_error(self, tmp_path, options, reach):
        write_blob_dataset(tmp_path / "d", n_per=3)
        out = tmp_path / "g.tsv"
        proc = self.run_cli(
            "infer", "--data", str(tmp_path / "d"), "--method", "smooth", *options, "--out", str(out)
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and reach in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "graph_text, reason",
        [
            ("#variant=raw\n0\t1\t1.0\n", "line 1: header needs n="),
            ("#n=\u00b2 variant=raw\n0\t1\t1.0\n", "line 1: header needs n="),
            ("#n=3 variant=raw\n5\t5\t1.0\n", "line 2: vertex index outside 0..2"),
            ("#n=24 variant=raw\n0\t1\tone\n", "line 2: non-numeric field"),
            ("#n=24 variant=raw\n0\t1\tnan\n", "line 2: non-finite weight"),
            (
                "#n=24 variant=augmented\n3\t3\t1.0\n0\t1\t1.0\n\n3\t3\t1.0\n",
                "line 5: vertex pair (3, 3) repeats line 2",
            ),
            (
                "#n=24 variant=raw\n0\t1\t1.0\n0\t1\t2.0\n",
                "line 3: vertex pair (0, 1) repeats line 2",
            ),
            ("#n=24 variant=raw\n0\t1\t1.0\n2\t3\t-1.0\n", "line 3: edge weight -1.0 must be"),
            ("#n=24 variant=raw\n\n0\t1\t0.0\n", "line 3: edge weight 0.0 must be positive"),
            (
                "#n=24 variant=raw\n0\t1\t1.0\n4\t4\t0.5\n",
                "line 3: variant 'raw' forbids self-loops",
            ),
            (
                "#n=24 variant=augmented\n0\t1\t1.0\n3\t3\t-2.5\n",
                "line 3: self-loop weight -2.5 must be >= 0",
            ),
            ("#n=24 variant=bogus\n0\t1\t1.0\n", "line 1: unknown variant 'bogus'"),
            ("#n=3 n=24 variant=raw\n0\t1\t1.0\n", "line 1: header key 'n' repeats"),
            ("#n=24 colour=blue\n0\t1\t1.0\n", "line 1: unknown header key 'colour'"),
        ],
        ids=[
            "missing-n",
            "superscript-n",
            "index-out-of-range",
            "non-numeric",
            "nan-weight",
            "repeated-self-loop",
            "repeated-edge",
            "negative-weight",
            "zero-weight",
            "self-loop-in-raw",
            "negative-self-loop",
            "unknown-variant",
            "repeated-header-key",
            "unknown-header-key",
        ],
    )
    def test_validate_malformed_graph(self, tmp_path, graph_text, reason):
        write_signal_dataset(tmp_path / "d")
        (tmp_path / "d" / "graph.tsv").write_text(graph_text)
        proc = self.run_cli("datasets", "validate", str(tmp_path / "d"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("invalid: graph.tsv: " + reason)
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("entry", ["C=abc", "seed=x"])
    def test_validate_non_integer_meta_value(self, tmp_path, entry):
        write_blob_dataset(tmp_path / "d")
        (tmp_path / "d" / "meta.txt").write_text(f"name=blobs\n{entry}\n")
        proc = self.run_cli("datasets", "validate", str(tmp_path / "d"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("invalid: meta.txt line 2:")
        assert "Traceback" not in proc.stderr

    def test_validate_signal_with_two_values_per_line(self, tmp_path):
        root = tmp_path / "d"
        root.mkdir()
        (root / "features.txt").write_text("1 2 3 4\n")
        (root / "signal.txt").write_text("1 2\n3 4\n")
        proc = self.run_cli("datasets", "validate", str(root))
        assert proc.returncode == 1
        assert proc.stderr == "invalid: signal.txt: expected one value per line, got 2\n"

    def test_validate_repeated_meta_key(self, tmp_path):
        write_blob_dataset(tmp_path / "d")
        (tmp_path / "d" / "meta.txt").write_text("C=2\nC=3\n")
        proc = self.run_cli("datasets", "validate", str(tmp_path / "d"))
        assert proc.returncode == 1
        assert proc.stderr == "invalid: meta.txt line 2: key 'C' repeats line 1\n"

    def test_infer_on_signal_bundle_has_one_vertex_per_feature(self, tmp_path):
        clean = write_signal_dataset(tmp_path / "s")
        out = tmp_path / "g.tsv"
        proc = self.run_cli(
            "infer",
            "--data", str(tmp_path / "s"),
            "--method", "naive",
            "--similarity", "rbf",
            "--k", "5",
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        assert read_graph(out).n == clean.size

    @pytest.mark.parametrize(
        "entry, reason",
        [
            ("C=-3", "C=-3 must be >= 1"),
            ("C=0", "C=0 must be >= 1"),
            ("seed=-1", "seed=-1 must be >= 0"),
        ],
    )
    def test_validate_out_of_range_meta_value(self, tmp_path, capsys, entry, reason):
        root = tmp_path / "d"
        root.mkdir()
        np.savetxt(root / "features.txt", np.eye(3))
        (root / "meta.txt").write_text(f"{entry}\n")
        assert cli.main(["datasets", "validate", str(root)]) == 1
        assert capsys.readouterr().err.startswith(f"invalid: meta.txt: {reason}")

    def run_in_process(self, tmp_path, monkeypatch, *args, task="ucv"):
        """cli.main on `run --task <task>` over a blob bundle; returns (exit code, grids run)."""
        write_blob_dataset(tmp_path / "d")
        grids = []
        monkeypatch.setattr(cli, "run_grid", lambda bundle, configs, jobs: grids.append(configs))
        code = cli.main(["run", "--task", task, "--data", str(tmp_path / "d"), *args])
        return code, grids

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_run_jobs_below_one_is_error(self, tmp_path, monkeypatch, capsys, jobs):
        report = tmp_path / "r.csv"
        code, grids = self.run_in_process(
            tmp_path, monkeypatch, "--jobs", jobs, "--report", str(report)
        )
        assert code == 1 and grids == []
        assert capsys.readouterr().err == f"error: --jobs must be >= 1, got {jobs}\n"
        assert not report.exists()

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_run_unwritable_report_fails_before_the_grid(
        self, tmp_path, monkeypatch, capsys, where
    ):
        report = tmp_path / "missing" / "r.csv"
        if where == "directory":
            report = tmp_path / "r.csv"
            report.mkdir()
        code, grids = self.run_in_process(
            tmp_path, monkeypatch, "--grid", "full", "--report", str(report)
        )
        assert code == 1 and grids == []
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "task, grid, reason",
        [
            ("ucv", "[]", "holds no grid points"),
            ("ucv", '[{"method": "cmeans-baseline", "seed": -1}]', "seed must be >= 0, got -1"),
            (
                "sscv-lp",
                '[{"task": "sscv-lp", "method": "naive", "similarity": "cosine", "k": 5,'
                ' "n_splits": 0}]',
                "n_splits must be >= 1, got 0",
            ),
            (
                "ucv",
                '[{"method": "cmeans-baseline", "adjacency_variant": "bogus"}]',
                "unknown adjacency variant 'bogus'",
            ),
            (
                "ucv",
                '[{"method": "naive", "similarity": "cosine", "k": 5, "adjacency_variant": "sym"}]',
                "unknown adjacency variant 'sym'",
            ),
            (
                "dgs",
                '[{"task": "dgs", "method": "cmeans-baseline"}]',
                "method 'cmeans-baseline' is not a baseline of task 'dgs'",
            ),
            (
                "dgs",
                '[{"method": "naive", "similarity": "rbf", "k": 5},'
                ' {"task": "dgs", "method": "cmeans-baseline"}]',
                "method 'cmeans-baseline' is not a baseline of task 'dgs'",
            ),
            (
                "ucv",
                '[{"method": "logreg-baseline"}]',
                "method 'logreg-baseline' is not a baseline of task 'ucv'",
            ),
            (
                "sscv-sgc",
                '[{"task": "sscv-sgc", "method": "cmeans-baseline"}]',
                "method 'cmeans-baseline' is not a baseline of task 'sscv-sgc'",
            ),
            (
                "sscv-lp",
                '[{"task": "sscv-lp", "method": "naive", "similarity": "cosine", "k": 5,'
                ' "split_fraction": 0}]',
                "split_fraction must be a positive finite number, got 0",
            ),
            (
                "sscv-lp",
                '[{"task": "sscv-lp", "method": "logreg-baseline", "split_fraction": 1}]',
                "split_fraction must be in (0, 1), got 1",
            ),
            ("ucv", '[{"method": "naive", "k": 5}]', "method 'naive' needs a similarity, got None"),
            ("ucv", '[{"method": "nnk", "k": 5}]', "method 'nnk' needs a similarity, got None"),
            (
                "dgs",
                '[{"task": "dgs", "method": "naive", "similarity": "cosine", "k": 5}]',
                "dgs supports only the rbf similarity",
            ),
            (
                "dgs",
                '[{"task": "dgs", "method": "nnk", "similarity": "covariance", "k": 5}]',
                "dgs supports only the rbf similarity",
            ),
            (
                "dgs",
                '[{"task": "dgs", "method": "smooth", "similarity": "cosine", "k": 5}]',
                "method 'smooth' takes no similarity",
            ),
            (
                "ucv",
                '[{"method": "naive", "similarity": "cosine", "k": "5"}]',
                "k must be an integer, got '5'",
            ),
            (
                "ucv",
                '[{"method": "naive", "similarity": "cosine", "k": 5.5}]',
                "k must be an integer, got 5.5",
            ),
            (
                "ucv",
                '[{"method": "naive", "similarity": "cosine", "k": true}]',
                "k must be an integer, got True",
            ),
            ("ucv", '[{"method": "naive", "similarity": "cosine", "k": 0}]', "k must be >= 1"),
            ("ucv", '[{"method": "nnk", "similarity": "cosine"}]', "method 'nnk' needs k"),
            ("ucv", '[{"method": "smooth"}]', "method 'smooth' needs k"),
            (
                "ucv",
                '[{"method": "nnk", "similarity": "cosine", "k": 5, "sigma": -1}]',
                "sigma must be a positive finite number, got -1",
            ),
            (
                "ucv",
                '[{"method": "naive", "similarity": "rbf", "k": 5, "gamma": -1}]',
                "gamma must be a positive finite number, got -1",
            ),
            (
                "ucv",
                '[{"method": "naive", "similarity": "cosine", "k": 5, "gamma": "x"}]',
                "gamma must be a positive finite number, got 'x'",
            ),
            (
                "sscv-lp",
                '[{"task": "sscv-lp", "method": "logreg-baseline", "n_splits": "3"}]',
                "n_splits must be an integer, got '3'",
            ),
            (
                "ucv",
                '[{"method": "cmeans-baseline"}, {"task": "dgs", "method": "reference-graph"}]',
                "entry 2 names task 'dgs', but --task is 'ucv'",
            ),
        ],
        ids=[
            "empty",
            "negative-seed",
            "zero-splits",
            "unknown-variant",
            "variant-alias",
            "cmeans-on-dgs",
            "cmeans-on-dgs-after-a-graph",
            "logreg-on-ucv",
            "cmeans-on-sscv",
            "zero-split-fraction",
            "unit-split-fraction",
            "naive-without-similarity",
            "nnk-without-similarity",
            "dgs-cosine",
            "dgs-covariance",
            "dgs-smooth-cosine",
            "string-k",
            "fractional-k",
            "boolean-k",
            "zero-k",
            "nnk-without-k",
            "smooth-without-k",
            "negative-sigma",
            "negative-gamma",
            "string-gamma",
            "string-splits",
            "entry-of-another-task",
        ],
    )
    def test_run_unusable_grid_file_is_error(
        self, tmp_path, monkeypatch, capsys, task, grid, reason
    ):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(grid)
        report = tmp_path / "r.csv"
        code, grids = self.run_in_process(
            tmp_path, monkeypatch, "--grid", str(grid_file), "--report", str(report), task=task
        )
        assert code == 1 and grids == []
        err = capsys.readouterr().err
        assert err.startswith("error: bad grid spec: ") and err.endswith(f"{reason}\n")
        assert not report.exists()

    def test_sigma_on_a_method_that_reads_none_is_error(self, tmp_path, monkeypatch, capsys):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(
            '[{"method": "naive", "similarity": "cosine", "k": 3},'
            ' {"method": "naive", "similarity": "cosine", "k": 3, "sigma": 0.5}]'
        )
        code, grids = self.run_in_process(
            tmp_path, monkeypatch, "--grid", str(grid_file), "--report", str(tmp_path / "r.csv")
        )
        assert code == 1 and grids == []
        assert capsys.readouterr().err == "error: bad grid spec: method 'naive' takes no sigma\n"
        out = tmp_path / "g.tsv"
        infer = ["infer", "--data", str(tmp_path / "d"), "--method", "naive"]
        infer += ["--similarity", "cosine", "--k", "3", "--sigma", "0.5", "--out", str(out)]
        assert cli.main(infer) == 1
        assert capsys.readouterr().err == "error: method 'naive' takes no sigma\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "option, reason",
        [(["--seed", "-1"], "seed must be >= 0, got -1")],
        ids=["seed-option"],
    )
    def test_run_bad_master_seed_is_error(self, tmp_path, monkeypatch, capsys, option, reason):
        code, grids = self.run_in_process(
            tmp_path, monkeypatch, *option, "--report", str(tmp_path / "r.csv")
        )
        assert code == 1 and grids == []
        assert capsys.readouterr().err == f"error: bad grid spec: {reason}\n"

    def test_run_master_seed_comes_only_from_the_option(self, tmp_path, monkeypatch):
        write_blob_dataset(tmp_path / "d")
        grid_file = tmp_path / "grid.json"
        grid_file.write_text('[{"method": "naive", "similarity": "cosine", "k": 3, "n_splits": 5}]')
        monkeypatch.setenv("GRAPHBENCH_SEED", "5")
        reports = []
        for option in ([], ["--seed", "0"], ["--seed", "5"]):
            report = tmp_path / f"r{len(reports)}.csv"
            run = ["run", "--task", "sscv-lp", "--data", str(tmp_path / "d")]
            assert cli.main([*run, "--grid", str(grid_file), "--report", str(report), *option]) == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1] != reports[2]

    @pytest.mark.parametrize(
        "args, message",
        [
            (
                ["infer", "--data", "d", "--method", "naive", "--k", "3", "--out", "g.tsv",
                 "--variant", "bogus"],
                "error: argument --variant: invalid choice: 'bogus'",
            ),
            (
                ["run", "--task", "ucv", "--data", "d", "--report", "r.csv", "--jobs", "x"],
                "error: argument --jobs: invalid int value: 'x'",
            ),
            (
                ["run", "--task", "ucv", "--data", "d", "--report", "r.csv", "--bogus"],
                "error: unrecognized arguments: --bogus",
            ),
        ],
        ids=["bad-choice", "bad-int", "unknown-option"],
    )
    def test_usage_error_is_one_line_and_exit_1(self, tmp_path, monkeypatch, capsys, args, message):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            cli.main(args)
        assert exit_.value.code == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(message) and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["run", "--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: graphbench run")

    def test_infer_unwritable_out_is_error(self, tmp_path):
        write_blob_dataset(tmp_path / "d")
        out = tmp_path / "missing" / "g.tsv"
        proc = self.run_cli(
            "infer",
            "--data", str(tmp_path / "d"),
            "--method", "naive",
            "--similarity", "cosine",
            "--k", "3",
            "--out", str(out),
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "g.tsv" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_run_unwritable_report_is_error(self, tmp_path):
        write_blob_dataset(tmp_path / "d")
        grid_file = tmp_path / "grid.json"
        grid_file.write_text('[{"method": "cmeans-baseline"}]')
        report = tmp_path / "missing" / "r.csv"
        proc = self.run_cli(
            "run",
            "--task", "ucv",
            "--data", str(tmp_path / "d"),
            "--grid", str(grid_file),
            "--report", str(report),
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "r.csv" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_run_with_grid_file(self, tmp_path):
        write_blob_dataset(tmp_path / "d")
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(
            '[{"method": "cmeans-baseline"}, '
            '{"method": "naive", "similarity": "cosine", "k": 2, '
            '"adjacency_variant": "sym_norm"}]'
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
            '"adjacency_variant": "augmented_sym_norm"}]'
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


    def test_run_timing_adds_only_seconds(self, tmp_path, capsys):
        write_blob_dataset(tmp_path / "d")
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(
            '[{"method": "cmeans-baseline"}, '
            '{"method": "naive", "similarity": "cosine", "k": 2}, '
            '{"method": "naive", "similarity": "cosine", "k": 2, "adjacency_variant": "sym_norm"}]'
        )
        reports = []
        for timing in ([], ["--timing"]):
            report = tmp_path / f"r{len(timing)}.csv"
            data = str(tmp_path / "d")
            args = ["--data", data, "--grid", str(grid_file), "--report", str(report), *timing]
            assert cli.main(["run", "--task", "ucv", *args]) == 0
            with open(report, newline="") as fh:
                reports.append(list(csv.DictReader(fh)))
        untimed, timed = reports
        assert len(timed) == len(untimed) == 3
        assert all(row.pop("seconds") == "" for row in untimed)
        assert all(float(row.pop("seconds")) >= 0.0 for row in timed)
        assert timed == untimed

    @pytest.mark.parametrize("task", TASKS)
    def test_reports_byte_identical_across_blas_threads(self, tmp_path, task):
        envs = [{"OPENBLAS_NUM_THREADS": threads} for threads in ("1", "2")]
        first, second = small_grid_reports(tmp_path, task, envs)
        assert first == second

    @pytest.mark.skipif(not openblas_on_avx2(), reason="needs numpy on OpenBLAS and AVX2")
    @pytest.mark.parametrize(
        "task",
        [
            # the cosine graphs' bits follow the kernel's GEMM (ROADMAP item 4), and label
            # propagation also reads a dense eigh (ROADMAP item 2)
            pytest.param("ucv", marks=pytest.mark.xfail(reason="ROADMAP item 4", strict=False)),
            pytest.param("sscv-lp", marks=pytest.mark.xfail(reason="ROADMAP items 4, 2", strict=False)),
            pytest.param("sscv-sgc", marks=pytest.mark.xfail(reason="ROADMAP item 4", strict=False)),
            "dgs",
        ],
    )
    def test_reports_byte_identical_across_blas_kernels(self, tmp_path, task):
        # the kernel OpenBLAS picks for this CPU, then its AVX2 kernel
        envs = [{"OPENBLAS_CORETYPE": None}, {"OPENBLAS_CORETYPE": "Haswell"}]
        default, haswell = small_grid_reports(tmp_path, task, envs)
        assert default == haswell


class TestRunConfig:
    @pytest.mark.parametrize(
        "options, reason",
        [
            (dict(n_splits=0), "n_splits must be >= 1, got 0"),
            (dict(adjacency_variant="bogus"), "unknown adjacency variant 'bogus'"),
            (dict(split_fraction=0), "split_fraction must be a positive finite number, got 0"),
            (dict(split_fraction=1), "split_fraction must be in (0, 1), got 1"),
            (
                dict(split_fraction=-0.5),
                "split_fraction must be a positive finite number, got -0.5",
            ),
            (dict(k="5"), "k must be an integer, got '5'"),
            (dict(k=5.5), "k must be an integer, got 5.5"),
            (dict(k=True), "k must be an integer, got True"),
            (dict(k=0), "k must be >= 1"),
            (dict(method="nnk", k=None), "method 'nnk' needs k"),
            (dict(method="smooth", similarity=None, k=None), "method 'smooth' needs k"),
            (dict(sigma=-1), "sigma must be a positive finite number, got -1"),
            (dict(gamma=-1), "gamma must be a positive finite number, got -1"),
            (dict(gamma="x"), "gamma must be a positive finite number, got 'x'"),
            (dict(seed="3"), "seed must be an integer, got '3'"),
            (dict(n_splits="3"), "n_splits must be an integer, got '3'"),
            (dict(sigma=True), "sigma must be a positive finite number, got True"),
            (dict(sigma=None), "sigma must be a positive finite number, got None"),
            (dict(sigma=math.inf), "sigma must be a positive finite number, got inf"),
            (dict(gamma=True), "gamma must be a positive finite number, got True"),
            (dict(gamma=math.nan), "gamma must be a positive finite number, got nan"),
            (
                dict(split_fraction=math.nan),
                "split_fraction must be a positive finite number, got nan",
            ),
            (dict(sigma=10**400), f"sigma must be a positive finite number, got {10**400}"),
        ],
        ids=[
            "zero-splits",
            "unknown-variant",
            "zero-split-fraction",
            "unit-split-fraction",
            "negative-split-fraction",
            "string-k",
            "fractional-k",
            "boolean-k",
            "zero-k",
            "nnk-without-k",
            "smooth-without-k",
            "negative-sigma",
            "negative-gamma",
            "string-gamma",
            "string-seed",
            "string-splits",
            "boolean-sigma",
            "none-sigma",
            "inf-sigma",
            "boolean-gamma",
            "nan-gamma",
            "nan-split-fraction",
            "huge-int-sigma",
        ],
    )
    def test_rejects_out_of_range_fields(self, options, reason):
        point = dict(task="sscv-lp", method="naive", similarity="cosine", k=5)
        with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
            RunConfig(**{**point, **options})

    @pytest.mark.parametrize(
        "point, reason",
        [
            (dict(task="dgs", method="cmeans-baseline"), "not a baseline of task 'dgs'"),
            (dict(task="dgs", method="logreg-baseline"), "not a baseline of task 'dgs'"),
            (dict(task="ucv", method="logreg-baseline"), "not a baseline of task 'ucv'"),
            (dict(task="sscv-sgc", method="cmeans-baseline"), "not a baseline of task 'sscv-sgc'"),
            (dict(task="ucv", method="naive", k=5), "method 'naive' needs a similarity, got None"),
            (
                dict(task="ucv", method="nnk", similarity="bogus", k=5),
                "method 'nnk' needs a similarity, got 'bogus'",
            ),
            (
                dict(task="dgs", method="naive", similarity="cosine", k=5),
                "dgs supports only the rbf similarity",
            ),
            (
                dict(task="dgs", method="nnk", similarity="covariance", k=5),
                "dgs supports only the rbf similarity",
            ),
            (
                dict(task="dgs", method="smooth", similarity="cosine", k=5),
                "method 'smooth' takes no similarity",
            ),
            (
                dict(task="ucv", method="smooth", similarity="cosine", k=5),
                "method 'smooth' takes no similarity",
            ),
            (
                dict(task="ucv", method="naive", similarity="cosine", k=5, gamma=3.0),
                "gamma applies only to naive and nnk with the rbf similarity",
            ),
            (
                dict(task="ucv", method="cmeans-baseline", k=7),
                "method 'cmeans-baseline' takes no k",
            ),
            (
                dict(task="ucv", method="smooth", k=5, gamma=3.0),
                "method 'smooth' takes no gamma",
            ),
            (
                dict(task="dgs", method="smooth", similarity="rbf", k=5),
                "method 'smooth' takes no similarity",
            ),
            (
                dict(task="sscv-lp", method="logreg-baseline", similarity="rbf"),
                "method 'logreg-baseline' takes no similarity",
            ),
            (
                dict(task="dgs", method="reference-graph", gamma=0.5),
                "method 'reference-graph' takes no gamma",
            ),
            (
                dict(task="ucv", method="naive", similarity="rbf", k=5, sigma=0.5),
                "method 'naive' takes no sigma",
            ),
            (
                dict(task="sscv-sgc", method="logreg-baseline", sigma=0.5),
                "method 'logreg-baseline' takes no sigma",
            ),
            (
                dict(task="dgs", method="reference-graph", sigma=0.5),
                "method 'reference-graph' takes no sigma",
            ),
        ],
        ids=[
            "cmeans-on-dgs",
            "logreg-on-dgs",
            "logreg-on-ucv",
            "cmeans-on-sscv",
            "naive-without-similarity",
            "nnk-unknown-similarity",
            "dgs-naive-cosine",
            "dgs-nnk-covariance",
            "dgs-smooth-cosine",
            "ucv-smooth-cosine",
            "cosine-gamma",
            "cmeans-k",
            "smooth-gamma",
            "dgs-smooth-rbf",
            "logreg-similarity",
            "reference-gamma",
            "naive-sigma",
            "logreg-sigma",
            "reference-sigma",
        ],
    )
    def test_rejects_unusable_points(self, point, reason):
        with pytest.raises(ValueError, match=f"{re.escape(reason)}$"):
            RunConfig(**point)

    def test_accepts_the_edges_of_each_rule(self):
        # full_grid's points cover the rest of what each rule lets through
        RunConfig("dgs", "smooth", k=5)
        RunConfig("sscv-sgc", "logreg-baseline", split_fraction=0.001)
        RunConfig("sscv-sgc", "logreg-baseline", split_fraction=0.999)

    def test_accepts_every_benchmark_point(self, monkeypatch):
        # workloads.py imports its sibling gen.py as `gen`
        monkeypatch.setitem(sys.modules, "gen", load_perfbench_module("gen"))
        workloads = load_perfbench_module("workloads").WORKLOADS
        # built as perfbench/gridproc.py builds them
        points = [
            RunConfig(task=task, seed=0, **entry)
            for workload in workloads.values()
            for task, grid in workload.stages
            for entry in grid
        ]
        assert {cfg.task for cfg in points} == set(TASKS)

    def test_benchmark_layers_are_public_functions(self, monkeypatch):
        # the traced benchmark run looks each layer up as <module>.<function>
        monkeypatch.setitem(sys.modules, "gen", load_perfbench_module("gen"))
        workloads = load_perfbench_module("workloads")
        names = set(workloads.COMMON_LAYERS)
        for workload in workloads.WORKLOADS.values():
            names.update(workload.layers)
        for name in sorted(names):
            module_name, attr = name.split(".")
            if name == "core_graph.graph_init":  # the tracer's name for Graph.__post_init__
                assert "__post_init__" in vars(Graph)
                continue
            module = importlib.import_module(f"graphbench.{module_name}")
            fn = vars(module).get(attr)
            assert not attr.startswith("_") and inspect.isfunction(fn), name
            assert fn.__module__ == module.__name__, name

    @pytest.mark.parametrize("name", ["ucv-cora", "sscv-cora", "dgs-road", "dgs-smooth"])
    def test_benchmark_layers_are_called(self, tmp_path, monkeypatch, name):
        # perfbench/gridproc.py, traced and serial, on small bundles of each workload's shape:
        # a layer that stops being called fails here rather than in a --trace 1 run
        gen = load_perfbench_module("gen")
        monkeypatch.setitem(sys.modules, "gen", gen)
        workloads = load_perfbench_module("workloads")
        workload = workloads.WORKLOADS[name]
        data = tmp_path / "d"
        if name.endswith("-cora"):
            gen.cora_like(data, 0, n=150, F=200, words_per_doc=20, topic_frac=0.42)
        elif name == "dgs-road":
            gen.road_like(data, 0, n=60, mean_degree=4.0, smoothness=2.0)
        else:
            workload.make_bundle(data, 0)
        stages = [
            {
                "task": task,
                "grid": [dict(e, n_splits=5) if task.startswith("sscv") else e for e in grid],
                "report": str(tmp_path / f"{task}.csv"),
            }
            for task, grid in workload.stages
        ]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"data": str(data), "jobs": 1, "trace": True, "stages": stages}))
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "gridproc.py"), str(spec)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.splitlines()[-1])
        calls = out["stats"]["calls"]
        assert [n for n in workloads.COMMON_LAYERS + workload.layers if not calls.get(n)] == []
        failed = [(f["method"], f["k"], f["error"].partition(":")[0]) for f in out["failures"]]
        assert failed == [(*point, error) for point, error in workload.known_failures.items()]

    @pytest.mark.parametrize("task", TASKS)
    def test_accepts_every_full_grid_point(self, tmp_path, task):
        write_blob_dataset(tmp_path / "d")
        write_signal_dataset(tmp_path / "s")  # with a reference graph
        for name in ("d", "s"):
            assert full_grid(task, load_dataset(tmp_path / name))


class TestRunOne:
    def test_lanczos_non_convergence_fails_the_point(self, tmp_path, monkeypatch, capsys):
        import scipy.sparse.linalg

        def failing(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("No convergence", np.empty(0), None)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing)
        data = load_perfbench_module("gen").cora_like(tmp_path / "d", 0, 150, 1433, 40, 0.42)
        entry = {"method": "naive", "similarity": "cosine", "k": 10}
        res = run_one(load_dataset(data), RunConfig("ucv", **entry))
        assert res.failed
        assert res.auxiliary["error"] == "ArpackNoConvergence: ARPACK error -1: No convergence"
        spec = tmp_path / "grid.json"
        spec.write_text(json.dumps([entry]))
        args = ["run", "--task", "ucv", "--data", str(data), "--grid", str(spec)]
        assert cli.main([*args, "--report", str(tmp_path / "r.csv")]) == 2
        assert "1 grid points, 1 failed" in capsys.readouterr().out

    def test_labelled_signal_bundle_runs_every_labelled_task(self, tmp_path):
        clean = write_signal_dataset(tmp_path / "s")
        labels = (clean < 0).astype(int)  # the signal's two halves
        (tmp_path / "s" / "labels.txt").write_text("".join(f"{c}\n" for c in labels))
        bundle = load_dataset(tmp_path / "s")
        assert bundle.C == 2
        splits = dict(split_fraction=0.25, n_splits=3)
        for cfg in (
            RunConfig("ucv", "cmeans-baseline"),
            RunConfig("ucv", "naive", "rbf", 4),
            RunConfig("sscv-lp", "naive", "rbf", 4, **splits),
            RunConfig("sscv-sgc", "naive", "rbf", 4, **splits),
            RunConfig("sscv-sgc", "logreg-baseline", **splits),
        ):
            res = run_one(bundle, cfg)
            assert not res.failed, (cfg, res.auxiliary["error"])

    def test_split_observing_every_vertex_fails_the_point(self, tmp_path):
        write_blob_dataset(tmp_path / "d")  # 30 vertices
        bundle = load_dataset(tmp_path / "d")
        res = run_one(bundle, RunConfig("sscv-lp", "naive", "cosine", 3, split_fraction=0.999))
        assert res.auxiliary["error"] == "ValueError: fraction 0.999 observes all 30 vertices"

    def test_records_error(self, tmp_path):
        write_blob_dataset(tmp_path / "d")
        bundle = load_dataset(tmp_path / "d")
        res = run_one(bundle, RunConfig("dgs", "reference-graph"))
        assert res.failed
        assert "error" in res.auxiliary
