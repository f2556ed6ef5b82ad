"""Dataset ingestion, Table-style hyperparameter grids, split protocol, reports."""

from __future__ import annotations

import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import metrics, tasks
from .core_graph import Graph, matrix_exponential, normalize, read_graph
from .inference import (
    NaiveConfig,
    NnkConfig,
    SmoothConfig,
    naive_graph,
    nnk_graph,
    smooth_graph,
)
from .similarity import pairwise_sq_euclidean
from .tasks import SemiSupervisedLabels, SgcParams

TABLE1_K = (5, 10, 20, 30, 40, 50, 100, 200, 500, 1000)
TASKS = ("ucv", "sscv-lp", "sscv-sgc", "dgs")
METHODS = ("naive", "nnk", "smooth", "cmeans-baseline", "logreg-baseline", "reference-graph")

DGS_INPUT_SNR_DB = 7.0


class DatasetError(ValueError):
    """Malformed dataset bundle."""


@dataclass
class DatasetBundle:
    name: str
    features: np.ndarray
    labels: Optional[np.ndarray] = None
    clean_signal: Optional[np.ndarray] = None
    noisy_signal: Optional[np.ndarray] = None
    reference_graph: Optional[Graph] = None
    C: Optional[int] = None
    seed: int = 0

    @property
    def n(self) -> int:
        return self.features.shape[0]


def _load_matrix(path: Path) -> np.ndarray:
    rows = []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(tok) for tok in line.split()]
            except ValueError as exc:
                raise DatasetError(f"{path.name} line {lineno}: non-numeric entry ({exc})")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise DatasetError(
                    f"{path.name} line {lineno}: expected {width} columns, got {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise DatasetError(f"{path.name}: empty file")
    return np.array(rows)


def _load_int_vector(path: Path) -> np.ndarray:
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(int(line))
            except ValueError:
                raise DatasetError(f"{path.name} line {lineno}: expected one integer")
    return np.array(out, dtype=int)


def load_dataset(path) -> DatasetBundle:
    """Load and validate a dataset directory (features.txt plus optional files)."""
    root = Path(path)
    feats_file = root / "features.txt"
    if not feats_file.exists():
        raise DatasetError(f"{root}: missing features.txt")
    features = _load_matrix(feats_file)
    if not np.all(np.isfinite(features)):
        raise DatasetError("features.txt contains non-finite values")

    meta = {}
    meta_file = root / "meta.txt"
    if meta_file.exists():
        with open(meta_file) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise DatasetError(f"meta.txt line {lineno}: expected key=value")
                key, value = line.split("=", 1)
                key = key.strip()
                if key not in ("name", "C", "seed"):
                    raise DatasetError(f"meta.txt line {lineno}: unknown key {key!r}")
                meta[key] = value.strip()

    labels = None
    C = int(meta["C"]) if "C" in meta else None
    labels_file = root / "labels.txt"
    if labels_file.exists():
        labels = _load_int_vector(labels_file)
        if labels.size != features.shape[0]:
            raise DatasetError(
                f"labels.txt has {labels.size} entries, features has {features.shape[0]} rows"
            )
        distinct = np.unique(labels)
        dense_C = int(labels.max()) + 1
        if labels.min() < 0 or distinct.size != dense_C:
            raise DatasetError("labels must be dense in 0..C-1")
        if C is not None and C != dense_C:
            raise DatasetError(f"meta C={C} disagrees with label count {dense_C}")
        C = dense_C

    clean_signal = None
    signal_file = root / "signal.txt"
    if signal_file.exists():
        clean_signal = _load_matrix(signal_file).ravel()
        if features.shape[0] != 1:
            raise DatasetError("signal bundles must carry exactly one observation (N=1)")
        if clean_signal.size != features.shape[1]:
            raise DatasetError(
                f"signal.txt has {clean_signal.size} entries, expected F={features.shape[1]}"
            )

    noisy_signal = None
    noisy_file = root / "noisy.txt"
    if noisy_file.exists():
        noisy_signal = _load_matrix(noisy_file).ravel()
        if clean_signal is None or noisy_signal.size != clean_signal.size:
            raise DatasetError("noisy.txt requires a matching signal.txt")

    reference_graph = None
    graph_file = root / "graph.tsv"
    if graph_file.exists():
        try:
            reference_graph = read_graph(graph_file)
        except ValueError as exc:
            raise DatasetError(f"graph.tsv: {exc}") from None
        if reference_graph.n != features.shape[1] and reference_graph.n != features.shape[0]:
            raise DatasetError("graph.tsv vertex count matches neither N nor F")

    return DatasetBundle(
        name=meta.get("name", root.name),
        features=features,
        labels=labels,
        clean_signal=clean_signal,
        noisy_signal=noisy_signal,
        reference_graph=reference_graph,
        C=C,
        seed=int(meta.get("seed", 0)),
    )


@dataclass
class RunConfig:
    task: str
    method: str
    similarity: Optional[str] = None
    k: Optional[int] = None
    gamma: Optional[float] = None
    sigma: float = 1e-4
    adjacency_variant: str = "raw"
    seed: int = 0
    split_fraction: float = 0.05
    n_splits: int = 100

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")


@dataclass
class RunResult:
    config: RunConfig
    primary_score: float
    dispersion: Optional[float] = None
    auxiliary: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return "error" in self.auxiliary


def split_generator(n: int, fraction: float, n_splits: int, master_seed: int):
    """Reproducible observed-masks; split i derives its RNG from (master_seed, i)."""
    if not 0 < fraction < 1:
        raise ValueError("fraction must be in (0, 1)")
    m = round(fraction * n)
    if m == 0:
        raise ValueError("fraction selects zero observed vertices")
    masks = []
    for i in range(n_splits):
        rng = np.random.default_rng([master_seed, i])
        idx = rng.choice(n, size=m, replace=False)
        mask = np.zeros(n, dtype=bool)
        mask[idx] = True
        masks.append(mask)
    return masks


def build_graph(X: np.ndarray, cfg: RunConfig) -> Graph:
    """Dispatch to the configured inference method (raw variant)."""
    if cfg.method == "naive":
        return naive_graph(X, NaiveConfig(cfg.similarity, cfg.k, cfg.gamma))
    if cfg.method == "nnk":
        return nnk_graph(X, NnkConfig(cfg.similarity, cfg.k, cfg.sigma, cfg.gamma))
    if cfg.method == "smooth":
        Z = pairwise_sq_euclidean(X, axis="rows")
        return smooth_graph(Z, SmoothConfig(cfg.k, cfg.sigma))
    raise ValueError(f"method {cfg.method!r} does not build a graph")


def run_task1(bundle: DatasetBundle, cfg: RunConfig) -> RunResult:
    """Unsupervised vertex clustering scored by AMI against the ground truth."""
    if bundle.labels is None:
        raise DatasetError("task ucv needs labels")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if cfg.method == "cmeans-baseline":
            part = tasks.kmeans(bundle.features, bundle.C, cfg.seed)
        else:
            g = build_graph(bundle.features, cfg)
            g = normalize(g, cfg.adjacency_variant)
            part = tasks.spectral_cluster(g, bundle.C, cfg.seed)
    score = metrics.ami(part.assignment, bundle.labels)
    return RunResult(cfg, score, auxiliary={"warnings": len(caught)})


def run_task2(bundle: DatasetBundle, cfg: RunConfig) -> RunResult:
    """Semi-supervised classification: mean/std accuracy over random splits."""
    if bundle.labels is None:
        raise DatasetError("task sscv needs labels")
    n = bundle.n
    masks = split_generator(n, cfg.split_fraction, cfg.n_splits, cfg.seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        exp_W = None
        Xhat = None
        if cfg.method == "logreg-baseline":
            Xhat = bundle.features
        else:
            g = build_graph(bundle.features, cfg)
            g = normalize(g, cfg.adjacency_variant)
            if cfg.task == "sscv-lp":
                exp_W = matrix_exponential(g.to_dense())
            else:
                Xhat = tasks.diffuse_features(g, bundle.features, hops=2)

        accs = []
        for i, mask in enumerate(masks):
            y = SemiSupervisedLabels(bundle.labels, mask)
            if exp_W is not None:
                pred = tasks.propagate_labels(exp_W, y)
                accs.append(metrics.accuracy(pred, bundle.labels, ~mask))
            else:
                _, acc = tasks.sgc_predict(Xhat, y, SgcParams(seed=[cfg.seed, i, 7]))
                accs.append(acc)
    accs = np.array(accs)
    return RunResult(
        cfg,
        float(accs.mean()),
        dispersion=float(accs.std(ddof=1)) if accs.size > 1 else 0.0,
        auxiliary={"warnings": len(caught)},
    )


def run_task3(bundle: DatasetBundle, cfg: RunConfig) -> RunResult:
    """Graph-signal denoising: best SNR over the tau sweep."""
    if bundle.clean_signal is None:
        raise DatasetError("task dgs needs a clean signal")
    if cfg.method in ("naive", "nnk") and cfg.similarity != "rbf":
        raise ValueError("dgs supports only the rbf similarity")
    clean = bundle.clean_signal
    noisy = bundle.noisy_signal
    if noisy is None:
        noisy = metrics.add_noise_to_snr(clean, DGS_INPUT_SNR_DB, bundle.seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if cfg.method == "reference-graph":
            if bundle.reference_graph is None:
                raise DatasetError("bundle has no reference graph")
            g = bundle.reference_graph
            if g.variant == "raw" and cfg.adjacency_variant != "raw":
                g = normalize(g, cfg.adjacency_variant)
        else:
            # the vertices are the feature columns, so graphs come from the transpose
            g = normalize(build_graph(bundle.features.T, cfg), cfg.adjacency_variant)
        tau, snr = tasks.best_tau_denoise(g, noisy, clean)
    return RunResult(cfg, snr, auxiliary={"tau": tau, "warnings": len(caught)})


_RUNNERS = {
    "ucv": run_task1,
    "sscv-lp": run_task2,
    "sscv-sgc": run_task2,
    "dgs": run_task3,
}


def run_one(bundle: DatasetBundle, cfg: RunConfig) -> RunResult:
    """Execute one grid point; failures become a failed RunResult, never a raise."""
    start = time.perf_counter()
    try:
        result = _RUNNERS[cfg.task](bundle, cfg)
    except Exception as exc:  # failed grid points are recorded, grid continues
        result = RunResult(cfg, math.nan, auxiliary={"error": f"{type(exc).__name__}: {exc}"})
    result.auxiliary["seconds"] = time.perf_counter() - start
    return result


def full_grid(task: str, bundle: DatasetBundle, master_seed: int = 0) -> list[RunConfig]:
    """Task-appropriate cartesian grid over methods, similarities, k, variants."""
    n = bundle.n
    variants = ("raw", "sym_norm", "augmented", "augmented_sym_norm")
    configs = []
    if task == "ucv":
        configs.append(RunConfig(task, "cmeans-baseline", seed=master_seed))
    if task in ("sscv-lp", "sscv-sgc"):
        configs.append(RunConfig(task, "logreg-baseline", seed=master_seed))
    if task == "dgs":
        n_vertices = bundle.features.shape[1]
        if bundle.reference_graph is not None:
            configs.append(RunConfig(task, "reference-graph", seed=master_seed))
        ks = [k for k in TABLE1_K if k < n_vertices]
        for k in ks + [None]:
            for variant in variants:
                configs.append(
                    RunConfig(task, "naive", "rbf", k, adjacency_variant=variant, seed=master_seed)
                )
        for k in ks:
            for variant in variants:
                configs.append(
                    RunConfig(task, "nnk", "rbf", k, adjacency_variant=variant, seed=master_seed)
                )
                configs.append(
                    RunConfig(task, "smooth", None, k, adjacency_variant=variant, seed=master_seed)
                )
        return configs
    ks = [k for k in TABLE1_K if k < n]
    for sim in ("cosine", "covariance", "rbf"):
        for k in ks:
            for variant in variants:
                configs.append(
                    RunConfig(task, "naive", sim, k, adjacency_variant=variant, seed=master_seed)
                )
                configs.append(
                    RunConfig(task, "nnk", sim, k, adjacency_variant=variant, seed=master_seed)
                )
    for k in ks:
        for variant in variants:
            configs.append(
                RunConfig(task, "smooth", None, k, adjacency_variant=variant, seed=master_seed)
            )
    return configs


def run_grid(
    bundle: DatasetBundle, configs: list[RunConfig], jobs: int = 1
) -> tuple[list[RunResult], Optional[RunResult]]:
    """Run every grid point (optionally in parallel); return (results, best)."""
    if jobs <= 1:
        results = [run_one(bundle, cfg) for cfg in configs]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_one, [bundle] * len(configs), configs))
    best = None
    for r in results:
        if not r.failed and not math.isnan(r.primary_score):
            if best is None or r.primary_score > best.primary_score:
                best = r
    return results, best


CSV_HEADER = "task,dataset,method,similarity,k,variant,score,std,tau,warnings,seconds"


def _fmt(value, digits=6) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.{digits}f}"
    return str(value)


def emit_report(results: list[RunResult], path, dataset_name: str, timing: bool = False):
    """Write the per-grid-point CSV plus a best-per-method summary table.

    Timing is off by default so reruns with the same seed produce
    byte-identical reports.
    """
    if not results:
        raise ValueError("no results to report")
    path = Path(path)
    lines = [CSV_HEADER]
    for r in results:
        cfg = r.config
        lines.append(
            ",".join(
                [
                    cfg.task,
                    dataset_name,
                    cfg.method,
                    cfg.similarity or "",
                    "" if cfg.k is None else str(cfg.k),
                    cfg.adjacency_variant,
                    _fmt(r.primary_score),
                    _fmt(r.dispersion),
                    _fmt(r.auxiliary.get("tau"), digits=3),
                    str(r.auxiliary.get("warnings", 0)),
                    _fmt(r.auxiliary.get("seconds"), digits=3) if timing else "",
                ]
            )
        )
    path.write_text("\n".join(lines) + "\n")

    by_method = {}
    for r in results:
        if r.failed or math.isnan(r.primary_score):
            continue
        cur = by_method.get(r.config.method)
        if cur is None or r.primary_score > cur.primary_score:
            by_method[r.config.method] = r
    summary = [f"Best score per method ({dataset_name})"]
    for method in sorted(by_method):
        r = by_method[method]
        cfg = r.config
        extra = f" +- {_fmt(r.dispersion, 4)}" if r.dispersion is not None else ""
        detail = f"similarity={cfg.similarity or '-'} k={cfg.k} variant={cfg.adjacency_variant}"
        summary.append(f"{method:18s} {_fmt(r.primary_score, 4)}{extra}  ({detail})")
    path.with_suffix(path.suffix + ".best.txt").write_text("\n".join(summary) + "\n")
    return path
