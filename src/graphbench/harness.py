"""Dataset ingestion, Table-style hyperparameter grids, split protocol, reports."""

from __future__ import annotations

import csv
import math
import numbers
import time
import warnings
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import metrics, tasks
from .core_graph import VARIANTS, Graph, normalize, read_graph
from .inference import DEFAULT_SIGMA, SIMILARITY_KINDS
from .inference import check_k_below_n, naive_graph, nnk_graph, similarity_matrix, smooth_graph

TABLE1_K = (5, 10, 20, 30, 40, 50, 100, 200, 500, 1000)
TASKS = ("ucv", "sscv-lp", "sscv-sgc", "dgs")
GRAPH_METHODS = ("naive", "nnk", "smooth")
# The raw-feature baseline each task compares against; dgs compares against none.
BASELINES = {"ucv": "cmeans-baseline", "sscv-lp": "logreg-baseline", "sscv-sgc": "logreg-baseline"}
METHODS = (*GRAPH_METHODS, *dict.fromkeys(BASELINES.values()), "reference-graph")
# Tasks whose heads cannot see unit self-loops: they cancel in the Laplacian
# L = D - A that ucv and dgs decompose, and sscv-lp's exp(W + I) = e exp(W)
# leaves the argmax of every row where it was.
LOOP_BLIND_TASKS = ("ucv", "sscv-lp", "dgs")

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
    def vertex_features(self) -> np.ndarray:
        """One row per vertex: a signal bundle's vertices are its feature columns."""
        return self.features if self.clean_signal is None else self.features.T

    @property
    def n(self) -> int:
        return self.vertex_features.shape[0]


def _lines(path: Path):
    """Yield (line number, stripped line) for each non-blank line of a bundle file."""
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if line:
                    yield lineno, line
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"{path.name}: unreadable ({exc})") from None


def _load_matrix(path: Path, dtype=float) -> np.ndarray:
    """One row per non-blank line of a numeric bundle file, each token parsed by ``dtype``.

    numpy's C reader accepts a subset of the tokens ``dtype`` parses. A file it
    rejects goes to the line scan, which also takes tokens only Python parses
    (``1_0``) and names the line at fault.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt only warns on an empty file
            out = np.loadtxt(path, dtype=dtype, ndmin=2, comments=None)
    except Exception:
        out = None
    if out is None or out.size == 0:
        out = _scan_matrix(path, dtype)
    if not np.all(np.isfinite(out)):
        raise DatasetError(f"{path.name} contains non-finite values")
    return out


def _scan_matrix(path: Path, dtype) -> np.ndarray:
    """``_load_matrix`` line by line: the rows stacked, or the line at fault named."""
    rows = []
    for lineno, line in _lines(path):
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
    return np.stack(rows)


def _load_column(path: Path, dtype=float) -> np.ndarray:
    """The one value per line of a bundle file, as a vector."""
    out = _load_matrix(path, dtype)
    if out.shape[1] != 1:
        what = "integer" if dtype is int else "value"
        raise DatasetError(f"{path.name}: expected one {what} per line, got {out.shape[1]}")
    return out.ravel()


def load_dataset(path) -> DatasetBundle:
    """Load and validate a dataset directory (features.txt plus optional files)."""
    root = Path(path)
    feats_file = root / "features.txt"
    if not feats_file.exists():
        raise DatasetError(f"{root}: missing features.txt")
    features = _load_matrix(feats_file)

    meta, seen = {}, {}  # key -> value, and the line that gave it
    meta_file = root / "meta.txt"
    if meta_file.exists():
        for lineno, line in _lines(meta_file):
            if line.startswith("#"):
                continue
            if "=" not in line:
                raise DatasetError(f"meta.txt line {lineno}: expected key=value")
            key, value = line.split("=", 1)
            key, value = key.strip(), value.strip()
            if key not in ("name", "C", "seed"):
                raise DatasetError(f"meta.txt line {lineno}: unknown key {key!r}")
            if key in seen:
                raise DatasetError(f"meta.txt line {lineno}: key {key!r} repeats line {seen[key]}")
            seen[key] = lineno
            try:
                meta[key] = value if key == "name" else int(value)
            except ValueError:
                raise DatasetError(f"meta.txt line {lineno}: {key}={value!r} is not an integer")
    if meta.get("C", 1) < 1:
        raise DatasetError(f"meta.txt: C={meta['C']} must be >= 1")
    if meta.get("seed", 0) < 0:
        raise DatasetError(f"meta.txt: seed={meta['seed']} must be >= 0")

    clean_signal = None
    signal_file = root / "signal.txt"
    if signal_file.exists():
        clean_signal = _load_column(signal_file)
        if features.shape[0] != 1:
            raise DatasetError("signal bundles must carry exactly one observation (N=1)")
        if clean_signal.size != features.shape[1]:
            raise DatasetError(
                f"signal.txt has {clean_signal.size} entries, expected F={features.shape[1]}"
            )

    noisy_signal = None
    noisy_file = root / "noisy.txt"
    if noisy_file.exists():
        noisy_signal = _load_column(noisy_file)
        if clean_signal is None or noisy_signal.size != clean_signal.size:
            raise DatasetError("noisy.txt requires a matching signal.txt")

    bundle = DatasetBundle(
        name=meta.get("name", root.name),
        features=features,
        clean_signal=clean_signal,
        noisy_signal=noisy_signal,
        C=meta.get("C"),
        seed=meta.get("seed", 0),
    )
    labels_file = root / "labels.txt"
    if labels_file.exists():
        labels = _load_column(labels_file, dtype=int)
        if labels.size != bundle.n:
            raise DatasetError(f"labels.txt has {labels.size} entries for {bundle.n} vertices")
        distinct = np.unique(labels)
        dense_C = int(labels.max()) + 1
        if labels.min() < 0 or distinct.size != dense_C:
            raise DatasetError("labels must be dense in 0..C-1")
        if bundle.C is not None and bundle.C != dense_C:
            raise DatasetError(f"meta C={bundle.C} disagrees with label count {dense_C}")
        bundle.labels, bundle.C = labels, dense_C
    graph_file = root / "graph.tsv"
    if graph_file.exists():
        try:
            g = read_graph(graph_file)
        except (OSError, ValueError) as exc:
            raise DatasetError(f"graph.tsv: {exc}") from None
        if g.n != bundle.n:
            raise DatasetError(f"graph.tsv has {g.n} vertices, the bundle has {bundle.n}")
        bundle.reference_graph = g
    return bundle


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class RunConfig:
    task: str
    method: str
    similarity: Optional[str] = None
    k: Optional[int] = None
    gamma: Optional[float] = None
    sigma: float = DEFAULT_SIGMA
    adjacency_variant: str = "raw"
    seed: int = 0
    split_fraction: float = 0.05
    n_splits: int = 100

    def __post_init__(self):
        """Reject what a point can get wrong without a bundle; run_one checks the rest."""
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.method in BASELINES.values() and self.method != BASELINES.get(self.task):
            raise ValueError(f"method {self.method!r} is not a baseline of task {self.task!r}")
        if self.method in ("naive", "nnk") and self.similarity not in SIMILARITY_KINDS:
            raise ValueError(f"method {self.method!r} needs a similarity, got {self.similarity!r}")
        graph_on_dgs = self.task == "dgs" and self.method in GRAPH_METHODS
        if graph_on_dgs and self.similarity not in (None, "rbf"):
            raise ValueError("dgs supports only the rbf similarity")
        if self.adjacency_variant not in VARIANTS:
            raise ValueError(f"unknown adjacency variant {self.adjacency_variant!r}")
        if self.k is None and self.method in ("nnk", "smooth"):
            raise ValueError(f"method {self.method!r} needs k")
        if self.k is not None and not _is_int(self.k):
            raise ValueError(f"k must be an integer, got {self.k!r}")
        if self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1")
        if not (_is_real(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be a positive number, got {self.sigma!r}")
        if self.gamma is not None and not (_is_real(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be None or a positive number, got {self.gamma!r}")
        for name in ("seed", "n_splits"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (_is_real(self.split_fraction) and 0 < self.split_fraction < 1):
            raise ValueError(f"split_fraction must be in (0, 1), got {self.split_fraction!r}")
        if self.n_splits < 1:
            raise ValueError(f"n_splits must be >= 1, got {self.n_splits}")
        # the fields are usable; now reject those the point's method would ignore
        if self.method not in GRAPH_METHODS:
            for name in ("similarity", "k", "gamma"):
                if getattr(self, name) is not None:
                    raise ValueError(f"method {self.method!r} takes no {name}")
        if self.method not in ("nnk", "smooth") and self.sigma != DEFAULT_SIGMA:
            raise ValueError(f"method {self.method!r} takes no sigma")
        if self.method == "smooth" and self.similarity not in (None, "rbf"):
            raise ValueError(
                "method 'smooth' reads squared distances: its similarity must be none "
                f"or 'rbf', got {self.similarity!r}"
            )
        if self.gamma is not None and (self.method == "smooth" or self.similarity != "rbf"):
            raise ValueError("gamma applies only to naive and nnk with the rbf similarity")

    @property
    def graph_key(self) -> Optional[tuple]:
        """Identity of the raw graph the point infers; None when it infers none."""
        if self.method not in GRAPH_METHODS:
            return None
        return (self.method, self.similarity, self.k, self.gamma, self.sigma)

    @property
    def matrix_key(self) -> Optional[tuple]:
        """(kind, gamma) of the similarity_matrix its graph build starts from, or None."""
        if self.method not in GRAPH_METHODS:
            return None
        return ("sqeuclidean", None) if self.method == "smooth" else (self.similarity, self.gamma)

    @property
    def scored(self) -> RunConfig:
        """The point whose head result this point reports.

        An inferred augmented graph under a loop-blind task reports its raw variant.
        """
        loop_blind = self.task in LOOP_BLIND_TASKS and self.method in GRAPH_METHODS
        if loop_blind and self.adjacency_variant == "augmented":
            return replace(self, adjacency_variant="raw")
        return self


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
    if m == n:
        raise ValueError(f"fraction {fraction} observes all {n} vertices")
    masks = []
    for i in range(n_splits):
        rng = np.random.default_rng([master_seed, i])
        idx = rng.choice(n, size=m, replace=False)
        mask = np.zeros(n, dtype=bool)
        mask[idx] = True
        masks.append(mask)
    return masks


def build_graph(M: np.ndarray, cfg: RunConfig, solves: Optional[dict] = None) -> Graph:
    """cfg's raw graph, from the bundle's ``M = similarity_matrix(X, *cfg.matrix_key)``.

    ``solves`` is passed on to smooth_graph as its memo of graphs by (sigma, distance scale).
    """
    if cfg.method not in GRAPH_METHODS:
        raise ValueError(f"method {cfg.method!r} does not build a graph")
    if cfg.method == "naive":
        return naive_graph(M, cfg.k)
    if cfg.method == "nnk":
        return nnk_graph(M, cfg.similarity, cfg.k, cfg.sigma)
    return smooth_graph(M, cfg.k, cfg.sigma, solves)


class GridCache:
    """The stage results that the points of one run_grid call share, on one bundle.

    It keeps the read-only matrix of the last ``matrix_key`` asked for until
    another key is asked for; the cache of each process of a parallel run
    (``keep_matrix`` False) drops it after each build that succeeds. It
    keeps the raw graph of the last graph identity it built, with the
    warnings its build raised; a build that raises is not kept, so the next
    request for its identity builds again, from the matrix still held, and
    raises the same error. It also keeps smooth_graph's memo of learned
    graphs by (sigma, distance scale), and in ``heads`` the result of each
    point scored (RunConfig.scored).
    """

    def __init__(self, keep_matrix: bool = True):
        self._keep_matrix = keep_matrix
        self._matrix_key = self._matrix = None
        self._key = self._graph = None
        self._warnings = []  # those the build of self._graph raised
        self._solves = {}  # (sigma, theta) -> Graph
        self.heads = {}  # RunConfig -> RunResult

    def raw_graph(self, bundle: DatasetBundle, cfg: RunConfig) -> Graph:
        """cfg's raw graph, built on the first request for its identity.

        Every request raises the build's warnings again, so each point counts
        and reports them as if it had built. A k not below the vertex count
        raises the builder's error before the matrix is computed.
        """
        if cfg.graph_key != self._key:
            check_k_below_n(cfg.method, cfg.k, bundle.n)  # before the n x n matrix exists
            key = cfg.matrix_key
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if key != self._matrix_key:
                    self._matrix_key = self._matrix = None  # never hold two
                    M = similarity_matrix(bundle.vertex_features, *key)
                    M.flags.writeable = False  # the builds of its key share it
                    self._matrix_key, self._matrix = key, M
                graph = build_graph(self._matrix, cfg, self._solves)
            if not self._keep_matrix:
                self._matrix_key = self._matrix = None
            self._key, self._graph, self._warnings = cfg.graph_key, graph, caught
        for w in self._warnings:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return self._graph


def point_graph(
    bundle: DatasetBundle, cfg: RunConfig, cache: Optional[GridCache] = None
) -> Graph:
    """The graph a grid point scores: its inferred or reference graph, in its variant.

    An inferred graph's raw graph comes from ``cache``, or from a new one when it is None.
    """
    if cfg.method == "reference-graph":
        g = bundle.reference_graph
        if g is None:
            raise DatasetError("bundle has no reference graph")
        if g.variant == "raw":
            return normalize(g, cfg.adjacency_variant)
        if g.variant != cfg.adjacency_variant:
            raise ValueError(
                f"reference graph is {g.variant}; it cannot be made {cfg.adjacency_variant}"
            )
        return g
    return normalize((cache or GridCache()).raw_graph(bundle, cfg), cfg.adjacency_variant)


def run_task1(bundle: DatasetBundle, cfg: RunConfig, g: Optional[Graph]) -> RunResult:
    """Unsupervised vertex clustering of ``g`` (c-means when None) scored by AMI."""
    if g is None:
        assignment = tasks.kmeans(bundle.vertex_features, bundle.C, cfg.seed)
    else:
        assignment = tasks.spectral_cluster(g, bundle.C, cfg.seed)
    return RunResult(cfg, metrics.ami(assignment, bundle.labels))


def run_task2(bundle: DatasetBundle, cfg: RunConfig, g: Optional[Graph]) -> RunResult:
    """Semi-supervised classification on ``g`` (raw features when None): accuracy over splits."""
    masks = split_generator(bundle.n, cfg.split_fraction, cfg.n_splits, cfg.seed)
    if g is not None and cfg.task == "sscv-lp":
        preds = tasks.propagate_labels(g, bundle.labels, masks)
    else:
        preds = tasks.sgc_predict(g, bundle.vertex_features, bundle.labels, masks, cfg.seed)
    accs = np.array([metrics.accuracy(p, bundle.labels, ~m) for p, m in zip(preds, masks)])
    return RunResult(
        cfg,
        float(accs.mean()),
        dispersion=float(accs.std(ddof=1)) if accs.size > 1 else 0.0,
    )


def run_task3(bundle: DatasetBundle, cfg: RunConfig, g: Graph) -> RunResult:
    """Graph-signal denoising on ``g``: best SNR over the tau sweep."""
    clean = bundle.clean_signal
    noisy = bundle.noisy_signal
    if noisy is None:
        noisy = metrics.add_noise_to_snr(clean, DGS_INPUT_SNR_DB, bundle.seed)
    tau, snr = tasks.best_tau_denoise(g, noisy, clean)
    return RunResult(cfg, snr, auxiliary={"tau": tau})


# Each task's runner, the bundle field it reads, and the error when that field is missing.
_RUNNERS = {
    "ucv": (run_task1, "labels", "task ucv needs labels"),
    "sscv-lp": (run_task2, "labels", "task sscv needs labels"),
    "sscv-sgc": (run_task2, "labels", "task sscv needs labels"),
    "dgs": (run_task3, "clean_signal", "task dgs needs a clean signal"),
}


def _score(bundle: DatasetBundle, cfg: RunConfig, cache: GridCache) -> RunResult:
    """cfg's head result; any failure, floating-point faults included, is a failed RunResult."""
    try:
        with warnings.catch_warnings(record=True) as caught, np.errstate(
            over="raise", invalid="raise", divide="raise"
        ):
            warnings.simplefilter("always")
            runner, needed, missing = _RUNNERS[cfg.task]
            if getattr(bundle, needed) is None:
                raise DatasetError(missing)
            baseline = cfg.method in BASELINES.values()
            result = runner(bundle, cfg, None if baseline else point_graph(bundle, cfg, cache))
        result.auxiliary["warnings"] = len(caught)
    except Exception as exc:  # failed grid points are recorded, grid continues
        result = RunResult(cfg, math.nan, auxiliary={"error": f"{type(exc).__name__}: {exc}"})
    return result


def run_one(
    bundle: DatasetBundle, cfg: RunConfig, cache: Optional[GridCache] = None
) -> RunResult:
    """Execute one grid point; failures become a failed RunResult, never a raise.

    The point reports the head result of ``cfg.scored``, which ``cache`` (a
    new one when None) computes once: the graph (none for a baseline) comes
    from point_graph, its raw graph from ``cache``. ``seconds`` leaves out the
    stages taken from ``cache``.
    """
    start = time.perf_counter()
    cache = cache or GridCache()
    scored = cfg.scored
    if scored not in cache.heads:
        cache.heads[scored] = _score(bundle, scored, cache)
    head = cache.heads[scored]
    auxiliary = dict(head.auxiliary, seconds=time.perf_counter() - start)
    return RunResult(cfg, head.primary_score, head.dispersion, auxiliary)


def full_grid(task: str, bundle: DatasetBundle, master_seed: int = 0) -> list[RunConfig]:
    """Task-appropriate cartesian grid over methods, similarities, k, variants."""
    ks = [k for k in TABLE1_K if k < bundle.n]

    def points(pairs, ks):
        return [
            RunConfig(task, method, sim, k, adjacency_variant=variant, seed=master_seed)
            for k in ks
            for variant in VARIANTS
            for method, sim in pairs
        ]

    if task == "dgs":
        configs = []
        if bundle.reference_graph is not None:
            variant = bundle.reference_graph.variant
            configs.append(
                RunConfig(task, "reference-graph", adjacency_variant=variant, seed=master_seed)
            )
        configs += points([("naive", "rbf")], ks + [None])
        return configs + points([("nnk", "rbf"), ("smooth", None)], ks)
    configs = [RunConfig(task, BASELINES[task], seed=master_seed)]
    for sim in SIMILARITY_KINDS:
        configs += points([("naive", sim), ("nnk", sim)], ks)
    return configs + points([("smooth", None)], ks)


def _best(results: list[RunResult]) -> Optional[RunResult]:
    """The first result with the highest score, skipping failed and NaN points."""
    best = None
    for r in results:
        if not r.failed and not math.isnan(r.primary_score):
            if best is None or r.primary_score > best.primary_score:
                best = r
    return best


# A pool worker's bundle and cache, set once by _start_worker in each worker
# process that run_grid starts; they end with the pool.
_worker_state: Optional[tuple[DatasetBundle, GridCache]] = None


def _start_worker(bundle: DatasetBundle) -> None:
    global _worker_state
    _worker_state = bundle, GridCache(keep_matrix=False)


def _run_group(
    bundle: DatasetBundle, cache: GridCache, group: list[RunConfig]
) -> list[RunResult]:
    return [run_one(bundle, cfg, cache) for cfg in group]


def _run_in_worker(group: list[RunConfig]) -> list[RunResult]:
    return _run_group(*_worker_state, group)


def run_grid(
    bundle: DatasetBundle, configs: list[RunConfig], jobs: int = 1
) -> tuple[list[RunResult], Optional[RunResult]]:
    """Run every grid point (optionally in parallel); return (results, best).

    Points that infer the same raw graph form a group, which runs as one unit
    through a GridCache; the groups run in order of their matrix_key's first
    appearance, then of their own. Serially, one cache keeps the last matrix,
    so each matrix is computed once. Under ``jobs`` > 1, this process and a
    pool of ``jobs`` - 1 worker processes (fewer when there are fewer groups)
    take the groups one at a time, in that order, from one queue; each of
    them drops its matrix after each build that succeeds. A build that
    raises is not kept, and every point of its group fails with the same
    error. Smooth points share their solves per distance scale within the
    process that runs them, and an augmented point of a loop-blind task
    shares its raw point's head result. Results come back in the configs'
    order. A worker's death, or an exception in this process's groups, stops
    the queue and is raised after the pool has shut down.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    by_graph = {}
    for index, cfg in enumerate(configs):
        by_graph.setdefault(cfg.graph_key or index, []).append(index)
    rank = {}
    indices = sorted(
        by_graph.values(), key=lambda g: rank.setdefault(configs[g[0]].matrix_key, len(rank))
    )
    order = [index for group in indices for index in group]
    groups = [[configs[i] for i in group] for group in indices]
    workers = min(jobs, len(groups))
    if workers <= 1:
        cache = GridCache()
        done = [_run_group(bundle, cache, group) for group in groups]
    else:
        done = [None] * len(groups)
        todo = deque(enumerate(groups))  # the one queue of (index, group)

        def take():
            try:
                return todo.popleft()
            except IndexError:
                return None

        # hands one worker its groups; it must emit no warning, which a point being
        # scored in this process would record (catch_warnings is process-wide)
        def feed(index, future):
            try:
                done[index] = future.result()
                for index, group in iter(take, None):
                    done[index] = pool.submit(_run_in_worker, group).result()
            finally:
                todo.clear()  # so that a failure stops every process

        with ProcessPoolExecutor(
            max_workers=workers - 1, initializer=_start_worker, initargs=(bundle,)
        ) as pool, ThreadPoolExecutor(workers - 1) as feeders:
            # the first submit forks every worker: it comes before any feeder thread starts
            first = [todo.popleft() for _ in range(workers - 1)]
            fed = [feeders.submit(feed, i, pool.submit(_run_in_worker, g)) for i, g in first]
            try:
                cache = GridCache(keep_matrix=False)
                for index, group in iter(take, None):
                    done[index] = _run_group(bundle, cache, group)
            finally:
                todo.clear()  # after a raise here, the feeders take no more groups
            for feeder in fed:
                feeder.result()  # raises a worker's death or a feeder's error
    by_index = dict(zip(order, (result for part in done for result in part)))
    results = [by_index[index] for index in range(len(configs))]
    return results, _best(results)


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


def summary_path(report) -> Path:
    """Where emit_report writes the best-per-method summary of a report."""
    path = Path(report)
    return path.with_suffix(path.suffix + ".best.txt")


def emit_report(results: list[RunResult], path, dataset_name: str, timing: bool = False):
    """Write the per-grid-point CSV plus a best-per-method summary table.

    Timing is off by default so reruns with the same seed produce
    byte-identical reports.
    """
    if not results:
        raise ValueError("no results to report")
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")  # quotes only fields that need it
        writer.writerow(CSV_HEADER.split(","))
        for r in results:
            cfg = r.config
            writer.writerow(
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

    summary = [f"Best score per method ({dataset_name})"]
    for method in sorted({r.config.method for r in results}):
        best = _best([r for r in results if r.config.method == method])
        if best is None:
            continue
        cfg = best.config
        extra = f" +- {_fmt(best.dispersion, 4)}" if best.dispersion is not None else ""
        detail = f"similarity={cfg.similarity or '-'} k={cfg.k} variant={cfg.adjacency_variant}"
        summary.append(f"{method:18s} {_fmt(best.primary_score, 4)}{extra}  ({detail})")
    summary_path(path).write_text("\n".join(summary) + "\n")
    return path
