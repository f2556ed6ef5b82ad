"""The benchmark's four workloads: bundle shape, grid stages and expected layers.

Shapes are scaled so that one run fits the benchmark's time budget on 2 CPUs
(see README.md): the Cora-shaped bundle keeps Cora's F=1433 word features,
7 classes and class proportions at n=1000 vertices instead of 2708, and the
road-shaped bundles use n=300 and n=40 vertices instead of Toronto's ~2200.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import gen

VARIANTS = ("raw", "sym_norm", "augmented", "augmented_sym_norm")

# Functions every workload must call at least once in the traced run.
COMMON_LAYERS = (
    "harness.run_grid",
    "harness.run_one",
    "harness.emit_report",
    "core_graph.graph_init",
    "core_graph.normalize",
    "core_graph.eigendecompose",
    "inference.knn_select",
    "inference.nnk_graph",
    "inference.nnls_solve",
)


@dataclass(frozen=True)
class Workload:
    name: str
    make_bundle: Callable  # (directory, seed) -> directory
    stages: tuple  # ((task, (grid entry dict, ...)), ...), run in order
    jobs: int
    layers: tuple  # functions the traced run must see called, beyond COMMON_LAYERS
    # (method, k) -> exception type name of a documented, expected point failure
    known_failures: dict = field(default_factory=dict)


def _point(method, similarity=None, k=None, variant="raw"):
    return {"method": method, "similarity": similarity, "k": k, "adjacency_variant": variant}


def _cora(directory, seed):
    return gen.cora_like(directory, seed, n=1000, F=1433, words_per_doc=40, topic_frac=0.42)


def _road(directory, seed):
    return gen.road_like(directory, seed, n=300, mean_degree=4.0, smoothness=2.0)


# With 40 vertices, fresh geometry and noise per seed move the best scores by
# 10-20% from seed to seed (seeds 0-9), more than the benchmark's bound; so
# the small bundle is drawn once and the seed relabels its vertices.
SMALL_ROAD_GEOMETRY = 0


def _road_small(directory, seed):
    return gen.road_like(
        directory, seed, n=40, mean_degree=4.0, smoothness=1.0, geometry_seed=SMALL_ROAD_GEOMETRY
    )


# Label propagation is cheap, so its grid spans the four variants; each SGC
# point trains 100 logistic regressions, so its grid keeps the two
# normalised variants and the raw-feature baseline (which does not depend
# on the task, so it runs once).
_LP_GRID = (
    *(_point("naive", "cosine", 10, v) for v in VARIANTS),
    _point("nnk", "cosine", 10, "sym_norm"),
)
_SGC_GRID = (
    _point("logreg-baseline"),
    _point("naive", "cosine", 10, "sym_norm"),
    _point("naive", "cosine", 10, "augmented_sym_norm"),
    _point("nnk", "cosine", 10, "sym_norm"),
)

# smooth on one feature row cannot get below a mean degree of about 5 on
# this 40-vertex bundle (its sparsest bisection step reaches 5.2), so k=6
# calibrates and k=2 runs all 40 bisection solves and raises CalibrationError.
SMOOTH_K_ABOVE_FLOOR = 6
SMOOTH_K_BELOW_FLOOR = 2

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ucv-cora",
            make_bundle=_cora,
            stages=(
                (
                    "ucv",
                    (
                        _point("cmeans-baseline"),
                        *(_point("naive", "cosine", 10, v) for v in VARIANTS),
                        _point("naive", "cosine", 20, "sym_norm"),
                        _point("naive", "rbf", 10, "sym_norm"),
                        _point("naive", "rbf", 20, "sym_norm"),
                        _point("nnk", "cosine", 10, "sym_norm"),
                    ),
                ),
            ),
            jobs=1,
            layers=(
                "similarity.cosine_similarity",
                "similarity.pairwise_sq_euclidean",
                "similarity.rbf_kernel",
                "harness.build_graph",
                "core_graph.laplacian",
                "tasks.kmeans",
                "tasks.spectral_cluster",
                "tasks.discretize",
                "metrics.ami",
            ),
        ),
        Workload(
            name="sscv-cora",
            make_bundle=_cora,
            stages=(("sscv-lp", _LP_GRID), ("sscv-sgc", _SGC_GRID)),
            jobs=2,
            layers=(
                "similarity.cosine_similarity",
                "harness.build_graph",
                "harness.split_generator",
                "core_graph.matrix_exponential",
                "tasks.diffuse_features",
                "tasks.train_logistic_regression",
                "metrics.accuracy",
            ),
        ),
        Workload(
            name="dgs-road",
            make_bundle=_road,
            stages=(
                (
                    "dgs",
                    (
                        _point("reference-graph"),
                        *(_point("naive", "rbf", 10, v) for v in VARIANTS),
                        _point("naive", "rbf", 20, "sym_norm"),
                        _point("naive", "rbf", None, "raw"),
                        _point("nnk", "rbf", 10, "raw"),
                    ),
                ),
            ),
            jobs=1,
            layers=(
                "similarity.pairwise_sq_euclidean",
                "similarity.rbf_kernel",
                "core_graph.laplacian",
                "tasks.best_tau_denoise",
                "tasks.denoise",
                "metrics.snr_db",
            ),
        ),
        Workload(
            name="dgs-smooth",
            make_bundle=_road_small,
            stages=(
                (
                    "dgs",
                    (
                        _point("reference-graph"),
                        _point("smooth", None, SMOOTH_K_ABOVE_FLOOR),
                        _point("smooth", None, SMOOTH_K_BELOW_FLOOR),
                        _point("naive", "rbf", SMOOTH_K_ABOVE_FLOOR),
                        _point("naive", "rbf", SMOOTH_K_BELOW_FLOOR),
                        _point("nnk", "rbf", SMOOTH_K_ABOVE_FLOOR),
                    ),
                ),
            ),
            jobs=1,
            layers=(
                "similarity.pairwise_sq_euclidean",
                "similarity.rbf_kernel",
                "inference.smooth_graph",
                "inference.learn_log_degree_weights",
                "core_graph.from_dense",
                "tasks.best_tau_denoise",
                "tasks.denoise",
            ),
            known_failures={("smooth", SMOOTH_K_BELOW_FLOOR): "CalibrationError"},
        ),
    )
}
