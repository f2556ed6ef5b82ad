"""Each array, number or graph argument of graphbench's exports has a rule raising its ValueError.

A row calls one callable with one argument NaN, ±inf or outside its rule and
expects the message of that rule, which names the argument. Each callable
exported by ``graphbench/__init__.py`` has a row for each argument, or is on
an exempt list with the reason why.
"""

import inspect
import math
import re

import numpy as np
import pytest
from scipy import sparse

import graphbench
from graphbench import (
    Graph,
    accuracy,
    add_noise_to_snr,
    ami,
    best_tau_denoise,
    denoise,
    discretize,
    eigendecompose,
    from_arrays,
    from_dense,
    kmeans,
    knn_select,
    matrix_exponential,
    nnk_graph,
    nnls_solve,
    normalize,
    propagate_labels,
    sgc_predict,
    similarity_matrix,
    simoncelli_response,
    smooth_graph,
    snr_db,
    spectral_cluster,
    spectral_embed,
)
from graphbench.similarity import rbf_kernel

NAN, INF = math.nan, math.inf
HUGE = 10**400  # an int beyond the float range


def path(n=4):
    return Graph(n, [(i, i + 1, 1.0) for i in range(n - 1)])


def spoiled(M, value, at):
    """A float copy of M with ``value`` at index ``at`` (and at its mirror for a square M)."""
    M = np.array(M, dtype=float)
    M[at] = value
    if M.ndim == 2 and M.shape[0] == M.shape[1]:
        M[at[::-1]] = value
    return M


X = np.random.default_rng(0).uniform(0.5, 1.5, size=(6, 3))
S = similarity_matrix(X, "rbf")
Z = similarity_matrix(X, "sqeuclidean")
L = path().to_sparse().toarray()
LABELS = [0, 0, 1, 1]
MASKS = [[True, False, True, False]]
SIGNAL = np.array([1.0, 2.0, 3.0, 4.0])
SEED_TYPE = "seed must be an integer, got 1.5"
SEED_SIGN = "seed must be >= 0, got -1"

# (callable, argument, call, message)
ROWS = [
    (Graph, "n", lambda: Graph(1.5), "n must be an integer, got 1.5"),
    (Graph, "n", lambda: Graph(-1), "n must be >= 0, got -1"),
    (
        Graph,
        "edges",
        lambda: Graph(2, [(0, 1, NAN)]),
        "bad edge (0, 1, nan): weight must be finite and positive",
    ),
    (
        Graph,
        "diagonal",
        lambda: Graph(2, [], [INF, 0.0], "augmented"),
        "self-loop weights must be finite and >= 0",
    ),
    (
        Graph,
        "edges",
        lambda: Graph(3, [(0.7, 1.9, 1.0)]),
        "edge indices must be integers, got 0.7",
    ),
    (
        Graph,
        "edges",
        lambda: Graph(3, [(0, 10**30, 1.0)]),
        "edge indices must lie within int64, got 1e+30",
    ),
    (Graph, "edges", lambda: Graph(3, [(0, 1)]), "edges must be (i, j, w) triples"),
    (Graph, "edges", lambda: Graph(8, [(0, 1, 1.0, 5, 6, 7)]), "edges must be (i, j, w) triples"),
    (Graph, "variant", lambda: Graph(2, variant="bogus"), "unknown variant 'bogus'"),
    (from_arrays, "n", lambda: from_arrays(1.5, [], [], []), "n must be an integer, got 1.5"),
    (
        from_arrays,
        "i",
        lambda: from_arrays(3, [-1], [1], [1.0]),
        "bad edge (-1, 1, 1.0): need 0 <= i < j < n",
    ),
    (from_arrays, "i", lambda: from_arrays(2, [0.5], [1], [1.0]), "i must be integers, got 0.5"),
    (
        from_arrays,
        "i",
        lambda: from_arrays(3, [10**30], [1], [1.0]),
        f"i must lie within int64, got {10**30}",
    ),
    (
        from_arrays,
        "j",
        lambda: from_arrays(3, [0], [3], [1.0]),
        "bad edge (0, 3, 1.0): need 0 <= i < j < n",
    ),
    (
        from_arrays,
        "w",
        lambda: from_arrays(3, [0], [1], [-INF]),
        "bad edge (0, 1, -inf): weight must be finite and positive",
    ),
    (
        from_arrays,
        "diagonal",
        lambda: from_arrays(3, [], [], [], [0.0, NAN, 0.0], "augmented"),
        "self-loop weights must be finite and >= 0",
    ),
    (
        from_arrays,
        "variant",
        lambda: from_arrays(3, [], [], [], None, "bogus"),
        "unknown variant 'bogus'",
    ),
    (
        from_dense,
        "A",
        lambda: from_dense(spoiled(L, NAN, (0, 1))),
        "adjacency has non-finite entries",
    ),
    (from_dense, "threshold", lambda: from_dense(L, threshold=NAN), "threshold must be finite"),
    (
        eigendecompose,
        "A",
        lambda: eigendecompose(sparse.csr_matrix(spoiled(L, INF, (0, 1)))),
        "operator has non-finite entries",
    ),
    (
        eigendecompose,
        "A",
        lambda: eigendecompose(sparse.csr_matrix(spoiled(L, NAN, (0, 1))), lowest=2),
        "operator has non-finite entries",
    ),
    (
        eigendecompose,
        "A",
        lambda: eigendecompose(sparse.csr_matrix((1, 2))),
        "operator must be square",
    ),
    (
        eigendecompose,
        "A",
        lambda: eigendecompose(L),
        "A must be a scipy.sparse operator, got ndarray",
    ),
    (
        eigendecompose,
        "A",
        lambda: eigendecompose(sparse.csr_matrix(spoiled(L, 2.0, (0, 1))[::-1])),
        "operator must be symmetric",
    ),
    (
        eigendecompose,
        "lowest",
        lambda: eigendecompose(sparse.csr_matrix(L), 1.5),
        "lowest must be an integer, got 1.5",
    ),
    (
        eigendecompose,
        "lowest",
        lambda: eigendecompose(sparse.csr_matrix(L), 0),
        "lowest must be >= 1, got 0",
    ),
    (
        matrix_exponential,
        "A",
        lambda: matrix_exponential(sparse.csr_matrix(spoiled(L, NAN, (1, 2)))),
        "operator has non-finite entries",
    ),
    (
        matrix_exponential,
        "A",
        lambda: matrix_exponential(L),
        "A must be a scipy.sparse operator, got ndarray",
    ),
    (normalize, "g", lambda: normalize(None, "raw"), "g must be a Graph, got NoneType"),
    (normalize, "target_variant", lambda: normalize(path(), "bogus"), "unknown variant 'bogus'"),
    (
        knn_select,
        "S",
        lambda: knn_select(spoiled(S, NAN, (0, 1)), 2),
        "similarity matrix has non-finite entries",
    ),
    (knn_select, "k", lambda: knn_select(S, 1.5), "k must be an integer, got 1.5"),
    (knn_select, "k", lambda: knn_select(S, 0), "k must satisfy 1 <= k < n=6, got 0"),
    (
        nnk_graph,
        "S",
        lambda: nnk_graph(spoiled(S, INF, (2, 3)), "rbf", 2),
        "similarity matrix has non-finite entries",
    ),
    (
        nnk_graph,
        "similarity",
        lambda: nnk_graph(S, "euclid", 2),
        "unknown kernel similarity 'euclid'",
    ),
    (nnk_graph, "k", lambda: nnk_graph(S, "rbf", 6), "k must satisfy 1 <= k < n=6, got 6"),
    (
        nnk_graph,
        "sigma",
        lambda: nnk_graph(S, "rbf", 2, sigma=NAN),
        "sigma must be a positive finite number, got nan",
    ),
    (
        nnk_graph,
        "sigma",
        lambda: nnk_graph(S, "rbf", 2, sigma=HUGE),
        f"sigma must be a positive finite number, got {HUGE}",
    ),
    (nnls_solve, "K_SS", lambda: nnls_solve([[[NAN]]], [[1.0]]), "K has non-finite entries"),
    (nnls_solve, "k_Si", lambda: nnls_solve([[[1.0]]], [[INF]]), "b has non-finite entries"),
    (
        # one problem goes as a stack of one
        nnls_solve,
        "K_SS",
        lambda: nnls_solve([[1.0]], [1.0]),
        "K of shape (1, 1) does not match b of shape (1,): need (R, m, m) with (R, m)",
    ),
    (
        similarity_matrix,
        "X",
        lambda: similarity_matrix(spoiled(X, NAN, (1, 1)), "cosine"),
        "feature matrix has non-finite entries",
    ),
    (
        similarity_matrix,
        "kind",
        lambda: similarity_matrix(X, "euclid"),
        "unknown similarity 'euclid'",
    ),
    (
        similarity_matrix,
        "gamma",
        lambda: similarity_matrix(X, "rbf", INF),
        "gamma must be a positive finite number, got inf",
    ),
    (
        rbf_kernel,
        "Z",
        lambda: rbf_kernel(spoiled(Z, NAN, (0, 1)), 1.0),
        "distance matrix has non-finite entries",
    ),
    (
        rbf_kernel,
        "Z",
        lambda: rbf_kernel(np.ones((2, 3)), 1.0),
        "distance matrix must be square and 2-D, got shape (2, 3)",
    ),
    (
        rbf_kernel,
        "Z",
        lambda: rbf_kernel(np.ones(3), 1.0),
        "distance matrix must be square and 2-D, got shape (3,)",
    ),
    (
        rbf_kernel,
        "Z",
        lambda: rbf_kernel(0.5, 1.0),
        "distance matrix must be square and 2-D, got shape ()",
    ),
    (
        rbf_kernel,
        "gamma",
        lambda: rbf_kernel(Z, -INF),
        "gamma must be a positive finite number, got -inf",
    ),
    (
        smooth_graph,
        "Z",
        lambda: smooth_graph(spoiled(Z, NAN, (0, 1)), 2),
        "distance matrix has non-finite entries",
    ),
    (
        smooth_graph,
        "k",
        lambda: smooth_graph(Z, INF),
        "k must be a positive finite number, got inf",
    ),
    (
        smooth_graph,
        "k",
        lambda: smooth_graph(Z, HUGE),
        f"k must be a positive finite number, got {HUGE}",
    ),
    (
        smooth_graph,
        "sigma",
        lambda: smooth_graph(Z, 2, sigma=-1.0),
        "sigma must be a positive finite number, got -1.0",
    ),
    (
        accuracy,
        "pred",
        lambda: accuracy([0, 0.5], [0, 1], [True, True]),
        "pred must be integers, got 0.5",
    ),
    (
        accuracy,
        "pred",
        lambda: accuracy([10**30], [0], [True]),
        f"pred must lie within int64, got {10**30}",
    ),
    (
        accuracy,
        "truth",
        lambda: accuracy([0, 1], [NAN, 1], [True, True]),
        "truth must be integers, got nan",
    ),
    (
        accuracy,
        "mask",
        lambda: accuracy([0, 1], [0, 1], [NAN, 1]),
        "mask must be bool, got dtype float64",
    ),
    (
        add_noise_to_snr,
        "clean",
        lambda: add_noise_to_snr(spoiled(SIGNAL, NAN, (2,)), 10.0, 0),
        "clean signal has non-finite entries",
    ),
    (
        add_noise_to_snr,
        "clean",
        lambda: add_noise_to_snr([2.0], 10.0, 0),
        "clean signal needs at least 2 entries, got length 1",
    ),
    (
        add_noise_to_snr,
        "target_db",
        lambda: add_noise_to_snr(SIGNAL, NAN, 0),
        "target_db must be a finite number or +inf, got nan",
    ),
    (add_noise_to_snr, "seed", lambda: add_noise_to_snr(SIGNAL, 10.0, 1.5), SEED_TYPE),
    (add_noise_to_snr, "seed", lambda: add_noise_to_snr(SIGNAL, 10.0, -1), SEED_SIGN),
    (ami, "u", lambda: ami([0, NAN, 1], [0, 1, 1]), "u must be integers, got nan"),
    (ami, "v", lambda: ami([0, 1, 1], [0, 0.5, 1]), "v must be integers, got 0.5"),
    (
        snr_db,
        "clean",
        lambda: snr_db(spoiled(SIGNAL, INF, (0,)), SIGNAL),
        "clean signal has non-finite entries",
    ),
    (
        snr_db,
        "test",
        lambda: snr_db(SIGNAL, spoiled(SIGNAL, NAN, (3,))),
        "test signal has non-finite entries",
    ),
    (
        best_tau_denoise,
        "g",
        lambda: best_tau_denoise(None, SIGNAL, SIGNAL),
        "g must be a Graph, got NoneType",
    ),
    (
        best_tau_denoise,
        "x_noisy",
        lambda: best_tau_denoise(path(), spoiled(SIGNAL, NAN, (1,)), SIGNAL),
        "noisy signal has non-finite entries",
    ),
    (
        # the clean signal is checked before the noisy one is read
        best_tau_denoise,
        "x_clean",
        lambda: best_tau_denoise(path(), SIGNAL[:3], spoiled(SIGNAL, NAN, (1,))),
        "clean signal has non-finite entries",
    ),
    (denoise, "g", lambda: denoise(None, SIGNAL, [0.5]), "g must be a Graph, got NoneType"),
    (
        denoise,
        "x_noisy",
        lambda: denoise(path(), spoiled(SIGNAL, -INF, (0,)), [0.5]),
        "noisy signal has non-finite entries",
    ),
    (
        denoise,
        "tau",
        lambda: denoise(path(), SIGNAL, [NAN]),
        "cutoffs must be finite and >= 0, got [nan]",
    ),
    (
        denoise,
        "tau",
        lambda: denoise(path(), SIGNAL, 0.5),
        "tau must be a 1-D sequence of cutoffs, got shape ()",
    ),
    (
        discretize,
        "embedding",
        lambda: discretize(spoiled(np.eye(3, 2), NAN, (2, 1))),
        "embedding has non-finite entries",
    ),
    (discretize, "seed", lambda: discretize(np.eye(3, 2), 1.5), SEED_TYPE),
    (discretize, "seed", lambda: discretize(np.eye(3, 2), -1), SEED_SIGN),
    (
        kmeans,
        "points",
        lambda: kmeans(spoiled(X, INF, (4, 0)), 2, 0),
        "points has non-finite entries",
    ),
    (kmeans, "C", lambda: kmeans(X, 1.5, 0), "C must be an integer, got 1.5"),
    (kmeans, "C", lambda: kmeans(X, 0, 0), "need at least 1 cluster"),
    (kmeans, "seed", lambda: kmeans(X, 2, 1.5), SEED_TYPE),
    (kmeans, "seed", lambda: kmeans(X, 2, -1), SEED_SIGN),
    (
        propagate_labels,
        "g",
        lambda: propagate_labels(None, [0, 1], [[True, False]]),
        "g must be a Graph, got NoneType",
    ),
    (
        propagate_labels,
        "labels",
        lambda: propagate_labels(path(), [0, 0.5, 1, 1], MASKS),
        "labels must be integers, got 0.5",
    ),
    (
        propagate_labels,
        "masks",
        lambda: propagate_labels(path(), LABELS, [[NAN, 1.0, 0.0, 0.0]]),
        "masks must be bool of shape (S, 4), got float64 (1, 4)",
    ),
    (
        # None asks for the logistic-regression baseline
        sgc_predict,
        "g",
        lambda: sgc_predict(L, X[:4], LABELS, MASKS, 0),
        "g must be a Graph, got ndarray",
    ),
    (
        sgc_predict,
        "X",
        lambda: sgc_predict(path(), spoiled(X[:4], NAN, (3, 2)), LABELS, MASKS, 0),
        "X has non-finite entries",
    ),
    (
        sgc_predict,
        "labels",
        lambda: sgc_predict(path(), X[:4], [0, -1, 1, 1], MASKS, 0),
        "labels must be >= 0, got -1",
    ),
    (
        sgc_predict,
        "masks",
        lambda: sgc_predict(path(), X[:4], LABELS, [[False] * 4], 0),
        "masks must each observe a vertex; mask 0 observes none",
    ),
    (sgc_predict, "seed", lambda: sgc_predict(path(), X[:4], LABELS, MASKS, 1.5), SEED_TYPE),
    (sgc_predict, "seed", lambda: sgc_predict(None, X[:4], LABELS, MASKS, -1), SEED_SIGN),
    (
        simoncelli_response,
        "lambda_norm",
        lambda: simoncelli_response(np.array([NAN]), 0.5),
        "lambda_norm must not be NaN",
    ),
    (
        simoncelli_response,
        "lambda_norm",
        lambda: simoncelli_response(0.3, 0.5),
        "lambda_norm must be a 1-D array, got shape ()",
    ),
    (
        simoncelli_response,
        "lambda_norm",
        lambda: simoncelli_response(np.full((2, 2), 0.3), 0.5),
        "lambda_norm must be a 1-D array, got shape (2, 2)",
    ),
    (
        simoncelli_response,
        "tau",
        lambda: simoncelli_response(np.array([0.3]), NAN),
        "tau must be finite and >= 0, got nan",
    ),
    (
        simoncelli_response,
        "tau",
        lambda: simoncelli_response(np.array([0.3]), -0.5),
        "tau must be finite and >= 0, got -0.5",
    ),
    (
        simoncelli_response,
        "tau",
        lambda: simoncelli_response(np.array([0.5]), INF),
        "tau must be finite and >= 0, got inf",
    ),
    (
        spectral_cluster,
        "g",
        lambda: spectral_cluster(None, 1),
        "g must be a Graph, got NoneType",
    ),
    (spectral_cluster, "C", lambda: spectral_cluster(path(), 1.5), "C must be an integer, got 1.5"),
    (spectral_cluster, "C", lambda: spectral_cluster(path(), 4), "need 1 <= C and C + 1 <= n"),
    (spectral_cluster, "seed", lambda: spectral_cluster(path(), 2, 1.5), SEED_TYPE),
    # C = 1 needs no discretization, and still checks its seed
    (spectral_cluster, "seed", lambda: spectral_cluster(path(), 1, -1), SEED_SIGN),
    (spectral_embed, "g", lambda: spectral_embed(None, 2), "g must be a Graph, got NoneType"),
    (spectral_embed, "C", lambda: spectral_embed(path(), True), "C must be an integer, got True"),
    (spectral_embed, "C", lambda: spectral_embed(path(), 0), "need 1 <= C and C + 1 <= n"),
]

# exports whose arguments are not arrays or numbers
EXEMPT = {
    "connected_components": "takes only a Graph, whose constructor holds the rules",
    "degrees": "takes only a Graph, whose constructor holds the rules",
    "laplacian": "takes only a Graph, whose constructor holds the rules",
    "read_graph": "a file function: its rules are per line of the file (test_core_graph)",
    "write_graph": "a file function: it writes a Graph, whose constructor holds the rules",
}

# arguments of tabled callables that are not arrays or numbers
EXEMPT_ARGUMENTS = {
    ("smooth_graph", "solves"): "a dict that memoises solves, not an input value",
}


@pytest.mark.parametrize(
    "call, message",
    [row[2:] for row in ROWS],
    ids=[f"{fn.__name__}-{argument}" for fn, argument, *_ in ROWS],
)
def test_an_argument_outside_its_rule_raises_its_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_every_export_has_a_row_per_argument_or_a_reason():
    exports = {
        name for name, obj in vars(graphbench).items() if callable(obj) and not name.startswith("_")
    }
    tabled = {(fn.__name__, argument) for fn, argument, *_ in ROWS}
    untabled = [
        f"{name}({argument})"
        for name in sorted(exports - EXEMPT.keys())
        for argument in inspect.signature(getattr(graphbench, name)).parameters
        if (name, argument) not in tabled.union(EXEMPT_ARGUMENTS)
    ]
    assert untabled == []
    assert EXEMPT.keys() <= exports  # no stale exemption
    assert {name for name, _ in EXEMPT_ARGUMENTS} <= exports - EXEMPT.keys()
