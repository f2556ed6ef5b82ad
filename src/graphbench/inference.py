"""Graph construction from observations: naive k-NN, NNK, smoothness-based."""

from __future__ import annotations

import math
import warnings
from typing import Optional

import numpy as np

from .core_graph import Graph, from_arrays, from_dense
from .similarity import (
    cosine_similarity,
    covariance_similarity,
    pairwise_sq_euclidean,
    rbf_kernel,
)

SIMILARITY_KINDS = ("cosine", "covariance", "rbf")

# nnk and smooth drop edge weights at or below sigma
DEFAULT_SIGMA = 1e-4

KKT_TOL = 1e-8

LOG_DEGREE_ALPHA = 1.0
PDS_STEP_SIZE = 0.5

# Rows per block in _knn_indices: bounds its temporaries to a few n-wide arrays.
KNN_BLOCK_ROWS = 256


class CalibrationError(RuntimeError):
    """Sparsity calibration could not bracket the requested mean degree."""


def _knn_indices(S: np.ndarray, k: int) -> np.ndarray:
    """Each row's k most similar other vertices, most similar first, ties broken by lower index.

    Equals the first k columns of a stable argsort of -S with the diagonal set
    to +inf. Works in blocks of rows, selects by partition and sorts only the
    k picks. S must be finite; knn_select and nnk_graph check it first.
    """
    n = S.shape[0]
    out = np.empty((n, k), dtype=np.intp)
    if k == 0:
        return out
    for start in range(0, n, KNN_BLOCK_ROWS):
        M = -S[start : start + KNN_BLOCK_ROWS]
        b = M.shape[0]
        M[np.arange(b), np.arange(start, start + b)] = np.inf
        kth = np.partition(M, k - 1, axis=1)[:, k - 1 : k]
        below, tied = M < kth, M == kth
        # of the entries tied with the kth value, keep the lowest-index ones
        tied &= np.cumsum(tied, axis=1) <= k - np.sum(below, axis=1, keepdims=True)
        cols = np.nonzero(below | tied)[1].reshape(b, k)
        order = np.argsort(np.take_along_axis(M, cols, axis=1), axis=1, kind="stable")
        out[start : start + b] = np.take_along_axis(cols, order, axis=1)
    return out


def _check_finite(M: np.ndarray, kind: str) -> None:
    """Raise ValueError when the ``kind`` matrix a builder starts from has a NaN or inf entry."""
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{kind} matrix has non-finite entries")


def _undirected(n: int, rows: np.ndarray, cols: np.ndarray, **unique_args):
    """Sorted distinct undirected edges i < j of directed pairs, and np.unique's index array."""
    keys, extra = np.unique(np.minimum(rows, cols) * n + np.maximum(rows, cols), **unique_args)
    return keys // n, keys % n, extra


def check_k_below_n(method: str, k: Optional[int], n: int) -> None:
    """Raise the ValueError ``method``'s builder raises for a k not below the n vertices.

    None, naive_graph's dense k, always passes. A caller can check a point
    before it computes the n x n matrix the builder would reject it with.
    """
    if k is None or k < n:
        return
    if method == "smooth":
        raise ValueError(f"target mean degree k={k} must satisfy 1 <= k < n")
    raise ValueError(f"k={k} must be smaller than n={n}")


def knn_select(S: np.ndarray, k: int) -> Graph:
    """Keep each vertex's k strongest similarities, symmetrize by union.

    Selected non-positive similarities are dropped (no edge); surviving edges
    carry the original similarity as weight.
    """
    S = np.asarray(S, dtype=float)
    n = S.shape[0]
    check_k_below_n("naive", k, n)
    _check_finite(S, "similarity")
    rows = np.repeat(np.arange(n), k)
    cols = _knn_indices(S, k).ravel()
    keep = S[rows, cols] > 0
    rows, cols = rows[keep], cols[keep]
    # an edge selected from both ends keeps the weight of its first selection
    i, j, first = _undirected(n, rows, cols, return_index=True)
    return from_arrays(n, i, j, S[rows[first], cols[first]])


def similarity_matrix(X, kind: str, gamma: Optional[float] = None) -> np.ndarray:
    """The matrix a graph builder starts from, between the rows of X.

    ``kind`` is a similarity of SIMILARITY_KINDS, which naive_graph and
    nnk_graph read (rbf with ``gamma`` None uses 1 / the number of
    features), or "sqeuclidean", the squared distances smooth_graph reads.
    """
    X = np.asarray(X, dtype=float)
    if kind == "sqeuclidean":
        return pairwise_sq_euclidean(X)
    if kind == "cosine":
        return cosine_similarity(X)
    if kind == "covariance":
        return covariance_similarity(X)
    if kind != "rbf":
        raise ValueError(f"unknown similarity {kind!r}")
    Z = pairwise_sq_euclidean(X)
    if gamma is None:
        gamma = 1.0 / X.shape[1]
    return rbf_kernel(Z, gamma)


def naive_graph(S, k: Optional[int]) -> Graph:
    """k-NN sparsification of a similarity matrix (the dense graph when k is None)."""
    if k is not None and k < 1:
        raise ValueError("k must be positive")
    S = np.asarray(S, dtype=float)
    return knn_select(S, k if k is not None else S.shape[0] - 1)


def nnls_solve(K_SS: np.ndarray, k_Si: np.ndarray, whole_block_first: bool = False):
    """Minimize 0.5 t'Kt - t'b over t >= 0 by an active-set (Lawson-Hanson) method.

    Returns (theta, converged). On hitting the iteration cap, max(10 m, 30)
    for m unknowns, the best iterate so far is returned with converged=False.

    With ``whole_block_first``, the unconstrained solve of the whole block,
    the call the active-set loop ends with when it keeps every variable, is
    tried first and returned as converged when every weight is positive:
    KKT then holds with no inactive variable. Otherwise the loop runs as
    without it.
    """
    K = np.asarray(K_SS, dtype=float)
    b = np.asarray(k_Si, dtype=float)
    m = b.shape[0]
    if whole_block_first:
        sol = np.linalg.lstsq(K, b, rcond=None)[0]
        if np.all(sol > 0):
            return sol, True
    max_iter = max(10 * m, 30)
    theta = np.zeros(m)
    passive = np.zeros(m, dtype=bool)
    for _ in range(max_iter):
        grad = K @ theta - b
        candidates = np.flatnonzero(~passive & (grad < -KKT_TOL))
        if candidates.size == 0:
            return theta, True
        j = candidates[np.argmin(grad[candidates])]
        passive[j] = True
        for _ in range(max_iter):
            idx = np.flatnonzero(passive)
            sol = np.linalg.lstsq(K[np.ix_(idx, idx)], b[idx], rcond=None)[0]
            if np.all(sol > 0):
                theta = np.zeros(m)
                theta[idx] = sol
                break
            cur = theta[idx]
            neg = sol <= 0
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(neg, cur / (cur - sol), np.inf)
            alpha = float(np.min(ratios))
            new = cur + alpha * (sol - cur)
            new[neg & (new <= 1e-14)] = 0.0
            theta = np.zeros(m)
            theta[idx] = np.maximum(new, 0.0)
            passive = theta > 0
            if not passive.any():
                break
    return theta, False


def _nnk_kernel(S: np.ndarray, kind: str) -> np.ndarray:
    """NNK's kernel from a ``kind`` similarity matrix: non-negative, unit diagonal.

    S itself is left as it is.
    """
    if kind == "rbf":
        return S
    K = np.clip(S, 0.0, None)
    if kind == "covariance":
        var = np.diag(K).copy()
        inv = np.zeros_like(var)
        ok = var > 0
        inv[ok] = 1.0 / np.sqrt(var[ok])
        if not ok.all():
            warnings.warn(
                f"{int((~ok).sum())} zero-variance observations become isolated "
                "under the covariance kernel"
            )
        K = K * inv[:, None] * inv[None, :]
        K[np.diag_indices(K.shape[0])] = np.where(ok, 1.0, 0.0)
    return K


def nnk_graph(S, similarity: str, k: int, sigma: float = DEFAULT_SIGMA) -> Graph:
    """Non-negative kernel regression graph within each vertex's k-neighborhood.

    S is the vertices' ``similarity`` matrix (see similarity_matrix).
    """
    if similarity not in SIMILARITY_KINDS:
        raise ValueError(f"unknown kernel similarity {similarity!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    S = np.asarray(S, dtype=float)
    n = S.shape[0]
    check_k_below_n("nnk", k, n)
    _check_finite(S, "similarity")
    S = _nnk_kernel(S, similarity)
    nbrs = _knn_indices(S, k)
    theta = np.zeros(nbrs.shape)  # directed weight of i -> nbrs[i, m]
    fallbacks = solved = kept_all = 0
    for i in range(n):
        pos = np.flatnonzero(S[i, nbrs[i]] > 0)
        if pos.size == 0:
            continue
        sel = nbrs[i, pos]
        k_Si = S[sel, i]
        # the whole-block first step pays off while most optima keep every candidate
        t, ok = nnls_solve(S[np.ix_(sel, sel)], k_Si, whole_block_first=2 * kept_all >= solved)
        theta[i, pos] = t if ok else k_Si  # fall back to plain k-NN weights for this vertex
        fallbacks += not ok
        solved += 1
        kept_all += ok and bool(np.all(t > 0))
    if fallbacks:
        warnings.warn(f"NNLS did not converge for {fallbacks} vertices; they keep k-NN weights")
    rows = np.repeat(np.arange(n), k)
    cols = nbrs.ravel()
    w = theta.ravel()
    keep = w > sigma
    rows, cols, w = rows[keep], cols[keep], w[keep]
    # each undirected edge sums the halves of its directed weights, in directed order
    i, j, slot = _undirected(n, rows, cols, return_inverse=True)
    merged = np.zeros(i.size)
    np.add.at(merged, slot, w / 2.0)
    keep = merged > sigma
    g = from_arrays(n, i[keep], j[keep], merged[keep])
    if np.any(g.neighbor_counts() == 0):
        warnings.warn("NNK produced isolated vertices")
    return g


def learn_log_degree_weights(
    Z: np.ndarray,
    beta: float = 1.0,
    max_iter: int = 10000,
    rel_tol: float = 1e-6,
    patience: int = 50,
) -> np.ndarray:
    """Learn edge weights from squared distances under the log-degree smoothness model.

    Minimizes sum_ij W_ij Z_ij - alpha * sum_i log(sum_j W_ij)
    + (beta/2) * sum_ij W_ij^2, alpha = LOG_DEGREE_ALPHA, over symmetric
    non-negative W with zero diagonal, using forward-backward-forward
    primal-dual iterations with step PDS_STEP_SIZE. Stops when the relative
    objective decrease over `patience` iterations falls below `rel_tol`.
    Returns the dense weight matrix.

    On reaching `max_iter` without meeting the stopping rule it returns the
    last iterate as it is, and says nothing. Reporting non-convergence waits
    for the run trace (ROADMAP item 8): a warning would change the CSV
    `warnings` column of grids whose solves hit the cap.
    """
    Z = np.asarray(Z, dtype=float)
    n = Z.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    z = Z[iu, ju]
    # S maps edge weights to vertex degrees, S' vertex values v to v_i + v_j per
    # edge. A degree sums its edge weights one by one from 0.0, edges (j, i)
    # with j < i first, then (i, j) with j > i: the row order of S as a CSR
    # matrix, so every iterate is bit-identical to the sparse matrix product.
    ends = np.concatenate([ju, iu])

    def degrees(x: np.ndarray) -> np.ndarray:
        return np.bincount(ends, weights=np.concatenate((x, x)), minlength=n)

    gamma = PDS_STEP_SIZE / (2.0 * beta + np.sqrt(2.0 * (n - 1)))
    two_beta = 2.0 * beta
    two_z = 2.0 * z
    gamma_two_z = 2.0 * gamma * z
    four_alpha_gamma = 4.0 * LOG_DEGREE_ALPHA * gamma
    w = np.zeros_like(z)
    v = np.zeros(n)

    def objective(wv: np.ndarray, d: np.ndarray) -> float:
        if (d <= 0).any():
            return np.inf
        return float(two_z @ wv - LOG_DEGREE_ALPHA * np.log(d).sum() + beta * wv @ wv)

    d = degrees(w)
    history = [objective(w, d)]
    for it in range(max_iter):
        # S'v = (v_i + v_j) is formed before it joins 2 beta w, as in S' @ v
        Y = w - gamma * (two_beta * w + (v[iu] + v[ju]))
        y = v + gamma * d
        P = np.maximum(Y - gamma_two_z, 0.0)
        p = (y - np.sqrt(y * y + four_alpha_gamma)) / 2.0
        Q = P - gamma * (two_beta * P + (p[iu] + p[ju]))
        q = p + gamma * degrees(P)
        w = w - Y + Q
        v = v - y + q
        d = degrees(w)
        history.append(objective(w, d))
        if it >= patience:
            prev, cur = history[-1 - patience], history[-1]
            if math.isfinite(cur) and math.isfinite(prev):
                if (prev - cur) / max(abs(cur), 1.0) < rel_tol:
                    break
    W = np.zeros((n, n))
    wpos = np.maximum(w, 0.0)
    W[iu, ju] = wpos
    W[ju, iu] = wpos
    return W


def smooth_graph(Z, k: int, sigma: float = DEFAULT_SIGMA, solves: Optional[dict] = None) -> Graph:
    """Smoothness-based graph with mean degree calibrated to k, edges above sigma.

    Works on the unit-mean rescaling of Z with alpha = beta = 1 and bisects a
    multiplicative distance scale theta in 1e-4..1e4 until the pruned mean
    degree lands within 25% of the target. Raises CalibrationError at once
    when the graphs at both ends of that range show the target band out of
    reach, and after 40 bisection steps when no step lands in it.

    ``solves`` memoises the pruned graph learned at each (sigma, theta). Calls
    that share one dict must pass the same Z; each (sigma, theta) is then
    solved once across them, whatever their k. Every bisection starts from
    the same range, so the ends and the first steps recur from call to call.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    Z = np.asarray(Z, dtype=float)
    n = Z.shape[0]
    check_k_below_n("smooth", k, n)
    _check_finite(Z, "distance")
    off_mean = (Z.sum() - np.trace(Z)) / max(n * (n - 1), 1)
    Zu = Z / off_mean if off_mean > 0 else Z
    solves = {} if solves is None else solves

    def build(theta: float) -> Graph:
        if (sigma, theta) in solves:
            return solves[sigma, theta]
        # scaling identity: argmin with distances theta*Z equals (1/theta) times
        # the argmin with distances Z and beta = 1/theta^2; the reformulation
        # keeps the iteration well-conditioned on the sparse side (theta >= 1)
        if theta >= 1.0:
            W = learn_log_degree_weights(Zu, beta=1.0 / theta**2) / theta
        else:
            W = learn_log_degree_weights(theta * Zu)
        solves[sigma, theta] = from_dense(W, threshold=sigma)
        return solves[sigma, theta]

    lo_theta, hi_theta = 1e-4, 1e4
    target_lo, target_hi = 0.75 * k, 1.25 * k
    # the mean degree falls as theta grows, so the ends of the range bound
    # every degree the bisection can reach; their graphs are never returned
    densest = 2.0 * build(lo_theta).n_edges / n
    sparsest = 2.0 * build(hi_theta).n_edges / n
    if sparsest > target_hi or densest < target_lo:
        raise CalibrationError(
            f"mean degree {k} is out of reach: distance scales "
            f"{lo_theta:g}..{hi_theta:g} give mean degrees {densest:.3g}..{sparsest:.3g}"
        )
    lo_exp, hi_exp = np.log(lo_theta), np.log(hi_theta)
    lo_deg = hi_deg = None
    achieved = []
    for _ in range(40):
        mid = np.exp((lo_exp + hi_exp) / 2.0)
        g = build(mid)
        mean_deg = 2.0 * g.n_edges / n
        achieved.append(mean_deg)
        if target_lo <= mean_deg <= target_hi:
            return g
        if mean_deg > target_hi:
            lo_exp = np.log(mid)  # larger scale -> sparser
            lo_deg = mean_deg
        else:
            hi_exp = np.log(mid)
            hi_deg = mean_deg
    raise CalibrationError(
        f"could not reach mean degree {k} "
        f"(achieved range {min(achieved):.3g}..{max(achieved):.3g}, "
        f"bracket degrees {hi_deg}..{lo_deg})"
    )
