"""Graph construction from observations: naive k-NN, NNK, smoothness-based."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

from .core_graph import Graph, from_arrays, from_dense
from .similarity import (
    cosine_similarity,
    covariance_similarity,
    pairwise_sq_euclidean,
    rbf_kernel,
)

SIMILARITY_KINDS = ("cosine", "covariance", "rbf")

KKT_TOL = 1e-8


class CalibrationError(RuntimeError):
    """Sparsity calibration could not bracket the requested mean degree."""


@dataclass
class NaiveConfig:
    similarity_kind: str
    k: Optional[int]  # None = dense graph, no neighbor thresholding
    gamma: Optional[float] = None

    def __post_init__(self):
        if self.similarity_kind not in SIMILARITY_KINDS:
            raise ValueError(f"unknown similarity {self.similarity_kind!r}")
        if self.k is not None and self.k < 1:
            raise ValueError("k must be positive")


@dataclass
class NnkConfig:
    kernel_kind: str
    k: int
    sigma: float = 1e-4
    gamma: Optional[float] = None

    def __post_init__(self):
        if self.kernel_kind not in SIMILARITY_KINDS:
            raise ValueError(f"unknown kernel similarity {self.kernel_kind!r}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


@dataclass
class SmoothConfig:
    k: int  # target mean degree
    sigma: float = 1e-4

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


def _knn_indices(S: np.ndarray, k: int) -> np.ndarray:
    """Each row's k most similar other vertices, ties broken by lower index."""
    # stable sort of the negated matrix: descending value, ascending index on ties
    M = -S
    np.fill_diagonal(M, np.inf)
    return np.argsort(M, axis=1, kind="stable")[:, :k].copy()


def _undirected(n: int, rows: np.ndarray, cols: np.ndarray, **unique_args):
    """Sorted distinct undirected edges i < j of directed pairs, and np.unique's index array."""
    keys, extra = np.unique(np.minimum(rows, cols) * n + np.maximum(rows, cols), **unique_args)
    return keys // n, keys % n, extra


def knn_select(S: np.ndarray, k: int) -> Graph:
    """Keep each vertex's k strongest similarities, symmetrize by union.

    Selected non-positive similarities are dropped (no edge); surviving edges
    carry the original similarity as weight.
    """
    S = np.asarray(S, dtype=float)
    n = S.shape[0]
    if k >= n:
        raise ValueError(f"k={k} must be smaller than n={n}")
    rows = np.repeat(np.arange(n), k)
    cols = _knn_indices(S, k).ravel()
    keep = S[rows, cols] > 0
    rows, cols = rows[keep], cols[keep]
    # an edge selected from both ends keeps the weight of its first selection
    i, j, first = _undirected(n, rows, cols, return_index=True)
    return from_arrays(n, i, j, S[rows[first], cols[first]])


def _similarity_matrix(X: np.ndarray, kind: str, gamma: Optional[float]) -> np.ndarray:
    if kind == "cosine":
        return cosine_similarity(X)
    if kind == "covariance":
        return covariance_similarity(X)
    Z = pairwise_sq_euclidean(X, axis="rows")
    if gamma is None:
        gamma = 1.0 / X.shape[1]
    return rbf_kernel(Z, gamma)


def naive_graph(X, cfg: NaiveConfig) -> Graph:
    """Similarity matrix followed by k-NN sparsification (or dense when k is None)."""
    X = np.asarray(X, dtype=float)
    S = _similarity_matrix(X, cfg.similarity_kind, cfg.gamma)
    k = cfg.k if cfg.k is not None else X.shape[0] - 1
    return knn_select(S, k)


def nnls_solve(K_SS: np.ndarray, k_Si: np.ndarray, max_iter: Optional[int] = None):
    """Minimize 0.5 t'Kt - t'b over t >= 0 by an active-set (Lawson-Hanson) method.

    Returns (theta, converged). On hitting the iteration cap the best iterate
    so far is returned with converged=False.
    """
    K = np.asarray(K_SS, dtype=float)
    b = np.asarray(k_Si, dtype=float)
    m = b.shape[0]
    if max_iter is None:
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


def _nnk_kernel(X: np.ndarray, kind: str, gamma: Optional[float]) -> np.ndarray:
    """Similarity used inside NNK: non-negative, unit diagonal."""
    if kind == "rbf":
        return _similarity_matrix(X, "rbf", gamma)
    S = _similarity_matrix(X, kind, gamma)
    np.clip(S, 0.0, None, out=S)
    if kind == "covariance":
        var = np.diag(S).copy()
        inv = np.zeros_like(var)
        ok = var > 0
        inv[ok] = 1.0 / np.sqrt(var[ok])
        if not ok.all():
            warnings.warn(
                f"{int((~ok).sum())} zero-variance observations become isolated "
                "under the covariance kernel"
            )
        S = S * inv[:, None] * inv[None, :]
        S[np.diag_indices(S.shape[0])] = np.where(ok, 1.0, 0.0)
    return S


def nnk_graph(X, cfg: NnkConfig) -> Graph:
    """Non-negative kernel regression graph within each vertex's k-neighborhood."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if cfg.k >= n:
        raise ValueError(f"k={cfg.k} must be smaller than n={n}")
    S = _nnk_kernel(X, cfg.kernel_kind, cfg.gamma)
    nbrs = _knn_indices(S, cfg.k)
    theta = np.zeros(nbrs.shape)  # directed weight of i -> nbrs[i, m]
    fallbacks = 0
    for i in range(n):
        pos = np.flatnonzero(S[i, nbrs[i]] > 0)
        if pos.size == 0:
            continue
        sel = nbrs[i, pos]
        k_Si = S[sel, i]
        t, ok = nnls_solve(S[np.ix_(sel, sel)], k_Si)
        theta[i, pos] = t if ok else k_Si  # fall back to plain k-NN weights for this vertex
        fallbacks += not ok
    if fallbacks:
        warnings.warn(f"NNLS did not converge for {fallbacks} vertices; they keep k-NN weights")
    rows = np.repeat(np.arange(n), cfg.k)
    cols = nbrs.ravel()
    w = theta.ravel()
    keep = w > cfg.sigma
    rows, cols, w = rows[keep], cols[keep], w[keep]
    # each undirected edge sums the halves of its directed weights, in directed order
    i, j, slot = _undirected(n, rows, cols, return_inverse=True)
    merged = np.zeros(i.size)
    np.add.at(merged, slot, w / 2.0)
    keep = merged > cfg.sigma
    g = from_arrays(n, i[keep], j[keep], merged[keep])
    if np.any(g.neighbor_counts() == 0):
        warnings.warn("NNK produced isolated vertices")
    return g


def _degree_sum_operator(n: int) -> sparse.csr_matrix:
    """Sparse operator mapping upper-triangular edge weights to vertex degrees."""
    iu, ju = np.triu_indices(n, k=1)
    m = iu.size
    rows = np.concatenate([iu, ju])
    cols = np.concatenate([np.arange(m), np.arange(m)])
    return sparse.csr_matrix((np.ones(2 * m), (rows, cols)), shape=(n, m))


def learn_log_degree_weights(
    Z: np.ndarray,
    alpha: float = 1.0,
    beta: float = 1.0,
    max_iter: int = 10000,
    rel_tol: float = 1e-6,
    patience: int = 50,
    step_size: float = 0.5,
) -> np.ndarray:
    """Learn edge weights from squared distances under the log-degree smoothness model.

    Minimizes sum_ij W_ij Z_ij - alpha * sum_i log(sum_j W_ij)
    + (beta/2) * sum_ij W_ij^2 over symmetric non-negative W with zero
    diagonal, using forward-backward-forward primal-dual iterations. Stops
    when the relative objective decrease over `patience` iterations falls
    below `rel_tol`. Returns the dense weight matrix.
    """
    Z = np.asarray(Z, dtype=float)
    n = Z.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    z = Z[iu, ju]
    S = _degree_sum_operator(n)
    St = S.T.tocsr()

    gamma = step_size / (2.0 * beta + np.sqrt(2.0 * (n - 1)))
    w = np.zeros_like(z)
    v = np.zeros(n)

    def objective(wv: np.ndarray) -> float:
        d = S @ wv
        if np.any(d <= 0):
            return np.inf
        return float(2.0 * z @ wv - alpha * np.log(d).sum() + beta * wv @ wv)

    history = [objective(w)]
    for it in range(max_iter):
        Y = w - gamma * (2.0 * beta * w + St @ v)
        y = v + gamma * (S @ w)
        P = np.maximum(Y - 2.0 * gamma * z, 0.0)
        p = (y - np.sqrt(y * y + 4.0 * alpha * gamma)) / 2.0
        Q = P - gamma * (2.0 * beta * P + St @ p)
        q = p + gamma * (S @ P)
        w = w - Y + Q
        v = v - y + q
        history.append(objective(w))
        if it >= patience:
            prev, cur = history[-1 - patience], history[-1]
            if np.isfinite(cur) and np.isfinite(prev):
                if (prev - cur) / max(abs(cur), 1.0) < rel_tol:
                    break
    W = np.zeros((n, n))
    wpos = np.maximum(w, 0.0)
    W[iu, ju] = wpos
    W[ju, iu] = wpos
    return W


def smooth_graph(Z, cfg: SmoothConfig) -> Graph:
    """Smoothness-based graph with mean degree calibrated to cfg.k.

    Works on the unit-mean rescaling of Z with alpha = beta = 1 and bisects a
    multiplicative distance scale until the pruned mean degree lands within
    25% of the target.
    """
    Z = np.asarray(Z, dtype=float)
    n = Z.shape[0]
    if not 1 <= cfg.k < n:
        raise ValueError(f"target mean degree k={cfg.k} must satisfy 1 <= k < n")
    off_mean = (Z.sum() - np.trace(Z)) / max(n * (n - 1), 1)
    Zu = Z / off_mean if off_mean > 0 else Z

    def build(theta: float) -> Graph:
        # scaling identity: argmin with distances theta*Z equals (1/theta) times
        # the argmin with distances Z and beta = 1/theta^2; the reformulation
        # keeps the iteration well-conditioned on the sparse side (theta >= 1)
        if theta >= 1.0:
            W = learn_log_degree_weights(Zu, beta=1.0 / theta**2) / theta
        else:
            W = learn_log_degree_weights(theta * Zu)
        return from_dense(W, threshold=cfg.sigma)

    lo_exp, hi_exp = np.log(1e-4), np.log(1e4)
    lo_deg = hi_deg = None
    target_lo, target_hi = 0.75 * cfg.k, 1.25 * cfg.k
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
        f"could not reach mean degree {cfg.k} "
        f"(achieved range {min(achieved):.3g}..{max(achieved):.3g}, "
        f"bracket degrees {hi_deg}..{lo_deg})"
    )
