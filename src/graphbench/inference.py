"""Graph construction from observations: naive k-NN, NNK, smoothness-based."""

from __future__ import annotations

import math
import warnings
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from .core_graph import Graph, check_integer, check_positive_finite, finite_array, from_arrays
from .core_graph import from_dense
from .similarity import cosine_similarity, covariance_similarity, pairwise_sq_euclidean, rbf_kernel

SIMILARITY_KINDS = ("cosine", "covariance", "rbf")

# nnk and smooth drop edge weights at or below sigma
DEFAULT_SIGMA = 1e-4

KKT_TOL = 1e-8

LOG_DEGREE_ALPHA = 1.0
PDS_STEP_SIZE = 0.5

# Rows per block in _knn_indices: bounds its temporaries to a few n-wide arrays.
KNN_BLOCK_ROWS = 256

# Bytes the kernel blocks of one stacked nnls_solve call in nnk_graph may take in all.
NNK_CHUNK_BYTES = 2**20


class CalibrationError(RuntimeError):
    """Sparsity calibration could not bracket the requested mean degree."""


def _knn_indices(S: np.ndarray, k: int) -> np.ndarray:
    """Each row's k most similar other vertices, most similar first, ties broken by lower index.

    Equals the first k columns of a stable argsort of -S with the diagonal set
    to +inf. Works in blocks of rows, selects by partition and sorts only the
    k picks. S must be finite and 1 <= k < n; knn_select and nnk_graph check both first.
    """
    n = S.shape[0]
    out = np.empty((n, k), dtype=np.intp)
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


def _undirected(n: int, rows: np.ndarray, cols: np.ndarray, **unique_args):
    """Sorted distinct undirected edges i < j of directed pairs, and np.unique's index array."""
    keys, extra = np.unique(np.minimum(rows, cols) * n + np.maximum(rows, cols), **unique_args)
    return keys // n, keys % n, extra


def check_k(method: str, k, n: int) -> None:
    """Raise a ValueError naming k unless it is a k of ``method``'s builder on n vertices.

    None asks knn_select (method "naive") for the dense graph and is no other
    method's k. The k-NN methods take an integer k, smooth a target mean
    degree, any real but a bool; and 1 <= k < n for all. A caller can check a
    point before it computes the n x n matrix the builder would reject it with.
    """
    if k is None:
        if method != "naive":
            raise ValueError(f"method {method!r} needs k")
        return
    if method == "smooth":
        check_positive_finite("k", k)
    else:
        check_integer("k", k)
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n={n}, got {k!r}")


def _builder_input(M, kind: str, method: Optional[str], k=None, sigma=None):
    """M as a float array, and n, after the checks every builder makes.

    In order: the edge-weight floor sigma of nnk and smooth a positive finite
    number; the ``kind`` matrix M square, 2-D and not empty; check_k, unless
    method is None (the smoothness solver, which reads neither); M finite.
    """
    if method in ("nnk", "smooth"):
        check_positive_finite("sigma", sigma)
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{kind} matrix must be square and 2-D, got shape {M.shape}")
    if M.shape[0] == 0:
        raise ValueError(f"{kind} matrix is empty")
    if method is not None:
        check_k(method, k, M.shape[0])
    return finite_array(f"{kind} matrix", M), M.shape[0]


def knn_select(S: np.ndarray, k: Optional[int]) -> Graph:
    """Keep each vertex's k strongest similarities, symmetrize by union.

    k = None keeps every other vertex: the dense graph. Selected non-positive
    similarities are dropped (no edge); surviving edges carry the original
    similarity as weight.
    """
    S, n = _builder_input(S, "similarity", "naive", k)
    k = n - 1 if k is None else k
    rows = np.repeat(np.arange(n), k)
    cols = _knn_indices(S, k).ravel()
    keep = S[rows, cols] > 0
    rows, cols = rows[keep], cols[keep]
    # an edge selected from both ends keeps the weight of its first selection
    i, j, first = _undirected(n, rows, cols, return_index=True)
    return from_arrays(n, i, j, S[rows[first], cols[first]])


def similarity_matrix(X, kind: str, gamma: Optional[float] = None) -> np.ndarray:
    """The matrix a graph builder starts from, between the rows of X.

    ``kind`` is a similarity of SIMILARITY_KINDS, which knn_select and
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


def _pinv_solve(K: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each problem's minimum-norm least-squares solution K+ b, for K (G, p, p) and b (G, p).

    K+ comes from one stacked eigh and drops the eigenvalues at or below
    eps * p * max|lambda| in magnitude, as np.linalg.lstsq(rcond=None) drops
    singular values. Each row depends on its own problem alone.
    """
    lam, V = np.linalg.eigh(K)
    mag = np.abs(lam)
    keep = mag > np.finfo(float).eps * K.shape[-1] * mag.max(axis=1, keepdims=True)
    inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=keep)
    coeffs = np.matmul(b[:, None, :], V)[:, 0] * inv
    return np.matmul(V, coeffs[:, :, None])[:, :, 0]


def nnls_solve(K_SS: np.ndarray, k_Si: np.ndarray):
    """Minimize 0.5 t'Kt - t'b over t >= 0 by an active-set (Lawson-Hanson) method.

    Takes one problem, K (m, m) and b (m,), or a stack of them, K (R, m, m)
    and b (R, m). Returns (theta, converged): theta shaped like b, and
    converged True when every problem converged. A problem that hits the
    iteration cap, max(10 m, 30), keeps its best iterate so far.

    The first step solves the whole block from theta = 0. Where every weight
    is positive, KKT holds with no inactive variable and the problem ends;
    otherwise the step backs off to theta = 0 and variables enter one by one.

    The problems of a stack advance in lockstep, one solve over the passive
    set each per step. Problems whose passive sets have the same size share
    one stacked solve (see _pinv_solve), never padded, so each problem's
    theta is bit-identical whatever else is in the stack.
    """
    K, b = finite_array("K", K_SS), finite_array("b", k_Si)
    if b.ndim not in (1, 2) or K.shape != b.shape + b.shape[-1:]:
        raise ValueError(
            f"K of shape {K.shape} does not match b of shape {b.shape}: "
            "need (m, m) with (m,), or (R, m, m) with (R, m)"
        )
    single = b.ndim == 1
    if single:
        K, b = K[None], b[None]
    R, m = b.shape
    theta = np.zeros((R, m))
    passive = np.ones((R, m), dtype=bool)
    done = np.full(R, m == 0)  # with no variable, theta = 0 meets KKT
    converged = done.copy()
    outer = np.zeros(R, dtype=int)  # outer iterations begun
    inner = np.zeros(R, dtype=int)  # solves in the current outer iteration
    at_outer = np.zeros(R, dtype=bool)  # the next step begins an outer iteration
    max_iter = max(10 * m, 30)
    while not done.all():
        # an outer iteration stops at the cap or at KKT, else frees the most negative gradient
        rows = np.flatnonzero(~done & at_outer)
        done[rows[outer[rows] == max_iter]] = True
        rows = rows[outer[rows] < max_iter]
        grad = np.matmul(K[rows], theta[rows, :, None])[:, :, 0] - b[rows]
        free = np.where(~passive[rows] & (grad < -KKT_TOL), grad, np.inf)
        j = np.argmin(free, axis=1)
        kkt = np.isinf(free[np.arange(rows.size), j])
        done[rows[kkt]] = converged[rows[kkt]] = True
        rows, j = rows[~kkt], j[~kkt]
        passive[rows, j] = True
        outer[rows] += 1
        inner[rows] = 0
        active = np.flatnonzero(~done)
        sizes = np.count_nonzero(passive[active], axis=1)
        for p in np.unique(sizes):
            rows = active[sizes == p]
            r = rows[:, None]
            idx = np.nonzero(passive[rows])[1].reshape(rows.size, p)
            K_P = K[r[:, :, None], idx[:, :, None], idx[:, None, :]]
            b_P, cur = b[r, idx], theta[r, idx]
            sol = _pinv_solve(K_P, b_P)
            # a singular K_P can send the weight just freed back to <= 0, to be dropped and
            # freed again until the cap; such a problem takes the solution nearest theta
            stuck = np.flatnonzero((outer[rows] > 0) & np.any((sol <= 0) & (cur == 0), axis=1))
            if stuck.size:
                g = np.matmul(K_P[stuck], cur[stuck, :, None])[:, :, 0] - b_P[stuck]
                sol[stuck] = cur[stuck] - _pinv_solve(K_P[stuck], g)
            feasible = np.all(sol > 0, axis=1)
            # an infeasible solve moves theta towards sol until a weight reaches 0;
            # a weight already at 0 that sol sends to <= 0 allows no step at all
            neg = sol <= 0
            ratios = np.divide(cur, cur - sol, out=np.where(neg, 0.0, 1.0), where=neg & (cur > 0))
            new = cur + np.min(ratios, axis=1, keepdims=True) * (sol - cur)
            new[neg & (new <= 1e-14)] = 0.0
            theta[rows] = 0.0
            theta[r, idx] = np.where(feasible[:, None], sol, np.maximum(new, 0.0))
            passive[rows] = theta[rows] > 0
            inner[rows] += 1
            at_outer[rows] = feasible | (inner[rows] == max_iter) | ~passive[rows].any(axis=1)
    return (theta[0] if single else theta), bool(converged.all())


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
    S, n = _builder_input(S, "similarity", "nnk", k, sigma)
    S = _nnk_kernel(S, similarity)
    nbrs = _knn_indices(S, k)
    # a vertex regresses on its candidates, the neighbors of positive kernel
    candidate = np.take_along_axis(S, nbrs, axis=1) > 0
    counts = np.count_nonzero(candidate, axis=1)
    theta = np.zeros(nbrs.shape)  # directed weight of i -> nbrs[i, c]
    fallbacks = 0
    for m in np.unique(counts[counts > 0]):
        rows = np.flatnonzero(counts == m)
        pos = np.nonzero(candidate[rows])[1].reshape(rows.size, m)
        chunk = max(1, NNK_CHUNK_BYTES // (8 * m * m))
        for start in range(0, rows.size, chunk):
            r, c = rows[start : start + chunk, None], pos[start : start + chunk]
            sel = nbrs[r, c]
            K_SS, k_Si = S[sel[:, :, None], sel[:, None, :]], S[sel, r]
            t, ok = nnls_solve(K_SS, k_Si)
            if not ok:
                # answers do not depend on the stack: solve alone to find who falls back
                for q in range(t.shape[0]):
                    tq, ok_q = nnls_solve(K_SS[q], k_Si[q])
                    t[q] = tq if ok_q else k_Si[q]  # plain k-NN weights for this vertex
                    fallbacks += not ok_q
            theta[r, c] = t
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
    Returns the dense weight matrix. Z must be square, finite and
    non-negative, and beta positive and finite.

    Each iteration makes two products with one sparse operator K on the
    stacked primal-dual vector x = [w; v] of m edge weights and n vertex
    duals. The row of edge e = (i, j) stores v_i, v_j, then 2 beta w_e, and
    the row of vertex i stores -1 on each of its edges in increasing order.
    scipy's CSR kernel sums a row one term at a time from 0.0, so (Kx)_e
    rounds as (v_i + v_j) + 2 beta w_e and (Kx)_i is minus the degree summed
    edge by edge: the roundings of the gradient step written with the
    edge-to-vertex matrix S, 2 beta w + S'v and S w. A kernel compiled to
    fuse multiply and add would round 2 beta w_e + (v_i + v_j) once and move
    the iterates; the byte-for-byte tests against an S-based solver would
    catch that.

    On reaching `max_iter` without meeting the stopping rule it returns the
    last iterate as it is, and says nothing. Reporting non-convergence waits
    for the run trace (ROADMAP item 8): a warning would change the CSV
    `warnings` column of grids whose solves hit the cap.
    """
    check_positive_finite("beta", beta)
    Z, n = _builder_input(Z, "distance", None)
    if np.any(Z < 0):
        raise ValueError("distance matrix must be non-negative")
    iu, ju = np.triu_indices(n, k=1)
    z = Z[iu, ju]
    m = iu.size
    edge = np.arange(m)
    # vertex i's edges in increasing order: (j, i) with j < i, then (i, j) with j > i
    incident = np.argsort(np.concatenate([ju, iu]), kind="stable") % m
    K = sparse.csr_array(
        (
            np.concatenate([np.tile([1.0, 1.0, 2.0 * beta], m), np.full(2 * m, -1.0)]),
            np.concatenate([np.stack([m + iu, m + ju, edge], axis=1).ravel(), incident]),
            np.concatenate([np.arange(0, 3 * m, 3), 3 * m + (n - 1) * np.arange(n + 1)]),
        ),
        shape=(m + n, m + n),
    )

    def product(a: np.ndarray) -> np.ndarray:
        # K @ a runs this kernel after a dispatch that, at n = 40, costs over half
        # as much as the product itself; the kernel adds K a to out
        out = np.zeros(m + n)
        _sparsetools.csr_matvec(m + n, m + n, K.indptr, K.indices, K.data, a, out)
        return out

    gamma = PDS_STEP_SIZE / (2.0 * beta + np.sqrt(2.0 * (n - 1)))
    two_z = 2.0 * z
    gamma_two_z = 2.0 * gamma * z
    four_alpha_gamma = 4.0 * LOG_DEGREE_ALPHA * gamma
    x = np.zeros(m + n)
    Kx = product(x)
    pp = np.empty(m + n)

    def objective(w: np.ndarray, minus_d: np.ndarray) -> float:
        return float(two_z @ w - LOG_DEGREE_ALPHA * np.log(-minus_d).sum() + beta * w @ w)

    # the log of a degree at or below 0 is -inf or nan, so the objective is not
    # finite there and the stopping rule passes over it
    with np.errstate(divide="ignore", invalid="ignore"):
        history = [objective(x[:m], Kx[m:])]
        for it in range(max_iter):
            T = x - gamma * Kx
            np.maximum(T[:m] - gamma_two_z, 0.0, out=pp[:m])
            y = T[m:]
            pp[m:] = (y - np.sqrt(y * y + four_alpha_gamma)) / 2.0
            x = (x - T) + (pp - gamma * product(pp))
            Kx = product(x)
            history.append(objective(x[:m], Kx[m:]))
            if it >= patience:
                prev, cur = history[-1 - patience], history[-1]
                if math.isfinite(cur) and math.isfinite(prev):
                    if (prev - cur) / max(abs(cur), 1.0) < rel_tol:
                        break
    W = np.zeros((n, n))
    wpos = np.maximum(x[:m], 0.0)
    W[iu, ju] = wpos
    W[ju, iu] = wpos
    return W


def smooth_graph(Z, k: float, sigma: float = DEFAULT_SIGMA, solves: Optional[dict] = None) -> Graph:
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
    Z, n = _builder_input(Z, "distance", "smooth", k, sigma)
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
