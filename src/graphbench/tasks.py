"""Downstream pipelines: spectral clustering, label propagation / SGC, denoising."""

from __future__ import annotations

import math
import sys
import warnings

import numpy as np
from scipy import sparse

from .core_graph import Graph, check_graph, check_integer, check_seed, connected_components
from .core_graph import eigendecompose, finite_array, integer_array, laplacian, matrix_exponential
from .metrics import snr_db

KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 300
DISCRETIZE_RESTARTS = 30
DISCRETIZE_MAX_ITER = 30
DISCRETIZE_TOL = 1e-7
DIFFUSION_HOPS = 2
ADAM_LEARNING_RATE = 0.001
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
SGC_EPOCHS = 100


def _laplacian_spectrum(g: Graph, lowest: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The ``lowest`` Laplacian pairs of g, or all, merged from its components' spectra.

    Eigenvalue 0 occurs once per component, its eigenspace spanned by the components'
    indicators (von Luxburg, Stat. Comput. 2007, Prop. 2): each component's first pair
    from eigendecompose becomes 0 and its normalised indicator, not the eigensolver's
    round-off, before one stable sort merges the components' pairs by value. So the
    zeros come first, in component order, and each eigenvector is zero off its component.
    """
    blocks = eigendecompose(laplacian(g), lowest)
    for idx, w, V in blocks:
        w[0], V[:, 0] = 0.0, 1.0 / np.sqrt(idx.size)
    vals = np.concatenate([np.empty(0)] + [w for _, w, _ in blocks])  # Graph(0) has no block
    order = np.argsort(vals, kind="stable")[:lowest]
    column = np.full(vals.size, -1)  # each pair's column in the result, -1 if not kept
    column[order] = np.arange(order.size)
    vecs = np.zeros((g.n, order.size))
    for idx, w, V in blocks:
        cols, column = column[: w.size], column[w.size :]
        vecs[np.ix_(idx, cols[cols >= 0])] = V[:, cols >= 0]
    return vals[order], vecs


def spectral_embed(g: Graph, C: int) -> np.ndarray:
    """Embed vertices on low-frequency Laplacian eigenvectors.

    Keeps eigenvector indices 1..C, the constant index-0 vector skipped. On a
    disconnected graph the zero eigenvalue is degenerate and no eigenvector is
    the privileged constant; skipping one would trade an indicator dimension for
    a high-frequency one, so the basis 0..C-1 is used, its null space the
    component indicators of _laplacian_spectrum. Each column is sign-fixed so
    its largest-magnitude entry is positive.
    """
    check_graph(g)
    check_integer("C", C)
    if not 1 <= C < g.n:
        raise ValueError("need 1 <= C and C + 1 <= n")
    # index C + 1 is computed only for the multiplicity check at the boundary
    vals, vecs = _laplacian_spectrum(g, lowest=C + 2)
    lo = 0 if vals[1] == 0 else 1  # a second exact zero: the graph is disconnected
    cols = vecs[:, lo : lo + C].copy()
    upper = lo + C
    if upper < vals.size and abs(vals[upper] - vals[upper - 1]) < 1e-10:
        warnings.warn("eigenvalue multiplicity across the embedding boundary: basis ambiguous")
    for c in range(cols.shape[1]):
        pivot = int(np.argmax(np.abs(cols[:, c])))
        if cols[pivot, c] < 0:
            cols[:, c] = -cols[:, c]
    return cols


def _kmeans_pp(points: np.ndarray, X, sq: np.ndarray, C: int, rng) -> np.ndarray:
    """k-means++ starts: C rows of ``points`` (CSR copy ``X``, squared row norms ``sq``)."""
    n = X.shape[0]
    rows, d2 = [rng.integers(n)], np.inf
    for _ in range(1, C):
        # clipped: the expansion can cancel below zero, and d2 weights the draw
        d2 = np.minimum(d2, np.maximum(sq - 2.0 * (X @ points[rows[-1]]) + sq[rows[-1]], 0.0))
        total = d2.sum()
        rows.append(rng.integers(n) if total <= 0 else rng.choice(n, p=d2 / total))
    return points[rows]


def _cluster_means(X, assign: np.ndarray, d2: np.ndarray, C: int) -> np.ndarray:
    """Means of the CSR matrix ``X``'s rows per cluster of ``assign``, refilling empty clusters.

    In index order, an empty cluster takes the point farthest from its nearest center (``d2``).
    """
    member = np.eye(C)[assign].T
    for c in range(C):
        if not member[c].any():
            far = int(np.argmax(np.min(d2, axis=1)))
            if assign[far] > c:  # a cluster visited earlier keeps the point in its mean
                member[assign[far], far] = 0.0
            member[c, far] = 1.0
            assign[far] = c
    return (member @ X) / member.sum(axis=1)[:, None]


def kmeans(points, C: int, seed) -> np.ndarray:
    """Lloyd iterations from k-means++ starts, best of KMEANS_RESTARTS by WCSS.

    Returns the cluster index in 0..C-1 of each point; works on a CSR copy of ``points``.
    """
    points = finite_array("points", points)
    X = sparse.csr_matrix(points)
    n = X.shape[0]
    check_integer("C", C)
    if C < 1:
        raise ValueError("need at least 1 cluster")
    if n < C:
        raise ValueError("need at least C points")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    sq = np.einsum("ij,ij->i", points, points)
    best_assign, best_wcss = None, np.inf
    for _ in range(KMEANS_RESTARTS):
        centers = _kmeans_pp(points, X, sq, C, rng)
        assign = np.full(n, -1)
        for _ in range(KMEANS_MAX_ITER):
            d2 = sq[:, None] - 2.0 * (X @ centers.T) + np.sum(centers**2, axis=1)[None, :]
            new_assign = np.argmin(d2, axis=1)
            centers = _cluster_means(X, new_assign, d2, C)
            if np.array_equal(new_assign, assign):
                break
            assign = new_assign
        wcss = float(np.sum(d2[np.arange(n), assign]))
        if wcss < best_wcss:
            best_wcss, best_assign = wcss, assign.copy()
    return best_assign


def discretize(embedding, seed=0) -> np.ndarray:
    """Round a spectral embedding to a cluster index per row by alternating rotation / argmax.

    Rows are normalized to unit length first (zero rows left untouched and
    flagged); the rotation is updated from the SVD of embedding' @ indicator.
    Restarted from several seeded random rotations; the run with the highest
    alignment objective wins.
    """
    X = finite_array("embedding", embedding)
    n, C = X.shape
    if n < 1 or C < 2:
        raise ValueError(f"discretization needs n >= 1 rows and C >= 2 columns, got {X.shape}")
    check_seed(seed)
    norms = np.linalg.norm(X, axis=1)
    zero_rows = norms == 0
    if zero_rows.any():
        warnings.warn(f"{int(zero_rows.sum())} zero rows left unnormalized in discretization")
    Xn = X.copy()
    Xn[~zero_rows] /= norms[~zero_rows, None]

    rng = np.random.default_rng(seed)
    best_assign, best_obj = np.zeros(n, dtype=int), -np.inf
    for _ in range(DISCRETIZE_RESTARTS):
        R = np.linalg.qr(rng.standard_normal((C, C)))[0]
        last_obj = -np.inf
        assign = np.zeros(n, dtype=int)
        for _ in range(DISCRETIZE_MAX_ITER):
            assign = np.argmax(Xn @ R, axis=1)
            M = np.zeros((n, C))
            M[np.arange(n), assign] = 1.0
            try:
                U, svals, Vt = np.linalg.svd(Xn.T @ M)
            except np.linalg.LinAlgError:
                break
            obj = float(svals.sum())
            if np.sum(svals > 1e-12) < C:
                break  # rank-deficient: keep previous rotation
            if abs(obj - last_obj) < DISCRETIZE_TOL:
                last_obj = obj
                break
            last_obj = obj
            R = U @ Vt
        if last_obj > best_obj:
            best_obj, best_assign = last_obj, assign
    return best_assign


def spectral_cluster(g: Graph, C: int, seed=0) -> np.ndarray:
    """Spectral embedding (see spectral_embed) followed by rotation-based discretization.

    Returns the cluster index in 0..C-1 of each vertex.
    """
    check_graph(g)
    check_integer("C", C)
    check_seed(seed)
    if C == 1:
        return np.zeros(g.n, dtype=int)
    return discretize(spectral_embed(g, C), seed=seed)


def _head_input(n: int, labels, masks) -> tuple[np.ndarray, np.ndarray, int]:
    """``labels`` (a class >= 0 per vertex), ``masks`` ((S, n) bools, none all False), C."""
    labels, masks = integer_array("labels", labels), np.asarray(masks)
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
    if labels.min(initial=0) < 0:
        raise ValueError(f"labels must be >= 0, got {labels.min()}")
    if masks.dtype != bool or masks.ndim != 2 or masks.shape[1] != n:
        raise ValueError(f"masks must be bool of shape (S, {n}), got {masks.dtype} {masks.shape}")
    blind = np.flatnonzero(~masks.any(axis=1))
    if blind.size:
        raise ValueError(f"masks must each observe a vertex; mask {blind[0]} observes none")
    return labels, masks, int(labels.max()) + 1


def propagate_labels(g: Graph, labels, masks) -> list[np.ndarray]:
    """Label propagation on ``g`` through the diffusion kernel exp(W); a class vector per mask.

    ``labels`` holds a class in 0..C-1 per vertex, and each mask of ``masks``
    marks the vertices whose label is known. Per mask, the observed one-hot
    labels diffuse once through exp(W) (see matrix_exponential, built once
    per call) and each vertex takes its argmax. Observed vertices keep their
    label. An unobserved vertex whose connected component holds no observed
    vertex gets the majority observed class (lowest index on ties). Bad labels
    or masks raise ValueError (see _head_input).
    """
    check_graph(g)
    labels, masks, C = _head_input(g.n, labels, masks)
    E = matrix_exponential(g.to_sparse())
    components = connected_components(g)
    preds = []
    for observed in masks:
        obs = np.flatnonzero(observed)
        # the one-hot labels as C x n rows; E is symmetric, so Y @ E is (E @ Y.T).T,
        # and scipy adds E's observed rows in vertex order, without the BLAS
        Y = sparse.csr_matrix((np.ones(obs.size), (labels[obs], obs)), shape=(C, g.n))
        scores = Y @ E
        pred = labels.copy()
        pred[~observed] = np.argmax(scores[:, ~observed], axis=0)
        dead = ~observed & ~np.isin(components, components[obs])
        if dead.any():
            pred[dead] = int(np.argmax(np.bincount(labels[obs], minlength=C)))
            warnings.warn(f"{int(dead.sum())} unlabeled vertices disconnected from all labels")
        preds.append(pred)
    return preds


def train_logistic_regression(
    X: np.ndarray, labels: np.ndarray, C: int, init_weights
) -> tuple[np.ndarray, np.ndarray]:
    """SGC_EPOCHS of full-batch softmax regression with Adam; returns (weights, bias).

    Training starts from the (F, C) weights ``init_weights`` and a zero bias.
    The weights and bias are the rows of one (F+1)-by-C parameter array,
    which each Adam step updates in place. A non-finite softmax, which would
    make the cross-entropy loss non-finite, raises FloatingPointError.
    """
    n, F = X.shape
    labels = np.asarray(labels)
    if n == 0:
        raise ValueError("need at least one labelled row")
    if labels.min() < 0 or labels.max() >= C:
        raise ValueError(f"labels must lie in 0..{C - 1}, got {labels.min()}..{labels.max()}")
    theta = np.zeros((F + 1, C))
    W, b = theta[:F], theta[F]
    init = np.asarray(init_weights, dtype=float)
    if init.shape != (F, C):
        raise ValueError(f"init_weights must have shape ({F}, {C}), got {init.shape}")
    W[...] = init
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    grad = np.empty_like(theta)
    step = np.empty_like(theta)
    onehot = np.zeros((n, C))
    onehot[np.arange(n), labels] = 1.0
    for t in range(1, SGC_EPOCHS + 1):
        G = X @ W + b  # the softmax, in place, then the loss gradient (softmax - onehot) / n
        G -= G.max(axis=1, keepdims=True)
        np.exp(G, out=G)
        G /= G.sum(axis=1, keepdims=True)
        G -= onehot
        G /= n
        np.matmul(X.T, G, out=grad[:F])
        G.sum(axis=0, out=grad[F])
        # a row of the softmax is finite or all NaN, and the column sums carry every NaN
        if not np.isfinite(grad[F]).all():
            raise FloatingPointError("non-finite training loss")
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
        m *= ADAM_BETA1
        np.multiply(1 - ADAM_BETA1, grad, out=step)
        m += step
        v *= ADAM_BETA2
        np.square(grad, out=step)
        step *= 1 - ADAM_BETA2
        v += step
        c1 = 1 - ADAM_BETA1**t
        c2 = 1 - ADAM_BETA2**t
        # theta -= lr (m / c1) / (sqrt(v / c2) + eps)
        np.divide(v, c2, out=grad)
        np.sqrt(grad, out=grad)
        grad += ADAM_EPS
        np.divide(m, c1, out=step)
        step *= ADAM_LEARNING_RATE
        step /= grad
        theta -= step
    return W, b


def diffuse_features(g: Graph, X: np.ndarray) -> np.ndarray:
    """DIFFUSION_HOPS sparse multiplications by the graph operator (never densified W^2)."""
    W = g.to_sparse()
    out = np.asarray(X, dtype=float)
    for _ in range(DIFFUSION_HOPS):
        out = W @ out
    return out


def sgc_predict(g: Graph | None, X, labels, masks, seed) -> list[np.ndarray]:
    """SGC on ``g`` (the logistic-regression baseline when None); a class vector per mask.

    ``X`` diffuses once (see diffuse_features). Per mask i, a logistic regression from weights
    drawn uniformly in +-1/sqrt(F) by ``[seed, i, 7]`` learns the observed ``labels`` (0..C-1),
    which those vertices keep.
    ``X`` must be a finite 2-D array with a row per vertex of ``g``, else ValueError.
    """
    if g is not None:
        check_graph(g)
    X = finite_array("X", X)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if g is not None and X.shape[0] != g.n:
        raise ValueError(f"X must have a row per vertex ({g.n}), got {X.shape[0]}")
    labels, masks, C = _head_input(len(X), labels, masks)
    check_seed(seed)
    Xhat = X if g is None else diffuse_features(g, X)
    preds = []
    for i, observed in enumerate(masks):
        s = 1.0 / math.sqrt(X.shape[1])
        W0 = np.random.default_rng([seed, i, 7]).uniform(-s, s, size=(X.shape[1], C))
        W, b = train_logistic_regression(Xhat[observed], labels[observed], C, W0)
        pred = labels.copy()
        pred[~observed] = np.argmax((Xhat @ W + b)[~observed], axis=1)
        preds.append(pred)
    return preds


def simoncelli_response(lambda_norm, tau) -> np.ndarray:
    """Low-pass response per normalised eigenvalue: 1 to tau/2, cosine-log roll-off to 0 at tau.

    At tau = 0 only lambda = 0 passes. ``lambda_norm`` is a 1-D array; the result has its shape.
    """
    if not 0 <= tau <= sys.float_info.max:  # NaN fails, and an int beyond float range
        raise ValueError(f"tau must be finite and >= 0, got {tau!r}")
    lam = np.asarray(lambda_norm, dtype=float)
    if lam.ndim != 1:
        raise ValueError(f"lambda_norm must be a 1-D array, got shape {lam.shape}")
    if np.isnan(lam).any():
        raise ValueError("lambda_norm must not be NaN")
    gains = (lam == 0 if tau == 0 else lam <= tau / 2.0).astype(float)
    band = (lam > tau / 2.0) & (lam <= tau)  # empty at tau = 0
    # math.log2 per entry: numpy's log2 can differ from it in the last bit
    gains[band] = [math.cos(math.pi / 2.0 * math.log2(2.0 * l / tau)) for l in lam[band].tolist()]
    return gains


def denoise(g: Graph, x_noisy, tau) -> np.ndarray:
    """Filter a graph signal through the low-pass response in the Laplacian basis.

    tau is a 1-D sequence of cutoffs; one filtered row returns per cutoff,
    all from a single eigendecomposition. A cutoff of 0 keeps only the null
    space: the mean of x over each connected component.
    """
    check_graph(g)
    x = finite_array("noisy signal", x_noisy)
    if x.shape != (g.n,):
        raise ValueError("signal length must equal vertex count")
    taus = np.asarray(tau, dtype=float)
    if taus.ndim != 1:
        raise ValueError(f"tau must be a 1-D sequence of cutoffs, got shape {taus.shape}")
    bad = ~(np.isfinite(taus) & (taus >= 0))
    if bad.any():
        raise ValueError(f"cutoffs must be finite and >= 0, got {taus[bad].tolist()}")
    vals, F = _laplacian_spectrum(g)
    lam = np.divide(vals, vals.max(initial=0.0), out=np.zeros(g.n), where=vals > 0)
    coeffs = F.T @ x
    out = np.empty((taus.size, g.n))
    for r, t in enumerate(taus.tolist()):
        # one matrix-vector product per cutoff: a batched product may round differently
        out[r] = F @ (simoncelli_response(lam, t) * coeffs)
    return out


def best_tau_denoise(g: Graph, x_noisy, x_clean) -> tuple[float, float]:
    """Sweep tau over 0..1 in 0.025 steps; return (tau, SNR) maximizing output SNR."""
    x_clean = finite_array("clean signal", x_clean)
    if not x_clean.any():
        raise ValueError("clean signal has zero power")
    taus = np.round(np.arange(0, 41) * 0.025, 6)
    best_tau, best_snr = None, -math.inf
    for tau, out in zip(taus.tolist(), denoise(g, x_noisy, taus)):
        snr = snr_db(x_clean, out)
        if snr > best_snr:  # strict: ties keep the smaller tau
            best_tau, best_snr = tau, snr
    return best_tau, best_snr
