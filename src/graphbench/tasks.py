"""Downstream pipelines: spectral clustering, label propagation / SGC, denoising."""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import sparse

from .core_graph import Graph, connected_components, eigendecompose, laplacian, matrix_exponential
from .metrics import snr_db

# Eigenvalues this close to zero (absolute, or relative to lambda_max in
# denoise) count as the Laplacian's null space: eigh returns them as +-1e-16,
# and Lanczos as ~1e-13.
NULL_SPACE_TOL = 1e-8

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

# Masks per product in propagate_labels and sgc_predict: the n-row operand is
# read once per block of masks, not once per mask. A block's C columns per mask
# equal that mask's own product only while the BLAS keeps each output's
# summation order; on OpenBLAS 0.3.31 that held for blocks of up to 40 masks at
# the benchmark and Cora shapes, and not for 100 (see README).
HEAD_BLOCK_MASKS = 10


def spectral_embed(g: Graph, C: int) -> np.ndarray:
    """Embed vertices on low-frequency Laplacian eigenvectors.

    Keeps eigenvector indices 1..C (the near-constant index-0 vector
    skipped). On a disconnected graph the zero eigenvalue is degenerate and
    no single eigenvector is the privileged constant; skipping one would
    trade an indicator dimension for a high-frequency one and break exact
    component recovery, so the full low-frequency basis 0..C-1 is used
    instead. Each column is sign-fixed so its largest-magnitude entry is
    positive.
    """
    if not 1 <= C < g.n:
        raise ValueError("need 1 <= C and C + 1 <= n")
    # index C + 1 is computed only for the multiplicity check at the boundary
    vals, vecs = eigendecompose(laplacian(g), lowest=C + 2)
    lo = 0 if np.sum(np.abs(vals) < NULL_SPACE_TOL) >= 2 else 1
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
    points = np.asarray(points, dtype=float)
    X = sparse.csr_matrix(points)
    n = X.shape[0]
    if C < 1:
        raise ValueError("need at least 1 cluster")
    if n < C:
        raise ValueError("need at least C points")
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
    X = np.asarray(embedding, dtype=float)
    n, C = X.shape
    if n < 1 or C < 2:
        raise ValueError(f"discretization needs n >= 1 rows and C >= 2 columns, got {X.shape}")
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
    if C == 1:
        return np.zeros(g.n, dtype=int)
    return discretize(spectral_embed(g, C), seed=seed)


def _head_input(n: int, labels, masks) -> tuple[np.ndarray, np.ndarray]:
    """``labels`` (a class >= 0 per vertex) and ``masks`` ((S, n) bools, none all False)."""
    labels, masks = np.asarray(labels, dtype=int), np.asarray(masks)
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
    if labels.min(initial=0) < 0:
        raise ValueError(f"labels must be >= 0, got {labels.min()}")
    if masks.dtype != bool or masks.ndim != 2 or masks.shape[1] != n:
        raise ValueError(f"masks must be bool of shape (S, {n}), got {masks.dtype} {masks.shape}")
    blind = np.flatnonzero(~masks.any(axis=1))
    if blind.size:
        raise ValueError(f"masks must each observe a vertex; mask {blind[0]} observes none")
    return labels, masks


def propagate_labels(g: Graph, labels, masks) -> list[np.ndarray]:
    """Label propagation on ``g`` through the diffusion kernel exp(W); a class vector per mask.

    ``labels`` holds a class in 0..C-1 per vertex, and each mask of ``masks``
    marks the vertices whose label is known. Per mask, the observed one-hot
    labels diffuse once through exp(W) (see matrix_exponential, built once
    per call) and each vertex takes its argmax. Observed vertices keep their
    label. An unobserved vertex whose connected component holds no observed
    vertex gets the majority observed class (lowest index on ties). Bad labels
    or masks raise ValueError (see _head_input).

    Each block of HEAD_BLOCK_MASKS masks makes one product (see _stacked_products).
    """
    labels, masks = _head_input(g.n, labels, masks)
    E = matrix_exponential(g.to_sparse().toarray())
    components = connected_components(g)
    C = int(labels.max()) + 1
    preds = []
    for start in range(0, len(masks), HEAD_BLOCK_MASKS):
        block = masks[start : start + HEAD_BLOCK_MASKS]
        onehots = []
        for observed in block:
            Y0 = np.zeros((labels.size, C))
            obs = np.flatnonzero(observed)
            Y0[obs, labels[obs]] = 1.0
            onehots.append(Y0)
        for observed, Yhat in zip(block, _stacked_products(E, onehots)):
            obs = np.flatnonzero(observed)
            pred = labels.copy()
            pred[~observed] = np.argmax(Yhat[~observed], axis=1)
            dead = ~observed & ~np.isin(components, components[obs])
            if dead.any():
                pred[dead] = int(np.argmax(np.bincount(labels[obs], minlength=C)))
                warnings.warn(f"{int(dead.sum())} unlabeled vertices disconnected from all labels")
            preds.append(pred)
    return preds


def _stacked_products(A: np.ndarray, parts: list[np.ndarray]) -> list[np.ndarray]:
    """[A @ P for P in parts] from one product: A times the parts side by side.

    Each result is a column block of that product. It equals A @ P bit for bit
    only while the BLAS keeps each output's summation order; see HEAD_BLOCK_MASKS.
    """
    return np.split(A @ np.hstack(parts), len(parts), axis=1)


def train_logistic_regression(
    X: np.ndarray, labels: np.ndarray, C: int, seed, init_weights=None
) -> tuple[np.ndarray, np.ndarray]:
    """SGC_EPOCHS of full-batch softmax regression with Adam; returns (weights, bias).

    ``seed`` draws the initial weights unless ``init_weights`` gives them.
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
    if init_weights is not None:
        init = np.asarray(init_weights, dtype=float)
        if init.shape != (F, C):
            raise ValueError(f"init_weights must have shape ({F}, {C}), got {init.shape}")
        W[...] = init
    else:
        rng = np.random.default_rng(seed)
        s = 1.0 / math.sqrt(F)
        W[...] = rng.uniform(-s, s, size=(F, C))
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
    drawn by ``[seed, i, 7]`` learns the observed ``labels`` (0..C-1), which those vertices keep.
    Each block of HEAD_BLOCK_MASKS masks scores every vertex in one product (see
    _stacked_products).
    """
    labels, masks = _head_input(len(X), labels, masks)
    Xhat = X if g is None else diffuse_features(g, X)
    C = int(labels.max()) + 1
    preds = []
    for start in range(0, len(masks), HEAD_BLOCK_MASKS):
        block = masks[start : start + HEAD_BLOCK_MASKS]
        fits = [
            train_logistic_regression(Xhat[observed], labels[observed], C, [seed, start + k, 7])
            for k, observed in enumerate(block)
        ]
        products = _stacked_products(Xhat, [W for W, _ in fits])
        for observed, (_, b), XW in zip(block, fits, products):
            pred = labels.copy()
            pred[~observed] = np.argmax((XW + b)[~observed], axis=1)
            preds.append(pred)
    return preds


def simoncelli_response(lambda_norm: float, tau: float) -> float:
    """Low-pass spectral response: flat to tau/2, cosine-log roll-off to tau, zero after."""
    lam = float(lambda_norm)
    if tau == 0:
        return 1.0 if lam == 0 else 0.0
    if lam <= tau / 2.0:
        return 1.0
    if lam > tau:
        return 0.0
    return math.cos(math.pi / 2.0 * math.log2(2.0 * lam / tau))


def denoise(g: Graph, x_noisy, tau) -> np.ndarray:
    """Filter a graph signal through the low-pass response in the Laplacian basis.

    tau is one cutoff, or a 1-D sequence of cutoffs; a sequence returns one
    filtered row per cutoff, all from a single eigendecomposition. Each row
    equals the scalar call bit for bit. tau = 0 keeps only the null space:
    the mean of x over each connected component.
    """
    x = np.asarray(x_noisy, dtype=float)
    if x.shape != (g.n,):
        raise ValueError("signal length must equal vertex count")
    taus = np.asarray(tau, dtype=float)
    if taus.ndim > 1:
        raise ValueError("tau must be a number or a 1-D sequence")
    bad = ~(np.isfinite(taus) & (taus >= 0))
    if bad.any():
        raise ValueError(f"cutoffs must be finite and >= 0, got {taus[bad].tolist()}")
    vals, F = eigendecompose(laplacian(g))
    lambda_max = vals[-1]
    if lambda_max <= 0:
        out = np.tile(x, (taus.size, 1))  # empty graph: all-pass
    else:
        lam = vals / lambda_max
        lam[np.abs(lam) <= NULL_SPACE_TOL] = 0.0
        coeffs = F.T @ x
        out = np.empty((taus.size, g.n))
        for r, t in enumerate(taus.ravel().tolist()):
            gains = (lam == 0 if t == 0 else lam <= t / 2.0).astype(float)
            band = np.flatnonzero((lam > t / 2.0) & (lam <= t))  # the roll-off band (t/2, t]
            gains[band] = [simoncelli_response(l, t) for l in lam[band].tolist()]
            # one matrix-vector product per cutoff: a batched product may round differently
            out[r] = F @ (gains * coeffs)
    return out[0] if taus.ndim == 0 else out


def best_tau_denoise(g: Graph, x_noisy, x_clean) -> tuple[float, float]:
    """Sweep tau over 0..1 in 0.025 steps; return (tau, SNR) maximizing output SNR."""
    x_clean = np.asarray(x_clean, dtype=float)
    if float(x_clean @ x_clean) == 0:
        raise ValueError("clean signal has zero power")
    taus = np.round(np.arange(0, 41) * 0.025, 6)
    best_tau, best_snr = None, -math.inf
    for tau, out in zip(taus.tolist(), denoise(g, x_noisy, taus)):
        snr = snr_db(x_clean, out)
        if snr > best_snr:  # strict: ties keep the smaller tau
            best_tau, best_snr = tau, snr
    return best_tau, best_snr
