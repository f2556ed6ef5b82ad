"""Downstream pipelines: spectral clustering, label propagation / SGC, denoising."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core_graph import Graph, eigendecompose, laplacian, matrix_exponential

# Eigenvalues this close to zero (absolute, or relative to lambda_max in
# denoise) count as the Laplacian's null space: eigh returns them as +-1e-16.
NULL_SPACE_TOL = 1e-8


@dataclass
class Partition:
    assignment: np.ndarray
    C: int

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=int)
        if self.C < 1:
            raise ValueError("C must be >= 1")
        if self.assignment.size and self.assignment.max() >= self.C:
            raise ValueError("assignment value out of range")


@dataclass
class SemiSupervisedLabels:
    labels: np.ndarray
    observed_mask: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=int)
        self.observed_mask = np.asarray(self.observed_mask, dtype=bool)
        if self.labels.shape != self.observed_mask.shape:
            raise ValueError("labels and mask must have equal length")
        if not (self.observed_mask.any() and (~self.observed_mask).any()):
            raise ValueError("need at least one observed and one unobserved vertex")

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1


@dataclass
class SgcParams:
    epochs: int = 100
    learning_rate: float = 0.001
    diffusion_hops: int = 2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0


def _embedding_columns(dec, C: int, lo: int, n: int) -> np.ndarray:
    cols = dec.eigenvectors[:, lo : lo + C].copy()
    upper = lo + C
    if upper < n and abs(dec.eigenvalues[upper] - dec.eigenvalues[upper - 1]) < 1e-10:
        warnings.warn("eigenvalue multiplicity across the embedding boundary: basis ambiguous")
    for c in range(cols.shape[1]):
        pivot = int(np.argmax(np.abs(cols[:, c])))
        if cols[pivot, c] < 0:
            cols[:, c] = -cols[:, c]
    return cols


def spectral_embed(g: Graph, C: int, skip_first: bool = True) -> np.ndarray:
    """Embed vertices on low-frequency Laplacian eigenvectors.

    Default reading keeps eigenvector indices 1..C (the near-constant index-0
    vector skipped); skip_first=False keeps indices 0..C-1 instead. Each
    column is sign-fixed so its largest-magnitude entry is positive.
    """
    lo = 1 if skip_first else 0
    if C + lo > g.n:
        raise ValueError(f"need C + {lo} <= n")
    dec = eigendecompose(laplacian(g))
    return _embedding_columns(dec, C, lo, g.n)


def _kmeans_pp_init(points: np.ndarray, C: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((C, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, C):
        total = d2.sum()
        if total <= 0:
            centers[c] = points[rng.integers(n)]
        else:
            centers[c] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((points - centers[c]) ** 2, axis=1))
    return centers


def kmeans(points, C: int, seed, n_restarts: int = 10, max_iter: int = 300) -> Partition:
    """Lloyd iterations from k-means++ starts, best of n_restarts by WCSS."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if n < C:
        raise ValueError("need at least C points")
    rng = np.random.default_rng(seed)
    best_assign, best_wcss = None, np.inf
    for _ in range(n_restarts):
        centers = _kmeans_pp_init(points, C, rng)
        assign = np.full(n, -1)
        for _ in range(max_iter):
            d2 = (
                np.sum(points**2, axis=1)[:, None]
                - 2.0 * points @ centers.T
                + np.sum(centers**2, axis=1)[None, :]
            )
            new_assign = np.argmin(d2, axis=1)
            for c in range(C):
                sel = new_assign == c
                if not sel.any():
                    # reseed empty cluster at the farthest point
                    far = int(np.argmax(np.min(d2, axis=1)))
                    centers[c] = points[far]
                    new_assign[far] = c
                    sel = new_assign == c
                centers[c] = points[sel].mean(axis=0)
            if np.array_equal(new_assign, assign):
                break
            assign = new_assign
        wcss = float(np.sum((points - centers[assign]) ** 2))
        if wcss < best_wcss:
            best_wcss, best_assign = wcss, assign.copy()
    return Partition(best_assign, C)


def discretize(
    embedding, seed=0, max_iter: int = 30, tol: float = 1e-7, n_restarts: int = 30
) -> Partition:
    """Round a spectral embedding to a partition by alternating rotation / argmax.

    Rows are normalized to unit length first (zero rows left untouched and
    flagged); the rotation is updated from the SVD of embedding' @ indicator.
    Restarted from several seeded random rotations; the run with the highest
    alignment objective wins.
    """
    X = np.asarray(embedding, dtype=float)
    n, C = X.shape
    if C < 2:
        raise ValueError("discretization needs C >= 2")
    norms = np.linalg.norm(X, axis=1)
    zero_rows = norms == 0
    if zero_rows.any():
        warnings.warn(f"{int(zero_rows.sum())} zero rows left unnormalized in discretization")
    Xn = X.copy()
    Xn[~zero_rows] /= norms[~zero_rows, None]

    rng = np.random.default_rng(seed)
    best_assign, best_obj = np.zeros(n, dtype=int), -np.inf
    for _ in range(n_restarts):
        R = np.linalg.qr(rng.standard_normal((C, C)))[0]
        last_obj = -np.inf
        assign = np.zeros(n, dtype=int)
        for _ in range(max_iter):
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
            if abs(obj - last_obj) < tol:
                last_obj = obj
                break
            last_obj = obj
            R = U @ Vt
        if last_obj > best_obj:
            best_obj, best_assign = last_obj, assign
    return Partition(best_assign, C)


def spectral_cluster(g: Graph, C: int, seed=0, skip_first: bool = True) -> Partition:
    """Spectral embedding followed by rotation-based discretization.

    On a disconnected graph the zero eigenvalue is degenerate and no single
    eigenvector is the privileged constant; skipping one would trade an
    indicator dimension for a high-frequency one and break exact component
    recovery, so the full low-frequency basis 0..C-1 is used instead.
    """
    if C == 1:
        return Partition(np.zeros(g.n, dtype=int), 1)
    if C + 1 > g.n:
        raise ValueError("need C + 1 <= n")
    dec = eigendecompose(laplacian(g))
    null_dim = int(np.sum(np.abs(dec.eigenvalues) < NULL_SPACE_TOL))
    lo = 1 if (skip_first and null_dim < 2) else 0
    emb = _embedding_columns(dec, C, lo, g.n)
    return discretize(emb, seed=seed)


def label_propagate(g: Graph, y: SemiSupervisedLabels) -> np.ndarray:
    """Diffuse one-hot labels once through exp(W); argmax per vertex (see propagate_labels)."""
    return propagate_labels(matrix_exponential(g.to_dense()), y)


def propagate_labels(E: np.ndarray, y: SemiSupervisedLabels) -> np.ndarray:
    """Diffuse one-hot labels once through the operator E; argmax per vertex.

    Unobserved vertices receiving zero mass fall back to the majority
    observed class (lowest index on ties).
    """
    C = y.n_classes
    Y0 = np.zeros((y.labels.size, C))
    obs = np.flatnonzero(y.observed_mask)
    Y0[obs, y.labels[obs]] = 1.0
    Yhat = E @ Y0
    counts = np.bincount(y.labels[obs], minlength=C)
    majority = int(np.argmax(counts))
    pred = y.labels.copy()
    unobs = np.flatnonzero(~y.observed_mask)
    row_mass = Yhat[unobs].max(axis=1)
    pred[unobs] = np.argmax(Yhat[unobs], axis=1)
    dead = row_mass <= 0
    if dead.any():
        pred[unobs[dead]] = majority
        warnings.warn(f"{int(dead.sum())} unlabeled vertices disconnected from all labels")
    return pred


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def train_logistic_regression(
    X: np.ndarray, labels: np.ndarray, C: int, p: SgcParams, init_weights=None
) -> tuple[np.ndarray, np.ndarray]:
    """Full-batch softmax regression with Adam; returns (weights, bias)."""
    n, F = X.shape
    if init_weights is not None:
        W = np.array(init_weights, dtype=float)
    else:
        rng = np.random.default_rng(p.seed)
        s = 1.0 / math.sqrt(F)
        W = rng.uniform(-s, s, size=(F, C))
    b = np.zeros(C)
    mW = np.zeros_like(W)
    vW = np.zeros_like(W)
    mb = np.zeros_like(b)
    vb = np.zeros_like(b)
    onehot = np.zeros((n, C))
    onehot[np.arange(n), labels] = 1.0
    for t in range(1, p.epochs + 1):
        probs = _softmax(X @ W + b)
        loss = -np.mean(np.log(np.clip(probs[np.arange(n), labels], 1e-300, None)))
        if not np.isfinite(loss):
            raise FloatingPointError("non-finite training loss")
        G = (probs - onehot) / n
        gW = X.T @ G
        gb = G.sum(axis=0)
        mW = p.beta1 * mW + (1 - p.beta1) * gW
        vW = p.beta2 * vW + (1 - p.beta2) * gW**2
        mb = p.beta1 * mb + (1 - p.beta1) * gb
        vb = p.beta2 * vb + (1 - p.beta2) * gb**2
        c1 = 1 - p.beta1**t
        c2 = 1 - p.beta2**t
        W -= p.learning_rate * (mW / c1) / (np.sqrt(vW / c2) + p.eps)
        b -= p.learning_rate * (mb / c1) / (np.sqrt(vb / c2) + p.eps)
    return W, b


def diffuse_features(g: Graph, X: np.ndarray, hops: int = 2) -> np.ndarray:
    """Repeated sparse multiplication by the graph operator (never densified W^2)."""
    W = g.to_sparse()
    out = np.asarray(X, dtype=float)
    for _ in range(hops):
        out = W @ out
    return out


def sgc_fit_predict(
    g: Graph, X, y: SemiSupervisedLabels, p: SgcParams
) -> tuple[np.ndarray, float]:
    """Two-hop feature diffusion + logistic regression (see sgc_predict)."""
    X = np.asarray(X, dtype=float)
    return sgc_predict(diffuse_features(g, X, hops=p.diffusion_hops), y, p)


def sgc_predict(
    Xhat: np.ndarray, y: SemiSupervisedLabels, p: SgcParams
) -> tuple[np.ndarray, float]:
    """Logistic regression on already-diffused features; returns (pred, test accuracy)."""
    obs = y.observed_mask
    W, b = train_logistic_regression(Xhat[obs], y.labels[obs], y.n_classes, p)
    pred = y.labels.copy()
    unobs = ~obs
    pred[unobs] = np.argmax(Xhat[unobs] @ W + b, axis=1)
    acc = float(np.mean(pred[unobs] == y.labels[unobs]))
    return pred, acc


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
    dec = eigendecompose(laplacian(g))
    if dec.lambda_max <= 0:
        out = np.tile(x, (taus.size, 1))  # empty graph: all-pass
    else:
        lam = dec.eigenvalues / dec.lambda_max
        lam[np.abs(lam) <= NULL_SPACE_TOL] = 0.0
        F = dec.eigenvectors
        coeffs = F.T @ x
        out = np.empty((taus.size, g.n))
        for r, t in enumerate(taus.ravel().tolist()):
            gains = np.array([simoncelli_response(l, t) for l in lam])
            # one matrix-vector product per cutoff: a batched product may round differently
            out[r] = F @ (gains * coeffs)
    return out[0] if taus.ndim == 0 else out


def best_tau_denoise(g: Graph, x_noisy, x_clean) -> tuple[float, float]:
    """Sweep tau over 0..1 in 0.025 steps; return (tau, SNR) maximizing output SNR."""
    from .metrics import snr_db

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
