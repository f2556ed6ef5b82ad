"""Pairwise similarity and distance computation between observations or features."""

from __future__ import annotations

import numpy as np


def _check_features(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("feature matrix must be 2-D")
    if not np.all(np.isfinite(X)):
        raise ValueError("feature matrix contains non-finite entries")
    return X


def _symmetrize(S: np.ndarray) -> np.ndarray:
    # build upper triangle, mirror: exact symmetry regardless of float noise
    out = np.triu(S, k=1)
    out = out + out.T
    out[np.diag_indices(S.shape[0])] = np.diag(S)
    return out


def pairwise_sq_euclidean(X) -> np.ndarray:
    """Squared Euclidean distance matrix between rows."""
    X = _check_features(X)
    sq = np.sum(X * X, axis=1)
    Z = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(Z, 0.0, out=Z)
    np.fill_diagonal(Z, 0.0)
    return _symmetrize(Z)


def cosine_similarity(X) -> np.ndarray:
    """Cosine of the angle between every pair of rows."""
    X = _check_features(X)
    norms = np.linalg.norm(X, axis=1)
    if np.any(norms == 0):
        bad = int(np.flatnonzero(norms == 0)[0])
        raise ValueError(f"degenerate observation: row {bad} is all-zero")
    Xn = X / norms[:, None]
    S = Xn @ Xn.T
    np.clip(S, -1.0, 1.0, out=S)
    np.fill_diagonal(S, 1.0)
    return _symmetrize(S)


def covariance_similarity(X) -> np.ndarray:
    """Sampled covariance between rows, each row centered over its own features."""
    X = _check_features(X)
    if X.shape[1] < 2:
        raise ValueError("covariance similarity needs at least 2 features")
    Xc = X - X.mean(axis=1, keepdims=True)
    S = (Xc @ Xc.T) / (X.shape[1] - 1)
    return _symmetrize(S)


def rbf_kernel(Z, gamma: float) -> np.ndarray:
    """exp(-gamma * Z) applied entrywise to a squared-distance matrix."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    Z = np.asarray(Z, dtype=float)
    if np.any(Z < 0):
        raise ValueError("distance matrix must be non-negative")
    S = np.exp(-gamma * Z)
    np.fill_diagonal(S, 1.0)
    return _symmetrize(S)
