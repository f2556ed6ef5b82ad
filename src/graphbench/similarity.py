"""Pairwise similarity and distance computation between observations or features."""

from __future__ import annotations

import numpy as np

from .core_graph import check_positive_finite, finite_array


def _check_features(X: np.ndarray) -> np.ndarray:
    # C order: numpy returns the Gram product X @ X.T exactly symmetric
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("feature matrix must be 2-D")
    return finite_array("feature matrix", X)


def pairwise_sq_euclidean(X) -> np.ndarray:
    """Squared Euclidean distance matrix between rows."""
    X = _check_features(X)
    sq = np.sum(X * X, axis=1)
    Z = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(Z, 0.0, out=Z)
    np.fill_diagonal(Z, 0.0)
    return Z


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
    return S


def covariance_similarity(X) -> np.ndarray:
    """Sampled covariance between rows, each row centered over its own features."""
    X = _check_features(X)
    if X.shape[1] < 2:
        raise ValueError("covariance similarity needs at least 2 features")
    Xc = X - X.mean(axis=1, keepdims=True)
    return (Xc @ Xc.T) / (X.shape[1] - 1)


def rbf_kernel(Z, gamma: float) -> np.ndarray:
    """exp(-gamma * Z) applied entrywise to a squared-distance matrix, with a unit diagonal."""
    check_positive_finite("gamma", gamma)
    Z = finite_array("distance matrix", Z)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise ValueError(f"distance matrix must be square and 2-D, got shape {Z.shape}")
    if np.any(Z < 0):
        raise ValueError("distance matrix must be non-negative")
    S = np.exp(-gamma * Z)
    np.fill_diagonal(S, 1.0)
    return S
