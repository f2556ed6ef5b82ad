"""Scoring: adjusted mutual information, accuracy, SNR, calibrated noise."""

from __future__ import annotations

import math

import numpy as np


def contingency_table(u, v) -> np.ndarray:
    """R x S count table between two label vectors."""
    u = np.asarray(u, dtype=int)
    v = np.asarray(v, dtype=int)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError("partitions must be 1-D vectors of equal length")
    ru, ui = np.unique(u, return_inverse=True)
    rv, vi = np.unique(v, return_inverse=True)
    table = np.zeros((ru.size, rv.size), dtype=np.int64)
    np.add.at(table, (ui, vi), 1)
    return table


def _entropy(counts: np.ndarray, n: int) -> float:
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def _mutual_information(table: np.ndarray, n: int) -> float:
    a = table.sum(axis=1)
    b = table.sum(axis=0)
    nz = table > 0
    t = table[nz].astype(float)
    outer = np.outer(a, b)[nz].astype(float)
    return float((t / n * (np.log(t * n) - np.log(outer))).sum())


def expected_mutual_information(a: np.ndarray, b: np.ndarray, n: int) -> float:
    """Exact E[MI] under the permutation (hypergeometric) model.

    Uses log-factorial tables for stability at n in the thousands.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    lgn = np.array([math.lgamma(m + 1.0) for m in range(n + 2)])  # lgn[m] = log(m!)
    emi = 0.0
    for ai in a:
        for bj in b:
            lo = max(1, ai + bj - n)
            hi = min(ai, bj)
            if hi < lo:
                continue
            nij = np.arange(lo, hi + 1)
            term1 = nij / n * (np.log(nij) + math.log(n) - math.log(ai) - math.log(bj))
            log_hyper = (
                lgn[ai]
                + lgn[bj]
                + lgn[n - ai]
                + lgn[n - bj]
                - lgn[n]
                - lgn[nij]
                - lgn[ai - nij]
                - lgn[bj - nij]
                - lgn[n - ai - bj + nij]
            )
            emi += float((term1 * np.exp(log_hyper)).sum())
    return emi


def ami(u, v) -> float:
    """Adjusted mutual information, mean-entropy normalization, natural logs."""
    u = np.asarray(u, dtype=int)
    v = np.asarray(v, dtype=int)
    if u.shape != v.shape:
        raise ValueError("partitions must have equal length")
    n = u.size
    if n < 2:
        raise ValueError("need at least 2 elements")
    table = contingency_table(u, v)
    a = table.sum(axis=1)
    b = table.sum(axis=0)
    hu = _entropy(a, n)
    hv = _entropy(b, n)
    mi = _mutual_information(table, n)
    emi = expected_mutual_information(a, b, n)
    denom = (hu + hv) / 2.0 - emi
    if abs(denom) < 1e-15:
        # both partitions trivial: 1 when they agree up to relabeling, else 0
        same = np.all((table > 0).sum(axis=0) <= 1) and np.all((table > 0).sum(axis=1) <= 1)
        return 1.0 if same else 0.0
    return (mi - emi) / denom


def accuracy(pred, truth, mask) -> float:
    """Fraction of correct predictions over masked entries."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    mask = np.asarray(mask, dtype=bool)
    if not pred.shape == truth.shape == mask.shape:
        raise ValueError(
            f"pred {pred.shape}, truth {truth.shape} and mask {mask.shape} differ in shape"
        )
    if mask.sum() == 0:
        raise ValueError("mask selects no elements")
    return float(np.mean(pred[mask] == truth[mask]))


def snr_db(clean, test) -> float:
    """10 log10 of clean power over error power; +inf when test equals clean."""
    clean = np.asarray(clean, dtype=float)
    test = np.asarray(test, dtype=float)
    if clean.shape != test.shape:
        raise ValueError(f"clean {clean.shape} and test {test.shape} differ in shape")
    sig = float(clean @ clean)
    if sig == 0:
        raise ValueError("clean signal has zero power, SNR undefined")
    err = float(np.sum((clean - test) ** 2))
    if err == 0:
        return math.inf
    return 10.0 * math.log10(sig / err)


def add_noise_to_snr(clean, target_db: float, seed) -> np.ndarray:
    """Add seeded Gaussian noise rescaled so snr_db(clean, noisy) == target_db."""
    clean = np.asarray(clean, dtype=float)
    sig = float(clean @ clean)
    if sig == 0:
        raise ValueError("clean signal has zero power")
    if math.isinf(target_db):
        return clean.copy()
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(clean.shape)
    noise -= noise.mean()
    target_power = sig / 10.0 ** (target_db / 10.0)
    noise *= math.sqrt(target_power / float(noise @ noise))
    return clean + noise
