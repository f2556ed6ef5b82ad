"""Scoring: adjusted mutual information, accuracy, SNR, calibrated noise."""

from __future__ import annotations

import math
import sys

import numpy as np

from .core_graph import check_seed, finite_array, integer_array


def contingency_table(u, v) -> np.ndarray:
    """R x S count table between two label vectors."""
    u, v = integer_array("u", u), integer_array("v", v)
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
    table = contingency_table(u, v)
    n = int(table.sum())
    if n < 2:
        raise ValueError("need at least 2 elements")
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
    """Fraction of correct predictions over a boolean mask; both label vectors must be integers."""
    pred, truth, mask = integer_array("pred", pred), integer_array("truth", truth), np.asarray(mask)
    if mask.dtype != bool:
        raise ValueError(f"mask must be bool, got dtype {mask.dtype}")
    if not pred.shape == truth.shape == mask.shape:
        raise ValueError(
            f"pred {pred.shape}, truth {truth.shape} and mask {mask.shape} differ in shape"
        )
    if mask.sum() == 0:
        raise ValueError("mask selects no elements")
    return float(np.mean(pred[mask] == truth[mask]))


def snr_db(clean, test) -> float:
    """10 log10 of clean power over error power; +inf when test equals clean.

    Where a power or their ratio leaves the normal float range, the powers are
    compared at their vectors' scales instead (see _log10_power).
    """
    clean = np.asarray(clean, dtype=float)
    test = np.asarray(test, dtype=float)
    if clean.shape != test.shape:
        raise ValueError(f"clean {clean.shape} and test {test.shape} differ in shape")
    with np.errstate(over="ignore"):
        sig = float(clean @ clean)
        err = float(np.sum((clean - test) ** 2))
    # a non-finite entry makes sig or err non-finite, so the entries are read only then
    if not math.isfinite(sig + err):
        finite_array("clean signal", clean)
        finite_array("test signal", test)
    if _is_normal(sig) and _is_normal(err) and _is_normal(sig / err):
        return 10.0 * math.log10(sig / err)
    if not clean.any():
        raise ValueError("clean signal has zero power, SNR undefined")
    if np.array_equal(clean, test):
        return math.inf
    with np.errstate(over="ignore"):
        error = clean - test
    if np.isfinite(error).all():
        return 10.0 * (_log10_power(clean) - _log10_power(error))
    # the error's halves cannot overflow, and 2 log10(2) restores their power
    return 10.0 * (_log10_power(clean) - _log10_power(clean / 2 - test / 2) - 2 * math.log10(2))


def _is_normal(x: float) -> bool:
    """Whether x > 0 is a normal float: neither 0, subnormal nor inf."""
    return sys.float_info.min <= x <= sys.float_info.max


def _log10_power(v: np.ndarray) -> float:
    """log10 of v's power, summed at the scale of v's largest magnitude so that it cannot overflow."""
    scale = float(np.max(np.abs(v)))
    return math.log10(float(np.sum((v / scale) ** 2))) + 2 * math.log10(scale)


def add_noise_to_snr(clean, target_db: float, seed) -> np.ndarray:
    """Add seeded Gaussian noise rescaled so snr_db(clean, noisy) == target_db.

    Where clean's power is not a normal float, the noise is sized at the scale
    of clean's largest magnitude (as _log10_power does). A noisy entry beyond
    the float range raises ValueError.
    """
    clean = finite_array("clean signal", clean)
    if not clean.any():
        raise ValueError("clean signal has zero power")
    if math.isnan(target_db) or target_db == -math.inf:
        raise ValueError(f"target_db must be a finite number or +inf, got {target_db!r}")
    check_seed(seed)
    if math.isinf(target_db):
        return clean.copy()
    with np.errstate(over="ignore"):
        sig, scale = float(clean @ clean), 1.0
    if not _is_normal(sig):
        scale = float(np.max(np.abs(clean)))
        sig = float((clean / scale) @ (clean / scale))
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(clean.shape)
    noise -= noise.mean()
    target_power = sig / 10.0 ** (target_db / 10.0)
    with np.errstate(over="ignore"):
        noise *= scale * math.sqrt(target_power / float(noise @ noise))
        return finite_array("noisy signal", clean + noise)
