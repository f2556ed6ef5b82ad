import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphbench.metrics import (
    accuracy,
    add_noise_to_snr,
    ami,
    contingency_table,
    expected_mutual_information,
    snr_db,
)


def ami_oracle(u, v):
    """From-scratch AMI via exact factorial arithmetic (math.factorial)."""
    u = list(u)
    v = list(v)
    n = len(u)
    ru = sorted(set(u))
    rv = sorted(set(v))
    table = [[0] * len(rv) for _ in ru]
    for x, y in zip(u, v):
        table[ru.index(x)][rv.index(y)] += 1
    a = [sum(row) for row in table]
    b = [sum(table[i][j] for i in range(len(ru))) for j in range(len(rv))]
    hu = -sum(ai / n * math.log(ai / n) for ai in a if ai)
    hv = -sum(bj / n * math.log(bj / n) for bj in b if bj)
    mi = 0.0
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            nij = table[i][j]
            if nij:
                mi += nij / n * math.log(n * nij / (ai * bj))
    f = math.factorial
    emi = 0.0
    for ai in a:
        for bj in b:
            for nij in range(max(1, ai + bj - n), min(ai, bj) + 1):
                hyper = (
                    f(ai) * f(bj) * f(n - ai) * f(n - bj)
                    / f(n) / f(nij) / f(ai - nij) / f(bj - nij) / f(n - ai - bj + nij)
                )
                emi += nij / n * math.log(n * nij / (ai * bj)) * hyper
    denom = (hu + hv) / 2 - emi
    if abs(denom) < 1e-15:
        rows_ok = all(sum(1 for x in row if x) <= 1 for row in table)
        cols_ok = all(
            sum(1 for i in range(len(ru)) if table[i][j]) <= 1 for j in range(len(rv))
        )
        return 1.0 if rows_ok and cols_ok else 0.0
    return (mi - emi) / denom


class TestAmi:
    def test_identical_partitions(self):
        u = [0, 0, 1, 1, 2]
        assert ami(u, u) == pytest.approx(1.0)

    def test_constant_partition(self):
        assert ami([0, 0, 0, 0], [0, 1, 2, 0]) == pytest.approx(0.0)

    def test_independent_2x2(self):
        u = [0, 0, 1, 1]
        v = [0, 1, 0, 1]
        # MI = 0, so AMI = -EMI / (mean entropy - EMI) < 0; oracle agrees
        val = ami(u, v)
        assert val < 0
        assert val == pytest.approx(ami_oracle(u, v), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ami([0, 1], [0, 1, 1])

    def test_symmetric(self):
        rng = np.random.default_rng(40)
        u = rng.integers(0, 3, 20)
        v = rng.integers(0, 4, 20)
        assert abs(ami(u, v) - ami(v, u)) < 1e-12

    def test_label_permutation_invariant(self):
        rng = np.random.default_rng(41)
        u = rng.integers(0, 3, 30)
        v = rng.integers(0, 3, 30)
        relabel = {0: 2, 1: 0, 2: 1}
        v2 = np.array([relabel[x] for x in v])
        assert ami(u, v) == pytest.approx(ami(u, v2), abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 40).flatmap(
            lambda n: st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=n, max_size=n)
        )
    )
    @example([(0, 2), (1, 0), (1, 0), (2, 1), (2, 1), (2, 1)])  # equal up to relabelling
    @example([(0, 0)] * 39 + [(1, 1)])  # one singleton class: the smallest denominator
    def test_at_most_one(self, pairs):
        u, v = zip(*pairs)
        assert ami(u, v) <= 1.0 + 1e-12

    def test_random_small_vs_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            u = rng.integers(0, 3, n)
            v = rng.integers(0, 3, n)
            assert ami(u, v) == pytest.approx(ami_oracle(u, v), abs=1e-10)

    def test_emi_large_n_stable(self):
        # log-factorial path must stay finite at thousands of samples
        a = np.array([1500, 1208])
        b = np.array([900, 1000, 808])
        val = expected_mutual_information(a, b, 2708)
        assert np.isfinite(val) and val > 0


class TestContingency:
    def test_counts(self):
        t = contingency_table([0, 0, 1], [1, 1, 0])
        assert t.tolist() == [[0, 2], [1, 0]]
        assert t.sum() == 3


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([1, 2], [1, 2], [True, True]) == 1.0

    def test_all_wrong(self):
        assert accuracy([1, 2], [2, 1], [True, True]) == 0.0

    def test_three_of_four(self):
        assert accuracy([0, 0, 0, 1], [0, 0, 0, 0], [True] * 4) == 0.75

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            accuracy([0], [0], [False])

    @pytest.mark.parametrize(
        "pred, truth, mask, shapes",
        [
            ([0, 1, 2], [0, 1], [True] * 3, r"pred \(3,\), truth \(2,\) and mask \(3,\)"),
            ([0, 1], [0, 1], [True] * 3, r"pred \(2,\), truth \(2,\) and mask \(3,\)"),
            ([[0, 1]], [0, 1], [True] * 2, r"pred \(1, 2\), truth \(2,\) and mask \(2,\)"),
        ],
        ids=["short-truth", "long-mask", "2-d-pred"],
    )
    def test_shape_mismatch_rejected(self, pred, truth, mask, shapes):
        with pytest.raises(ValueError, match=shapes + " differ in shape"):
            accuracy(pred, truth, mask)


class TestSnr:
    def test_equal_powers(self):
        clean = np.array([1.0, 1.0])
        assert snr_db(clean, clean + np.array([1.0, -1.0])) == pytest.approx(0.0)

    def test_ten_db(self):
        clean = np.ones(10)
        noise = np.zeros(10)
        noise[0] = 1.0
        assert snr_db(clean, clean + noise) == pytest.approx(10.0)

    def test_identical_is_inf(self):
        assert math.isinf(snr_db([1.0, 2.0], [1.0, 2.0]))

    @pytest.mark.parametrize(
        "test, shape",
        [(np.full((3, 1), 0.5), r"\(3, 1\)"), (0.5, r"\(\)"), (np.ones(4), r"\(4,\)")],
        ids=["column", "scalar", "longer"],
    )
    def test_shape_mismatch_rejected(self, test, shape):
        # equal shapes give 6.021 dB; a (3, 1) test would broadcast to a wrong figure
        assert snr_db(np.ones(3), np.full(3, 0.5)) == pytest.approx(10 * math.log10(4))
        with pytest.raises(ValueError, match=rf"clean \(3,\) and test {shape} differ in shape"):
            snr_db(np.ones(3), test)

    def test_zero_clean_rejected(self):
        with pytest.raises(ValueError):
            snr_db([0.0, 0.0], [1.0, 1.0])

    def test_monotone_in_noise_scale(self):
        rng = np.random.default_rng(44)
        clean = rng.standard_normal(50)
        noise = rng.standard_normal(50)
        vals = [snr_db(clean, clean + s * noise) for s in (0.1, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestAddNoise:
    def test_calibration_round_trip(self):
        rng = np.random.default_rng(45)
        clean = rng.standard_normal(100) + 1.0
        noisy = add_noise_to_snr(clean, 7.0, seed=3)
        assert snr_db(clean, noisy) == pytest.approx(7.0, abs=1e-9)

    def test_infinite_target_returns_clean(self):
        clean = np.array([1.0, 2.0])
        assert np.array_equal(add_noise_to_snr(clean, math.inf, 0), clean)

    def test_different_seeds_same_snr(self):
        clean = np.arange(1.0, 21.0)
        n1 = add_noise_to_snr(clean, 5.0, seed=1)
        n2 = add_noise_to_snr(clean, 5.0, seed=2)
        assert not np.array_equal(n1, n2)
        assert snr_db(clean, n1) == pytest.approx(snr_db(clean, n2), abs=1e-9)

    def test_reproducible(self):
        clean = np.arange(1.0, 11.0)
        assert np.array_equal(add_noise_to_snr(clean, 7.0, 9), add_noise_to_snr(clean, 7.0, 9))
