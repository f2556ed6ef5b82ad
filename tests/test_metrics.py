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

    def test_integral_floats_count_as_labels(self):
        assert contingency_table([0.0, 0.0, 1.0], [1, 1, 0]).tolist() == [[0, 2], [1, 0]]

    @pytest.mark.parametrize(
        "u, v, message",
        [
            ([0.9, 1.2, 0.1, 1.7], [0, 1, 0, 1], r"u must be integers, got 0.9"),
            ([0, 1, 0, 1], [0, 1, math.inf, 1], r"v must be integers, got inf"),
            ([0, 1, 0, 1], ["a", "b", "a", "b"], r"v must be integers, got dtype <U1"),
        ],
    )
    @pytest.mark.parametrize("fn", [contingency_table, ami])
    def test_labels_that_are_not_integers_rejected(self, fn, u, v, message):
        with pytest.raises(ValueError, match=message):
            fn(u, v)


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
        "pred, truth, message",
        [
            ([0, np.nan, 1], [0, 1, 1], r"pred must be integers, got nan"),
            ([0, 1, 1], [0, 0.5, 1], r"truth must be integers, got 0.5"),
            (["0", "1", "1"], [0, 1, 1], r"pred must be integers, got dtype <U1"),
        ],
        ids=["nan-pred", "fractional-truth", "string-pred"],
    )
    def test_non_integer_labels_rejected(self, pred, truth, message):
        with pytest.raises(ValueError, match=message):
            accuracy(pred, truth, [True] * 3)

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

    @pytest.mark.parametrize(
        "clean, test, name",
        [
            ([1.0, 2.0], [1.0, math.nan], "test"),
            ([1.0, 2.0], [math.inf, 2.0], "test"),
            ([1.0, math.nan], [1.0, 2.0], "clean"),
            ([-math.inf, 2.0], [1.0, 2.0], "clean"),
        ],
        ids=["nan-test", "inf-test", "nan-clean", "inf-clean"],
    )
    def test_non_finite_signal_rejected(self, clean, test, name):
        with pytest.raises(ValueError, match=f"^{name} signal has non-finite entries$"):
            snr_db(clean, test)

    @pytest.mark.parametrize(
        "clean, test, expected",
        [
            ([1e200, 1.0], [1e200, 2.0], 4000.0),
            ([1.0, 0.0], [1e200, 0.0], -4000.0),
            ([1e154, 0.0], [1e154, 1e-154], 6160.0),
            ([1e-170, 1e-170], [0.0, 1e-170], 10 * math.log10(2)),
            ([1.0, 0.0], [1.0, 5e-324], -20 * math.log10(5e-324)),
            ([1e308, -1e308], [-1e308, 1e308], -20 * math.log10(2)),
            ([1e-170], [1e-170], math.inf),
        ],
        ids=[
            "clean-power",
            "error-power",
            "ratio",
            "clean-underflow",
            "error-underflow",
            "error-entries",
            "equal-underflow",
        ],
    )
    def test_power_beyond_the_float_range(self, clean, test, expected):
        # a power overflows or underflows a float, or their ratio does; the vectors are still
        # apart, or equal for the last row; pytest turns a warning into an error
        assert snr_db(clean, test) == pytest.approx(expected, rel=1e-12)

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

    @pytest.mark.parametrize("target_db", [math.nan, -math.inf], ids=["nan", "-inf"])
    def test_rejects_a_target_that_is_not_finite_or_plus_inf(self, target_db):
        with pytest.raises(ValueError, match="^target_db must be a finite number or \\+inf"):
            add_noise_to_snr(np.array([1.0, 2.0]), target_db, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_a_clean_signal_that_is_not_finite(self, bad):
        with pytest.raises(ValueError, match="^clean signal has non-finite entries$"):
            add_noise_to_snr(np.array([1.0, bad]), 7.0, 0)

    def test_different_seeds_same_snr(self):
        clean = np.arange(1.0, 21.0)
        n1 = add_noise_to_snr(clean, 5.0, seed=1)
        n2 = add_noise_to_snr(clean, 5.0, seed=2)
        assert not np.array_equal(n1, n2)
        assert snr_db(clean, n1) == pytest.approx(snr_db(clean, n2), abs=1e-9)

    def test_reproducible(self):
        clean = np.arange(1.0, 11.0)
        assert np.array_equal(add_noise_to_snr(clean, 7.0, 9), add_noise_to_snr(clean, 7.0, 9))

    @pytest.mark.parametrize(
        "clean", [[1e-170, 1e-170], [1e-160] * 4, [1e200, 1e200, -1e200], [1e155, 0.0, 1.0]]
    )
    def test_a_power_outside_the_normal_range_is_sized_at_the_signal_scale(self, clean):
        noisy = add_noise_to_snr(clean, 7.0, 0)
        assert np.isfinite(noisy).all()
        assert snr_db(clean, noisy) == pytest.approx(7.0, abs=1e-9)

    def test_only_an_all_zero_signal_has_zero_power(self):
        with pytest.raises(ValueError, match="^clean signal has zero power$"):
            add_noise_to_snr(np.zeros(3), 7.0, 0)

    def test_a_noisy_entry_beyond_the_float_range_raises(self):
        with pytest.raises(ValueError, match="^noisy signal has non-finite entries$"):
            add_noise_to_snr([1e308, 1e308, -1e308], -10.0, 0)
