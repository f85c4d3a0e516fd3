import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apgoldbach import heuristics
from apgoldbach.heuristics import (
    CouponModel,
    coupon_expected_wait,
    coupon_tail,
    expected_exception_length,
    g2_estimate,
    predict_bounds,
)
from oracles import (
    bell_number,
    bell_numbers,
    coupon_tail_enumeration,
    coupon_tail_inclusion_exclusion,
    g2_exact,
    harmonic,
    simulate_coupon,
    stirling2,
    stirling2_by_enumeration,
)


class TestG2:
    def test_estimate_values(self):
        assert g2_estimate(54) == pytest.approx(2 * 54 / math.log(54) ** 2)
        assert g2_estimate(4) == pytest.approx(8 / math.log(4) ** 2)

    def test_estimate_monotone_beyond_e_squared(self):
        assert g2_estimate(10**6) > g2_estimate(10**4)

    def test_estimate_rejects_bad_input(self):
        with pytest.raises(ValueError):
            g2_estimate(3)
        with pytest.raises(ValueError):
            g2_estimate(2)

    def test_exact_counts(self, table_1e5):
        assert g2_exact(10, table_1e5) == 3  # 3+7, 5+5, 7+3
        assert g2_exact(4, table_1e5) == 1
        assert g2_exact(3, table_1e5) == 0
        assert g2_exact(7, table_1e5) == 2  # 2+5, 5+2
        assert g2_exact(11, table_1e5) == 0  # 9 is not prime

    def test_exact_beyond_table_rejected(self, table_1e5):
        with pytest.raises(ValueError, match="exceeds"):
            g2_exact(10**6, table_1e5)

    def test_exact_brute_force(self, table_1e5):
        from oracles import primes_up_to

        for n in (5, 6, 9, 15, 16, 21, 30, 99, 100, 144):
            ps = primes_up_to(n)
            pset = set(ps)
            expected = sum(1 for p in ps if n - p in pset)
            assert g2_exact(n, table_1e5) == expected

    def test_ratio_to_estimate_sane(self, table_1e6):
        # strided subsample of even n in [10^4, 10^6]; model says the ratio
        # averages the singular-series mean ~2 with heavy fluctuation
        ratios = [
            g2_exact(n, table_1e6) / g2_estimate(n)
            for n in range(10**4, 10**6 + 1, 9998)
        ]
        mean = sum(ratios) / len(ratios)
        assert 0.8 <= mean <= 1.6


class TestStirling:
    def test_enumerated_values(self):
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7
        for k in range(0, 7):
            for r in range(0, 7):
                assert stirling2(k, r) == stirling2_by_enumeration(k, r)

    def test_single_block(self):
        for k in range(1, 20):
            assert stirling2(k, 1) == 1

    def test_zero_cases(self):
        assert stirling2(0, 0) == 1
        assert stirling2(3, 5) == 0

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60))
    def test_recurrence(self, k, r):
        assert stirling2(k, r) == r * stirling2(k - 1, r) + stirling2(k - 1, r - 1)

    def test_row_sums_are_bell_numbers(self):
        expected = bell_numbers(16)
        for k in range(16):
            assert bell_number(k) == expected[k]

    def test_big_integer_range(self):
        # values overflow 64 bits well before k = 200
        assert stirling2(200, 100) > 2**500


class TestCouponTail:
    def test_trivial_values(self):
        assert coupon_tail(1, 1) == 0.0
        assert coupon_tail(2, 2) == 0.5
        for r in (2, 3, 7):
            for k in range(r):
                assert coupon_tail(r, k) == 1.0

    def test_matches_enumeration(self):
        for r in (2, 3, 4):
            for k in range(r, 9):
                exact = coupon_tail_enumeration(r, k)
                assert coupon_tail(r, k) == pytest.approx(float(exact), abs=1e-12)

    def test_dual_forms_agree(self):
        for r in range(1, 13):
            for k in range(r, 61):
                closed = coupon_tail(r, k)
                incl = float(coupon_tail_inclusion_exclusion(r, k))
                assert abs(closed - incl) < 1e-9, (r, k)

    def test_dual_forms_agree_exactly_in_rationals(self):
        for r in range(2, 9):
            for k in range(r, 30):
                closed = 1 - Fraction(
                    math.factorial(r) * stirling2(k, r), r**k
                )
                assert closed == coupon_tail_inclusion_exclusion(r, k)

    def test_is_the_exact_inclusion_exclusion_rounded_once(self):
        # to the last bit, for k < r, k = r and large r and k alike
        for r in [*range(1, 41), 64, 95, 128]:
            for k in sorted({*range(0, 817, 17), r - 1, r, r + 1}):
                assert coupon_tail(r, k) == float(coupon_tail_inclusion_exclusion(r, k)), (r, k)

    def test_is_the_stirling_closed_form_rounded_once(self):
        for r in range(1, 31):
            for k in range(501):
                closed = 1 - Fraction(math.factorial(r) * stirling2(k, r), r**k)
                assert coupon_tail(r, k) == float(closed), (r, k)

    def test_tail_sum_equals_expected_wait(self):
        for r in range(1, 11):
            total = sum(coupon_tail(r, k) for k in range(3000))
            assert abs(total - coupon_expected_wait(r)) < 1e-6

    def test_monotone_in_k(self):
        for r in (2, 5, 9):
            vals = [coupon_tail(r, k) for k in range(80)]
            assert all(x >= y for x, y in zip(vals, vals[1:]))

    def test_monotone_in_r_at_fixed_k(self):
        for k in (10, 25):
            vals = [coupon_tail(r, k) for r in range(1, k + 1)]
            assert all(x <= y for x, y in zip(vals, vals[1:]))

    def test_large_r_float_path(self):
        v = coupon_tail(50, 600)
        assert 0.0 <= v <= 1.0


class TestExpectedWait:
    def test_values(self):
        assert coupon_expected_wait(1) == 1.0
        assert coupon_expected_wait(2) == 3.0
        assert coupon_expected_wait(3) == 5.5

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            coupon_expected_wait(0)

    def test_is_r_times_the_exact_harmonic_number_rounded_once(self):
        for r in range(1, 401):
            assert coupon_expected_wait(r) == float(r * harmonic(r)), r


class TestCouponModel:
    def test_r_values(self):
        assert CouponModel.for_modulus(10).r == 3
        assert CouponModel.for_modulus(4).r == 2
        assert CouponModel.for_modulus(2).r == 1

    def test_expected_wait(self):
        assert coupon_expected_wait(CouponModel.for_modulus(4).r) == 3.0

    def test_alpha_range(self):
        for m in range(2, 60, 2):
            model = CouponModel.for_modulus(m)
            assert 0.0 <= model.alpha < 1.0
            assert model.r >= 1

    def test_odd_modulus_rejected(self):
        with pytest.raises(ValueError):
            CouponModel.for_modulus(5)


class TestExpectedLength:
    def test_alpha_zero_gives_zero(self):
        # r = 1: every term and the tail estimate are 0.0 ** x = 0.0
        for N in (10, 10**4, 10**6):
            assert expected_exception_length(2, N) == (0.0, 0.0)

    def test_truncation_bound_holds(self):
        small = expected_exception_length(10, 10**4)
        large = expected_exception_length(10, 10**5)
        assert abs(large.value - small.value) <= small.tail_bound

    def test_against_high_resolution_reference(self):
        # frozen from a quadrature-style reference: direct summation to
        # 10x the truncation point at m=12 (r = 2, alpha = 0.5)
        import numpy as np

        n = np.arange(2, 10**6 + 1, dtype=np.float64)
        ref = float(np.sum(0.5 ** (2 * n / np.log(n) ** 2))) / 12
        got = expected_exception_length(12, 10**5)
        assert got.value == pytest.approx(ref, abs=got.tail_bound + 1e-12)

    @pytest.mark.parametrize(
        "m,N", [(4, 10), (10, 1000), (12, 10**4), (50, 65537), (50, 2 * 10**5), (200, 10**5 + 3)]
    )
    def test_sum_is_fsum_over_all_terms(self, monkeypatch, m, N):
        # math.fsum over every term 2..N, to the last bit, whether the sum
        # stops early or not, also in blocks of 7 terms, where the first
        # blocks end below 21 and the tail is checked after every block
        alpha = CouponModel.for_modulus(m).alpha
        k = 2 / math.log(2) ** 2  # the package's float form of the terms
        reference = math.fsum(
            alpha ** (k * n / (math.log2(n) * math.log2(n))) for n in range(2, N + 1)
        ) / m
        assert expected_exception_length(m, N).value == reference
        monkeypatch.setattr(heuristics, "_SUM_BLOCK", 7)
        assert expected_exception_length(m, N).value == reference

    def test_sum_stops_once_the_tail_cannot_change_it(self, monkeypatch):
        summed = []
        terms = heuristics._terms
        monkeypatch.setattr(heuristics, "_terms",
                            lambda alpha, lo, hi: summed.append(hi - lo) or terms(alpha, lo, hi))
        value = expected_exception_length(50, 10**6).value
        assert sum(summed) < 40_000
        assert expected_exception_length(50, 10**7).value == value

    @pytest.mark.parametrize("N", [10, 10**3, 10**5, 10**6])
    def test_printed_value_matches_the_numpy_one_shot_sum(self, N):
        # `heuristic` prints the value to 6 decimals; the reference is the
        # one-shot float64 np.sum over all the terms
        import numpy as np

        n = np.arange(2, N + 1, dtype=np.float64)
        f = 2 * n / np.log(n) ** 2
        sums: dict[float, float] = {}
        for m in range(2, 201, 2):
            alpha = CouponModel.for_modulus(m).alpha
            if alpha not in sums:
                sums[alpha] = float(np.sum(np.power(alpha, f)))
            got = expected_exception_length(m, N).value
            assert f"{got:.6f}" == f"{sums[alpha] / m:.6f}", m

    @pytest.mark.parametrize("m,h", [(10, 21), (50, 3 * 10**4), (194, 10**5)])
    def test_tail_majorant_bounds_the_tail(self, m, h):
        # Euler-Maclaurin agrees with direct summation to 12 digits at these
        # points; the upper check would also catch a sum that went wrong
        mpmath = pytest.importorskip("mpmath")
        model = CouponModel.for_modulus(m)
        with mpmath.workdps(20):
            alpha = 1 - mpmath.mpf(1) / model.r
            tail = mpmath.nsum(lambda n: alpha ** (2 * n / mpmath.log(n) ** 2),
                               [h + 1, mpmath.inf], method="euler-maclaurin")
        bound = heuristics._tail_majorant(model.alpha, h)
        assert tail < bound < 2 * tail

    def test_peak_memory_flat_in_N(self):
        # one block of terms at a time, not a list over 2..N
        tracemalloc.start()
        try:
            expected_exception_length(200, 10**7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestPredictBounds:
    def test_example(self):
        p = predict_bounds(10, 1.0, 0.5)
        assert p.e_max_bound == pytest.approx(100 * math.log(10) ** 2)
        assert p.expected_length == pytest.approx(3**2 / 20)

    def test_delta_near_one_limit(self):
        p = predict_bounds(10, 1.0, 0.999999)
        r = CouponModel.for_modulus(10).r
        assert p.expected_length == pytest.approx(r / 20, rel=1e-4)

    def test_monotone_in_m(self):
        vals = [predict_bounds(m, 2.0, 0.5).e_max_bound for m in range(4, 100, 2)]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_m2(self):
        p = predict_bounds(2, 1.0, 0.5)
        assert p.e_max_bound == pytest.approx(4 * math.log(2) ** 2)
        assert p.expected_length == pytest.approx(1 / 4)  # r = 1

    def test_odd_m_rejected(self):
        with pytest.raises(ValueError, match="even"):
            predict_bounds(5, 1.0, 0.5)

    def test_bad_delta_rejected(self):
        with pytest.raises(ValueError):
            predict_bounds(10, 1.0, 1.0)
        with pytest.raises(ValueError):
            predict_bounds(10, 1.0, 0.0)


class TestSimulation:
    def test_single_box(self):
        assert simulate_coupon(1, 5, 1000, seed=1) == 0.0

    def test_reproducible(self):
        a = simulate_coupon(4, 12, 2000, seed=99)
        b = simulate_coupon(4, 12, 2000, seed=99)
        assert a == b

    @pytest.mark.parametrize("r,k", [(2, 2), (3, 6), (5, 20), (8, 30)])
    def test_within_three_sigma(self, r, k):
        trials = 10**5
        p = coupon_tail(r, k)
        sigma = math.sqrt(p * (1 - p) / trials)
        observed = simulate_coupon(r, k, trials, seed=12345)
        assert abs(observed - p) <= 3 * sigma + 1e-12
