import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from apgoldbach import primes
from apgoldbach.primes import SIEVE_SEGMENT_SIZE, MemoryBudgetError, is_prime, sieve_primes
from oracles import (
    class_masks,
    is_prime_trial_division,
    primes_in_class,
    primes_up_to,
    sieve_progression,
    table_primes,
)


def test_first_primes():
    assert table_primes(sieve_primes(10)) == [2, 3, 5, 7]


def test_boundary_count():
    assert len(table_primes(sieve_primes(2))) == 1


def test_count_at_every_small_limit():
    # limits on and off byte boundaries: bits past the limit are 0, and the
    # odd bits hold every odd prime up to the limit
    for limit in range(2, 200):
        t = sieve_primes(limit)
        assert not np.unpackbits(t.bits)[(limit + 1) // 2 :].any(), limit
        assert table_primes(t) == primes_up_to(limit), limit


def test_count_to_1e6(table_1e6):
    assert len(table_primes(table_1e6)) == 78498


def test_sieve_agrees_with_trial_division():
    flags = class_masks(sieve_primes(10**4), 10**4)[0]
    for n in range(2, 10**4 + 1):
        assert flags[n] == is_prime_trial_division(n), n


def test_segment_size_does_not_change_result():
    a = sieve_primes(10**5, segment_size=1 << 20)
    b = sieve_primes(10**5, segment_size=997)
    assert np.array_equal(a.bits, b.bits)


def test_memory_budget_enforced():
    with pytest.raises(MemoryBudgetError, match="budget"):
        sieve_primes(10**9, memory_budget_bytes=1024)


def test_memory_budget_counts_one_segment():
    # the packed odd bits, one 4096-entry segment, its 512 packed bytes, two
    # periods of the 15,015-entry presieve pattern and the base-prime sieve
    # over [0, 1000]
    peak = ((10**6 + 1) // 2 + 7) // 8 + 4096 + 512 + 2 * 15015 + 1001
    with pytest.raises(MemoryBudgetError, match="one segment"):
        sieve_primes(10**6, segment_size=4096, memory_budget_bytes=peak - 1)
    table = sieve_primes(10**6, segment_size=4096, memory_budget_bytes=peak)
    assert len(table_primes(table)) == 78498
    # bytes a caller reserves beside the table count against the same budget
    with pytest.raises(MemoryBudgetError, match="reserved"):
        sieve_primes(10**6, segment_size=4096, memory_budget_bytes=peak, reserved_bytes=1)


def test_sieve_peak_is_packed_table_plus_segments():
    N = 10**7
    tracemalloc.start()
    try:
        table = sieve_primes(N)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.bits.nbytes == ((N + 1) // 2 + 7) // 8
    assert peak <= table.bits.nbytes + 2 * SIEVE_SEGMENT_SIZE


@given(
    limit=st.integers(2, 5000) | st.integers(2 * 15015, 2 * 15015 + 3000),
    segment_size=st.sampled_from([8, 16, 24, 1000, 1 << 20]),
)
@settings(max_examples=60, deadline=None)
def test_sieve_matches_is_prime(limit, segment_size):
    # small segments start at many offsets into the presieve pattern and
    # cut across the presieved primes 3..13; limits past 30,030 wrap the
    # pattern's period of 15,015 odd entries
    t = sieve_primes(limit, segment_size=segment_size)
    flags = class_masks(t, limit)[0][:-1]
    assert flags.tolist() == [is_prime(n) for n in range(limit + 1)]


@given(
    m=st.sampled_from([2, 4, 6, 8, 12, 30, 34, 210, 2310]) | st.integers(1, 300).map(lambda h: 2 * h),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_window_sieve_matches_is_prime(m, data):
    # windows of j in any order, overlapping or not: short ones around the
    # first strikes b + j*m >= p*p, long ones across the presieve pattern's
    # period (up to 15,015 entries), and one from j = 0, where b = 1 puts
    # the non-prime 1
    b = data.draw(st.sampled_from([r for r in range(1, m) if math.gcd(r, m) == 1]))
    limit = data.draw(st.integers(b, 4 * 10**5))
    count = (limit - b) // m + 1
    lo = st.integers(0, count - 1)
    windows = data.draw(st.lists(
        st.tuples(lo, st.integers(1, 40)) | st.tuples(lo, st.integers(1, 2 * 15015)),
        max_size=5,
    ))
    square = data.draw(st.sampled_from(primes_up_to(max(2, math.isqrt(limit)))))
    near = max(0, (square * square - b) // m - 20)  # around the first strike of p
    windows = [(min(j, count - 1), min(count, j + n)) for j, n in windows + [(0, 30), (near, 40)]]
    out = np.empty(max(hi - lo for lo, hi in windows), dtype=bool)
    for (lo, hi), window in zip(windows, primes.sieve_progression(b, m, limit, windows, out)):
        assert window.tolist() == [is_prime(b + j * m) for j in range(lo, hi)], (lo, hi)


def test_window_sieve_rejects_non_units():
    out = np.empty(8, dtype=bool)
    for b, m in ((2, 4), (3, 6), (1, 3), (1, 0)):
        with pytest.raises(ValueError):
            next(primes.sieve_progression(b, m, 100, [(0, 8)], out))


def test_sieve_rejects_tiny_limit():
    with pytest.raises(ValueError):
        sieve_primes(1)


class TestIsPrime:
    def test_small_units(self):
        assert not is_prime(0)
        assert not is_prime(1)
        assert is_prime(2)

    def test_carmichael(self):
        assert not is_prime(561)
        assert not is_prime(41041)

    def test_mersenne_31(self):
        assert is_prime(2147483647)

    def test_agrees_with_sieve_exhaustively(self, table_1e6):
        flags = class_masks(table_1e6, 10**6)[0]
        for n in range(2, 10**6 + 1):
            if is_prime(n) != flags[n]:
                pytest.fail(f"disagreement at n={n}")

    def test_large_64bit_values(self):
        # factorizations checked by hand
        assert is_prime(18446744073709551557)  # largest prime < 2^64
        assert not is_prime(18446744073709551615)  # 2^64 - 1 = 3*5*17*257*...
        assert is_prime(2305843009213693951)  # 2^61 - 1

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=300)
    def test_matches_trial_division(self, n):
        assert is_prime(n) == is_prime_trial_division(n)


class TestPrimesInClass:
    def test_examples(self, table_1e5):
        assert primes_in_class(table_1e5, 3, 4, 20).primes == (3, 7, 11, 19)
        assert primes_in_class(table_1e5, 1, 2, 20).primes == (3, 5, 7, 11, 13, 17, 19)
        assert primes_in_class(table_1e5, 0, 4, 100).primes == ()

    def test_limit_beyond_table_rejected(self, table_1e5):
        with pytest.raises(ValueError, match="exceeds"):
            primes_in_class(table_1e5, 1, 4, 10**6)

    def test_both_paths_agree(self, table_1e5):
        for a, m in [(1, 4), (3, 4), (1, 6), (5, 6), (7, 10), (0, 5)]:
            filtered = primes_in_class(table_1e5, a, m, 5000)
            assert filtered.primes == sieve_progression(a, m, 5000)

    def test_partition_property(self, table_1e5):
        limit = 3000
        for m in (2, 4, 6, 10, 12):
            units = [a for a in range(m) if math.gcd(a, m) == 1]
            union = []
            for a in units:
                union.extend(primes_in_class(table_1e5, a, m, limit).primes)
            union.extend(p for p in primes_up_to(limit) if m % p == 0)
            assert sorted(union) == primes_up_to(limit)

    @given(m=st.integers(2, 60), data=st.data())
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_class_mask_matches_is_prime(self, monkeypatch, table_1e5, m, data):
        # tiny chunks put many chunk boundaries inside [0, N]; N off a
        # multiple of 8 and of m ends the last chunk mid-byte and mid-row.
        # The bool masks of every class come from the oracle; the packed
        # copies of the odd classes of an even m from PrimeTable.mask
        monkeypatch.setattr(primes, "_CLASS_CHUNK", data.draw(st.sampled_from([1, 8, 40, 1 << 18])))
        N = data.draw(st.integers(2, 5000).filter(lambda n: n % 8 and n % m))
        masks = class_masks(table_1e5, N, m, range(m))
        assert list(masks) == list(range(m))
        for b, mask in masks.items():
            assert len(mask) == (N - b) // m + 2
            assert not mask[-1]
            assert [bool(x) for x in mask[:-1]] == [is_prime(b + j * m) for j in range(len(mask) - 1)]
        if m % 2:
            return
        odd = list(range(1, m, 2))
        width = (N // m + 9) // 8  # every entry of every copy
        out = np.zeros((8, len(odd), width), dtype=np.uint8)
        table_1e5.mask(N, m, odd, out)
        for k, b in enumerate(odd):
            for r in range(8):
                want = [y >= r and b + (y - r) * m <= N and is_prime(b + (y - r) * m)
                        for y in range(8 * width)]
                assert np.unpackbits(out[r, k]).tolist() == want, (b, r)

    @given(m=st.sampled_from([2, 4, 6, 10, 30]), data=st.data())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_packed_copies_match_class_masks(self, monkeypatch, table_1e5, m, data):
        # bit y of copy r is entry y - r of the bool mask, clipped to the
        # width, whatever the chunk boundaries
        monkeypatch.setattr(primes, "_CLASS_CHUNK", data.draw(st.sampled_from([1, 8, 40, 1 << 18])))
        N = data.draw(st.integers(2, 5000))
        width = data.draw(st.integers(1, (N // m + 9) // 8))
        units = [b for b in range(1, m) if math.gcd(b, m) == 1]
        out = np.zeros((8, len(units), width), dtype=np.uint8)
        table_1e5.mask(N, m, units, out=out)
        for k, mask in enumerate(class_masks(table_1e5, N, m, units).values()):
            for r in range(8):
                shifted = np.concatenate((np.zeros(r, bool), mask[:-1], np.zeros(8 * width, bool)))
                assert np.array_equal(np.unpackbits(out[r, k]), shifted[: 8 * width]), (k, r)

    def test_packed_copies_need_even_modulus_and_odd_classes(self, table_1e5):
        for m, classes in ((3, (1,)), (4, (1, 2))):
            with pytest.raises(ValueError, match="packed"):
                table_1e5.mask(100, m, classes, out=np.zeros((8, len(classes), 4), np.uint8))

    def test_sorted_strictly_increasing(self, table_1e5):
        ps = primes_in_class(table_1e5, 1, 8, 10**4).primes
        assert all(x < y for x, y in zip(ps, ps[1:]))
