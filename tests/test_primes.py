import hashlib
import inspect
import math
import sys
import tracemalloc
from unittest import mock

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


def test_odd_flags_unpack_every_bit(monkeypatch):
    # the odd flags, the int-bitset sweep's output, and the packed table
    # share no packing code: the flags are the table's bits unpacked, the
    # bits past the limit as 0, and byte i is 1 iff 2i + 1 is prime.  Both
    # tables' bits are read-only bytes, which PrimeTable.mask views without
    # a copy; PrimeTable.primes returns the flags' bytes, not a copy.  Each
    # table has one reader.  Limits at and around the ends of 16-entry segments,
    # and every residue of the limit mod 16
    monkeypatch.setattr(primes, "SIEVE_SEGMENT_SIZE", 16)
    for limit in (*range(2, 40), *range(60, 70), *range(90, 100), 1000, 10**5 + 3):
        t = sieve_primes(limit)
        u = sieve_primes(limit, packed=False)
        flags = u.primes()
        assert isinstance(flags, bytes) and flags == u.bits and not u.packed
        assert u.primes() is flags
        assert flags == np.unpackbits(np.frombuffer(t.bits, np.uint8)).tobytes(), limit
        assert [2 * i + 1 for i, f in enumerate(flags) if f] == primes_up_to(limit)[1:], limit
        assert t.bits.readonly and u.bits.readonly and t.packed
        with pytest.raises(ValueError, match="no odd flags"):
            t.primes()
        with pytest.raises(ValueError, match="packed table"):
            u.mask(limit, 2, [1], np.zeros((8, 1, 1), np.uint8))


@pytest.mark.parametrize("limit,digest", [
    (2, "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"),
    (17, "7d30679c89ef793c18df151871191e88de55691cba414e88d5971baf5737f781"),
    (1000, "ea12e2088ea4d8a7337f78d23c5d221b8886909825adabae61ca0c76ca863406"),
    (10**5 + 3, "a8f2de10838597ab5330d0465be7a8226381334f6b195bac2ed988240047ce61"),
    (2**21 + 5, "616a06b897d86a9e0e4446a6a06bcb0adbb643bbf7a9fcafbb7a67e735378e05"),
    (10**7, "071f8b5771d0115b6c2a6920371be47db9ec5135eff45243db5ebc8a8f66926b"),
])
def test_packed_table_bytes_are_pinned(limit, digest):
    # the sha256 of the packed bits as the int packing of each segment
    # made them; 2^21 + 5 ends in a short third segment, mid-byte
    assert hashlib.sha256(sieve_primes(limit).bits).hexdigest() == digest


def test_count_to_1e6(table_1e6):
    assert len(table_primes(table_1e6)) == 78498


def test_sieve_agrees_with_trial_division():
    flags = class_masks(sieve_primes(10**4), 10**4)[0]
    for n in range(2, 10**4 + 1):
        assert flags[n] == is_prime_trial_division(n), n


def test_segment_size_does_not_change_result(monkeypatch):
    monkeypatch.setattr(primes, "SIEVE_SEGMENT_SIZE", 1 << 20)
    a = sieve_primes(10**5)
    monkeypatch.setattr(primes, "SIEVE_SEGMENT_SIZE", 997)
    b = sieve_primes(10**5)
    assert np.array_equal(a.bits, b.bits)


def test_memory_budget_enforced(monkeypatch):
    monkeypatch.setattr(primes, "DEFAULT_MEMORY_BUDGET_BYTES", 1024)
    with pytest.raises(MemoryBudgetError, match="budget"):
        sieve_primes(10**9)


def test_budget_is_read_from_the_module():
    # one budget, DEFAULT_MEMORY_BUDGET_BYTES, checked by check_budget
    assert "memory_budget_bytes" not in inspect.signature(sieve_primes).parameters


def test_memory_budget_counts_one_segment(monkeypatch):
    # the packed odd bits, or the odd flags, 8 bytes a packed byte; for
    # the table one 4096-entry segment and its 512 packed bytes, for the
    # flags their copy, which is larger than a segment; two periods of the
    # 15,015-entry presieve pattern, the base-prime sieve over [0, 1000],
    # the zeros of the largest strike, the 3's of the pattern, and 182
    # strikes, Rosser and Schoenfeld's bound on the primes up to 1000,
    # each a tuple of three ints and three list slots
    monkeypatch.setattr(primes, "SIEVE_SEGMENT_SIZE", 4096)
    strike = sys.getsizeof((0, 0, 0)) + 3 * sys.getsizeof(10**6) + 3 * 8
    nbytes, sieve = ((10**6 + 1) // 2 + 7) // 8, 2 * 15015 + 1001 + 10011 + 182 * strike
    for packed, peak in ((True, nbytes + 4096 + 512 + sieve), (False, 16 * nbytes + sieve)):
        monkeypatch.setattr(primes, "DEFAULT_MEMORY_BUDGET_BYTES", peak - 1)
        with pytest.raises(MemoryBudgetError, match=f"needs {peak} bytes .* one segment"):
            sieve_primes(10**6, packed)
        monkeypatch.setattr(primes, "DEFAULT_MEMORY_BUDGET_BYTES", peak)
        out = sieve_primes(10**6, packed)
        assert (len(table_primes(out)) if packed else sum(out.bits) + 1) == 78498  # 2 is implicit
    # PrimeTable.primes makes no copy, so it needs no budget
    monkeypatch.setattr(primes, "DEFAULT_MEMORY_BUDGET_BYTES", 0)
    assert out.primes() is out.bits.obj


def _traced_sieve(monkeypatch, N: int, packed: bool):
    """sieve_primes(N, packed), its tracemalloc peak and the bytes that it
    counted for check_budget."""
    needs = []
    monkeypatch.setattr(primes, "check_budget",
                        lambda what, parts: needs.append(sum(parts.values())))
    tracemalloc.start()
    try:
        out = sieve_primes(N, packed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak, needs[0]


def test_sieve_peak_is_packed_table_plus_segments(monkeypatch):
    # the table, one segment and its packed bytes, an eighth of it, and
    # the sieve's own pattern, base primes, strike and list of strikes,
    # which sieve_overhead_bytes counts: the count stays above the peak
    for N in (10**6, 10**7):
        table, peak, need = _traced_sieve(monkeypatch, N, True)
        segment = min(SIEVE_SEGMENT_SIZE, (N + 1) // 2)
        assert table.bits.nbytes == ((N + 1) // 2 + 7) // 8
        assert need == (table.bits.nbytes + segment + segment // 8
                        + primes.sieve_overhead_bytes(N, segment))
        assert peak <= need, N


def test_flags_peak_is_flags_plus_one_segment(monkeypatch):
    # the odd flags and one segment copied into them with no copy
    # between, or, once the segment and the sieve are released, the
    # flags and their bytes copy, with the sieve's storage as above (or
    # what it leaves in free lists): the count stays above the peak
    for N in (10**6, 10**7):
        table, peak, need = _traced_sieve(monkeypatch, N, False)
        segment, flags = min(SIEVE_SEGMENT_SIZE, (N + 1) // 2), len(table.bits)
        assert flags == 8 * (((N + 1) // 2 + 7) // 8)
        assert need == flags + max(segment, flags) + primes.sieve_overhead_bytes(N, segment)
        assert peak <= need, N


def test_window_peak_counts_the_strike_list():
    # a single pair sieves windows far past any table's limit, where the
    # list of strikes, a tuple of three ints for each base prime up to
    # sqrt(limit), is most of the sieve's storage: 9,586 strikes at 10^10
    out = bytearray(8)
    tracemalloc.start()
    try:
        next(primes.sieve_progression(3, 4, 10**10, [(0, 8)], out))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= primes.sieve_overhead_bytes(10**10, len(out))


@given(
    limit=st.integers(2, 5000) | st.integers(2 * 15015, 2 * 15015 + 3000),
    segment_size=st.sampled_from([8, 16, 24, 1000, 1 << 20]),
)
@settings(max_examples=60, deadline=None)
def test_sieve_matches_is_prime(limit, segment_size):
    # small segments start at many offsets into the presieve pattern and
    # cut across the presieved primes 3..13; limits past 30,030 wrap the
    # pattern's period of 15,015 odd entries
    with mock.patch.object(primes, "SIEVE_SEGMENT_SIZE", segment_size):
        t = sieve_primes(limit)
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
    # the non-prime 1; a window may start up to 7 entries below j = 0,
    # where the values are negative
    b = data.draw(st.sampled_from([r for r in range(1, m) if math.gcd(r, m) == 1]))
    limit = data.draw(st.integers(b, 4 * 10**5))
    count = (limit - b) // m + 1
    lo = st.integers(-7, count - 1)
    windows = data.draw(st.lists(
        st.tuples(lo, st.integers(1, 40)) | st.tuples(lo, st.integers(1, 2 * 15015)),
        max_size=5,
    ))
    square = data.draw(st.sampled_from(primes_up_to(max(2, math.isqrt(limit)))))
    near = max(0, (square * square - b) // m - 20)  # around the first strike of p
    windows = [(min(j, count - 1), min(count, j + n)) for j, n in windows + [(0, 30), (near, 40)]]
    out = bytearray(max(hi - lo for lo, hi in windows))
    for (lo, hi), window in zip(windows, primes.sieve_progression(b, m, limit, windows, out)):
        assert list(window[: hi - lo]) == [is_prime(b + j * m) for j in range(lo, hi)], (lo, hi)


def test_window_sieve_rejects_non_units():
    out = bytearray(8)
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
