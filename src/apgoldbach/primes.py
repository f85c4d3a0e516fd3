"""Prime generation and deterministic primality testing.

Provides one segmented sieve along a progression b + j*m, window by window
(sieve_progression); the bit-packed table over the odd numbers
(PrimeTable) that sieve_primes builds from its case m = 2, b = 1; a
deterministic Miller-Rabin test valid for the full 64-bit range; and
extraction of the primes of fixed residue classes from a table
(PrimeTable.mask, the one place that maps a table's primes to their
class).
"""

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

# Segment size (odd entries) for the table's sieve; sized to stay
# cache-resident.
SIEVE_SEGMENT_SIZE = 1 << 20

# Default cap on peak storage.  For a table: the packed odd bits plus one
# unpacked segment, its packed copy, the presieve pattern and the base-prime
# sieve, which admits limits up to ~4.3*10^9, plus the class masks a sweep
# reserves beside it, which brings a sweep down to ~4.7*10^8.  A single
# pair counts its sieved windows against the same cap.
DEFAULT_MEMORY_BUDGET_BYTES = 256 * 1024 * 1024

# Odd primes whose multiples every window copies from a precomputed
# pattern; along b + j*m the pattern of those not dividing m repeats with
# their product, at most _PRESIEVE_PERIOD entries.
_PRESIEVE_PRIMES = (3, 5, 7, 11, 13)
_PRESIEVE_PERIOD = math.prod(_PRESIEVE_PRIMES)

# Odd entries unpacked at a time by PrimeTable.mask, rounded to a multiple
# of 8 times a class's step so every chunk starts on class 0 and on a byte
# of the odd bits and of every packed class.
_CLASS_CHUNK = 1 << 18

# Deterministic Miller-Rabin witnesses.  This 7-base set is verified
# correct for every n < 3,317,044,064,679,887,385,961,981 (~3.3 * 10^24),
# which covers all 64-bit inputs with a wide margin.
MILLER_RABIN_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class MemoryBudgetError(ValueError):
    """Sieve request would exceed the configured memory budget."""


@dataclass(frozen=True)
class PrimeTable:
    """Exact primality knowledge over [2, limit], bit-packed over the odd
    numbers; the prime 2 is implicit.

    Immutable after construction; safe to share across threads.
    """

    limit: int
    bits: np.ndarray = field(repr=False)  # packed, bit i <-> 2i + 1; 0 past limit

    def mask(self, hi: int, m: int, classes: Sequence[int], out: np.ndarray) -> None:
        """Primality along the progressions b + j*m for each b in classes,
        written packed: out is a zeroed uint8 array of shape (8,
        len(classes), width), and out[:, k] receives the entries of the
        k-th class, entry j True iff b + j*m is a prime <= hi, as the eight
        bit-shifted copies of pack_copies clipped to width bytes.

        m is even and every class odd, so the entries of class b are the
        odd indices b//2 + j*m/2.  One pass over the odd bits unpacks a
        chunk of about _CLASS_CHUNK entries at a time and packs each
        class's column; no (hi + 1)-entry array is ever built.
        """
        if hi > self.limit:
            raise ValueError(f"hi={hi} exceeds table limit {self.limit}")
        if m < 2 or m % 2 or any(b % 2 == 0 or not 0 < b < m for b in classes):
            raise ValueError("packed masks need an even modulus and odd classes in [0, m)")
        half = m // 2  # odd-index step of every class
        step = 8 * half * max(1, _CLASS_CHUNK // (8 * half))
        entries = (hi + 1) // 2  # odd numbers <= hi
        for lo in range(0, entries, step):
            end = min(lo + step, entries)
            flags = np.unpackbits(self.bits[lo >> 3 : (end + 7) >> 3], count=end - lo)
            padded = np.zeros((len(classes), (end - lo) // half + 8), dtype=bool)
            for row, b in zip(padded, classes):
                column = flags[b // 2 :: half]
                row[7 : 7 + len(column)] = column
            pack_copies(padded, out, lo // half)


def pack_copies(padded: np.ndarray, out: np.ndarray, start: int = 0) -> None:
    """OR runs of bool entries into eight bit-shifted packed copies.

    padded[..., 7:] are entries start, start + 1, ... (start a multiple of
    8) of each row and padded[..., :7] are False; out[r] has the same
    leading axes.  Bit y of out[r], in np.packbits order, is
    entry y - r, so a shift s is whole bytes of copy s % 8 at byte offset
    s // 8.  Bits past out's width are dropped; bytes shared with a
    neighbouring run are ORed, so the runs of one out may come in any
    order.
    """
    for r in range(8):
        packed = np.packbits(padded[..., 7 - r :], axis=-1)
        dest = out[r, ..., start >> 3 :]
        dest[..., : packed.shape[-1]] |= packed[..., : dest.shape[-1]]


def sieve_overhead_bytes(limit: int) -> int:
    """Bytes sieve_progression holds beside its output buffer: two periods
    of the presieve pattern and the sieve of the base primes up to
    sqrt(limit)."""
    return 2 * _PRESIEVE_PERIOD + math.isqrt(limit) + 1


def sieve_progression(
    b: int, m: int, limit: int, windows: Iterable[tuple[int, int]], out: np.ndarray
) -> Iterator[np.ndarray]:
    """Segmented sieve of Eratosthenes along the progression b + j*m.

    For each window (lo, hi) of j, in the order given, yields out[:hi - lo]
    with entry x True iff b + (lo + x)*m is prime.  The answer is exact for
    values up to `limit`; windows must not pass it.  m is even and b a unit
    mod m, so every entry is odd; sieve_primes is the case m = 2, b = 1.
    `out` is reused: each window overwrites the last.

    Each window starts as a copy of the pattern that the primes 3-13 not
    dividing m leave (its period is their product), with those primes
    restored where they lie in the class and 1 cleared.  Every larger base
    prime p <= sqrt(limit) with p not dividing m then strikes from the
    first j with p | b + j*m and b + j*m >= p*p, with stride p.  Beside
    `out`, the sieve holds sieve_overhead_bytes(limit).
    """
    if m < 2 or m % 2 or math.gcd(b, m) != 1:
        raise ValueError(f"need an even modulus and a unit residue, got b={b}, m={m}")
    root = math.isqrt(limit)
    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if base[p]:
            base[p * p :: p] = False

    def first_multiple(p: int) -> int:  # least j >= 0 with p | b + j*m
        return -b * pow(m, -1, p) % p

    presieve = [p for p in _PRESIEVE_PRIMES if m % p]
    period = math.prod(presieve)
    # two periods, so any offset into the first is followed by a whole period
    pattern = np.ones(2 * period, dtype=bool)
    for p in presieve:
        pattern[first_multiple(p) :: p] = False  # p itself included
    restored = [(p - b) // m for p in presieve if p % m == b]
    strikes = []  # (first j at or above p*p, first j of any multiple, p)
    for p in np.flatnonzero(base).tolist():
        if p > _PRESIEVE_PRIMES[-1] and m % p:
            r = first_multiple(p)
            j = max(0, -(-(p * p - b) // m))
            strikes.append((j + (r - j) % p, r, p))
    strikes.sort()  # so the first strike past a window ends the scan

    for lo, hi in windows:
        seg = out[: hi - lo]
        filled = min(period, len(seg))
        offset = lo % period
        seg[:filled] = pattern[offset : offset + filled]
        while filled < len(seg):  # a whole number of periods: double it
            n = min(filled, len(seg) - filled)
            seg[filled : filled + n] = seg[:n]
            filled += n
        for j in restored:
            if lo <= j < hi:
                seg[j - lo] = True
        if b == 1 and lo == 0 < hi:
            seg[0] = False  # 1
        for first, r, p in strikes:
            if first >= hi:
                break
            start = first if first >= lo else lo + (r - lo) % p
            seg[start - lo :: p] = False
        yield seg


def sieve_primes(
    limit: int,
    segment_size: int = SIEVE_SEGMENT_SIZE,
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES,
    reserved_bytes: int = 0,
) -> PrimeTable:
    """Segmented sieve of Eratosthenes over the odd numbers up to `limit`
    inclusive; entry i stands for 2i + 1.

    The segments are the windows of sieve_progression(1, 2, ...), each
    packed into the table as soon as it is sieved.  The peak storage is the
    packed table, one unpacked segment and its packed copy, and the
    sieve's pattern and base primes; that peak, plus the reserved_bytes the
    caller will hold beside the table (a sweep's class masks), is what
    memory_budget_bytes bounds.  segment_size counts odd entries and is
    rounded down to a multiple of 8 (at least 8) so segments start on a
    byte.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    segment_size = max(8, segment_size - segment_size % 8)
    entries = (limit + 1) // 2  # odd numbers <= limit
    nbytes = (entries + 7) // 8
    segment = min(segment_size, entries)
    peak = nbytes + segment + (segment + 7) // 8 + sieve_overhead_bytes(limit)
    if peak + reserved_bytes > memory_budget_bytes:
        raise MemoryBudgetError(
            f"sieving to {limit} needs {peak} bytes ({nbytes} packed plus "
            f"one segment) and {reserved_bytes} more are reserved, over the "
            f"{memory_budget_bytes}-byte budget"
        )

    bits = np.empty(nbytes, dtype=np.uint8)
    starts = range(0, entries, segment_size)
    windows = ((lo, min(lo + segment_size, entries)) for lo in starts)
    segments = sieve_progression(1, 2, limit, windows, np.empty(segment, dtype=bool))
    for lo, seg in zip(starts, segments):
        bits[lo >> 3 : (lo + len(seg) + 7) >> 3] = np.packbits(seg)
    return PrimeTable(limit=limit, bits=bits)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2^64.

    Miller-Rabin with the fixed witness set MILLER_RABIN_WITNESSES;
    the answer is exact, never probabilistic.  n in {0, 1} returns False.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MILLER_RABIN_WITNESSES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True

