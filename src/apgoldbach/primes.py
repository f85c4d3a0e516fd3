"""Prime generation and deterministic primality testing.

Provides a bit-packed segmented sieve (PrimeTable), a deterministic
Miller-Rabin test valid for the full 64-bit range, and extraction of
primes lying in fixed residue classes (PrimeTable.mask, the one place
that maps primes to their class).
"""

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

# Segment size (entries) for the segmented sieve; sized to stay cache-resident.
SIEVE_SEGMENT_SIZE = 1 << 20

# Default cap on the sieve's peak storage: the bit-packed table plus one
# unpacked segment and its packed copy.  This admits limits up to ~2.1*10^9.
DEFAULT_MEMORY_BUDGET_BYTES = 256 * 1024 * 1024

# Entries unpacked at a time by PrimeTable.mask, rounded to a multiple
# of lcm(8, m) so every chunk starts on a byte and on class 0.
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
    """Exact primality knowledge over [2, limit], bit-packed.

    Immutable after construction; safe to share across threads.
    """

    limit: int
    bits: np.ndarray = field(repr=False)  # packed, bit i <-> integer i; 0 past limit

    def __contains__(self, n: int) -> bool:
        if n < 0 or n > self.limit:
            return False
        return bool((self.bits[n >> 3] >> (7 - (n & 7))) & 1)

    def is_prime(self, n: int) -> bool:
        if n < 2 or n > self.limit:
            raise ValueError(f"n={n} outside table range [2, {self.limit}]")
        return n in self

    @property
    def count(self) -> int:
        return int.from_bytes(self.bits, "big").bit_count()

    def primes(self, lo: int = 2, hi: int | None = None) -> np.ndarray:
        """All primes in [lo, hi] as an int64 array, ascending."""
        hi = self.limit if hi is None else hi
        if hi > self.limit:
            raise ValueError(f"hi={hi} exceeds table limit {self.limit}")
        flags = np.unpackbits(self.bits, count=hi + 1)
        ps = np.flatnonzero(flags).astype(np.int64, copy=False)
        if lo > 2:
            ps = ps[ps >= lo]
        return ps

    def mask(
        self, hi: int, m: int = 1, classes: Iterable[int] = (0,)
    ) -> dict[int, np.ndarray]:
        """Primality along the progressions b + j*m for each b in classes.

        masks[b][j] is True iff b + j*m is a prime <= hi, for every j with
        b + j*m <= hi; one False entry follows, so masks[b][-1] is False.
        The defaults give the plain mask over [0, hi] as masks[0].  One
        pass over the packed bits unpacks a chunk of about _CLASS_CHUNK
        entries at a time, so no (hi + 1)-entry array is ever built.
        """
        if hi > self.limit:
            raise ValueError(f"hi={hi} exceeds table limit {self.limit}")
        if m < 1:
            raise ValueError(f"modulus m={m} must be >= 1")
        masks: dict[int, np.ndarray] = {}
        for b in classes:
            if not 0 <= b < m:
                raise ValueError(f"residue b={b} not in [0, {m})")
            masks[b] = np.zeros((hi - b) // m + 2, dtype=bool)
        step = math.lcm(8, m)
        step *= max(1, _CLASS_CHUNK // step)
        for lo in range(0, hi + 1, step):
            end = min(lo + step, hi + 1)
            flags = np.unpackbits(self.bits[lo >> 3 : (end + 7) >> 3], count=end - lo)
            j0 = lo // m
            for b, mask in masks.items():
                column = flags[b::m]
                mask[j0 : j0 + len(column)] = column
        return masks


@dataclass(frozen=True)
class ResidueClassPrimes:
    """Primes p <= limit with p = a (mod m), ascending."""

    a: int
    m: int
    limit: int
    primes: tuple[int, ...]


def sieve_primes(
    limit: int,
    segment_size: int = SIEVE_SEGMENT_SIZE,
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES,
) -> PrimeTable:
    """Segmented sieve of Eratosthenes up to `limit` inclusive.

    Each segment is packed into the table as soon as it is sieved, so the
    peak storage is the packed table plus one unpacked segment and its
    packed copy; that peak is what memory_budget_bytes bounds.
    segment_size is rounded down to a multiple of 8 (at least 8) so
    segments start on a byte.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    segment_size = max(8, segment_size - segment_size % 8)
    nbytes = (limit + 8) // 8
    segment = min(segment_size, limit + 1)
    peak = nbytes + segment + (segment + 7) // 8  # table, segment, its packed copy
    if peak > memory_budget_bytes:
        raise MemoryBudgetError(
            f"sieving to {limit} needs {peak} bytes ({nbytes} packed plus "
            f"one segment), over the {memory_budget_bytes}-byte budget"
        )

    root = int(limit**0.5) + 1
    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for p in range(2, int(root**0.5) + 1):
        if base[p]:
            base[p * p :: p] = False
    base_primes = np.flatnonzero(base).tolist()

    bits = np.empty(nbytes, dtype=np.uint8)
    buf = np.empty(segment, dtype=bool)
    lo = 0
    while lo <= limit:
        hi = min(lo + segment_size, limit + 1)
        seg = buf[: hi - lo]
        seg[:] = True
        if lo == 0:
            seg[: min(2, hi)] = False
        for p in base_primes:
            if p * p >= hi:
                break
            start = max(p * p, ((lo + p - 1) // p) * p)
            seg[start - lo :: p] = False
        bits[lo >> 3 : (hi + 7) >> 3] = np.packbits(seg)
        lo = hi
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


def primes_in_class(table: PrimeTable, a: int, m: int, limit: int) -> ResidueClassPrimes:
    """Primes p <= limit with p = a (mod m), read off a sieve table."""
    if not 0 <= a < m:
        raise ValueError(f"residue a={a} not in [0, {m})")
    if limit > table.limit:
        raise ValueError(f"limit {limit} exceeds table limit {table.limit}")
    js = np.flatnonzero(table.mask(limit, m, (a,))[a])
    primes = tuple((a + js * m).tolist())
    return ResidueClassPrimes(a=a, m=m, limit=limit, primes=primes)


def sieve_progression(a: int, m: int, limit: int) -> ResidueClassPrimes:
    """Primes = a (mod m) up to limit by testing the progression directly.

    Independent of any PrimeTable; used to cross-check primes_in_class.
    """
    if not 0 <= a < m:
        raise ValueError(f"residue a={a} not in [0, {m})")
    start = a if a >= 2 else a + m * ((2 - a + m - 1) // m)
    found = [n for n in range(start, limit + 1, m) if is_prime(n)]
    return ResidueClassPrimes(a=a, m=m, limit=limit, primes=tuple(found))
