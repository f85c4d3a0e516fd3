"""Prime generation and deterministic primality testing.

Provides a bit-packed segmented sieve (PrimeTable), a deterministic
Miller-Rabin test valid for the full 64-bit range, and extraction of
primes lying in fixed residue classes (residue_classes, the one place
that maps primes to their class).
"""

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

# Segment size (entries) for the segmented sieve; sized to stay cache-resident.
SIEVE_SEGMENT_SIZE = 1 << 20

# Default cap on sieve storage.  The table is bit-packed, so this admits
# limits up to ~2*10^9.
DEFAULT_MEMORY_BUDGET_BYTES = 256 * 1024 * 1024

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
    bits: np.ndarray = field(repr=False)  # packed, bit i <-> integer i

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
        return int(np.unpackbits(self.bits, count=self.limit + 1).sum())

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

    def mask(self, hi: int | None = None) -> np.ndarray:
        """Unpacked boolean primality mask over [0, hi]."""
        hi = self.limit if hi is None else hi
        if hi > self.limit:
            raise ValueError(f"hi={hi} exceeds table limit {self.limit}")
        return np.unpackbits(self.bits, count=hi + 1).astype(bool)


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
    """Segmented sieve of Eratosthenes up to `limit` inclusive."""
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    nbytes = (limit + 8) // 8
    if nbytes > memory_budget_bytes:
        raise MemoryBudgetError(
            f"sieving to {limit} needs {nbytes} bytes, over the "
            f"{memory_budget_bytes}-byte budget"
        )

    root = int(limit**0.5) + 1
    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for p in range(2, int(root**0.5) + 1):
        if base[p]:
            base[p * p :: p] = False
    base_primes = np.flatnonzero(base)

    flags = np.zeros(limit + 1, dtype=bool)
    lo = 0
    while lo <= limit:
        hi = min(lo + segment_size, limit + 1)
        seg = np.ones(hi - lo, dtype=bool)
        if lo == 0:
            seg[: min(2, hi)] = False
        for p in base_primes:
            p = int(p)
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start >= hi:
                continue
            seg[start - lo :: p] = False
        flags[lo:hi] = seg
        lo = hi
    return PrimeTable(limit=limit, bits=np.packbits(flags))


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
    js = residue_classes(table.primes(hi=limit), m, (a,))[a]
    primes = tuple((a + js * m).tolist())
    return ResidueClassPrimes(a=a, m=m, limit=limit, primes=primes)


def residue_classes(
    ps: np.ndarray, m: int, classes: Iterable[int]
) -> dict[int, np.ndarray]:
    """The primes of the ascending array ps in each class a (mod m), as
    progression indices j with p = a + j*m, ascending.

    The int64 residue temporary lives only inside this call.
    """
    residues = ps % m
    return {a: ps[residues == a] // m for a in classes}


def sieve_progression(a: int, m: int, limit: int) -> ResidueClassPrimes:
    """Primes = a (mod m) up to limit by testing the progression directly.

    Independent of any PrimeTable; used to cross-check primes_in_class.
    """
    if not 0 <= a < m:
        raise ValueError(f"residue a={a} not in [0, {m})")
    start = a if a >= 2 else a + m * ((2 - a + m - 1) // m)
    found = [n for n in range(start, limit + 1, m) if is_prime(n)]
    return ResidueClassPrimes(a=a, m=m, limit=limit, primes=tuple(found))
