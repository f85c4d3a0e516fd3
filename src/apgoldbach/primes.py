"""Prime generation and deterministic primality testing.

Provides one segmented sieve along a progression b + j*m, window by window
(sieve_progression), which strikes a bytearray and imports no numpy; its
case m = 2, b = 1 over the odd numbers (sieve_primes), which returns a
table (PrimeTable) of their flags, one byte each, whose reader
PrimeTable.primes hands them to the int-bitset sweep without a copy, or
bit-packed, whose reader PrimeTable.mask extracts the packed copies of
fixed residue classes for the packed sweep; the budget check that sums
every storage count's named parts and words each refusal (check_budget);
and a deterministic Miller-Rabin test valid for the full 64-bit range.
Only the packed table, mask and pack_copies import numpy, when called.
"""

from __future__ import annotations

import math
import sys
from itertools import compress
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np

# Segment size (odd entries) for the table's sieve; sized to stay
# cache-resident.
SIEVE_SEGMENT_SIZE = 1 << 20

# Cap on peak storage, read by check_budget at each call.  For a table:
# the packed odd bits plus one unpacked segment, its packed copy, the
# presieve pattern, the base-prime sieve and its strikes, which admits
# limits up to ~4.25*10^9; a sweep counts the table and one window's
# buffers, a few MB whatever N, so its limit is nearly the table's.  A
# single pair counts its sieved windows against the same cap, and the
# strikes of its base primes up to sqrt(N) fill it at ~3*10^14.
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


def check_budget(what: str, parts: dict[str, int]) -> int:
    """The bytes that `what` needs, the sum of its parts {name: bytes};
    first, MemoryBudgetError naming `what`, that sum and each part if it
    exceeds DEFAULT_MEMORY_BUDGET_BYTES, which is read at each call."""
    need = sum(parts.values())
    if need > DEFAULT_MEMORY_BUDGET_BYTES:
        named = ", ".join(f"{v} of {k}" for k, v in parts.items())
        raise MemoryBudgetError(f"{what} needs {need} bytes ({named}), over the "
                                f"{DEFAULT_MEMORY_BUDGET_BYTES}-byte budget")
    return need


class PrimeTable(NamedTuple):
    """Exact primality knowledge over [2, limit] on the odd numbers, entry
    i for 2i + 1; the prime 2 is implicit.  Packed, entry i is bit i of
    bits, big-endian, which PrimeTable.mask reads; otherwise byte i, 0 or
    1, the odd flags that PrimeTable.primes reads.  Entries past limit
    are 0.

    Immutable after construction; forked workers read it copy-on-write.
    """

    limit: int
    bits: memoryview  # read-only bytes
    packed: bool = True

    def primes(self) -> bytes:
        """The odd flags of an unpacked table: byte i is 1 iff 2i + 1 is a
        prime <= limit, for i below len(bits).  The bytes that bits views,
        with no copy, which a strided slice or an index reads faster than
        a memoryview."""
        if self.packed:
            raise ValueError("a packed table has no odd flags; read it with mask")
        return self.bits.obj

    def mask(self, hi: int, m: int, classes: Sequence[int], out: np.ndarray,
             start: int = 0) -> None:
        """Primality along the progressions b + j*m for each b in classes,
        written packed: out is a zeroed uint8 array of shape (8,
        len(classes), width), and out[:, k] receives the entries j >= start
        (a multiple of 8) of the k-th class, entry j True iff b + j*m is a
        prime <= hi, as the eight bit-shifted copies of pack_copies clipped
        to width bytes: bit y of out[r, k] is entry start + y - r, or False.

        m is even and every class odd, so the entries of class b are the
        odd indices b//2 + j*m/2.  One pass over the odd bits unpacks a
        chunk of about _CLASS_CHUNK entries at a time and packs each
        class's column; no (hi + 1)-entry array is ever built.
        """
        import numpy as np

        if not self.packed:
            raise ValueError("mask reads a packed table; read the odd flags with primes")
        if hi > self.limit:
            raise ValueError(f"hi={hi} exceeds table limit {self.limit}")
        if m < 2 or m % 2 or any(b % 2 == 0 or not 0 < b < m for b in classes):
            raise ValueError("packed masks need an even modulus and odd classes in [0, m)")
        bits = np.frombuffer(self.bits, dtype=np.uint8)  # no copy
        half = m // 2  # odd-index step of every class
        step = 8 * half * max(1, _CLASS_CHUNK // (8 * half))
        entries = (hi + 1) // 2  # odd numbers <= hi
        for lo in range(start * half, entries, step):
            end = min(lo + step, entries)
            flags = np.unpackbits(bits[lo >> 3 : (end + 7) >> 3], count=end - lo)
            padded = np.zeros((len(classes), (end - lo) // half + 8), dtype=bool)
            for row, b in zip(padded, classes):
                column = flags[b // 2 :: half]
                row[7 : 7 + len(column)] = column
            pack_copies(padded, out, lo // half - start)


def pack_copies(padded: np.ndarray, out: np.ndarray, start: int = 0) -> None:
    """OR runs of bool entries into eight bit-shifted packed copies.

    padded[..., 7:] are entries start, start + 1, ... (start a multiple of
    8) of each row and padded[..., :7] are the entries start - 7, ...,
    start - 1 or False; out[r] has the same leading axes.  Bit y of
    out[r], in np.packbits order, is entry y - r, so a shift s is whole
    bytes of copy s % 8 at byte offset s // 8.  Bits past out's width are
    dropped; bytes shared with a neighbouring run are ORed, so the runs of
    one out may come in any order.
    """
    import numpy as np

    for r in range(8):
        packed = np.packbits(padded[..., 7 - r :], axis=-1)
        dest = out[r, ..., start >> 3 :]
        dest[..., : packed.shape[-1]] |= packed[..., : dest.shape[-1]]


def table_bytes(limit: int, packed: bool = True) -> int:
    """Bytes of sieve_primes(limit, packed)'s table: odd bits or flags."""
    return ((limit + 1) // 2 + 7) // 8 * (1 if packed else 8)


def sieve_overhead_bytes(limit: int, window: int) -> int:
    """Bytes sieve_progression holds beside its `window`-byte output
    buffer: two periods of the presieve pattern, the sieve of the base
    primes up to sqrt(limit), the zeros of one strike, which cover at
    most a third of the pattern, half of the base-prime sieve or a 17th
    of the buffer, and the list of strikes.  That list holds a tuple of
    three ints, none above limit, and up to three list slots (a growing
    list's old and new arrays, or sort's scratch) for each base prime,
    of which there are fewer than 1.25506 r/ln r for r = sqrt(limit) >=
    2 (Rosser and Schoenfeld, 1962)."""
    root = math.isqrt(limit)
    strike = max(2 * _PRESIEVE_PERIOD // 3, (root + 1) // 2, window // 17) + 1
    bases = int(1.25506 * root / math.log(root)) + 1 if root > 1 else 0
    each = (sys.getsizeof((limit,) * 3) + 3 * sys.getsizeof(limit)
            + sys.getsizeof([None] * 3) - sys.getsizeof([]))
    return 2 * _PRESIEVE_PERIOD + root + 1 + strike + bases * each


def sieve_progression(
    b: int, m: int, limit: int, windows: Iterable[tuple[int, int]], out: bytearray
) -> Iterator[bytearray]:
    """Segmented sieve of Eratosthenes along the progression b + j*m.

    For each window (lo, hi) of j, in the order given, writes hi - lo
    bytes to the front of `out` and yields it: byte x is 1 iff b + (lo +
    x)*m is prime, else 0.  The answer is exact for values up to
    `limit`; windows must not pass it, and may start below j = 0, whose
    values are negative.  m is even and b a unit mod m, so every entry is
    odd; sieve_primes is the case m = 2, b = 1.  `out` is reused: each
    window overwrites the last, and the bytes past it are stale.

    Each window starts as a copy of the pattern that the primes 3-13 not
    dividing m leave (its period is their product), with those primes
    restored where they lie in the class and 1 cleared.  Every larger base
    prime p <= sqrt(limit) with p not dividing m then strikes from the
    first j with p | b + j*m and b + j*m >= p*p, with stride p: one
    extended-slice assignment of zeros into `out` itself, which a
    memoryview would make about 3x slower.  Beside `out`, the sieve holds
    sieve_overhead_bytes(limit, len(out)).
    """
    if m < 2 or m % 2 or math.gcd(b, m) != 1:
        raise ValueError(f"need an even modulus and a unit residue, got b={b}, m={m}")
    root = math.isqrt(limit)
    base = bytearray(2) + bytearray(b"\x01") * (root - 1)  # entries 0 to root
    for p in range(2, math.isqrt(root) + 1):
        if base[p]:
            base[p * p :: p] = bytearray(len(range(p * p, len(base), p)))

    def first_multiple(p: int) -> int:  # least j >= 0 with p | b + j*m
        return -b * pow(m, -1, p) % p

    presieve = [p for p in _PRESIEVE_PRIMES if m % p]
    period = math.prod(presieve)
    # two periods, so any offset into the first is followed by a whole period
    pattern = bytearray(b"\x01") * (2 * period)
    for p in presieve:
        first = first_multiple(p)
        pattern[first :: p] = bytearray(len(range(first, len(pattern), p)))  # p included
    restored = [(p - b) // m for p in presieve if p % m == b]
    strikes = []  # (first j at or above p*p, first j of any multiple, p)
    for p in compress(range(len(base)), base):
        if p > _PRESIEVE_PRIMES[-1] and m % p:
            r = first_multiple(p)
            j = max(0, -(-(p * p - b) // m))
            strikes.append((j + (r - j) % p, r, p))
    strikes.sort()  # so the first strike past a window ends the scan

    # contiguous copies through views need no temporary copy of the source
    with memoryview(out) as view, memoryview(pattern) as source:
        for lo, hi in windows:
            n = hi - lo
            filled = min(period, n)
            offset = lo % period
            view[:filled] = source[offset : offset + filled]
            while filled < n:  # a whole number of periods: double it
                k = min(filled, n - filled)
                view[filled : filled + k] = view[:k]
                filled += k
            for j in restored:
                if lo <= j < hi:
                    out[j - lo] = 1
            if lo < 0:  # negative values
                view[: min(-lo, n)] = bytes(min(-lo, n))
            if b == 1 and lo <= 0 < hi:
                out[-lo] = 0  # 1
            for first, r, p in strikes:
                if first >= hi:
                    break
                start = (first if first >= lo else lo + (r - lo) % p) - lo
                if start < n:  # an empty extended slice would still need a resize
                    out[start:n:p] = bytearray((n - 1 - start) // p + 1)
            yield out


def sieve_primes(limit: int, packed: bool = True) -> PrimeTable:
    """Segmented sieve of Eratosthenes over the odd numbers up to `limit`
    inclusive, entry i for 2i + 1, in segments of SIEVE_SEGMENT_SIZE odd
    entries (read at each call, rounded down to a multiple of 8, at least
    8) that sieve_progression(1, 2, ...) sieves one at a time.

    Packed, np.packbits packs each segment into the table; otherwise, with
    no numpy, it is copied into odd flags, 8 times as many bytes as
    packed, which the table holds as one bytes copy, made once the
    segment and the sieve are released.  check_budget bounds its parts:
    the output, the sieve's storage (sieve_overhead_bytes) and one segment
    and the packed segment, or one segment or the flags' copy if larger.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    segment_size = max(8, SIEVE_SEGMENT_SIZE - SIEVE_SEGMENT_SIZE % 8)
    entries = (limit + 1) // 2  # odd numbers <= limit
    size = table_bytes(limit, packed)
    segment = min(segment_size, entries)
    parts = ({"packed table": size, "one segment": segment, "packed segment": (segment + 7) // 8}
             if packed else {"odd flags": size, "one segment or their copy": max(segment, size)})
    parts["sieve pattern and base primes"] = sieve_overhead_bytes(limit, segment)
    check_budget(f"sieving to {limit}", parts)

    out, buf = bytearray(size), bytearray(segment)
    windows = [(lo, min(lo + segment_size, entries)) for lo in range(0, entries, segment_size)]
    segments = sieve_progression(1, 2, limit, windows, buf)
    if not packed:  # through views: a bytearray copies any other source first
        with memoryview(out) as dest, memoryview(buf) as source:
            for (lo, hi), _ in zip(windows, segments):
                dest[lo:hi] = source[: hi - lo]
        del buf, segments, _  # so that the copy is counted beside the flags alone
        return PrimeTable(limit=limit, bits=memoryview(bytes(out)), packed=False)
    import numpy as np

    bits = np.frombuffer(out, dtype=np.uint8)  # a view; a short last byte's low bits stay 0
    for (lo, hi), _ in zip(windows, segments):
        bits[lo >> 3 : (hi + 7) >> 3] = np.packbits(np.frombuffer(buf, np.uint8, hi - lo))
    return PrimeTable(limit=limit, bits=memoryview(out).toreadonly())


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

