"""Exceptional sets for Goldbach representations with both primes in
fixed residue classes.

The engine is two-staged: a vectorized scan marks every candidate n that
has a representation p + q with a small p (p <= M) drawn from the a-class
and q <= N from the b-class; the few unmarked candidates are then resolved
exhaustively with the deterministic primality test.

Stage 1 reads the b-class, whose entry j says whether b + j*m is prime,
one window of j at a time, and the small primes of class a up to M.  A
modulus sweep builds one ResidueIndex, a boolean mask per unit class read
off the packed odd bits of the table in one chunked pass
(PrimeTable.mask), and runs the engine on it once per unordered pair,
since E_{a,b,m} = E_{b,a,m}; its windows are zero-copy slices of the
masks.  A single pair builds no table and no N/m-entry mask: it sieves
the a-class up to M and then each b-window straight from its progression
(primes.sieve_progression), so its memory is flat in N.  With
n = c + k*m and a + b = c + t*m, p + q = n means q's index is k - i - t
for the prime p = a + i*m.  The first _VECTOR_PHASE_PRIMES small primes
each OR a shifted window into the candidate marks, one block of
_MARK_BLOCK candidates at a time so the marks stay in cache; the
remaining primes test the still-unmarked candidates in 2-D gathers,
window[unresolved[:, None] - pidx_block[None, :] - t - wlo] for the
window that starts at j = wlo, in blocks of at most _GATHER_BLOCK_ELEMENTS
elements.  Stage 1 tries every small prime
up to M, so only survivors above M + 2 go to stage 2.
"""

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .primes import (
    DEFAULT_MEMORY_BUDGET_BYTES,
    MemoryBudgetError,
    PrimeTable,
    is_prime,
    sieve_overhead_bytes,
    sieve_primes,
    sieve_progression,
)

# Stage-1 primes handled with whole-array ORs before switching to the
# gathers over the remaining candidates.
_VECTOR_PHASE_PRIMES = 64

# Candidates marked per block by those ORs; a block's marks and the
# b-mask slices it reads stay cache-resident.
_MARK_BLOCK = 1 << 18

# Candidates per stage-1 window of a single pair, beside the entries below
# them that the largest shift reaches; one sieve segment's worth.
_WINDOW = 1 << 20

# Maps the j ranges of the b-class windows, in order, to the windows.
Windows = Callable[[list[tuple[int, int]]], Iterable[np.ndarray]]

# Cap on the elements (candidates x primes) of one stage-1 tail gather
# block; its int64 index matrix takes 8 bytes an element, 512 KiB here,
# which keeps a pair's stage-1 scratch below half of one N/m-entry mask
# at N = 10^7.
_GATHER_BLOCK_ELEMENTS = 1 << 16


def default_stage1_bound(m: int) -> int:
    """Adaptive bound M for the small prime set; grows with the modulus."""
    return max(10**4, math.ceil(m * math.log(max(m, 3)) ** 2 * 50))


@dataclass(frozen=True, order=True)
class AdmissiblePair:
    """Residues (a, b) coprime to an even modulus m."""

    a: int
    b: int
    m: int

    def __post_init__(self):
        if self.m < 2 or self.m % 2 != 0:
            raise ValueError(
                f"modulus must be a positive even integer, got {self.m} "
                "(double an odd modulus instead)"
            )
        for r in (self.a, self.b):
            if not 0 < r < self.m:
                raise ValueError(f"residue {r} not a canonical unit in (0, {self.m})")
            if math.gcd(r, self.m) != 1:
                raise ValueError(f"residue {r} not coprime to modulus {self.m}")

    @property
    def target_residue(self) -> int:
        """Residue class of the even numbers this pair can represent."""
        return (self.a + self.b) % self.m


@dataclass(frozen=True)
class PartitionWitness:
    n: int
    p: int
    q: int


@dataclass(frozen=True)
class ExceptionalSet:
    """All even n <= search_limit in the pair's class with no representation."""

    pair: AdmissiblePair
    search_limit: int
    stage1_bound: int
    elements: tuple[int, ...]
    stage1_survivors: int  # candidates that reached stage 2 but are not exceptions
    confirmed: bool

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def max_element(self) -> int:
        return self.elements[-1] if self.elements else 0


def find_witness(
    n: int,
    pair: AdmissiblePair,
    oracle: Callable[[int], bool] = is_prime,
) -> Optional[PartitionWitness]:
    """Representation n = p + q with p = a, q = b (mod m), smallest p.

    Scans p ascending through the a-class; q = n - p automatically lies in
    the b-class.  Returns None when no p <= n - 2 works.
    """
    if n % 2 != 0:
        raise ValueError(f"n={n} must be even")
    if n % pair.m != pair.target_residue:
        raise ValueError(
            f"n={n} is not congruent to a+b={pair.a + pair.b} mod {pair.m}"
        )
    p = pair.a
    while p <= n - 2:
        if oracle(p) and oracle(n - p):
            return PartitionWitness(n=n, p=p, q=n - p)
        p += pair.m
    return None


def _candidate_params(pair: AdmissiblePair, N: int) -> tuple[int, int, int, int]:
    """Candidate n = c + k*m for k0 <= k <= kmax, plus carry t with
    a + b = c + t*m."""
    m = pair.m
    c = pair.target_residue
    t = (pair.a + pair.b - c) // m
    k0 = 1 if c < 2 else 0  # n >= 2; c == 0 means multiples of m
    kmax = (N - c) // m
    return c, t, k0, kmax


class ResidueIndex:
    """The primes <= N of some unit classes mod m, read off the table in
    one pass.

    masks[b][j] is True iff b + j*m is prime, for every j with
    b + j*m <= N; one False entry follows, so masks[b][-1] is False.  The
    keys of masks follow the order of `classes`.
    """

    def __init__(self, table: PrimeTable, m: int, N: int, classes: Iterable[int]):
        if table.limit < N:
            raise ValueError(f"table limit {table.limit} below N={N}")
        self.m = m
        self.N = N
        self.masks = table.mask(N, m, classes)

    def stage1_source(self, pair: AdmissiblePair, M: int) -> tuple[np.ndarray, Windows]:
        """Stage 1's inputs read off the masks: the b-windows are zero-copy
        slices that run to the mask's final False entry."""
        qmask = self.masks[pair.b]
        pidx = np.flatnonzero(self.masks[pair.a][: max(0, (M - pair.a) // self.m + 1)])
        return pidx, lambda ranges: (qmask[lo:] for lo, _ in ranges)


def class_mask_bytes(m: int, N: int) -> int:
    """Bytes of a ResidueIndex over every unit class mod m up to N."""
    return sum((N - b) // m + 2 for b in range(1, m) if math.gcd(b, m) == 1)


def _sieved_source(pair: AdmissiblePair, N: int, M: int) -> tuple[np.ndarray, Windows]:
    """Stage 1's inputs for one pair, sieved along its two progressions:
    no table and no N/m-entry mask.

    The a-class up to M is the window [0, (M - a)//m] of its own
    progression, kept only as the indices of its primes; each b-window is
    sieved into one reused buffer, with a False entry after it.  Before
    each allocation the budget counts the a-mask, the int64 indices once
    known, the buffer once its size is, and the sieve's pattern and base
    primes.
    """
    a, b, m = pair.a, pair.b, pair.m
    entries = max(0, (M - a) // m + 1)

    def reserve(primes: int, window: int) -> None:
        need = entries + 8 * primes + window + sieve_overhead_bytes(N)
        if need > DEFAULT_MEMORY_BUDGET_BYTES:
            raise MemoryBudgetError(
                f"pair {pair} at N={N}, M={M} needs {need} bytes ({entries} of "
                f"small-prime mask, {window} of window), over the "
                f"{DEFAULT_MEMORY_BUDGET_BYTES}-byte budget"
            )

    reserve(0, 0)
    pidx = np.zeros(0, dtype=np.int64)
    if entries:
        amask = next(sieve_progression(a, m, M, [(0, entries)], np.empty(entries, bool)))
        reserve(int(np.count_nonzero(amask)), 0)
        pidx = np.flatnonzero(amask)

    def windows(ranges: list[tuple[int, int]]) -> Iterator[np.ndarray]:
        size = max(hi - lo for lo, hi in ranges)
        reserve(len(pidx), size + 1)
        buf = np.empty(size + 1, dtype=bool)
        for (lo, hi), _ in zip(ranges, sieve_progression(b, m, N, ranges, buf)):
            buf[hi - lo] = False
            yield buf[: hi - lo + 1]

    return pidx, windows


def _stage1_unresolved(
    pair: AdmissiblePair, N: int, M: int, index: Optional[ResidueIndex] = None
) -> list[int]:
    """Candidates n <= N not representable with p <= M; ascending.

    The b-class comes one window at a time, from `index` when given and
    otherwise sieved (_sieved_source).  Each window serves _WINDOW + span
    candidates and reaches the span entries below them, span being the
    largest shift, so at most half of what is sieved is overlap.
    """
    m = pair.m
    c, t, k0, kmax = _candidate_params(pair, N)
    if kmax < k0:
        return []
    pidx, windows = (
        _sieved_source(pair, N, M) if index is None else index.stage1_source(pair, M)
    )
    if not len(pidx):  # p = a + i*m <= M: none when M < a
        return list(range(c + k0 * m, N + 1, m))

    # marking: p + q = c + (i + j + t)*m, so prime index i shifts the
    # b-class by i + t; candidate k reads q = b + j*m at j = k - i - t
    shifts = (pidx[:_VECTOR_PHASE_PRIMES] + t).tolist()
    tail = pidx[_VECTOR_PHASE_PRIMES:] + t
    span = int(pidx[-1]) + t
    step = _WINDOW + span
    starts = range(k0, kmax + 1, step)
    count = (N - pair.b) // m + 1  # j with b + j*m <= N
    ranges = [(max(lo - span, 0), min(lo + step, count)) for lo in starts]
    found = []
    for lo, (wlo, _), window in zip(starts, ranges, windows(ranges)):
        # window[x] is j = wlo + x, and window[-1] is False
        hi = min(lo + step, kmax + 1)
        blocks = []
        for blo in range(lo, hi, _MARK_BLOCK):
            bhi = min(blo + _MARK_BLOCK, hi)
            mark = np.zeros(bhi - blo, dtype=bool)
            for shift in shifts:
                if shift >= bhi:
                    break
                jlo = max(blo - shift, 0)
                mark[jlo + shift - blo :] |= window[jlo - wlo : bhi - shift - wlo]
            np.logical_not(mark, out=mark)
            blocks.append(np.flatnonzero(mark) + blo)
        unresolved = np.concatenate(blocks)
        # the rest in blocks: one row per candidate k, one column per prime
        # index i; j never passes the window, and j < 0 (p > n) is clamped
        # to the False entry
        start = 0
        while start < len(tail) and len(unresolved):
            width = max(1, _GATHER_BLOCK_ELEMENTS // len(unresolved))
            j = unresolved[:, None] - (tail[start : start + width] + wlo)[None, :]
            np.maximum(j, -1, out=j)
            unresolved = unresolved[~window[j].any(axis=1)]
            start += width
        found.append(unresolved)
    return (c + np.concatenate(found) * m).tolist()


def exceptional_set(
    pair: AdmissiblePair,
    N: int,
    M: Optional[int] = None,
    index: Optional[ResidueIndex] = None,
) -> ExceptionalSet:
    """Compute E_{a,b,m} up to N with the two-stage algorithm.

    Stage 1 reads `index` (modulus pair.m, limit N, classes a and b) when
    given; otherwise it sieves the pair's two progressions itself, one
    window at a time.  Stage 1 tries every prime p = a (mod m) up to M, so
    an unmarked n <= M + 2 has no representation, and stage 2 resolves
    only the survivors above it.
    """
    if N < 2:
        raise ValueError(f"search limit N={N} must be >= 2")
    if M is None:
        M = min(default_stage1_bound(pair.m), N)
    if M > N:
        raise ValueError(f"stage-1 bound M={M} exceeds N={N}")
    if index is not None and (index.m, index.N) != (pair.m, N):
        raise ValueError(
            f"index for m={index.m}, N={index.N} does not match m={pair.m}, N={N}"
        )

    survivors = _stage1_unresolved(pair, N, M, index)
    elements = [n for n in survivors if n <= M + 2 or find_witness(n, pair) is None]
    return ExceptionalSet(
        pair=pair,
        search_limit=N,
        stage1_bound=M,
        elements=tuple(elements),
        stage1_survivors=len(survivors) - len(elements),
        confirmed=True,
    )


def _modulus_index(m: int, N: int, table: Optional[PrimeTable]) -> ResidueIndex:
    """One ResidueIndex over every unit class mod the even modulus m."""
    if m < 2 or m % 2 != 0:
        raise ValueError(
            f"modulus must be a positive even integer, got {m} "
            "(double an odd modulus instead)"
        )
    if table is None:
        table = sieve_primes(N, reserved_bytes=class_mask_bytes(m, N))
    return ResidueIndex(table, m, N, [a for a in range(1, m) if math.gcd(a, m) == 1])


def _modulus_sets(
    index: ResidueIndex, M: Optional[int]
) -> dict[tuple[int, int], tuple[int, ...]]:
    """exceptional_sets_for_modulus, read off a modulus-wide index."""
    m, N = index.m, index.N
    if M is None:
        M = min(default_stage1_bound(m), N)
    units = list(index.masks)
    out: dict[tuple[int, int], tuple[int, ...]] = {}
    for a in units:
        for b in units:
            if a <= b:
                es = exceptional_set(AdmissiblePair(a, b, m), N, M=M, index=index)
                out[(a, b)] = out[(b, a)] = es.elements
    return dict(sorted(out.items()))


def exceptional_sets_for_modulus(
    m: int,
    N: int,
    M: Optional[int] = None,
    table: Optional[PrimeTable] = None,
) -> dict[tuple[int, int], tuple[int, ...]]:
    """The elements of E_{a,b,m} for every ordered admissible pair, keyed
    by (a, b).

    E_{a,b,m} = E_{b,a,m}, so each unordered pair runs the engine once,
    with the smaller residue as the small-prime class, and (b, a) shares
    the tuple of (a, b).  Every pair reads one ResidueIndex, so the table
    is read once.
    """
    return _modulus_sets(_modulus_index(m, N, table), M)


@dataclass(frozen=True)
class SurvivorDiagnostic:
    """Stage-1 survivor counts for a whole modulus under several tallies.

    ordered_with_multiplicity sums the per-orientation counts over all
    ordered pairs; distinct_n counts distinct surviving values across
    pairs; unordered_canonical runs stage 1 once per unordered pair with
    the smaller residue as the small-prime class.
    """

    m: int
    N: int
    M: int
    ordered_with_multiplicity: int
    distinct_n: int
    unordered_canonical: int


def stage1_survivor_diagnostic(
    m: int, N: int, M: int, table: Optional[PrimeTable] = None
) -> SurvivorDiagnostic:
    """Count stage-1 survivors (unresolved non-exceptions) for modulus m.

    The roles of the small-prime class and the long class differ, so each
    ordered pair runs stage 1 in its own orientation; its survivors are
    the unresolved candidates that are not elements.
    """
    index = _modulus_index(m, N, table)
    survivors = {
        (a, b): set(_stage1_unresolved(AdmissiblePair(a, b, m), N, M, index))
        - set(elements)
        for (a, b), elements in _modulus_sets(index, M).items()
    }
    return SurvivorDiagnostic(
        m=m,
        N=N,
        M=M,
        ordered_with_multiplicity=sum(map(len, survivors.values())),
        distinct_n=len(set().union(*survivors.values())),
        unordered_canonical=sum(len(s) for (a, b), s in survivors.items() if a <= b),
    )


# ---------------------------------------------------------------------------
# The explicit conjectures, each reduced to exceptional sets


@dataclass(frozen=True)
class ViolationReport:
    """Even multiples n of modulus with no representation p + q where
    p = residue and q = -residue (mod modulus)."""

    modulus: int
    residue: int
    violations: tuple[int, ...]


def _odd_lift(r: int, m0: int) -> int:
    """The odd residue modulo the least even multiple of m0 that is r mod m0."""
    x = r % m0
    return x if x % 2 else x + m0


def _progression_violations(m0: int, r: int, N: int) -> ViolationReport:
    """Violations among even multiples of m0 for p = r, q = -r (mod m0).

    This is E(a', b', step) with step the least even multiple of m0 and
    a', b' the odd lifts of r and -r.  The prime 2 lies in a class mod m0
    only when m0 is odd; every candidate is then a multiple of 2*m0 >= 6,
    so the partner of 2 is even and above 2, never prime.
    """
    step = m0 if m0 % 2 == 0 else 2 * m0
    pair = AdmissiblePair(_odd_lift(r, m0), _odd_lift(-r, m0), step)
    return ViolationReport(
        modulus=m0,
        residue=r % m0,
        violations=exceptional_set(pair, N).elements,
    )


MOD4_CASES = ("i", "ii", "iii", "iv")

# (a, b) mod 4 of the exceptional set that is exactly the case's violations
_MOD4_PAIRS = {"ii": (1, 3), "iii": (3, 3), "iv": (1, 1)}


def verify_conjecture_mod4(case: str, N: int) -> tuple[int, ...]:
    """Violations of the stated mod-4 representation case up to N.

    Cases: (i) even n > 4 with p = 3 mod 4 and q unrestricted;
    (ii) n = 0 mod 4 with p = 1, q = 3 mod 4; (iii) n = 2 mod 4 with
    p = q = 3 mod 4; (iv) n = 2 mod 4 with p = q = 1 mod 4.  Cases
    (ii)-(iv) report the small exceptions; case (i) excludes n <= 4 by
    its statement.
    """
    if case not in MOD4_CASES:
        raise ValueError(f"unknown case {case!r}, expected one of {MOD4_CASES}")
    if N < 2:
        raise ValueError(f"N={N} must be >= 2")
    if case != "i":
        a, b = _MOD4_PAIRS[case]
        return exceptional_set(AdmissiblePair(a, b, 4), N).elements
    # q = 2 would make p + q odd, so q is odd: q = 1 mod 4 reaches the
    # n = 0 mod 4 and q = 3 mod 4 the n = 2 mod 4
    elements = [
        n
        for b in (1, 3)
        for n in exceptional_set(AdmissiblePair(3, b, 4), N).elements
    ]
    return tuple(sorted(n for n in elements if n > 4))


SAMPLE_ITEMS = ("i", "ii", "iii", "iv", "v", "vi", "vii")

# (modulus, p-residues checked) per item; item vii takes a caller residue.
_SAMPLE_SPECS = {
    "i": (3, (1,)),
    "ii": (5, (2, 1)),
    "iii": (7, (3,)),
    "iv": (11, (3,)),
    "v": (8, (3,)),
    "vi": (16, (3,)),
}


def verify_conjecture_samples(
    item: str, N: int, a: Optional[int] = None
) -> tuple[ViolationReport, ...]:
    """Violations for the sample single-progression conjectures.

    Each item asserts every even multiple of the stated modulus is p + q
    with p = r and q = -r (mod modulus); item (ii) checks both stated
    residues, item (vii) checks a caller-supplied residue mod 60.
    """
    if item not in SAMPLE_ITEMS:
        raise ValueError(f"unknown item {item!r}, expected one of {SAMPLE_ITEMS}")

    if item == "vii":
        if a is None:
            raise ValueError("item vii requires a residue a coprime to 60")
        if math.gcd(a, 60) != 1:
            raise ValueError(f"a={a} is not coprime to 60")
        if a % 60 in (1, 59, 11, 49):
            raise ValueError(
                f"a={a} is congruent to +-1 or +-11 mod 60, excluded by the statement"
            )
        return (_progression_violations(60, a, N),)

    m0, residues = _SAMPLE_SPECS[item]
    return tuple(_progression_violations(m0, r, N) for r in residues)


def verify_ternary(
    N: int, table: Optional[PrimeTable] = None
) -> tuple[int, ...]:
    """Odd n with 5 < n <= N not of the form p + q + r with
    p = q = 2 (mod 3) and r prime.

    For odd n >= 7 exactly one r in {3, 5, 7} leaves k = n - r = 4 (mod 6),
    and that k is at least 4; n passes with that r unless k is a binary
    violation.  So only the k + r with k a violation and r in {3, 5, 7}
    fall back to a scan over every prime r, read off `table`, or off a
    table sieved to the largest of them when that is omitted.
    """
    if N < 7:
        raise ValueError(f"N={N} must be >= 7")

    # representable even k = 4 mod 6 as p + q with p, q = 2 mod 3: the
    # odd primes make E(5, 5, 6), and the prime 2 adds only 4 = 2 + 2
    binary_violations = set(
        exceptional_set(AdmissiblePair(5, 5, 6), N).elements
    ) - {4}

    def rep(k: int) -> bool:
        return k % 6 == 4 and k >= 4 and k not in binary_violations

    fallback = sorted(
        {k + r for k in binary_violations for r in (3, 5, 7) if k + r <= N}
    )
    if not fallback:
        return ()
    if table is None:
        table = sieve_primes(fallback[-1])
    rs = table.primes(hi=fallback[-1]).tolist()
    return tuple(n for n in fallback if not any(rep(n - r) for r in rs))
