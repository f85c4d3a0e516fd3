"""Exceptional sets for Goldbach representations with both primes in
fixed residue classes.

The engine is two-staged: a vectorized scan marks every candidate n that
has a representation p + q with a small p (p <= M) drawn from the a-class
and q <= N from the b-class; the few unmarked candidates are then resolved
exhaustively with the deterministic primality test.

Stage 1 reads the b-class, whose entry j says whether b + j*m is prime,
and the small primes p = a + i*m up to M.  Candidates are indexed by
s = i + j, n = a + b + s*m, so prime index i marks s wherever entry s - i
is prime; the one other candidate, a + b - m when it is at least 2, is
never marked.  The b-class is held as eight bit-shifted packed copies
(primes.pack_copies), so a shift is whole-byte ORs of copy i % 8 at byte
offset i // 8.  The first _VECTOR_PHASE_PRIMES shifts OR into packed
marks one block at a time, so the marks stay in cache; the survivors are
the unset bits of the few marks bytes that hold any, and the remaining
primes test them in 2-D gathers of bit j of copy 0, in blocks that start
at _GATHER_FIRST_ELEMENTS elements and double up to _GATHER_BLOCK_ELEMENTS.
Stage 1 tries every small prime up to M, so only survivors above M + 2 go
to stage 2, which tries only p > M.

A modulus sweep builds one ResidueIndex, the copies of every unit class
read off the table's odd bits in one chunked pass (PrimeTable.mask).
Since E_{a,b,m} = E_{b,a,m}, it runs stage 1 once per small-prime class a
over the rows b >= a, which follow each other in the index and share a's
primes, so one OR marks every row.  A single pair is the one-row case: it
builds no table and no N/m-entry mask, but sieves the a-class up to M and
then each b-window straight from its progression
(primes.sieve_progression) and packs it once, so its memory is flat in N.
Its windows are independent, so a caller may pass a share map that runs
shares of them in other processes (cli.fork_map); the engine itself runs
them in order.
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
    pack_copies,
    sieve_overhead_bytes,
    sieve_primes,
    sieve_progression,
)

# Stage-1 primes handled with whole-block ORs before the gathers over the
# remaining candidates may take over.  Past them the ORs go on in groups
# of _HEAD_GROUP while a gather would take more elements (candidates not
# yet ruled out, times primes left) than the block has mark bytes: on
# sparse b-classes, such as m = 4 at 2*10^8, that halves stage 1.
_VECTOR_PHASE_PRIMES = 64
_HEAD_GROUP = 32

# Candidates marked per block by those ORs, over all rows; a block's
# 256 KiB of marks and the copy slices it reads stay in L2.
_MARK_BLOCK = 1 << 21

# Candidates per stage-1 window of a single pair, beside the entries below
# them that the largest shift reaches; one sieve segment's worth.
_WINDOW = 1 << 20

# Fewest windows a share of a single pair's stage 1 may get when it is
# split over processes.  On 2 vCPUs, forking a share from a CLI process
# and reading back its survivors costs about 4 ms of wall and CPU time,
# and one window of a mod-4 pair at 2*10^8 about 6.5 ms: from 3 windows
# up the fork costs at most a fifth of a share, and the verifiers' pairs
# at 5*10^6 (1-2 windows) stay in one process.
_MIN_SHARE_WINDOWS = 3

# Maps the j ranges of the b-class windows, in order, to the windows, each
# as (base, copies): bit y of copies[r, k] is entry base + y - r of row k.
Windows = Callable[[list[tuple[int, int]]], Iterable[tuple[int, np.ndarray]]]

# Maps fn over the share numbers 0, 1, ..., in order; a caller's map may run
# them in other processes.
ShareMap = Callable[[Callable[[int], list[int]], range], list[list[int]]]


def _serial_map(fn: Callable[[int], list[int]], shares: range) -> list[list[int]]:
    return [fn(k) for k in shares]

# Cap on the elements (candidates x primes) of one stage-1 tail gather
# block; its int64 index matrix takes 8 bytes an element, 512 KiB here,
# which keeps a pair's stage-1 scratch below half of one N/m-entry mask
# at N = 10^7.  The first block of each gather takes _GATHER_FIRST_ELEMENTS
# and each next one twice the last: nearly every candidate falls to the
# first few primes, and the later blocks test only the rest.
_GATHER_BLOCK_ELEMENTS = 1 << 16
_GATHER_FIRST_ELEMENTS = 1 << 12

# _BIT[y % 8] selects bit y of a packed row within its byte.
_BIT = np.array([128, 64, 32, 16, 8, 4, 2, 1], dtype=np.uint8)


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

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def max_element(self) -> int:
        return self.elements[-1] if self.elements else 0


def find_witness(
    n: int,
    pair: AdmissiblePair,
    oracle: Callable[[int], bool] = is_prime,
    start: int = 0,
) -> Optional[PartitionWitness]:
    """Representation n = p + q with p = a, q = b (mod m), smallest p.

    Scans p ascending through the a-class, from the first p >= start; q =
    n - p automatically lies in the b-class.  Returns None when no p <= n - 2
    works.
    """
    if n % 2 != 0:
        raise ValueError(f"n={n} must be even")
    if n % pair.m != pair.target_residue:
        raise ValueError(
            f"n={n} is not congruent to a+b={pair.a + pair.b} mod {pair.m}"
        )
    p = pair.a + max(0, -(-(start - pair.a) // pair.m)) * pair.m
    while p <= n - 2:
        if oracle(p) and oracle(n - p):
            return PartitionWitness(n=n, p=p, q=n - p)
        p += pair.m
    return None


def _copy_width(m: int, N: int) -> int:
    """Bytes of one packed copy of a class in a modulus index up to N: room
    for j <= (N - 2)//m, the largest s of any pair."""
    return (N - 2) // m // 8 + 1


class ResidueIndex:
    """The primes below N of some unit classes mod m, read off the table in
    one pass and held packed.

    copies[r, k] is class classes[k] as eight bit-shifted copies: bit y of
    copies[r, k], in np.packbits order, is True iff b + (y - r)*m is a
    prime < N, so its first r bits are False.  That is the bytes a bool
    mask per class would take, give or take 7, and class_mask_bytes counts
    them.  Stage 1 reads q = n - p <= N - 1 only.
    """

    def __init__(self, table: PrimeTable, m: int, N: int, classes: Iterable[int]):
        if table.limit < N:
            raise ValueError(f"table limit {table.limit} below N={N}")
        self.m = m
        self.N = N
        self.classes = list(classes)
        self.copies = np.zeros((8, len(self.classes), _copy_width(m, N)), dtype=np.uint8)
        table.mask(N - 1, m, self.classes, out=self.copies)

    def stage1_source(self, a: int, bs: list[int], M: int) -> tuple[np.ndarray, Windows]:
        """Stage 1's inputs for small-prime class a and the b-rows bs, which
        must follow each other in `classes`: every window is the rows'
        copies whole, starting at j = 0."""
        k = self.classes.index(bs[0])
        if self.classes[k : k + len(bs)] != bs:
            raise ValueError(f"classes {bs} are not consecutive in the index")
        copies = self.copies[:, k : k + len(bs)]
        entries = max(0, (M - a) // self.m + 1)
        row = self.copies[0, self.classes.index(a)]
        pidx = np.flatnonzero(np.unpackbits(row, count=entries))
        return pidx, lambda ranges: ((0, copies) for _ in ranges)


def class_mask_bytes(m: int, N: int) -> int:
    """Bytes of a ResidueIndex over every unit class mod m up to N."""
    units = sum(1 for b in range(1, m) if math.gcd(b, m) == 1)
    return 8 * units * _copy_width(m, N)


def _sieved_source(pair: AdmissiblePair, N: int, M: int) -> tuple[np.ndarray, Windows]:
    """Stage 1's inputs for one pair, sieved along its two progressions:
    no table and no N/m-entry mask.

    The a-class up to M is the window [0, (M - a)//m] of its own
    progression, kept only as the indices of its primes; each b-window is
    sieved into one reused buffer behind 7 False entries and packed from
    there into eight reused copies.  Before each allocation the budget
    counts the a-mask, the int64 indices once known, the buffer and the
    copies once their size is, and the sieve's pattern and base primes.
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

    def windows(ranges: list[tuple[int, int]]) -> Iterator[tuple[int, np.ndarray]]:
        size = max(hi - lo for lo, hi in ranges)
        width = (size + 14) // 8  # every entry in every copy
        reserve(len(pidx), size + 7 + 8 * width)
        buf = np.zeros(size + 7, dtype=bool)
        copies = np.empty((8, 1, width), dtype=np.uint8)
        for (lo, hi), _ in zip(ranges, sieve_progression(b, m, N, ranges, buf[7:])):
            copies.fill(0)
            pack_copies(buf[: 7 + hi - lo], copies[:, 0])
            yield lo, copies

    return pidx, windows


def _window_step(pidx: np.ndarray) -> int:
    """Candidates s per stage-1 window: _WINDOW + span, span being the
    largest shift, rounded up to whole bytes, so that shift i reads copy
    i % 8 of an index, which holds every entry j <= (N - 2)//m - i that
    it needs."""
    span = int(pidx[-1]) if len(pidx) else 0
    return (_WINDOW + span + 7) // 8 * 8


def _stage1(
    a: int,
    bs: list[int],
    m: int,
    N: int,
    pidx: np.ndarray,
    windows: Windows,
    share: tuple[int, int] = (0, 1),
) -> list[list[int]]:
    """Candidates n <= N of each pair (a, b), b in bs, not representable
    with a small prime p = a + i*m, i in pidx; one ascending list per b.

    The candidates are n = a + b + s*m for s >= 0, and n = a + b - m when
    that is at least 2, which no p + q reaches.  Prime index i marks s
    where b + (s - i)*m is prime.  The marks of all rows are one uint8
    array, bit s - lo of row k in np.packbits order, so one OR per shift
    covers every row.  Windows cover _WINDOW + span of s and reach the
    span entries below them, span being the largest shift, so at most
    half of what a single pair sieves is overlap.

    share = (k, K) runs only windows k, k + K, k + 2K, ...; share 0 also
    holds a + b - m.  The K shares' lists, merged, are the unsplit lists.
    """
    last = np.array([(N - a - b) // m for b in bs])  # largest s per row
    count = int(last.max()) + 1
    span = int(pidx[-1]) if len(pidx) else 0
    step = _window_step(pidx)
    k, shares = share
    starts = range(k * step, count, shares * step)
    ranges = [(max(lo - span, 0), min(lo + step, count)) for lo in starts]
    shifts = pidx.tolist()
    block = max(1, _MARK_BLOCK // (8 * len(bs)))  # mark bytes per row
    rows, found = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for lo, (_, hi), (base, copies) in zip(starts, ranges, windows(ranges)):
        # bit y of copies[r, k] is j = base + y - r of class bs[k]
        width = copies.shape[2]
        bits0 = copies[0].reshape(-1)  # the rows of copy 0 follow each other
        nbytes = (hi - lo + 7) // 8
        for xlo in range(0, nbytes, block):
            xhi = min(xlo + block, nbytes)
            mark = np.zeros((len(bs), xhi - xlo), dtype=np.uint8)
            flat = mark.ravel()
            h = 0  # shifts ORed so far
            while h < len(shifts):
                if h >= _VECTOR_PHASE_PRIMES and h % _HEAD_GROUP == 0:
                    if np.count_nonzero(flat != 255) * (len(shifts) - h) <= flat.size:
                        break
                # mark bit x reads j = lo + x - i, bit x + 8d of copy 8d - e
                e = lo - base - shifts[h]
                d = -(-e // 8)
                x0, x1 = max(xlo, -d), min(xhi, width - d)
                if x0 >= xhi:  # p > n for the whole block, and for the rest
                    h = len(shifts)
                    break
                if x0 < x1:
                    mark[:, x0 - xlo : x1 - xlo] |= copies[8 * d - e, :, x0 + d : x1 + d]
                h += 1
            tail = pidx[h:]
            # the unmarked bits, unpacking only the bytes that hold any
            nz = np.flatnonzero(flat != 255)
            bits = np.flatnonzero(np.unpackbits(~flat[nz]))
            row, x = np.divmod(nz[bits >> 3] * 8 + (bits & 7), 8 * (xhi - xlo))
            s = lo + 8 * xlo + x
            keep = (s < hi) & (s <= last[row])
            row, s = row[keep], s[keep]
            # the rest in blocks: one row per candidate, one column per
            # prime index i, reading bit y = j - base of copy 0; j < 0
            # (p > n) is no hit
            start, elements = 0, min(_GATHER_FIRST_ELEMENTS, _GATHER_BLOCK_ELEMENTS)
            while start < len(tail) and len(s):
                w = max(1, elements // len(s))
                y = (s - base)[:, None] - tail[start : start + w][None, :]
                hit = bits0.take((row * width)[:, None] + (y >> 3))
                hit &= _BIT.take(y & 7)
                hit *= y >= 0
                keep = ~hit.any(axis=1)
                row, s = row[keep], s[keep]
                start += w
                elements = min(2 * elements, _GATHER_BLOCK_ELEMENTS)
            rows.append(row)
            found.append(s)
    row = np.concatenate(rows)
    s = np.concatenate(found)[np.argsort(row, kind="stable")]
    per_row = np.split(s, np.cumsum(np.bincount(row, minlength=len(bs)))[:-1])
    return [
        [a + b - m] * (k == 0 and 2 <= a + b - m <= N) + (a + b + ss * m).tolist()
        for b, ss in zip(bs, per_row)
    ]


def _stage1_unresolved(
    pair: AdmissiblePair,
    N: int,
    M: int,
    workers: int = 1,
    share_map: ShareMap = _serial_map,
) -> list[int]:
    """Candidates n <= N not representable with p <= M; ascending.

    The b-class is sieved one window at a time (_sieved_source).  The
    windows are split into as many shares as `workers` allows while each
    gets _MIN_SHARE_WINDOWS, and share_map runs the shares.
    """
    a, b, m = pair.a, pair.b, pair.m
    pidx, windows = _sieved_source(pair, N, M)
    count = len(range(0, (N - a - b) // m + 1, _window_step(pidx)))
    shares = max(1, min(workers, count // _MIN_SHARE_WINDOWS))
    parts = share_map(
        lambda k: _stage1(a, [b], m, N, pidx, windows, (k, shares))[0], range(shares)
    )
    return sorted(n for part in parts for n in part)


def _resolved(pair: AdmissiblePair, N: int, M: int, survivors: list[int]) -> ExceptionalSet:
    """Stage 2 on stage 1's survivors.  Stage 1 tried every prime
    p = a (mod m) up to M, so an unmarked n <= M + 2 has no
    representation, and only the survivors above it go to find_witness,
    which tries only p > M."""
    elements = [
        n for n in survivors if n <= M + 2 or find_witness(n, pair, start=M + 1) is None
    ]
    return ExceptionalSet(
        pair=pair,
        search_limit=N,
        stage1_bound=M,
        elements=tuple(elements),
        stage1_survivors=len(survivors) - len(elements),
    )


def exceptional_set(
    pair: AdmissiblePair,
    N: int,
    M: Optional[int] = None,
    workers: int = 1,
    share_map: ShareMap = _serial_map,
) -> ExceptionalSet:
    """Compute E_{a,b,m} up to N with the two-stage algorithm.

    Stage 1 sieves the pair's two progressions, one window at a time.
    With workers > 1 its windows may be split into up to that many
    shares, which share_map runs; stage 2 runs here.
    """
    if N < 2:
        raise ValueError(f"search limit N={N} must be >= 2")
    if M is None:
        M = min(default_stage1_bound(pair.m), N)
    if M > N:
        raise ValueError(f"stage-1 bound M={M} exceeds N={N}")
    return _resolved(pair, N, M, _stage1_unresolved(pair, N, M, workers, share_map))


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
    """exceptional_sets_for_modulus, read off a modulus-wide index: one
    stage-1 pass per small-prime class a over the rows b >= a."""
    m, N = index.m, index.N
    if M is None:
        M = min(default_stage1_bound(m), N)
    units = index.classes
    out: dict[tuple[int, int], tuple[int, ...]] = {}
    for k, a in enumerate(units):
        bs = units[k:]
        pidx, windows = index.stage1_source(a, bs, M)
        for b, survivors in zip(bs, _stage1(a, bs, m, N, pidx, windows)):
            es = _resolved(AdmissiblePair(a, b, m), N, M, survivors)
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
        (a, b): set(_stage1(a, [b], m, N, *index.stage1_source(a, [b], M))[0])
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


def verify_conjecture_mod4(
    case: str, N: int, memo: Optional[dict[tuple[int, int, int], tuple[int, ...]]] = None
) -> tuple[int, ...]:
    """Violations of the stated mod-4 representation case up to N.

    Cases: (i) even n > 4 with p = 3 mod 4 and q unrestricted;
    (ii) n = 0 mod 4 with p = 1, q = 3 mod 4; (iii) n = 2 mod 4 with
    p = q = 3 mod 4; (iv) n = 2 mod 4 with p = q = 1 mod 4.  Cases
    (ii)-(iv) report the small exceptions; case (i) excludes n <= 4 by
    its statement.  `memo` keeps each set E(a, b, 4) up to N it computes,
    keyed by (a, b, N) with a <= b since E(a, b, 4) = E(b, a, 4); one dict
    passed to every case computes each of the three sets once.
    """
    if case not in MOD4_CASES:
        raise ValueError(f"unknown case {case!r}, expected one of {MOD4_CASES}")
    if N < 2:
        raise ValueError(f"N={N} must be >= 2")
    memo = {} if memo is None else memo

    def elements(a: int, b: int) -> tuple[int, ...]:
        key = (min(a, b), max(a, b), N)
        if key not in memo:
            memo[key] = exceptional_set(AdmissiblePair(key[0], key[1], 4), N).elements
        return memo[key]

    if case != "i":
        return elements(*_MOD4_PAIRS[case])
    # q = 2 would make p + q odd, so q is odd: q = 1 mod 4 reaches the
    # n = 0 mod 4 and q = 3 mod 4 the n = 2 mod 4
    return tuple(sorted(n for b in (1, 3) for n in elements(3, b) if n > 4))


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


def verify_ternary(N: int) -> tuple[int, ...]:
    """Odd n with 5 < n <= N not of the form p + q + r with
    p = q = 2 (mod 3) and r prime.

    For odd n >= 7 exactly one r in {3, 5, 7} leaves k = n - r = 4 (mod 6),
    and that k is at least 4; n passes with that r unless k is a binary
    violation.  So only the k + r with k a violation and r in {3, 5, 7}
    fall back to a scan over every prime r up to the largest of them.
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
    rs = [r for r in range(2, fallback[-1] + 1) if is_prime(r)]
    return tuple(n for n in fallback if not any(rep(n - r) for r in rs))
