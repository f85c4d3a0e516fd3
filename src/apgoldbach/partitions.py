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
never marked.  Stage 1 tries every small prime up to M, so only
survivors above M + 2 go to stage 2, which tries only p > M.  M moves
work between the stages and changes no element: each public entry reads
default_stage1_bound(m, N), and only the private kernels take an M.

It has two kernels, each for a whole modulus and for a single pair.  The
packed kernel holds the b-class as eight bit-shifted packed copies
(primes.pack_copies), so a shift is whole-byte ORs of copy i % 8 at byte
offset i // 8.  The first _VECTOR_PHASE_PRIMES shifts OR into packed
marks one window at a time, of a length the source sets so that the marks
stay in cache; the survivors are the unset bits of the few marks bytes
that hold any, and the remaining primes test them in 2-D gathers of bit j
of copy 0, in blocks that start at _GATHER_FIRST_ELEMENTS elements and
double up to _GATHER_BLOCK_ELEMENTS.  Its stage 1 is the body of one
window (_window), which its source loops over.  A modulus sweep runs its
windows outer (_sweep_stage1), so its memory beside the table depends on
m, not N.  A single pair is the one-row case (_pair_share): it builds no
table, but sieves the a-class up to M and then each b-window straight
from its progression (primes.sieve_progression) and packs it once, so its
memory is flat in N.  Its windows are independent, so shares of them may
run in other processes.

The int-bitset kernel (_bitset_stage1) holds rows of b-entries, one
bytearray row by row, in blocks of whole rows of at most _BITSET_BLOCK
bits, each read in place as the binary digits of one Python int
(_bits_from_bytes), so a shift is one int shift.  A block is shifted
once for each of the first _VECTOR_PHASE_PRIMES indices of any class
that reads it (_head_shifts), ORed into the marks of every class whose
head holds it; after the head, each unset bit tries the remaining primes
on the row's bytes.  A modulus sweep on it (_bitset_sweep) copies a row
of every unit class out of an unpacked table's odd flags
(primes.PrimeTable.primes), and each small-prime class a runs on its
rows b >= a; sweep_plan picks it, by one size rule, for sweeps of short
rows or little work.  A pair whose candidates fit in fewer than
_MIN_SHARE_WINDOWS windows, which would never split, is its one-row case
(_bitset_group), which sieves its whole b-class into the row; several
pairs of one (m, b) share it.  Only the packed kernel imports numpy,
when it first runs, so a process whose sweeps and pairs all run the
int-bitset kernel never loads it.

A sweep and a batch of pairs (exceptional_sets, and exceptional_set is
its batch of one) each build a plan of jobs (Job), which sieves nothing:
one a modulus (sweep_plan), whose table the sweep's executor
(cli.run_sweep) sieves, or each group (m, b)'s (batch_plan); its
kernel's one count names the parts of a job's bytes (_window_count,
_bitset_count, each called by _check_sweep_budget and _group_jobs alone),
which primes.check_budget sums.  One runner (run_plan) deals the jobs to
worker shares (deal) and forks those (fork_map).
"""

from __future__ import annotations

import math
import os
from itertools import compress
from typing import TYPE_CHECKING, Callable, NamedTuple, NoReturn, Optional, Sequence, TypeVar

from . import primes
from .primes import (
    SIEVE_SEGMENT_SIZE,
    PrimeTable,
    check_budget,
    is_prime,
    pack_copies,
    sieve_overhead_bytes,
    sieve_primes,
    sieve_progression,
)

if TYPE_CHECKING:
    import numpy as np

T = TypeVar("T")
R = TypeVar("R")

# Stage-1 primes handled with whole-block ORs before the gathers over the
# remaining candidates may take over.  Past them the ORs go on in groups
# of _HEAD_GROUP while a gather would take more elements (candidates not
# yet ruled out, times primes left) than the block has mark bytes: on
# sparse b-classes, such as m = 4 at 2*10^8, that halves stage 1.  The
# int-bitset kernel shifts as many before its per-candidate tail.
_VECTOR_PHASE_PRIMES = 64
_HEAD_GROUP = 32

# The sweeps that run the int-bitset kernel (sweep_plan): those whose
# longest row of candidates is at most _BITSET_SWEEP_ROW, and those whose
# head work, the sum of phi(m)^2 (N - 2)//m over the moduli they compute,
# times that row is at most _BITSET_SWEEP_WORK.  On row blocks, the int
# kernel ran rows of 19,608 candidates in 0.7-0.8x the packed kernel's CLI
# CPU time (1 worker, 2 vCPUs) and rows of 29,412 about even with it.
_BITSET_SWEEP_ROW = 3 * 10**4
_BITSET_SWEEP_WORK = 5 * 10**12

# Candidates per stage-1 window of a sweep, over all phi(m) rows: 512 KiB
# of marks in the pass of class 1, less in later passes over fewer rows.
# A single pair's window is one sieve segment (SIEVE_SEGMENT_SIZE).
_MARK_BLOCK = 1 << 22

# Fewest windows a share of a single pair's stage 1 may get when it is
# split over processes.  On 2 vCPUs, forking a share from a CLI process
# and reading back its survivors costs about 4 ms of wall and CPU time,
# and one window of a mod-4 pair at 2*10^8 about 6.5 ms: from 3 windows
# up the fork costs at most a fifth of a share, and the verifiers' pairs
# at 5*10^6 (1-2 windows) never split; a pair of modulus m whose
# candidates fit in fewer windows runs _bitset_group.
_MIN_SHARE_WINDOWS = 3

# Cap on the elements (candidates x primes) of one stage-1 tail gather
# block; its int64 index matrix takes 8 bytes an element, 512 KiB here.
# The first block of each gather takes _GATHER_FIRST_ELEMENTS and each next
# one twice the last: nearly every candidate falls to the first few
# primes, and the later blocks test only the rest.
_GATHER_BLOCK_ELEMENTS = 1 << 16
_GATHER_FIRST_ELEMENTS = 1 << 12

# _BIT[y % 8] selects bit y of a packed row within its byte.
_BIT = (128, 64, 32, 16, 8, 4, 2, 1)

# Bits of a block of whole rows of the int-bitset kernel, or one row where
# a row is longer; the marks of every class that reads a block are alive
# at once.  On 2 vCPUs, one row a block took 73 % more time on m = 102-200
# at 2*10^5, and blocks of 2^16 bits 36 % more on m = 1202 at 10^7.
_BITSET_BLOCK = 1 << 17

# Maps a marks byte to 1 if any of its bits is unset, else to 0; and to
# the positions, from the top, of its unset bits.
_UNSET_BYTE = bytes(v != 255 for v in range(256))
_UNSET_BITS = [[k for k in range(8) if not v & 128 >> k] for v in range(256)]


def default_stage1_bound(m: int, N: int) -> int:
    """Bound M on the small primes of modulus m at N: grows with m, <= N."""
    return min(max(10**4, math.ceil(m * math.log(max(m, 3)) ** 2 * 50)), N)


def _require_even(m: int) -> None:
    if m < 2 or m % 2:
        raise ValueError(f"modulus must be a positive even integer, got {m} "
                         "(double an odd modulus instead)")


class _Residues(NamedTuple):
    a: int
    b: int
    m: int


class AdmissiblePair(_Residues):
    """Residues (a, b) coprime to an even modulus m."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, m: int) -> AdmissiblePair:
        _require_even(m)
        for r in (a, b):
            if not 0 < r < m:
                raise ValueError(f"residue {r} not a canonical unit in (0, {m})")
            if math.gcd(r, m) != 1:
                raise ValueError(f"residue {r} not coprime to modulus {m}")
        return super().__new__(cls, a, b, m)

    @property
    def target_residue(self) -> int:
        """Residue class of the even numbers this pair can represent."""
        return (self.a + self.b) % self.m


class PartitionWitness(NamedTuple):
    n: int
    p: int
    q: int


class ExceptionalSet(NamedTuple):
    """All even n <= N in a pair's class with no representation."""

    elements: tuple[int, ...]
    stage1_survivors: int  # candidates that reached stage 2 but are not exceptions


def find_witness(n: int, pair: AdmissiblePair, start: int = 0) -> Optional[PartitionWitness]:
    """Representation n = p + q with p = a, q = b (mod m), smallest p.

    Scans p ascending through the a-class, from the first p >= start; q =
    n - p automatically lies in the b-class.  Returns None when no p <= n - 2
    works.
    """
    if n % 2 != 0:
        raise ValueError(f"n={n} must be even")
    if n % pair.m != pair.target_residue:
        raise ValueError(f"n={n} is not congruent to a+b={pair.a + pair.b} mod {pair.m}")
    p = pair.a + max(0, -(-(start - pair.a) // pair.m)) * pair.m
    while p <= n - 2:
        if is_prime(p) and is_prime(n - p):
            return PartitionWitness(n=n, p=p, q=n - p)
        p += pair.m
    return None


def _window(a: int, bs: list[int], m: int, N: int, pidx: np.ndarray, lo: int, hi: int,
            base: int, copies: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stage 1 over the candidates n = a + b + s*m, lo <= s < hi, of each
    pair (a, b), b in bs: the (row, s) that no small prime p = a + i*m, i
    in pidx, marks, by row, then s.  Bit y of copies[r, k] is entry
    base + y - r of class bs[k], and each entry j = s - i >= 0 is there.
    The marks of all rows are one uint8 array, bit s - lo of row k in
    np.packbits order, so one OR per shift covers every row."""
    import numpy as np

    last = np.array([(N - a - b) // m for b in bs])  # largest s per row
    shifts = pidx.tolist()
    width = copies.shape[2]
    bits0 = copies[0].reshape(-1)  # the rows of copy 0 follow each other
    nbytes = (hi - lo + 7) // 8
    mark = np.zeros((len(bs), nbytes), dtype=np.uint8)
    flat = mark.ravel()
    h = 0  # shifts ORed so far
    while h < len(shifts):
        if h >= _VECTOR_PHASE_PRIMES and h % _HEAD_GROUP == 0:
            if np.count_nonzero(flat != 255) * (len(shifts) - h) <= flat.size:
                break
        # mark bit x reads j = lo + x - i, bit x + 8d of copy 8d - e
        e = lo - base - shifts[h]
        d = -(-e // 8)
        x0, x1 = max(0, -d), min(nbytes, width - d)
        if x0 < x1:
            mark[:, x0:x1] |= copies[8 * d - e, :, x0 + d : x1 + d]
        h += 1
    tail = pidx[h:]
    # the unmarked bits, unpacking only the bytes that hold any
    nz = np.flatnonzero(flat != 255)
    bits = np.flatnonzero(np.unpackbits(~flat[nz]))
    row, x = np.divmod(nz[bits >> 3] * 8 + (bits & 7), 8 * nbytes)
    s = lo + x
    keep = (s < hi) & (s <= last[row])
    row, s = row[keep], s[keep]
    # the rest in blocks: one row per candidate, one column per prime
    # index i, reading bit y = j - base of copy 0; j < 0 (p > n) is no
    # hit, read at an index clipped to 0
    start, elements = 0, min(_GATHER_FIRST_ELEMENTS, _GATHER_BLOCK_ELEMENTS)
    while start < len(tail) and len(s):
        w = max(1, elements // len(s))
        y = (s - base)[:, None] - tail[start : start + w][None, :]
        hit = bits0.take((row * width)[:, None] + (y >> 3), mode="clip")
        hit &= np.array(_BIT, dtype=np.uint8).take(y & 7)
        hit *= y >= 0
        keep = ~hit.any(axis=1)
        row, s = row[keep], s[keep]
        start += w
        elements = min(2 * elements, _GATHER_BLOCK_ELEMENTS)
    return row, s


def _window_count(rows: int, width: int, copy: int) -> dict[str, int]:
    """The bytes of _window on `rows` rows, by part: eight `copy`-byte
    copies and `width` bytes of marks a row, and a gather block's scratch."""
    return {"class copies": 8 * rows * copy, "marks": rows * width,
            "gather scratch": 32 * _GATHER_BLOCK_ELEMENTS}


def _pair_share(pair: AdmissiblePair, N: int, M: int,
                share: tuple[int, int] = (0, 1)) -> list[int]:
    """Stage 1 of one pair on share k of K = share of its windows, each one
    sieve segment of candidates: windows k, k + K, k + 2K, ...  Returns the
    unmarked candidates n <= N, ascending, led on share 0 by a + b - m if
    that is at least 2, which no p + q reaches; merged, the K shares'
    lists are the unsplit list.

    The a-class up to M is the window [0, (M - a)//m] of its own
    progression, kept only as the indices of its primes.  A window's
    b-entries, with the span below it (span the largest prime index) and
    the 7 entries before that (none below j = 0 is prime), are sieved into
    one reused bytearray, which a zero-copy view packs into eight reused
    copies.  _group_jobs checks the budget first.
    """
    import numpy as np

    a, b, m = pair
    step, (k, shares) = SIEVE_SEGMENT_SIZE, share
    entries = max(0, (M - a) // m + 1)
    pidx = np.zeros(0, dtype=np.int64)
    if entries:
        amask = next(sieve_progression(a, m, M, [(0, entries)], bytearray(entries)))
        pidx = np.flatnonzero(np.frombuffer(amask, dtype=bool))
    span = int(pidx[-1]) if len(pidx) else 0
    count = (N - a - b) // m + 1
    starts = range(k * step, count, shares * step)
    ranges = [(max(lo - span, 0), min(lo + step, count)) for lo in starts]
    size = max((hi - base for base, hi in ranges), default=0) + 7
    buf = bytearray(size)
    copies = np.empty((8, 1, (size + 7) // 8), dtype=np.uint8)
    padded = [(base - 7, hi) for base, hi in ranges]
    found = [a + b - m] * (k == 0 and 2 <= a + b - m <= N)
    for lo, (base, hi), _ in zip(starts, ranges, sieve_progression(b, m, N, padded, buf)):
        copies.fill(0)
        pack_copies(np.frombuffer(buf, dtype=bool, count=7 + hi - base), copies[:, 0])
        _, s = _window(a, [b], m, N, pidx, lo, hi, base, copies)
        found += (a + b + s * m).tolist()
    return found


def _bits_from_bytes(entries: bytes | bytearray, start: int, stop: int) -> int:
    """The int whose binary digits are entries[start:stop], bytes 0 and 1
    of a length a multiple of 8, the first the top bit, read in place: each
    eighth byte from start + k on is the bits 7 - k of the int's bytes."""
    bits = 0
    for k in range(8):
        bits |= int.from_bytes(entries[start + k : stop : 8], "big") << (7 - k)
    return bits


def _head_shifts(classes: list[tuple]) -> dict[int, list[int]]:
    """Each prime index among the first _VECTOR_PHASE_PRIMES of some class
    (a, pidx, k), mapped to the positions in `classes` of the classes
    whose head holds it: _bitset_stage1 shifts a block once per index."""
    shifts: dict[int, list[int]] = {}
    for c, (_, pidx, _) in enumerate(classes):
        for i in pidx[:_VECTOR_PHASE_PRIMES]:
            shifts.setdefault(i, []).append(c)
    return shifts


def _bitset_stage1(m: int, N: int, bs: list[int], entries: bytearray, width: int, count: int,
                   classes: list[tuple]) -> dict[tuple[int, int], list[int]]:
    """Stage 1 on Python int bitsets of each small-prime class (a, pidx, k),
    k ascending, pidx its prime indices up to M, with each b in bs[k:]:
    keyed (a, b), the candidates n <= N not representable with p <= M,
    ascending, as _window finds them, led by a + b - m if that is at least
    2 (no p + q).

    `entries` holds a row of `width` bytes, a multiple of 8, per b in bs,
    byte s its entry s.  Its blocks of whole rows [lo, hi), each of at most
    _BITSET_BLOCK bits or one row, are each one bitset read in place
    (_bits_from_bytes), row lo in the top bits.  Below its `count`
    entries each row has at least pidx[_VECTOR_PHASE_PRIMES - 1]
    bits of 0, so shift i, which marks s where entry s - i is prime, is
    bitset >> i.  The marks of every class with k < hi, all alive at once,
    start from the bits below the candidates of its rows max(k, lo) to
    hi - 1; each index in the head of any of them (_head_shifts) shifts
    the block once, ORed into the marks of every class whose head holds
    it.  Class a's rows are then its marks' low bits; each unset bit of a
    candidate there (to_bytes, translate, find) tries the remaining
    indices i <= s in order on the row's bytes, up to its first hit."""
    step = max(1, _BITSET_BLOCK // max(1, width))
    # keyed a, then b: keyed block by block, a sweep's sets peaked higher
    out: dict[tuple[int, int], list[int]] = dict.fromkeys(
        (a, b) for a, _, k in classes for b in bs[k:])
    for lo in range(0, len(bs), step):
        hi = min(lo + step, len(bs))
        bitset = _bits_from_bytes(entries, lo * width, hi * width)
        part = [cls for cls in classes if cls[2] < hi]
        pads = int.from_bytes(((1 << (width - count)) - 1).to_bytes(width // 8, "big") * (hi - lo),
                              "big")  # every row's bits below its candidates
        marks = [pads >> (max(0, k - lo) * width) for _, _, k in part]
        for i, holders in _head_shifts(part).items():
            shifted = bitset >> i
            for c in holders:
                marks[c] |= shifted  # also into rows above max(k, lo), which class c never reads
            del shifted  # before the next shift
        del bitset
        for c, (a, pidx, k) in enumerate(part):
            first = max(k, lo)
            rows, tail = bs[first:hi], pidx[_VECTOR_PHASE_PRIMES:] + [width]  # past every s
            counts = [(N - a - b) // m + 1 for b in rows]  # candidates s < count
            size = len(rows) * width
            scan, marks[c] = (marks[c] & ((1 << size) - 1)).to_bytes(size // 8, "big"), 0
            unset, found = scan.translate(_UNSET_BYTE), [[] for _ in rows]
            x = unset.find(1)
            while x >= 0:
                for y in _UNSET_BITS[scan[x]]:
                    r, s = divmod(8 * x + y, width)
                    if s < counts[r]:
                        i = tail[0]  # past s, no tail index can mark s
                        if i <= s:
                            j = first * width + 8 * x + y  # entry s of row first + r
                            for i in tail:
                                if i > s or entries[j - i]:
                                    break
                        if i > s:
                            found[r].append(s)
                x = unset.find(1, x + 1)
            del scan, unset  # before the next class's scan
            for b, s in zip(rows, found):  # a + b - m >= 2 is no p + q and leads
                out[(a, b)] = [a + b - m] * (2 <= a + b - m <= N) + [a + b + x * m for x in s]
    return out


def _row_width(count: int, pidxs: list[list[int]]) -> int:
    """Bits of a row of `count` candidates in _bitset_stage1: room below them
    for the largest head shift of any class, rounded up to whole bytes."""
    shift = max((i for p in pidxs for i in p[:_VECTOR_PHASE_PRIMES][-1:]), default=0)
    return (count + shift + 7) // 8 * 8


def _bitset_group(b: int, avals: list[int], m: int, N: int, M: int) -> list[list[int]]:
    """Stage 1 of the pairs (a, b) mod m, a in avals, on Python int
    bitsets (_bitset_stage1), one row shared by every a: per a, the
    candidates n <= N not representable with p <= M, ascending, as
    _window finds them.

    The b-class, entries 0 to the largest s of any a, is sieved into a
    zeroed bytearray of the row's width, whose digits are the row's
    bitset, built once; each a runs on it up to its own last candidate.
    exceptional_sets checks the budget first (_group_jobs).
    """
    count = max(max(0, (N - a - b) // m + 1) for a in avals)  # candidates s < count
    pidxs = [list(compress(range(e), next(sieve_progression(a, m, M, [(0, e)], bytearray(e)))))
             if e else [] for a in avals for e in [max(0, (M - a) // m + 1)]]
    width = _row_width(count, pidxs)
    entries = next(sieve_progression(b, m, N, [(0, count)], bytearray(width)))
    classes = [(a, pidx, 0) for a, pidx in zip(avals, pidxs)]
    found = _bitset_stage1(m, N, [b], entries, width, count, classes)
    return [found[(a, b)] for a in avals]


def _bitset_count(rows: int, count: int, span: int, classes: int) -> dict[str, int]:
    """The bytes of _bitset_stage1 on `rows` rows of `count` candidates
    with room below for shifts up to `span`, a row never narrower than
    _row_width's, by part: the entry bytes, the one slice of a block alive
    as it is read, and a block's bits for each of `classes` marks, its
    bitset, a shift and two scan strings."""
    row = (count + span + 7) // 8 * 8
    entries = rows * row
    block = min(entries, max(row, _BITSET_BLOCK))  # a block's entry bytes
    bits = block // 8 + 1
    return {"entries": entries, "a slice": block // 8, "marks": classes * bits,
            "bitset and shift": 2 * bits, "scan": 2 * bits}


def _resolved(a: int, b: int, m: int, M: int, survivors: list[int]) -> tuple[int, ...]:
    """The elements among stage 1's ascending survivors for (a, b) mod m.
    Stage 1 tried every prime p = a (mod m) up to M, so an unmarked n <=
    M + 2 has no representation, and only the survivors above it go to
    find_witness, which tries only p > M; the pair is built only if one
    does."""
    if not survivors or survivors[-1] <= M + 2:
        return tuple(survivors)
    pair = AdmissiblePair(a, b, m)
    return tuple(n for n in survivors
                 if n <= M + 2 or find_witness(n, pair, start=M + 1) is None)


class Job(NamedTuple):
    """The unit of work of a plan, which goes whole to one worker share:
    kernel(*args), dealt by its cost, counting `need` bytes as it runs
    beside the `shared` bytes that every share of its plan reads (a
    sweep's table)."""

    kernel: Callable
    args: tuple
    cost: float
    need: int
    shared: int = 0


def deal(jobs: list[Job], workers: int, floor: float = 0) -> list[list[Job]]:
    """The jobs dealt to min(workers, len(jobs), (budget - the largest
    shared) // the largest need) shares, or one if that is below 1, and
    to one fewer while one of two or more costs less than `floor`:
    heaviest first, each to the share with the least cost so far (the
    first of equals)."""
    held = primes.DEFAULT_MEMORY_BUDGET_BYTES - max([0] + [j.shared for j in jobs])
    workers = min(workers, held // max([1] + [j.need for j in jobs]))
    count = min(max(1, workers), len(jobs))
    while True:
        shares, loads = [[] for _ in range(count)], [0.0] * count
        # stable: equals keep their order
        for job in sorted(jobs, key=lambda j: j.cost, reverse=True):
            k = loads.index(min(loads))
            shares[k].append(job)
            loads[k] += job.cost
        if count < 2 or min(loads) >= floor:
            return shares
        count -= 1


def run_plan(jobs: list[Job], workers: int, floor: float = 0,
             dead: Callable[[int], object] = lambda pid: None) -> list:
    """[job.kernel(*job.args) for job in jobs], each job whole in its share
    of deal(jobs, workers, floor), each share in a process (fork_map)."""
    shares = deal(jobs, workers, floor)
    done = fork_map(lambda share: [job.kernel(*job.args) for job in share], shares, dead)
    results = {id(job): out for share, outs in zip(shares, done) for job, out in zip(share, outs)}
    return [results[id(job)] for job in jobs]


def fork_map(fn: Callable[[T], R], shares: Sequence[T],
             dead: Callable[[int], object] = lambda pid: None) -> list[R]:
    """[fn(x) for x in shares], each share in its own process.

    This process computes shares[0]; a child forked for each other share
    closes every result pipe's read end it inherited, computes its share,
    sends back its pickled result or the exception it raised, which is
    raised here, and leaves with os._exit.  With no reader left once this
    process is gone, a child's write then fails, and it exits.  A child that dies
    without sending one raises RuntimeError naming its wait status.  Every
    child is reaped before this returns or raises; dead(pid) runs for each
    one reaped without a result, killed or dead.  Serial where os.fork
    does not exist.

    Children are copies of this process, engine and all, so fn and the
    shares need not be picklable; this process must run no other thread
    (importing apgoldbach keeps numpy's OpenBLAS to one).
    """
    if len(shares) < 2 or not hasattr(os, "fork"):
        return [fn(x) for x in shares]
    import pickle

    children = []  # (pid, read end of its pipe) of each child not yet reaped
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _run_share(fn, share, w, [r] + [pipe.fileno() for _, pipe in children])
            except BaseException:
                os.close(r)
                raise
            finally:
                os.close(w)
            children.append((pid, open(r, "rb")))
        results = [fn(shares[0])]
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if status:
                dead(pid)
                code = os.waitstatus_to_exitcode(status)
                how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
                raise RuntimeError(f"worker process {pid} sent no result: "
                                   f"wait status {status} ({how})")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        if children:  # this process failed first: stop and reap the rest
            import signal

            for pid, pipe in children:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                dead(pid)


def _run_share(fn: Callable[[T], R], share: T, w: int, inherited: list[int]) -> NoReturn:
    """The child's side of fork_map: close the read ends `inherited`, write
    (True, fn(share)) or (False, the exception it raised), pickled, to the
    pipe end w and exit; exit status 1 if that fails."""
    import pickle

    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        try:
            out = (True, fn(share))
        except BaseException as exc:  # raised again in the parent
            out = (False, exc)
        with open(w, "wb") as pipe:
            pipe.write(pickle.dumps(out))
        status = 0
    finally:
        os._exit(status)


def _group_jobs(m: int, b: int, avals: list[int], M: int, N: int, workers: int) -> list[Job]:
    """The jobs of the pairs (a, b, m), a in avals, each weighed by its
    candidates; first, MemoryBudgetError unless every job's count fits
    the budget.  Where every pair of m has under _MIN_SHARE_WINDOWS
    windows, so none splits, the group is one int-bitset job
    (_bitset_group), which counts every a-mask, _bitset_count of its one
    row and the sieve of that row.  On the packed route each
    pair's jobs are shares (k, K) of its windows (_pair_share), as many as
    `workers` allows while each gets _MIN_SHARE_WINDOWS; a share counts its
    a-class, its window buffer, _window_count of one row and the sieve."""
    entries = [max(0, (M - a) // m + 1) for a in avals]
    counts = [max(0, (N - a - b) // m + 1) for a in avals]  # each pair's candidates
    if (N - 2) // m + 1 <= (_MIN_SHARE_WINDOWS - 1) * SIEVE_SEGMENT_SIZE:
        count, span = max(counts), max(entries)
        need = check_budget(f"pairs (a, {b}, {m}), a in {avals}, at N={N}, M={M}", {
            "small-prime masks": sum(entries), **_bitset_count(1, count, span, len(avals)),
            # that window bounds the row sieved into
            "sieve pattern and base primes": sieve_overhead_bytes(N, count + span + 7)})
        return [Job(_job_sets, (m, b, avals, M, (0, 1), N, True), sum(counts), need)]
    jobs = []
    for a, e, count in zip(avals, entries, counts):
        size = SIEVE_SEGMENT_SIZE + max(0, e - 1) + 7
        need = check_budget(f"pair {AdmissiblePair(a, b, m)} at N={N}, M={M}", {
            "small-prime mask": e, "prime indices": 8 * e, "window": size,
            **_window_count(1, SIEVE_SEGMENT_SIZE // 8, (size + 7) // 8),
            "sieve pattern and base primes": sieve_overhead_bytes(N, max(e, size))})
        windows = len(range(0, count, SIEVE_SEGMENT_SIZE))
        shares = max(1, min(workers, windows // _MIN_SHARE_WINDOWS))
        jobs += [Job(_job_sets, (m, b, [a], M, (k, shares), N, False), count / shares, need)
                 for k in range(shares)]
    import numpy  # here, before the fork, not in every share

    return jobs


def _job_sets(m: int, b: int, avals: list[int], M: int, share: tuple[int, int], N: int,
              bitset: bool) -> list[tuple[tuple[int, int, int], tuple[int, ...], int]]:
    """Both stages of one job of exceptional_sets, per a in avals: the
    pair (a, b, m), the elements of E_{a,b,m} among the job's candidates,
    ascending, and the count of its stage-1 survivors.  On the route that
    _group_jobs picked: a group of a-classes on int bitsets
    (_bitset_group), or share `share` of one pair's windows (_pair_share)."""
    survivors = (_bitset_group(b, avals, m, N, M) if bitset else
                 [_pair_share(AdmissiblePair(a, b, m), N, M, share) for a in avals])
    return [((a, b, m), _resolved(a, b, m, M, s), len(s)) for a, s in zip(avals, survivors)]


def batch_plan(pairs: list[AdmissiblePair], N: int, workers: int = 1) -> list[Job]:
    """The jobs of exceptional_sets: its pairs grouped by (m, b), each
    group's from _group_jobs at M = default_stage1_bound(m, N), which
    checks their budget before any runs."""
    if N < 2:
        raise ValueError(f"search limit N={N} must be >= 2")
    groups: dict[tuple[int, int], list[int]] = {}
    for a, b, m in dict.fromkeys(pairs):  # each pair once
        groups.setdefault((m, b), []).append(a)
    return [job for (m, b), avals in groups.items()
            for job in _group_jobs(m, b, avals, default_stage1_bound(m, N), N, workers)]


def exceptional_sets(pairs: list[AdmissiblePair], N: int, workers: int = 1) -> list[ExceptionalSet]:
    """E_{a,b,m} up to N of each pair, in order, with stage 1 up to each
    modulus's default_stage1_bound: batch_plan's jobs, run while each
    share gets SIEVE_SEGMENT_SIZE candidates (run_plan), one share in this
    process, and each pair's parts merged here."""
    found: dict[tuple[int, int, int], tuple[tuple[int, ...], int]] = {}
    for parts in run_plan(batch_plan(pairs, N, workers), workers, SIEVE_SEGMENT_SIZE):
        for pair, elements, survivors in parts:
            e, s = found.get(pair, ((), 0))
            found[pair] = e + elements, s + survivors
    return [ExceptionalSet(tuple(sorted(e)), s - len(e)) for e, s in map(found.get, pairs)]


def exceptional_set(pair: AdmissiblePair, N: int, workers: int = 1) -> ExceptionalSet:
    """E_{a,b,m} up to N: the batch of one pair (exceptional_sets)."""
    return exceptional_sets([pair], N, workers)[0]


def _check_sweep_budget(m: int, N: int, M: int,
                        packed: bool = True) -> tuple[list[int], int, int, int, int, int]:
    """(units, span, step, width, need, table) of a sweep of m at N: the
    unit classes, the largest prime index up to M, the packed kernel's
    candidates a window and bytes a class's copy, the bytes of the
    kernel's parts beside the table (_window_count of a window of every
    class's row, or _bitset_count of the rows) and the table's bytes
    (table_bytes); first, check_budget's MemoryBudgetError unless they fit."""
    units = [a for a in range(1, m) if math.gcd(a, m) == 1]
    span = max(0, (M - 1) // m)
    table = primes.table_bytes(N, packed)
    step = 8 * max(1, _MARK_BLOCK // (8 * len(units)))
    width = (min((N - 2) // m + 1, step + span + 7) + 7) // 8
    kernel = (_window_count(len(units), width, width + span // 8 + 1) if packed else
              _bitset_count(len(units), (N - 2) // m + 1, span, len(units)))
    need = check_budget(f"sweep of m = {m} at N={N}",
                        {"table" if packed else "odd flags": table, **kernel}) - table
    return units, span, step, width, need, table


def _sweep_stage1(m: int, N: int, M: int,
                  table: PrimeTable) -> dict[tuple[int, int], list[int]]:
    """Stage 1 of every pair a <= b of units mod m, keyed (a, b): the
    candidates n <= N not representable with p = a (mod m), p <= M.

    Each class's prime indices up to M are read off the table once.  Per
    window [lo, hi), one table read from base, lo - span rounded down to a
    byte, refills every class's copies in one reused buffer; then each
    small-prime class a runs the window on its rows b >= a, which follow
    each other there and share a's primes, so one OR marks every row."""
    import numpy as np

    units, span, step, width, *_ = _check_sweep_budget(m, N, M)
    small = np.zeros((8, len(units), span // 8 + 1), dtype=np.uint8)
    table.mask(min(M, N - 1), m, units, small)
    pidxs = [np.flatnonzero(np.unpackbits(row, count=max(0, (M - a) // m + 1)))
             for a, row in zip(units, small[0])]
    copies = np.empty((8, len(units), width), dtype=np.uint8)
    count = (N - 2) // m + 1
    found: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in units]
    for lo in range(0, count, step):
        hi, base = min(lo + step, count), max(0, lo - span) // 8 * 8
        copies.fill(0)
        table.mask(min(N - 1, hi * m), m, units, copies, start=base)
        for k, a in enumerate(units):
            row, s = _window(a, units[k:], m, N, pidxs[k], lo, hi, base, copies[:, k:])
            if len(s):  # so that the kept windows do not grow with N
                found[k].append((row, s))
    out: dict[tuple[int, int], list[int]] = {}
    for k, a in enumerate(units):
        row, s = (np.concatenate([np.zeros(0, np.int64)] + [f[i] for f in found[k]])
                  for i in (0, 1))
        for r, b in enumerate(units[k:]):  # a + b - m >= 2 is no p + q and leads
            out[(a, b)] = [a + b - m] * (2 <= a + b - m <= N) + (a + b + s[row == r] * m).tolist()
    return out


def _bitset_sweep(m: int, N: int, M: int, table: PrimeTable) -> dict[tuple[int, int], list[int]]:
    """_sweep_stage1 on Python int bitsets, read off the odd flags of an
    unpacked table (PrimeTable.primes).

    Class b's entries are the flags b//2 + j*m/2.  Entry bytes hold a row
    of every unit class, b ascending, each of as many entries as any pair
    has candidates, (N - 2)//m + 1, with room below for the largest head
    shift.  Small-prime class a runs on its rows b >= a (_bitset_stage1)."""
    units = _check_sweep_budget(m, N, M, packed=False)[0]
    flags = table.primes()
    half, count = m // 2, (N - 2) // m + 1
    pidxs = [list(compress(range(entries), flags[a // 2 : a // 2 + entries * half : half]))
             for a in units for entries in [max(0, (M - a) // m + 1)]]
    width = _row_width(count, pidxs)
    entries = bytearray(len(units) * width)
    for k, b in enumerate(units):  # a row may end past the flags: its entries there stay 0
        row = flags[b // 2 : b // 2 + count * half : half]
        entries[k * width : k * width + len(row)] = row
    classes = [(a, pidx, k) for k, (a, pidx) in enumerate(zip(units, pidxs))]
    return _bitset_stage1(m, N, units, entries, width, count, classes)


def sweep_plan(N: int, moduli: list[int], fn: Callable[[int, PrimeTable], object]) -> list[Job]:
    """The jobs of a sweep at N that computes `moduli`, in order, args (m,
    packed): each weighed by its head work (see _BITSET_SWEEP_ROW) and
    counting its kernel's bytes beside the `shared` table (all checked by
    _check_sweep_budget first).  `packed`, the size rule's kernel for the
    whole sweep, is the kind of table that the executor sieves
    (sieve_primes) before run_plan forks, to run each job as fn(m, table);
    see exceptional_sets_for_modulus.  Nothing is sieved here."""
    row = max(((N - 2) // m + 1 for m in moduli), default=0)
    work = [sum(math.gcd(a, m) == 1 for a in range(1, m)) ** 2 * ((N - 2) // m) for m in moduli]
    packed = row > _BITSET_SWEEP_ROW and sum(work) * row > _BITSET_SWEEP_WORK
    needs = [_check_sweep_budget(m, N, default_stage1_bound(m, N), packed)[-2:] for m in moduli]
    return [Job(fn, (m, packed), cost, *need) for m, cost, need in zip(moduli, work, needs)]


def exceptional_sets_for_modulus(m: int, N: int, *,
                                 table: PrimeTable) -> dict[tuple[int, int], tuple[int, ...]]:
    """The elements of E_{a,b,m} for every ordered admissible pair, keyed
    by (a, b), read off `table`, whose limit must reach N - 1: a packed
    table runs the packed kernel (_sweep_stage1), one of odd flags the
    int-bitset kernel (_bitset_sweep), and a sweep's plan picks its kind
    (sweep_plan); stage 1 runs up to default_stage1_bound(m, N), as
    sweep_plan counts it.  E_{a,b,m} = E_{b,a,m}, so each unordered pair
    runs the engine once, the smaller residue the small-prime class, and
    (b, a) shares the tuple of (a, b)."""
    _require_even(m)
    if table.limit < N - 1:
        raise ValueError(f"table up to {table.limit} does not reach N - 1 = {N - 1}")
    M = default_stage1_bound(m, N)
    stage1 = _sweep_stage1 if table.packed else _bitset_sweep
    out: dict[tuple[int, int], tuple[int, ...]] = {}
    for (a, b), survivors in stage1(m, N, M, table).items():
        out[(a, b)] = out[(b, a)] = _resolved(a, b, m, M, survivors)
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# The explicit conjectures, each reduced to exceptional sets


class ViolationReport(NamedTuple):
    """Even multiples n of modulus with no representation p + q where
    p = residue and q = -residue (mod modulus)."""

    modulus: int
    residue: int
    violations: tuple[int, ...]


def _lifted(m0: int, r: int, s: int) -> AdmissiblePair:
    """The pair (a, b, step), step the least even multiple of m0 and a, b
    the odd residues mod step that are r, s mod m0, in that order; every
    conjecture check reaches the engine through its E.  E holds sums of
    odd primes only: the prime 2, in a class mod m0 only when m0 is odd,
    is left to the caller."""
    step = m0 if m0 % 2 == 0 else 2 * m0
    a, b = (x % m0 if x % m0 % 2 else x % m0 + m0 for x in (r, s))
    return AdmissiblePair(a, b, step)


def verify_conjecture_mod4(N: int, workers: int = 1) -> dict[str, tuple[int, ...]]:
    """Violations of the four mod-4 representation cases up to N, keyed
    "i" to "iv".

    Cases: (i) even n > 4 with p = 3 mod 4 and q unrestricted;
    (ii) n = 0 mod 4 with p = 1, q = 3 mod 4; (iii) n = 2 mod 4 with
    p = q = 3 mod 4; (iv) n = 2 mod 4 with p = q = 1 mod 4.  Cases
    (ii)-(iv) report the small exceptions; case (i) excludes n <= 4 by
    its statement.  Each of E(1, 3, 4), E(3, 3, 4) and E(1, 1, 4) is
    computed once, in one exceptional_sets call on `workers`: case
    (i) reads E(3, 1, 4) = E(1, 3, 4) and E(3, 3, 4).
    """
    pairs = [_lifted(4, a, b) for a, b in ((1, 3), (3, 3), (1, 1))]
    e13, e33, e11 = (e.elements for e in exceptional_sets(pairs, N, workers))
    # q = 2 would make p + q odd, so q is odd: q = 1 mod 4 reaches the
    # n = 0 mod 4 and q = 3 mod 4 the n = 2 mod 4
    case_i = tuple(sorted(n for n in e13 + e33 if n > 4))
    return {"i": case_i, "ii": e13, "iii": e33, "iv": e11}


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
    N: int, a: int, workers: int = 1
) -> dict[str, tuple[ViolationReport, ...]]:
    """Violations for the seven sample single-progression conjectures,
    keyed "i" to "vii".

    Each item asserts every even multiple of the stated modulus is p + q
    with p = r and q = -r (mod modulus); item (ii) checks both stated
    residues, item (vii) the residue a mod 60, which is checked first.
    Every residue's set comes from one exceptional_sets call on
    `workers`.
    """
    if math.gcd(a, 60) != 1:
        raise ValueError(f"a={a} is not coprime to 60")
    if a % 60 in (1, 59, 11, 49):
        raise ValueError(
            f"a={a} is congruent to +-1 or +-11 mod 60, excluded by the statement"
        )
    # for odd m0 every candidate is a multiple of 2*m0 >= 6, so the
    # partner of the prime 2 is even and above 2, never prime
    specs = {**_SAMPLE_SPECS, "vii": (60, (a,))}
    pairs = [_lifted(m0, r, -r) for m0, residues in specs.values() for r in residues]
    sets = iter(exceptional_sets(pairs, N, workers))
    return {item: tuple(ViolationReport(m0, r % m0, next(sets).elements) for r in residues)
            for item, (m0, residues) in specs.items()}


def verify_ternary(N: int, workers: int = 1) -> tuple[int, ...]:
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
    e556 = exceptional_sets([_lifted(3, 2, 2)], N, workers)[0].elements
    binary_violations = set(e556) - {4}

    def rep(k: int) -> bool:
        return k % 6 == 4 and k >= 4 and k not in binary_violations

    fallback = sorted(
        {k + r for k in binary_violations for r in (3, 5, 7) if k + r <= N}
    )
    if not fallback:
        return ()
    rs = [r for r in range(2, fallback[-1] + 1) if is_prime(r)]
    return tuple(n for n in fallback if not any(rep(n - r) for r in rs))
