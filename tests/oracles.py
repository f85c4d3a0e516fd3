"""Independent reference implementations used only to check the package.

Everything here is deliberately naive: trial division, double loops,
full enumeration, a table's bits unpacked whole, sumsets by FFT.  None of
it shares code with the implementations under test, except
stage1_survivor_diagnostic, which counts what the engine's own stage 1
leaves unresolved, and stage1_bound, which sets the engine's stage-1
bound for a test.
"""

import functools
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def is_prime_trial_division(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def primes_up_to(limit: int) -> list[int]:
    return [n for n in range(2, limit + 1) if is_prime_trial_division(n)]


def sieve_progression(a: int, m: int, limit: int) -> tuple[int, ...]:
    """Primes = a (mod m) up to limit by testing the progression directly
    with the package's Miller-Rabin test; no sieve is involved."""
    from apgoldbach.primes import is_prime

    if not 0 <= a < m:
        raise ValueError(f"residue a={a} not in [0, {m})")
    start = a if a >= 2 else a + m * ((2 - a + m - 1) // m)
    return tuple(n for n in range(start, limit + 1, m) if is_prime(n))


def naive_exceptional_set(a: int, b: int, m: int, N: int) -> list[int]:
    """E_{a,b,m} up to N by a double loop over prime pairs."""
    primes = primes_up_to(N)
    pa = [p for p in primes if p % m == a]
    pb = set(p for p in primes if p % m == b)
    reachable = set()
    for p in pa:
        for q in pb:
            if p + q <= N:
                reachable.add(p + q)
    c = (a + b) % m
    start = c if c >= 2 else c + m
    return [n for n in range(start, N + 1, m) if n not in reachable]


def fft_exceptional_sets(m: int, N: int) -> dict[tuple[int, int], tuple[int, ...]]:
    """E_{a,b,m} up to N of every ordered pair of units mod m, from FFT
    sumsets, with no code of the package: a plain numpy sieve; row b, the
    0/1 indicator of the primes b + j*m <= N, transformed once per unit
    class (rfft); and per small-prime class a one batched irfft over the
    rows b >= a, whose entry s counts the representations p + q of
    n = a + b + s*m.  E_{a,b,m} is the candidates n <= N of count 0, led
    by a + b - m when that is at least 2 (no p + q reaches it).  Every
    count must lie within 0.25 of an integer, or rounding could mislead."""
    prime = np.ones(N + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, math.isqrt(N) + 1):
        if prime[p]:
            prime[p * p :: p] = False
    units = [a for a in range(1, m) if math.gcd(a, m) == 1]
    length = (N - 1) // m + 1  # the longest row, class 1's
    size = 1 << (2 * length).bit_length()  # no wrap-around of a sum's index
    rows = np.zeros((len(units), size))
    for k, b in enumerate(units):
        rows[k, : len(prime[b::m])] = prime[b::m]
    spectra = np.fft.rfft(rows, axis=1)
    sets = {}
    for k, a in enumerate(units):
        counts = np.fft.irfft(spectra[k] * spectra[k:], n=size, axis=1)
        rounded = np.rint(counts)
        error = float(np.abs(counts - rounded).max())
        assert error < 0.25, f"an FFT count of m = {m}, a = {a} at N = {N} is off by {error}"
        for b, count in zip(units[k:], rounded):
            zero = np.flatnonzero(count[: max(0, (N - a - b) // m + 1)] == 0)
            sets[(a, b)] = sets[(b, a)] = tuple(
                [a + b - m] * (2 <= a + b - m <= N) + (a + b + m * zero).tolist())
    return sets


def naive_stage1_unresolved(a: int, b: int, m: int, N: int, M: int) -> list[int]:
    """Candidates n <= N in the class a + b (mod m), n >= 2, with no
    n = p + q where p = a (mod m), p <= M and q = b (mod m), both prime,
    by a double loop."""
    primes = primes_up_to(N)
    pa = [p for p in primes if p % m == a and p <= M]
    pb = [q for q in primes if q % m == b]
    reachable = {p + q for p in pa for q in pb}
    c = (a + b) % m
    start = c if c >= 2 else c + m
    return [n for n in range(start, N + 1, m) if n not in reachable]


def naive_progression_violations(m0: int, r: int, N: int) -> list[int]:
    """Even multiples n <= N of m0 with no n = p + q, p = r and q = -r
    (mod m0), by a double loop over prime pairs; p = 2 or q = 2 takes
    part whenever its class allows it."""
    primes = primes_up_to(N)
    ps = [p for p in primes if p % m0 == r % m0]
    qs = [q for q in primes if q % m0 == -r % m0]
    reachable = {p + q for p in ps for q in qs}
    return [n for n in range(m0, N + 1, m0) if n % 2 == 0 and n not in reachable]


def naive_mod4_case_i(N: int) -> list[int]:
    """Even n with 4 < n <= N and no n = p + q, p = 3 (mod 4) and q any
    prime, by a double loop."""
    primes = primes_up_to(N)
    reachable = {p + q for p in primes if p % 4 == 3 for q in primes}
    return [n for n in range(6, N + 1, 2) if n not in reachable]


def naive_ternary_violations(N: int, unrepresented: frozenset = frozenset()) -> list[int]:
    """Odd n with 5 < n <= N and no n = p + q + r, p = q = 2 (mod 3) and
    r any prime, by a double loop over p, q and a scan over r.  Sums p + q
    listed in `unrepresented` are treated as not representable."""
    primes = primes_up_to(N)
    two = [p for p in primes if p % 3 == 2]
    pairs = {p + q for p in two for q in two if p + q <= N} - unrepresented
    return [n for n in range(7, N + 1, 2) if not any(n - r in pairs for r in primes)]


def coupon_tail_enumeration(r: int, k: int) -> Fraction:
    """P(W_r > k) by enumerating all r^k equally likely draw sequences."""
    bad = 0
    for seq in itertools.product(range(r), repeat=k):
        if len(set(seq)) < r:
            bad += 1
    return Fraction(bad, r**k)


def bell_numbers(count: int) -> list[int]:
    """First `count` Bell numbers via the binomial recurrence
    B(n+1) = sum_k C(n, k) B(k)."""
    bells = [1]
    for n in range(count - 1):
        bells.append(sum(math.comb(n, k) * bells[k] for k in range(n + 1)))
    return bells


def stirling2_by_enumeration(k: int, r: int) -> int:
    """Count surjections of a k-set onto r labels, divided by r!."""
    if k == 0:
        return 1 if r == 0 else 0
    surjections = sum(
        1
        for assignment in itertools.product(range(r), repeat=k)
        if len(set(assignment)) == r
    )
    return surjections // math.factorial(r) if r else 0


@functools.lru_cache(maxsize=None)
def _stirling_row(k: int) -> tuple[int, ...]:
    """Row k of the second-kind Stirling triangle, entries r = 0..k."""
    if k == 0:
        return (1,)
    prev = _stirling_row(k - 1)
    row = [0] * (k + 1)
    for r in range(1, k + 1):
        below = prev[r] if r < k else 0
        row[r] = r * below + prev[r - 1]
    return tuple(row)


def stirling2(k: int, r: int) -> int:
    """Stirling number of the second kind, exact, from the triangle's
    recurrence S(k, r) = r S(k-1, r) + S(k-1, r-1): the reference for
    the closed form P(W_r > k) = 1 - r! S(k, r) / r^k."""
    if k < 0 or r < 0:
        raise ValueError("k and r must be nonnegative")
    if r > k:
        return 0
    return _stirling_row(k)[r]


def bell_number(k: int) -> int:
    """Partition count of a k-set; row sum of the Stirling triangle."""
    return sum(stirling2(k, r) for r in range(k + 1))


def harmonic(r: int) -> Fraction:
    """H_r = 1 + 1/2 + ... + 1/r in exact rationals."""
    return sum((Fraction(1, j) for j in range(1, r + 1)), Fraction(0))


def coupon_tail_inclusion_exclusion(r: int, k: int) -> Fraction:
    """Inclusion-exclusion form of P(W_r > k) in exact rationals.

    Independent route for cross-checking the factorial/Stirling form.
    The sum runs over every nonempty set of j empty boxes, j = r too:
    that term is 0 for k >= 1 and makes the sum 1 at k = 0.
    """
    if r < 1 or k < 0:
        raise ValueError("need r >= 1 and k >= 0")
    return sum(
        ((-1) ** (j + 1) * math.comb(r, j) * Fraction(r - j, r) ** k
         for j in range(1, r + 1)),
        Fraction(0),
    )


def simulate_coupon(r: int, k: int, trials: int, seed: int) -> float:
    """Monte Carlo estimate of P(W_r > k); reproducible given seed."""
    if r < 1 or k < 0 or trials < 1:
        raise ValueError("need r >= 1, k >= 0, trials >= 1")
    if k == 0:
        return 1.0  # no draws, every box still empty
    rng = np.random.default_rng(seed)
    empty = 0
    chunk = max(1, min(trials, 10**7 // max(k, 1)))
    done = 0
    while done < trials:
        t = min(chunk, trials - done)
        draws = rng.integers(0, r, size=(t, k))
        present = np.zeros((t, r), dtype=bool)
        present[np.arange(t)[:, None], draws] = True
        empty += int((present.sum(axis=1) < r).sum())
        done += t
    return empty / trials


def class_masks(table, hi: int, m: int = 1, classes=(0,)) -> dict[int, np.ndarray]:
    """Bool masks along the progressions b + j*m, read off a PrimeTable's
    packed odd bits by unpacking them whole.

    masks[b][j] is True iff b + j*m is a prime <= hi, for every j with
    b + j*m <= hi; one False entry follows, so masks[b][-1] is False.
    The defaults give the plain mask over [0, hi] as masks[0].
    """
    if hi > table.limit:
        raise ValueError(f"hi={hi} exceeds table limit {table.limit}")
    flags = np.zeros(hi + 1, dtype=bool)  # flags[n]: n is prime
    flags[1::2] = np.unpackbits(table.bits, count=(hi + 1) // 2)  # bit i <-> 2i + 1
    flags[2:3] = True  # the implicit prime 2, if hi >= 2
    masks = {}
    for b in classes:
        if not 0 <= b < m:
            raise ValueError(f"residue b={b} not in [0, {m})")
        masks[b] = np.zeros((hi - b) // m + 2, dtype=bool)
        masks[b][:-1] = flags[b::m]
    return masks


def table_primes(table) -> list[int]:
    """Every prime a PrimeTable holds, ascending."""
    return np.flatnonzero(class_masks(table, table.limit)[0]).tolist()


@dataclass(frozen=True)
class ResidueClassPrimes:
    """Primes p <= limit with p = a (mod m), ascending."""

    a: int
    m: int
    limit: int
    primes: tuple[int, ...]


def primes_in_class(table, a: int, m: int, limit: int) -> ResidueClassPrimes:
    """Primes p <= limit with p = a (mod m), read off a sieve table."""
    if not 0 <= a < m:
        raise ValueError(f"residue a={a} not in [0, {m})")
    if limit > table.limit:
        raise ValueError(f"limit {limit} exceeds table limit {table.limit}")
    js = np.flatnonzero(class_masks(table, limit, m, (a,))[a])
    return ResidueClassPrimes(a=a, m=m, limit=limit, primes=tuple((a + js * m).tolist()))


def g2_exact(n: int, table) -> int:
    """Ordered prime pairs (p, q) with p + q = n.

    For odd n the pairs are (2, n - 2) and (n - 2, 2), so the count is 2
    when n - 2 is prime and 0 otherwise.  For even n both primes are odd,
    apart from 4 = 2 + 2.
    """
    if n > table.limit:
        raise ValueError(f"n={n} exceeds table limit {table.limit}")
    if n < 4:
        return 0
    flags = class_masks(table, n)[0]
    if n % 2:
        return 2 if flags[n - 2] else 0
    odd = flags[1:n:2]  # odd[i]: 2i + 1 is prime
    return int(np.count_nonzero(odd & odd[::-1])) + (n == 4)


@contextmanager
def stage1_bound(M):
    """Within the block every engine entry runs stage 1 up to M, or up to
    its own bound where M is None: each entry reads its bound from
    partitions.default_stage1_bound, patched here, as the CLI's tests
    patch it."""
    from apgoldbach import partitions

    real = partitions.default_stage1_bound
    if M is not None:
        partitions.default_stage1_bound = lambda m, N: M
    try:
        yield
    finally:
        partitions.default_stage1_bound = real


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


def stage1_survivor_diagnostic(m: int, N: int, M: int, table=None) -> SurvivorDiagnostic:
    """Count stage-1 survivors (unresolved non-exceptions) for modulus m.

    The roles of the small-prime class and the long class differ, so each
    ordered pair runs the engine's stage 1 in its own orientation: a pair
    a <= b as the sweep marks it, a pair a > b as a single pair's packed
    kernel does; its survivors are the unresolved candidates that are not
    elements.
    """
    from apgoldbach import partitions
    from apgoldbach.primes import sieve_primes

    if table is None:
        table = sieve_primes(N)
    swept = partitions._sweep_stage1(m, N, M, table)
    with stage1_bound(M):
        sets = partitions.exceptional_sets_for_modulus(m, N, table=table)
    survivors = {
        (a, b): set(swept[(a, b)] if a <= b else partitions._pair_share(
            partitions.AdmissiblePair(a, b, m), N, M)) - set(elements)
        for (a, b), elements in sets.items()
    }
    return SurvivorDiagnostic(
        m=m,
        N=N,
        M=M,
        ordered_with_multiplicity=sum(map(len, survivors.values())),
        distinct_n=len(set().union(*survivors.values())),
        unordered_canonical=sum(len(s) for (a, b), s in survivors.items() if a <= b),
    )
