"""Independent reference implementations used only to check the package.

Everything here is deliberately naive: trial division, double loops,
full enumeration, a table's bits unpacked whole.  None of it shares code
with the implementations under test.
"""

import itertools
import math
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


def bell_number(k: int) -> int:
    """Partition count of a k-set; row sum of the Stirling triangle."""
    from apgoldbach.heuristics import stirling2

    return sum(stirling2(k, r) for r in range(k + 1))


def coupon_tail_inclusion_exclusion(r: int, k: int) -> Fraction:
    """Inclusion-exclusion form of P(W_r > k) in exact rationals.

    Independent route for cross-checking the factorial/Stirling form.
    """
    if r < 1 or k < 0:
        raise ValueError("need r >= 1 and k >= 0")
    return sum(
        ((-1) ** (j + 1) * math.comb(r, j) * Fraction(r - j, r) ** k
         for j in range(1, r)),
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
