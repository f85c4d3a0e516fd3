"""Independent reference implementations used only to check the package.

Everything here is deliberately naive: trial division, double loops,
full enumeration.  None of it shares code with the implementations under
test.
"""

import itertools
import math
from fractions import Fraction


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
