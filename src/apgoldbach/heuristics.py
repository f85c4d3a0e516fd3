"""Probabilistic model for exceptional-set growth.

Representations of an even n are modeled as g2(n) independent draws
landing uniformly in r = floor(2*phi(m)^2/m) admissible residue-pair
classes; the chance that some class stays empty is the coupon-collector
tail P(W_r > g2(n)).  g2(n) itself is approximated by its conjectural
average 2n/(ln n)^2.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .summaries import totient

# Exact rational evaluation of the tail is used inside this range; beyond
# it the alternating inclusion-exclusion sum is evaluated in floats with
# exact (fsum) accumulation.
EXACT_TAIL_MAX_R = 30
EXACT_TAIL_MAX_K = 500

# Largest run of terms of the model's mean-length sum evaluated at once, so
# its memory does not grow with N; at least the 128-term block below which
# np.sum stops halving.
_SUM_CHUNK = 1 << 16


def g2_estimate(n: int) -> float:
    """Average-order estimate 2n/(ln n)^2 for the ordered pair count."""
    if n < 4 or n % 2 != 0:
        raise ValueError(f"n={n} must be even and >= 4")
    return 2 * n / math.log(n) ** 2


@lru_cache(maxsize=None)
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
    """Stirling number of the second kind, exact."""
    if k < 0 or r < 0:
        raise ValueError("k and r must be nonnegative")
    if r > k:
        return 0
    return _stirling_row(k)[r]


def harmonic(r: int) -> Fraction:
    if r < 1:
        raise ValueError(f"r={r} must be >= 1")
    return sum((Fraction(1, j) for j in range(1, r + 1)), Fraction(0))


def coupon_expected_wait(r: int) -> float:
    """Expected draws to fill all r boxes: r * H_r."""
    return float(r * harmonic(r))


def coupon_tail(r: int, k: int) -> float:
    """P(W_r > k): probability some box is still empty after k draws.

    Closed form 1 - r! S(k, r) / r^k in exact rationals within the exact
    range; inclusion-exclusion with fsum accumulation beyond it (the
    alternating sum cancels catastrophically in naive float order).
    """
    if r < 1 or k < 0:
        raise ValueError("need r >= 1 and k >= 0")
    if k < r:
        return 1.0
    if r == 1:
        return 0.0
    if r <= EXACT_TAIL_MAX_R and k <= EXACT_TAIL_MAX_K:
        val = 1 - Fraction(math.factorial(r) * stirling2(k, r), r**k)
        return float(val)
    terms = [
        (-1) ** (j + 1) * math.comb(r, j) * (1 - j / r) ** k
        for j in range(1, r)
    ]
    return min(1.0, max(0.0, math.fsum(terms)))


@dataclass(frozen=True)
class CouponModel:
    """Model state for a fixed even modulus."""

    m: int
    r: int
    alpha: float

    @classmethod
    def for_modulus(cls, m: int) -> "CouponModel":
        if m < 2 or m % 2 != 0:
            raise ValueError(f"modulus must be a positive even integer, got {m}")
        r = (2 * totient(m) ** 2) // m
        if r < 1:
            raise ValueError(f"m={m} gives r=0 admissible classes on average")
        return cls(m=m, r=r, alpha=1 - 1 / r)

    @property
    def expected_wait(self) -> float:
        return coupon_expected_wait(self.r)


@dataclass(frozen=True)
class TruncatedSum:
    value: float
    tail_bound: float


def expected_exception_length(m: int, N: int) -> TruncatedSum:
    """Model mean of |E_{a,b,m}|: (1/m) * sum_{n=2..N} alpha^(2n/(ln n)^2).

    The reported tail bound majorizes the discarded n > N terms by a
    geometric series: the exponent f(n) = 2n/(ln n)^2 is increasing and
    convex-minorized by f(N) + f'(N)(n - N) for n >= N >= 10.

    The sum splits [2, N] in halves the way np.sum's pairwise summation
    does, down to runs of at most _SUM_CHUNK terms, so it equals np.sum
    over all the terms to the last bit.  f increases for n >= 8, so once a
    run ends in the term 0.0 every later run sums to 0.0 and is skipped.
    """
    if N < 10:
        raise ValueError(f"N={N} must be >= 10")
    model = CouponModel.for_modulus(m)
    alpha = model.alpha
    if alpha == 0.0:
        return TruncatedSum(value=0.0, tail_bound=0.0)

    zero_from = N + 1  # every term from here on is 0.0

    def pairwise(lo: int, hi: int) -> float:
        nonlocal zero_from
        if lo >= zero_from:
            return 0.0
        if hi - lo > _SUM_CHUNK:
            half = (hi - lo) // 2
            half -= half % 8  # numpy's split, a multiple of its 8-way unroll
            return pairwise(lo, lo + half) + pairwise(lo + half, hi)
        terms = np.log(np.arange(lo, hi, dtype=np.float64))
        np.square(terms, out=terms)
        np.divide(np.arange(lo, hi, dtype=np.float64), terms, out=terms)
        terms *= 2  # 2n/(ln n)^2 to the last bit: doubling is exact
        np.power(alpha, terms, out=terms)
        if terms[-1] == 0.0:
            zero_from = hi
        return float(np.sum(terms))

    value = pairwise(2, N + 1) / m

    lnN = math.log(N)
    f_N = 2 * N / lnN**2
    fprime_N = 2 * (lnN - 2) / lnN**3
    beta = alpha**fprime_N
    tail = (alpha**f_N) * beta / (1 - beta) / m
    return TruncatedSum(value=value, tail_bound=tail)


@dataclass(frozen=True)
class BoundPrediction:
    m: int
    e_max_bound: float
    expected_length: float


def predict_bounds(m: int, c: float, delta: float) -> BoundPrediction:
    """Model growth predictions: largest exception O(m^2 (ln m)^2) with
    constant c, and mean set length r^(1/delta)/(2m)."""
    if c <= 0:
        raise ValueError(f"c={c} must be positive")
    if not 0 < delta < 1:
        raise ValueError(f"delta={delta} must lie in (0, 1)")
    model = CouponModel.for_modulus(m)
    return BoundPrediction(
        m=m,
        e_max_bound=c * m * m * math.log(m) ** 2,
        expected_length=model.r ** (1 / delta) / (2 * m),
    )

