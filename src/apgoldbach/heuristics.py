"""Probabilistic model for exceptional-set growth.

Representations of an even n are modeled as g2(n) independent draws
landing uniformly in r = floor(2*phi(m)^2/m) admissible residue-pair
classes; the chance that some class stays empty is the coupon-collector
tail P(W_r > g2(n)).  g2(n) itself is approximated by its conjectural
average 2n/(ln n)^2.  The tail and the mean wait r*H_r are summed
exactly in integers and rounded once, by the final division.
"""

import math
from typing import NamedTuple

# Terms of the model's mean-length sum per math.fsum call, so that its
# memory does not grow with N.
_SUM_BLOCK = 2048
_K = 2 / math.log(2) ** 2  # 2n/(ln n)^2 = _K n/(log2 n)^2


def g2_estimate(n: int) -> float:
    """Average-order estimate 2n/(ln n)^2 for the ordered pair count."""
    if n < 4 or n % 2 != 0:
        raise ValueError(f"n={n} must be even and >= 4")
    return 2 * n / math.log(n) ** 2


def coupon_expected_wait(r: int) -> float:
    """Expected draws to fill all r boxes: r * H_r, summed exactly over
    the common denominator lcm(1..r)."""
    if r < 1:
        raise ValueError(f"r={r} must be >= 1")
    lcm = math.lcm(*range(1, r + 1))
    return r * sum(lcm // j for j in range(1, r + 1)) / lcm


def coupon_tail(r: int, k: int) -> float:
    """P(W_r > k): probability some box is still empty after k draws.

    Inclusion-exclusion over the boxes left empty,
    sum_{j=1..r-1} (-1)^(j+1) C(r, j) (r - j)^k / r^k, in integers: the
    sum is exact, and the int/int division rounds it correctly.
    """
    if r < 1 or k < 0:
        raise ValueError("need r >= 1 and k >= 0")
    if k < r:
        return 1.0
    return sum(
        (-1) ** (j + 1) * math.comb(r, j) * (r - j) ** k for j in range(1, r)
    ) / r**k


class CouponModel(NamedTuple):
    """Model state for a fixed even modulus."""

    m: int
    r: int
    alpha: float

    @classmethod
    def for_modulus(cls, m: int) -> "CouponModel":
        if m < 2 or m % 2 != 0:
            raise ValueError(f"modulus must be a positive even integer, got {m}")
        phi = sum(1 for a in range(1, m + 1) if math.gcd(a, m) == 1)
        r = (2 * phi**2) // m
        if r < 1:
            raise ValueError(f"m={m} gives r=0 admissible classes on average")
        return cls(m=m, r=r, alpha=1 - 1 / r)


class TruncatedSum(NamedTuple):
    value: float
    tail_bound: float


def _terms(alpha: float, lo: int, hi: int) -> list[float]:
    """The model's terms alpha^(2n/(ln n)^2) for lo <= n < hi, as
    alpha^(_K n/(log2 n)^2): math.log2 takes one argument and costs about
    half as much as math.log."""
    ns = range(lo, hi)
    return [alpha ** (_K * n / (lg * lg)) for n, lg in zip(ns, map(math.log2, ns))]


def _exact_parts(xs: list[float]) -> list[float]:
    """A few floats whose exact sum is the exact sum of xs, largest first;
    each is the correctly rounded rest of the sum.  Extends xs."""
    parts = []
    while (s := math.fsum(xs)) != 0.0:
        parts.append(s)
        xs.append(-s)
    return parts


def _tail_majorant(alpha: float, h: int) -> float:
    """B(h) >= the sum of the terms over n > h, for h >= 21.

    f(n) = 2n/(ln n)^2 increases for n > e^2 and is concave for n > e^3,
    so on (a, 2a] f(n) >= f(a) + (n - a) f'(2a), and the terms there sum
    to at most t(a) beta/(1 - beta) with beta = alpha^f'(2a).  B(h) adds
    these over a = h, 2h, 4h, ... until t(a) underflows to 0.0.
    """
    bound = 0.0
    a = h
    while True:
        ln_a = math.log(a)
        t = alpha ** (2 * a / (ln_a * ln_a))
        if t == 0.0:
            return bound
        ln_b = math.log(2 * a)
        beta = alpha ** (2 * (ln_b - 2) / (ln_b * ln_b * ln_b))
        bound += t * beta / (1 - beta)
        a *= 2


def expected_exception_length(m: int, N: int) -> TruncatedSum:
    """Model mean of |E_{a,b,m}|: (1/m) * sum_{n=2..N} alpha^(2n/(ln n)^2).

    The value is math.fsum over all the terms, divided by m.  The terms
    are summed in blocks of _SUM_BLOCK, and a few floats (_exact_parts)
    carry the exact sum of the terms so far from block to block.  After
    the block that ends at h, the sum stops when adding twice the
    majorant _tail_majorant(alpha, h) of the rest leaves its correctly
    rounded value unchanged: the doubling covers the rounding of the
    terms and of B, and a correctly rounded sum is monotone, so the rest
    cannot change it either.

    tail_bound is a geometric (tangent) estimate of the n > N terms,
    alpha^f(N) beta/(1 - beta)/m with beta = alpha^f'(N).  f is concave
    beyond e^3, so its tangent at N lies above it and the estimate falls
    slightly short of the true tail (at m = 50, N = 10^6, by a factor
    of 1.00023): it is not a bound.
    """
    if N < 10:
        raise ValueError(f"N={N} must be >= 10")
    model = CouponModel.for_modulus(m)
    alpha = model.alpha

    parts: list[float] = []
    for lo in range(2, N + 1, _SUM_BLOCK):
        hi = min(lo + _SUM_BLOCK, N + 1)
        parts = _exact_parts(parts + _terms(alpha, lo, hi))
        h = hi - 1
        if 21 <= h < N and (math.fsum(parts + [2 * _tail_majorant(alpha, h)])
                            == math.fsum(parts)):
            break
    value = math.fsum(parts) / m

    lnN = math.log(N)
    f_N = 2 * N / lnN**2
    fprime_N = 2 * (lnN - 2) / lnN**3
    beta = alpha**fprime_N
    tail = (alpha**f_N) * beta / (1 - beta) / m
    return TruncatedSum(value=value, tail_bound=tail)


class BoundPrediction(NamedTuple):
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

