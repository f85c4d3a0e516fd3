import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from apgoldbach.partitions import exceptional_sets_for_modulus
from apgoldbach.summaries import (
    format_average,
    format_percent,
    summarize_modulus,
)


@pytest.fixture(scope="module")
def sets_by_m(table_1e6):
    return {
        m: exceptional_sets_for_modulus(m, 10**6, table=table_1e6)
        for m in (2, 4, 8, 10)
    }


def test_m4_row(sets_by_m):
    s = summarize_modulus(sets_by_m[4], 4)
    r, u = s.restricted, s.unrestricted
    # the average length is e_count_mult / pairs: 2/2 = 1 and 8/4 = 2
    assert (r.l_min, r.l_max, r.e_max, r.e_count, r.e_count_mult, r.pairs) == (
        1, 1, 4, 1, 2, 2)
    assert (u.l_min, u.l_max, u.e_max, u.e_count, u.e_count_mult, u.pairs) == (
        1, 5, 62, 6, 8, 4)


def test_m10_row(sets_by_m):
    u = summarize_modulus(sets_by_m[10], 10).unrestricted
    assert (u.l_min, u.l_max, u.e_max, u.e_count, u.e_count_mult) == (0, 4, 152, 13, 25)
    assert (u.e_count_mult, u.pairs) == (25, 16)
    assert format_average(u.e_count_mult, u.pairs) == "1.563"


def test_m2_families_coincide(sets_by_m):
    s = summarize_modulus(sets_by_m[2], 2)
    assert s.restricted == s.unrestricted
    assert s.csv_row() == "2,2,2.0,2,4,2,2,2,2.0,2,4,2,2"


def test_average_times_pairs_identity(sets_by_m):
    for m, sets in sets_by_m.items():
        s = summarize_modulus(sets, m)
        phi = sum(math.gcd(a, m) == 1 for a in range(1, m))
        assert s.unrestricted.pairs == phi**2
        assert s.restricted.pairs == phi


def test_restricted_dominated(sets_by_m):
    for m, sets in sets_by_m.items():
        s = summarize_modulus(sets, m)
        assert s.restricted.e_max <= s.unrestricted.e_max
        assert s.restricted.e_count <= s.unrestricted.e_count
        assert s.restricted.e_count_mult <= s.unrestricted.e_count_mult


def test_incomplete_coverage_rejected(sets_by_m):
    partial = dict(sets_by_m[8])
    del partial[(3, 5)]
    with pytest.raises(ValueError, match=r"missing ordered pairs.*\(3, 5\)"):
        summarize_modulus(partial, 8)


def test_relabel_invariance(sets_by_m):
    flipped = {(b, a): elements for (a, b), elements in sets_by_m[8].items()}
    assert summarize_modulus(flipped, 8) == summarize_modulus(sets_by_m[8], 8)


def test_empty_pairs_m8(sets_by_m):
    c = summarize_modulus(sets_by_m[8], 8).empty
    assert c.z_m == 3
    empty_keys = {k for k, v in sets_by_m[8].items() if not v}
    assert empty_keys == {(3, 3), (3, 5), (5, 3)}
    assert c.csv_row() == "8,3,18.8"


def test_empty_pairs_m2(sets_by_m):
    assert summarize_modulus(sets_by_m[2], 2).empty.z_m == 0


def _rounded(x: Fraction, places: int) -> Fraction:
    """The exact oracle: x >= 0 to `places` decimals, half away from zero,
    chosen among the two neighbouring multiples of 10^-places."""
    unit = Fraction(1, 10**places)
    below = x // unit * unit
    above = below + unit
    return above if above - x <= x - below else below


# num/den with den up to 10^6, and exact halves (2k + 1)/2000, which are
# k/1000 + 0.0005 and (k + 1)/1000 - 0.0005, with den a multiple of 2000
_ratios = st.integers(1, 10**6).flatmap(
    lambda den: st.tuples(st.integers(0, 100 * den), st.just(den))
) | st.tuples(st.integers(0, 10**5), st.integers(1, 500)).map(
    lambda kt: ((2 * kt[0] + 1) * kt[1], 2000 * kt[1])
)


class TestFormatting:
    # each frac is a ratio (num, den) of integers, as the tables hold it
    @pytest.mark.parametrize(
        "frac,expected",
        [
            ((2, 1), "2.0"),
            ((5, 4), "1.25"),
            ((25, 16), "1.563"),  # half rounds away from zero
            ((2, 6), "0.333"),
            ((1157, 400), "2.893"),
            ((286, 100), "2.86"),
            ((0, 1), "0.0"),
        ],
    )
    def test_average(self, frac, expected):
        assert format_average(*frac) == expected

    @pytest.mark.parametrize(
        "frac,expected",
        [
            ((3, 16), "18.8"),
            ((20, 64), "31.3"),
            ((2, 100), "2.0"),
            ((0, 1), "0.0"),
        ],
    )
    def test_percent(self, frac, expected):
        assert format_percent(*frac) == expected

    @given(_ratios)
    @example((1, 2000))  # 0.0005
    @example((2001, 2000))  # 1.0005
    @example((1999, 2000))  # 0.9995
    @example((999_999, 10**6))
    def test_average_parses_back(self, frac):
        # both strings parse back to the exact oracle's rounding of num/den
        x = Fraction(*frac)
        s = format_average(*frac)
        decimals = s.partition(".")[2]
        assert 1 <= len(decimals) <= 3 and (decimals == "0" or not decimals.endswith("0"))
        assert Fraction(s) == _rounded(x, 3)
        p = format_percent(*frac)
        assert len(p.partition(".")[2]) == 1
        assert Fraction(p) == _rounded(100 * x, 1)
