"""Aggregate per-modulus exceptional-set data into table rows.

The input for one modulus m maps every ordered admissible pair (a, b) to
the sorted elements of E_{a,b,m}, as returned by partitions'
exceptional_sets_for_modulus(m, N, table=table); exceptional_sets_from_double
derives that input for m from the input for 2m.  It needs only math and
integers, so a sweep whose every miss is derived loads no engine or numpy.

cli.compute_sweep returns, in place of the sets, one ModulusSummary per
modulus: its Table 1 row, with its Table 2 row as the `empty` field.  The
documents read only those; the figures read E_max and phi(m), which is
the restricted family's pair count, one pair (a, -a) per unit a.

Every aggregate is an integer; an average or a percentage is kept as its
numerator and denominator and rounded only at emission, exactly, in
integer arithmetic (half away from zero, 3 decimals, trailing zeros
trimmed but at least one decimal kept), so the emitted tables are
byte-reproducible.
"""

import math
from typing import NamedTuple

ModulusSets = dict[tuple[int, int], tuple[int, ...]]


def exceptional_sets_from_double(m: int, double: ModulusSets) -> ModulusSets:
    """partitions.exceptional_sets_for_modulus(m, N, table=table) for even m,
    derived from the sets of modulus 2m up to the same N with no engine run.

    Since m is even, 2m has the same prime factors, so a prime p = a
    (mod m) is a or a + m mod 2m, and both are units.  The lifts (p, q)
    mod 2m of (a, b) that reach n = a + b (mod 2m) are (a, b) and
    (a + m, b + m), and those that reach n = a + b + m are (a, b + m) and
    (a + m, b), so

        E_{a,b,m} = (E_{a,b,2m} & E_{a+m,b+m,2m}) | (E_{a,b+m,2m} & E_{a+m,b,2m})

    Only 2m is used: a multiple k*m with a prime factor that m lacks has
    lifts a + j*m that are not units, whose primes no unit pair's set
    accounts for.
    """
    units = [a for a in range(1, m) if math.gcd(a, m) == 1]
    out: ModulusSets = {}
    for k, a in enumerate(units):
        for b in units[k:]:
            same = set(double[(a, b)]).intersection(double[(a + m, b + m)])
            other = set(double[(a, b + m)]).intersection(double[(a + m, b)])
            out[(a, b)] = out[(b, a)] = tuple(sorted(same | other))
    return dict(sorted(out.items()))


def _thousandths(num: int, den: int) -> int:
    """num/den * 1000 rounded half up (half away from zero, for num/den >= 0)."""
    return (2000 * num + den) // (2 * den)


def format_average(num: int, den: int) -> str:
    """num/den to 3 decimals, half away from zero, trailing zeros trimmed."""
    q = _thousandths(num, den)
    s = f"{q // 1000}.{q % 1000:03d}".rstrip("0")
    if s.endswith("."):
        s += "0"
    return s


def format_percent(num: int, den: int) -> str:
    """num/den as a percentage to one decimal, half away from zero."""
    q = _thousandths(num, den)  # tenths of a percent
    return f"{q // 10}.{q % 10}"


class FamilyStats(NamedTuple):
    """min/max set length, pair count, largest exception, and exception
    counts without / with multiplicity, over one family of ordered pairs;
    the average length is e_count_mult / pairs."""

    l_min: int
    pairs: int
    l_max: int
    e_max: int
    e_count: int
    e_count_mult: int


class EmptyPairCount(NamedTuple):
    m: int
    z_m: int
    total_pairs: int

    def csv_row(self) -> str:
        return f"{self.m},{self.z_m},{format_percent(self.z_m, self.total_pairs)}"


class ModulusSummary(NamedTuple):
    """One Table 1 row, restricted (b = -a) and unrestricted aggregates,
    and the modulus's Table 2 row."""

    m: int
    restricted: FamilyStats
    unrestricted: FamilyStats
    empty: EmptyPairCount

    def csv_row(self) -> str:
        parts = [str(self.m)]
        for fam in (self.restricted, self.unrestricted):
            parts += [
                str(fam.l_min),
                format_average(fam.e_count_mult, fam.pairs),
                str(fam.l_max),
                str(fam.e_max),
                str(fam.e_count),
                str(fam.e_count_mult),
            ]
        return ",".join(parts)


TABLE1_HEADER = (
    "m,L0_min,L0_avg,L0_max,E0_max,e0_m,e0_tilde_m,"
    "L_min,L_avg,L_max,E_max,e_m,e_tilde_m"
)

TABLE2_HEADER = "m,count,percent"


def summarize_modulus(sets: ModulusSets, m: int) -> ModulusSummary:
    """The twelve aggregates over ordered admissible pairs for m, and the
    count of those pairs whose set is empty."""
    units = [a for a in range(1, m) if math.gcd(a, m) == 1]
    all_pairs = [(a, b) for a in units for b in units]
    missing = [key for key in all_pairs if key not in sets]
    if missing:
        raise ValueError(f"missing ordered pairs for m={m}: {missing}")

    def stats(pairs) -> FamilyStats:
        family = [sets[key] for key in pairs]
        lengths = [len(elements) for elements in family]
        return FamilyStats(
            l_min=min(lengths),
            pairs=len(family),
            l_max=max(lengths),
            e_max=max((elements[-1] for elements in family if elements), default=0),
            e_count=len(set().union(*family)),
            e_count_mult=sum(lengths),
        )

    return ModulusSummary(
        m=m,
        restricted=stats([(a, (-a) % m) for a in units]),
        unrestricted=stats(all_pairs),
        empty=EmptyPairCount(m, sum(not sets[key] for key in all_pairs), len(all_pairs)),
    )
