"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.  The full sweep to m = 50 at N = 10^6 is computed once and
shared.
"""

import math
import time
from pathlib import Path

import pytest

from apgoldbach.cli import RunConfig, compute_sweep
from apgoldbach.heuristics import coupon_expected_wait, coupon_tail
from apgoldbach.partitions import (
    AdmissiblePair,
    exceptional_set,
    stage1_survivor_diagnostic,
    verify_conjecture_mod4,
    verify_conjecture_samples,
    verify_ternary,
)
from apgoldbach.summaries import (
    TABLE1_HEADER,
    TABLE2_HEADER,
    count_empty_pairs,
    summarize_modulus,
)
from oracles import coupon_tail_inclusion_exclusion, naive_exceptional_set, simulate_coupon
from test_partitions import EXPLICIT_SETS

N = 10**6
DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def sweep_m50():
    return compute_sweep(RunConfig(N=N, m_min=2, m_max=50))


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {criterion}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed{suffix}"


def test_criterion_1_explicit_sets():
    start = time.monotonic()
    for (a, b, m), expected in sorted(EXPLICIT_SETS.items()):
        es = exceptional_set(AdmissiblePair(a, b, m), N)
        assert es.elements == expected, (a, b, m)
    elapsed = time.monotonic() - start
    _report("1 explicit sets m<=10", elapsed < 60, f"{elapsed:.1f}s single-threaded")


def test_criterion_2_table1(sweep_m50):
    expected_lines = (DATA_DIR / "table1_m50.csv").read_text().splitlines()
    assert expected_lines[0] == TABLE1_HEADER
    got_lines = [TABLE1_HEADER] + [
        summarize_modulus(sets, m).csv_row() for m, sets in sweep_m50.items()
    ]
    mismatches = [
        (g, e) for g, e in zip(got_lines, expected_lines) if g != e
    ]
    _report(
        "2 table-1 byte reproduction m<=50",
        got_lines == expected_lines,
        f"{len(got_lines) - 1} rows" if not mismatches else f"first diff {mismatches[0]}",
    )


def test_criterion_3_table2(sweep_m50):
    expected = (DATA_DIR / "table2_m50.csv").read_text()
    rows = [count_empty_pairs(sets, m).csv_row() for m, sets in sweep_m50.items()]
    got = "\n".join([TABLE2_HEADER] + rows) + "\n"
    _report("3 table-2 counts and percents m<=50", got == expected)


def test_criterion_4_mod4_cases():
    # case (iv): the stated exception list prints 18 where the computation
    # (and the explicit mod-4 set listing) gives 38; 18 = 5 + 13 with both
    # primes 1 mod 4, so the computed set below is the correct one
    expected = {
        "i": (),
        "ii": (4,),
        "iii": (2,),
        "iv": (2, 6, 14, 38, 62),
    }
    for case, want in expected.items():
        got = verify_conjecture_mod4(case, N)
        assert got == want, (case, got)
    _report("4 mod-4 conjecture violation sets", True, "case iv uses 38, see notes")


def test_criterion_5_sample_conjectures():
    expected = {
        "i": ((6,),),
        "ii": ((), (10, 20)),
        "iii": ((),),
        "iv": ((),),
        "v": ((),),
        "vi": ((),),
    }
    for item, want in expected.items():
        reps = verify_conjecture_samples(item, N)
        assert tuple(r.violations for r in reps) == want, item
    reps = verify_conjecture_samples("vii", N, a=7)
    assert reps[0].violations == ()
    _report("5 sample conjectures i-vii (a=7)", True)


def test_criterion_6_ternary():
    start = time.monotonic()
    violations = verify_ternary(10**5)
    elapsed = time.monotonic() - start
    _report(
        "6 ternary, odd n <= 1e5",
        violations == () and elapsed < 60,
        f"{elapsed:.1f}s",
    )


def test_criterion_7_oracle_equivalence():
    limit = 10**4
    checked = 0
    for m in (2, 4, 6, 8, 10, 12):
        units = [a for a in range(1, m) if math.gcd(a, m) == 1]
        for a in units:
            for b in units:
                if a > b:
                    continue
                staged = exceptional_set(AdmissiblePair(a, b, m), limit)
                assert list(staged.elements) == naive_exceptional_set(a, b, m, limit)
                checked += 1
    _report("7 staged vs naive double loop, m<=12", True, f"{checked} unordered pairs")


def test_criterion_8_coupon_model():
    # (a) closed form vs inclusion-exclusion
    for r in range(1, 13):
        for k in range(0, 61):
            closed = coupon_tail(r, k)
            incl = 1.0 if k < r else float(coupon_tail_inclusion_exclusion(r, k))
            assert abs(closed - incl) < 1e-9, (r, k)
    # (b) tail sum identity
    for r in range(1, 11):
        total = sum(coupon_tail(r, k) for k in range(3000))
        assert abs(total - coupon_expected_wait(r)) < 1e-6, r
    # (c) Monte Carlo within 3 binomial sigma
    trials = 10**5
    for r, k in [(2, 2), (2, 5), (3, 6), (5, 20), (8, 30), (10, 40)]:
        p = coupon_tail(r, k)
        sigma = math.sqrt(p * (1 - p) / trials)
        observed = simulate_coupon(r, k, trials, seed=20240817)
        assert abs(observed - p) <= 3 * sigma + 1e-12, (r, k, observed, p)
    _report("8 coupon model: dual forms, tail sum, Monte Carlo", True)


def test_criterion_9_survivor_diagnostic():
    diag = stage1_survivor_diagnostic(50, N, M=10**4)
    # the reported 41 is recovered when stage 1 runs once per unordered
    # pair (small-prime class = smaller residue); per ordered pair the
    # count doubles off the diagonal
    detail = (
        f"unordered={diag.unordered_canonical}, "
        f"ordered with multiplicity={diag.ordered_with_multiplicity}, "
        f"distinct n={diag.distinct_n}"
    )
    assert diag.unordered_canonical == 41, detail
    assert diag.ordered_with_multiplicity <= 100, detail
    _report("9 stage-1 survivors m=50, M=1e4", True, detail)


def test_criterion_10_growth_bound(sweep_m50):
    worst = None
    for m, sets in sweep_m50.items():
        if m < 8:
            continue
        e_max = summarize_modulus(sets, m).unrestricted.e_max
        assert e_max < 16 * m * m, (m, e_max)
        ratio = e_max / (16 * m * m)
        if worst is None or ratio > worst[1]:
            worst = (m, ratio)
    _report(
        "10 E_max(m) < 16 m^2 for 8 <= m <= 50",
        True,
        f"tightest at m={worst[0]}, ratio {worst[1]:.3f}",
    )
