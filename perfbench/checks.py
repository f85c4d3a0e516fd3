"""Output checks for the benchmark workloads.

Every check compares a command's output with a reference that does not come
from the program under test: the byte-exact tables in tests/data, and values
frozen here from the test suite and from the CLI at the commit that added the
benchmark.  A check returns None when the output is right and a one-line
reason when it is not.
"""

import re
from pathlib import Path
from typing import Callable, Optional

from sympy import isprime

# Check(stdout) -> failure reason or None
Check = Callable[[str], Optional[str]]

# E_{a,b,4} as listed in EXPLICIT_SETS of tests/test_partitions.py; (3, 1) is
# the mirror of (1, 3).
MOD4_SETS = {
    (1, 1): (2, 6, 14, 38, 62),
    (1, 3): (4,),
    (3, 1): (4,),
    (3, 3): (2,),
}

# CONJ2_EXPECTED and CONJ3_EXPECTED of apgoldbach.cli.
CONJ2_EXPECTED = {
    "i": (),
    "ii": (4,),
    "iii": (2,),
    "iv": (2, 6, 14, 38, 62),
}
CONJ3_EXPECTED = {
    "i": ((6,),),
    "ii": ((), (10, 20)),
    "iii": ((),),
    "iv": ((),),
    "v": ((),),
    "vi": ((),),
    "vii": ((),),
}

# `apgoldbach heuristic --m 50` (N = 10^6, no cache).
HEURISTIC_M50 = """\
m = 50
r = 16
alpha = 0.937500
E[W] = 54.091664
P(W > g2~(m^2)) = P(W > 82) = 0.0784088
predicted E_max bound (c=1.0): 38259.810
predicted mean length (delta=0.5): 2.560000
model mean length (truncated sum): 5.804663 (tail bound 6.95e-293)
"""


def table_prefix(path: Path, m_max: int) -> str:
    """Header and the rows with m <= m_max of a reference table."""
    lines = path.read_text().splitlines()
    rows = [ln for ln in lines[1:] if int(ln.split(",")[0]) <= m_max]
    return "\n".join([lines[0]] + rows) + "\n"


def equals(expected: str) -> Check:
    def check(out: str) -> Optional[str]:
        return None if out == expected else "stdout differs from the reference"
    return check


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip())


def _all_pass(out: str) -> Optional[str]:
    lines = out.splitlines()
    if not lines or not all(ln.endswith("-> PASS") for ln in lines):
        return "a report line is not PASS"
    return None


def verify_conj2(out: str) -> Optional[str]:
    got = {case: _ints(v) for case, v in
           re.findall(r"^mod-4 case \((\w+)\): violations \[([^\]]*)\]", out, re.M)}
    return _all_pass(out) or (None if got == CONJ2_EXPECTED else f"violations {got}")


def verify_conj3(out: str) -> Optional[str]:
    got = {item: tuple(_ints(v) for v in re.findall(r": \[([^\]]*)\]", rest))
           for item, rest in re.findall(r"^sample item \((\w+)\): (.*)$", out, re.M)}
    return _all_pass(out) or (None if got == CONJ3_EXPECTED else f"violations {got}")


def verify_ternary(out: str) -> Optional[str]:
    return None if out == "ternary: violations [] -> PASS\n" else "ternary report differs"


def deep(a: int, b: int, N: int) -> Check:
    """The set equals E_{a,b,4}; the spot-check witness is checked with sympy."""
    expected = MOD4_SETS[(a, b)]

    def check(out: str) -> Optional[str]:
        lines = out.splitlines()
        if not lines or lines[0] != " ".join(map(str, expected)):
            return "exceptional set differs from the reference"
        spot = re.search(r"^spot check: (\d+) = (\d+) \+ (\d+)$", out, re.M)
        if spot is None:
            return "no spot-check line"
        n, p, q = map(int, spot.groups())
        if not (p + q == n <= N and n not in expected and p % 4 == a and q % 4 == b
                and isprime(p) and isprime(q)):
            return f"bad spot-check witness {n} = {p} + {q}"
        return None
    return check


def fig1_matches(table1: str, outdir: Path) -> Check:
    """fig1.csv lists the E_max column of the reference Table 1."""
    header, *rows = table1.splitlines()
    col = header.split(",").index("E_max")
    expected = {int(r.split(",")[0]): int(r.split(",")[col]) for r in rows}

    def check(out: str) -> Optional[str]:
        path = outdir / "fig1.csv"
        if not path.is_file():
            return "fig1.csv not written"
        _, *fig_rows = path.read_text().splitlines()
        got = {int(r.split(",")[0]): int(r.split(",")[1]) for r in fig_rows}
        return None if got == expected else "fig1.csv E_max differs from Table 1"
    return check
