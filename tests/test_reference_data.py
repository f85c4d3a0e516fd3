"""The frozen reference tables under tests/data, and the sweep rows above
m = 50 that they pin.

table1_m200.csv and table2_m200.csv are the stdout of `table1` and `table2
--m-max 200` at N = 2*10^5; at N = 10^7 both commands print the same bytes,
since every set of m <= 200 ends below 2*10^5 (the largest element is
104,494).  Such a sweep derives every m <= 100 from 2m, and the whole
sweep is checked against both tables.  The sweep of m = 180-200 computes
each of its moduli, on the int-bitset kernel or on the packed one in one
stage-1 window or in several, and m = 90-100 are derived here from the
sets it writes to its cache.  The desk tables, m <= 50 at 10^6, are
checked through each kernel.
"""

import hashlib
from math import gcd
from pathlib import Path

import pytest

from apgoldbach import partitions, summaries
from apgoldbach.cli import (
    RunConfig,
    compute_sweep,
    figure_documents,
    load_cache_entry,
    table_document,
)

DATA_DIR = Path(__file__).parent / "data"
N = 2 * 10**5

# A reference regenerated from changed code fails here, in review, instead
# of passing every output check that reads it.
MD5 = {
    "table1_m50.csv": "ac6af280fc606cef8cfcfb28dac597b5",
    "table2_m50.csv": "8962b964dbc502a2f628a686833dd976",
    "table1_m200.csv": "5af14e52f4dbeffd38e1e06083360699",
    "table2_m200.csv": "1953cb5ad358f9065ee59f45cc1fb860",
}


def test_every_reference_file_is_pinned():
    got = {p.name: hashlib.md5(p.read_bytes()).hexdigest() for p in DATA_DIR.iterdir()}
    assert got == MD5


def _frozen_rows(name: str, moduli: range) -> str:
    header, *rows = (DATA_DIR / name).read_text().splitlines()
    return "\n".join([header] + [r for r in rows if int(r.split(",")[0]) in moduli]) + "\n"


@pytest.fixture(scope="module")
def sweep_m200():
    return compute_sweep(RunConfig(N=N, m_max=200, threads=2))


@pytest.mark.parametrize("which", ["table1", "table2"])
def test_every_modulus_to_200_matches_the_frozen_tables(sweep_m200, which):
    assert table_document(which, sweep_m200) == (DATA_DIR / f"{which}_m200.csv").read_text()


def _force_kernel(patch: pytest.MonkeyPatch, kernel: str) -> None:
    """Make partitions.sweep_plan pick `kernel` for every sweep."""
    bitset = kernel == "int-bitset"
    patch.setattr(partitions, "_BITSET_SWEEP_ROW", 10**12 if bitset else 0)
    patch.setattr(partitions, "_BITSET_SWEEP_WORK", 10**30 if bitset else 0)


@pytest.fixture(scope="module", params=["packed", "int-bitset"])
def desk_sweep(request):
    """The desk sweep's summaries and the stage-1 kernel of each modulus it
    computed, on one worker so that every call is seen here."""
    ran = []
    with pytest.MonkeyPatch.context() as patch:
        _force_kernel(patch, request.param)
        for name in ("_sweep_stage1", "_bitset_sweep"):
            real = getattr(partitions, name)
            patch.setattr(partitions, name, lambda m, *args, name=name, real=real:
                          ran.append((m, name)) or real(m, *args))
        sweep = compute_sweep(RunConfig(N=10**6, m_max=50, threads=1))
    kernel = {"packed": "_sweep_stage1", "int-bitset": "_bitset_sweep"}[request.param]
    return sweep, ran, kernel


@pytest.mark.parametrize("which", ["table1", "table2"])
def test_desk_tables_match_through_each_kernel(desk_sweep, which):
    sweep, ran, kernel = desk_sweep
    assert sorted(ran) == [(m, kernel) for m in range(26, 51, 2)]
    assert table_document(which, sweep) == (DATA_DIR / f"{which}_m50.csv").read_text()


@pytest.fixture(scope="module", params=[("int-bitset", None), ("packed", None),
                                        ("packed", 1 << 15)],
                ids=["int-bitset", "one-window", "several-windows"])
def sweep_m180_200(request, tmp_path_factory):
    """The summaries of m = 180-200, and the cache directory that holds
    their sets."""
    # M = min(bound, N) is N itself for each of these moduli at 2*10^5.
    # A row has at most 1,112 candidates, so the size rule picks the
    # int-bitset kernel; on the packed one, the default window holds a
    # whole stage-1 pass over a class's rows, and 2^15 candidates a window
    # cut the passes over many rows into 2-4 windows.  The workers fork
    # after the patches and inherit them.
    kernel, mark_block = request.param
    cache = tmp_path_factory.mktemp("m180_200")
    with pytest.MonkeyPatch.context() as patch:
        _force_kernel(patch, kernel)
        if mark_block is not None:
            patch.setattr(partitions, "_MARK_BLOCK", mark_block)
        config = RunConfig(N=N, m_min=180, m_max=200, threads=2, cache_dir=cache)
        return compute_sweep(config), cache


@pytest.mark.parametrize("which", ["table1", "table2"])
def test_moduli_180_to_200_match_the_frozen_tables(sweep_m180_200, which):
    expected = _frozen_rows(f"{which}_m200.csv", range(180, 201))
    assert table_document(which, sweep_m180_200[0]) == expected


def test_fig1_matches_the_frozen_e_max_and_a_gcd_count(sweep_m180_200):
    # E_max from the frozen Table 1 rows, and phi(m) counted here, apart
    # from the summary that the figures read it from
    header, *frozen = _frozen_rows("table1_m200.csv", range(180, 201)).splitlines()
    col = header.split(",").index("E_max")
    expected = ["m,E_max,phi"]
    for row in frozen:
        cells = row.split(",")
        m = int(cells[0])
        expected.append(f"{m},{cells[col]},{sum(gcd(a, m) == 1 for a in range(1, m))}")
    assert len(expected) == 12
    assert figure_documents(sweep_m180_200[0])[0].splitlines() == expected


@pytest.mark.parametrize("which", ["table1", "table2"])
def test_moduli_90_to_100_derived_match_the_frozen_tables(sweep_m180_200, which):
    cache = sweep_m180_200[1]
    derived = {m: summaries.exceptional_sets_from_double(m, load_cache_entry(cache, 2 * m, N))
               for m in range(90, 101, 2)}
    rows = {m: summaries.summarize_modulus(sets, m) for m, sets in derived.items()}
    assert table_document(which, rows) == _frozen_rows(f"{which}_m200.csv", range(90, 101))
