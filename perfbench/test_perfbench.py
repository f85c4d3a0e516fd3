"""Tests of the benchmark itself, on small inputs.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

# Small versions of the four workloads' command sessions.
SMALL = [
    ["table1", "--m-min", "2", "--m-max", "10", "--limit", "100000", "--threads", "1"],
    ["heuristic", "--m", "10", "--limit", "100000"],
    ["verify", "conj2", "--limit", "100000"],
    ["verify", "ternary", "--limit", "100000"],
    ["exceptions", "--m", "4", "--a", "3", "--b", "1", "--limit", "1000000"],
    ["table2", "--m-min", "2", "--m-max", "10", "--limit", "100000"],
]

EXACT_COUNTS = (
    "primes.sieve_calls", "primes.unpack_calls", "primes.unpack_bytes",
    "primes.table_bytes", "partitions.engine_calls", "partitions.stage2_calls",
    "cli.modulus_tasks",
)


def traced_run(tmp_path: Path, name: str, cache: bool) -> dict:
    spec = tmp_path / f"{name}.json"
    result = tmp_path / f"{name}.result.json"
    spec.write_text(json.dumps({"commands": SMALL, "trace": True}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("APGOLDBACH_CACHE_DIR", None)
    if cache:
        env["APGOLDBACH_CACHE_DIR"] = str(tmp_path / f"{name}.cache")
    subprocess.run([sys.executable, str(HERE / "inprocess.py"), str(spec), str(result)],
                   env=env, check=True, timeout=300)
    return json.loads(result.read_text())


@pytest.mark.parametrize("cache", [False, True])
def test_two_traced_runs_give_identical_counts(tmp_path, cache):
    first = traced_run(tmp_path, "first", cache)
    second = traced_run(tmp_path, "second", cache)
    assert [o["rc"] for o in first["outputs"]] == [0] * len(SMALL)
    assert first["outputs"] == second["outputs"]
    for name in EXACT_COUNTS + ("cli.cache_lookups",):
        assert first["layers"][name] == second["layers"][name], name
    assert all(first["layers"][name] > 0 for name in EXACT_COUNTS)
    assert (first["layers"]["cli.cache_lookups"] > 0) == cache
    if cache:
        files = [sorted((p.name, p.stat().st_size) for p in (tmp_path / f"{run}.cache").iterdir())
                 for run in ("first", "second")]
        assert files[0] and files[0] == files[1]
    deep = first["outputs"][4]["stdout"]
    assert checks.deep(3, 1, 10**6)(deep) is None


def test_checks_reject_wrong_outputs():
    good = "4\nstage-1 bound M = 10000\nspot check: 1000000 = 47 + 999953\n"
    assert checks.deep(3, 1, 10**6)(good) is None
    assert checks.deep(3, 1, 10**6)(good.replace("47 + 999953", "49 + 999951")) is not None
    assert checks.deep(1, 1, 10**6)(good) is not None
    report = "ternary: violations [] -> PASS\n"
    assert checks.verify_ternary(report) is None
    assert checks.verify_conj2(report.replace("ternary", "mod-4 case (i)")) is not None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
