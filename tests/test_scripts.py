"""Smoke tests of scripts/, each run as a fresh process at m <= 10, N = 10^4."""

import os
import subprocess
import sys
from pathlib import Path

from apgoldbach import cli

ROOT = Path(__file__).resolve().parents[1]
SWEEP = ["--m-max", "10", "--limit", "10000", "--threads", "1"]


def _script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop(cli.CACHE_ENV_VAR, None)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def _cli_stdout(capsys, *argv: str) -> str:
    assert cli.main(list(argv)) == cli.EXIT_OK
    return capsys.readouterr().out


def test_run_tables_writes_the_cli_documents(capsys, tmp_path):
    proc = _script("run_tables.py", *SWEEP, "--output-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"wrote 4 documents to {tmp_path} ")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fig1.csv", "fig2.csv", "table1.csv", "table2.csv"]
    for table in ("table1", "table2"):
        assert (tmp_path / f"{table}.csv").read_text() == _cli_stdout(capsys, table, *SWEEP)


def test_model_vs_observed_prints_one_row_per_modulus():
    proc = _script("model_vs_observed.py", *SWEEP)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header == ("m,r,model_mean_length,model_length_bound,model_emax_bound,"
                      "observed_L_avg,observed_E_max")
    assert [row.split(",")[0] for row in rows] == ["4", "6", "8", "10"]
    assert all(len(row.split(",")) == 7 for row in rows)
