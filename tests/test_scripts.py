"""Smoke tests of scripts/ at m <= 10, N = 10^4, each run as a fresh
process, but for the one that counts the summaries run_tables.py makes."""

import importlib.util
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from apgoldbach import cli, partitions, primes, summaries

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
    figures = tmp_path / "figures"
    _cli_stdout(capsys, "figures", *SWEEP, "--output-dir", str(figures))
    for fig in ("fig1.csv", "fig2.csv"):
        assert (tmp_path / fig).read_text() == (figures / fig).read_text()


def test_run_tables_summarizes_each_modulus_once(capsys, monkeypatch, tmp_path):
    # in-process on one worker, so that every call is counted here
    calls, real = [], summaries.summarize_modulus
    monkeypatch.setattr(summaries, "summarize_modulus",
                        lambda sets, m: calls.append(m) or real(sets, m))
    monkeypatch.setattr(sys, "argv", ["run_tables.py", *SWEEP, "--output-dir", str(tmp_path)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / "run_tables.py"), run_name="__main__")
    assert exc.value.code == 0
    assert sorted(calls) == [2, 4, 6, 8, 10]


def test_model_vs_observed_prints_one_row_per_modulus():
    proc = _script("model_vs_observed.py", *SWEEP, "--m-min", "2")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header == ("m,r,model_mean_length,model_length_bound,model_emax_bound,"
                      "observed_L_avg,observed_E_max")
    assert [row.split(",")[0] for row in rows] == ["2", "4", "6", "8", "10"]
    assert all(len(row.split(",")) == 7 for row in rows)
    # m = 2 gets its own bounds, not m = 4's (0.5000 and 30.7)
    assert rows[0].split(",")[3:5] == ["0.2500", "1.9"]


def test_run_tables_takes_no_stage1_bound(tmp_path):
    # the engine derives M, so the script refuses the removed flag
    for flag in ("-M", "--stage1-bound"):
        proc = _script("run_tables.py", *SWEEP, flag, "300", "--output-dir", str(tmp_path))
        assert proc.returncode == 2
        assert f"unrecognized arguments: {flag} 300" in proc.stderr
    assert not any(tmp_path.iterdir())


def test_model_vs_observed_refuses_a_limit_the_model_refuses():
    # the model needs N >= 10, as `heuristic` does: no row at N = 10 beside
    # a set observed at N = 5
    proc = _script("model_vs_observed.py", "--m-min", "4", "--m-max", "4", "--limit", "5")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        cli.EXIT_USAGE, "", "error: N=5 must be >= 10\n")


@pytest.mark.parametrize("name,args,err", [
    ("run_tables.py", ["--limit", "1"], "search limit must be >= 2, got 1"),
    ("model_vs_observed.py", ["--m-min", "3", "--m-max", "5"],
     "modulus range endpoints must be even"),
])
def test_bad_value_exits_2(tmp_path, name, args, err):
    proc = _script(name, *args, "--threads", "1", *(
        ["--output-dir", str(tmp_path / "out")] if name == "run_tables.py" else []))
    assert (proc.returncode, proc.stdout, proc.stderr) == (cli.EXIT_USAGE, "", f"error: {err}\n")
    assert not any(tmp_path.iterdir())


def test_run_tables_output_dir_that_is_a_file_exits_3(tmp_path):
    out = tmp_path / "out"
    out.write_text("")
    proc = _script("run_tables.py", *SWEEP, "--output-dir", str(out))
    assert (proc.returncode, proc.stdout) == (cli.EXIT_IO, "")
    assert proc.stderr.startswith("I/O error: ") and str(out) in proc.stderr
    assert out.read_text() == ""


@pytest.mark.parametrize("name", ["run_tables.py", "model_vs_observed.py"])
def test_internal_error_exits_4(capsys, monkeypatch, tmp_path, name):
    # a dead worker, say, is no usage or I/O error: both scripts exit 4
    # with the CLI's one line
    def dead(config):
        raise RuntimeError("worker process 1 sent no result")

    monkeypatch.setattr(cli, "compute_sweep", dead)
    monkeypatch.setattr(sys, "argv", [name, *SWEEP, *(
        ["--output-dir", str(tmp_path)] if name == "run_tables.py" else [])])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / name), run_name="__main__")
    assert exc.value.code == cli.EXIT_INTERNAL
    assert capsys.readouterr() == (
        "", "internal error: RuntimeError: worker process 1 sent no result\n")


def test_cross_check_passes_on_a_slice():
    # both sweep kernels over every pair of m = 190-194 at 2*10^5, dealt
    # to two workers, and 32 sampled table entries a class, and each
    # class's entries up to 100
    proc = _script("cross_check.py", "--m-min", "190", "--m-max", "194", "--limit", "200000",
                   "--threads", "2")
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    *rows, last = proc.stdout.splitlines()
    assert rows == ["m = 190: 2628 pairs agree, 2342 table entries match is_prime",
                    "m = 192: 2080 pairs agree, 2081 table entries match is_prime",
                    "m = 194: 4656 pairs agree, 3121 table entries match is_prime"]
    assert last.startswith("both kernels agree on m = 190..194 at N = 200000 in ")


def test_cross_check_reads_every_small_entry():
    # every entry up to 100 of each class, 1 and the presieve primes 3-13
    # among them, is compared with is_prime beside the 32 samples: m = 2
    # checks 32 + 50 entries, so a sieve fault there that both kernels
    # read alike fails the run (mutants presieve-restore and
    # sieve-keeps-one of scripts/mutants.json)
    proc = _script("cross_check.py", "--limit", "20000", "--m-max", "12", "--threads", "1")
    assert proc.returncode == cli.EXIT_OK, proc.stdout + proc.stderr
    rows = proc.stdout.splitlines()
    assert rows[0] == "m = 2: 1 pairs agree, 82 table entries match is_prime"
    assert rows[-1].startswith("both kernels agree on m = 2..12 at N = 20000 in ")


@pytest.mark.parametrize("broken,fail", [
    ("kernel", "FAIL (m, a, b) = (8, 1, 1): the packed kernel leaves 14 candidates, "
               "the int-bitset kernel 15\n"),
    # the first entry sampled of class 1 mod 8, which is seeded by m
    ("sieve", "FAIL table entry 4049 (m = 8, b = 1) disagrees with is_prime\n"),
    ("flags", "FAIL odd flag 4049 (m = 8, b = 1) disagrees with is_prime\n"),
])
def test_cross_check_names_the_first_difference(capsys, monkeypatch, broken, fail):
    # an extra candidate from the int-bitset kernel, or a table or odd
    # flags that is_prime contradicts, fails the run at the first modulus, 8, with
    # exit 1 and one line that names it
    if broken == "kernel":
        real = partitions._bitset_sweep
        monkeypatch.setattr(partitions, "_bitset_sweep", lambda *args: {
            pair: survivors + [10**9] * (pair == (1, 1))
            for pair, survivors in real(*args).items()})
    elif broken == "sieve":
        monkeypatch.setattr(primes, "is_prime", lambda n: n == 1)
    else:  # the flags alone, which no longer share packing code with the table
        real = primes.sieve_primes

        def flipped(limit, packed=True):
            out = real(limit, packed)
            if not packed:
                bits = bytearray(out.bits)
                bits[4049 // 2] ^= 1
                out = out._replace(bits=memoryview(bits).toreadonly())
            return out

        # the script sieves both kinds through primes; a sieve through
        # partitions, which the plan no longer makes, would read them too
        monkeypatch.setattr(primes, "sieve_primes", flipped)
        monkeypatch.setattr(partitions, "sieve_primes", flipped)
    monkeypatch.setattr(sys, "argv", ["cross_check.py", "--m-min", "8", "--m-max", "12",
                                      "--limit", "10000", "--threads", "1"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / "cross_check.py"), run_name="__main__")
    assert exc.value.code == cli.EXIT_FAIL
    assert capsys.readouterr() == (fail, "")


@pytest.mark.parametrize("limit,planned", [("10000", False), ("5000000", True)],
                         ids=["int-bitset", "packed"])
def test_cross_check_sieves_each_table_once(capsys, monkeypatch, limit, planned):
    # the sweep's plan sieves nothing, and the script sieves each kind
    # once, the one that the plan's kernel reads first: one packed table
    # and one of odd flags, whichever kernel the plan picks (the packed one
    # past 10^4 candidates a row and 5*10^12 of head work times row)
    sieved, real = [], primes.sieve_primes

    def recorded(where):
        return lambda limit, packed=True: sieved.append((where, packed)) or real(limit, packed)

    monkeypatch.setattr(primes, "sieve_primes", recorded("script"))
    monkeypatch.setattr(partitions, "sieve_primes", recorded("plan"))
    monkeypatch.setattr(sys, "argv", ["cross_check.py", "--m-min", "8", "--m-max", "8",
                                      "--limit", limit, "--threads", "1"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / "cross_check.py"), run_name="__main__")
    assert exc.value.code == cli.EXIT_OK
    assert sieved == [("script", planned), ("script", not planned)]
    assert capsys.readouterr().out.startswith("m = 8: 10 pairs agree, 178 table entries ")


def test_every_mutant_snippet_occurs_once():
    # each mutant of the standing mutation check changes one place, and
    # names tests that exist, so that no edit leaves it applying to nothing
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    listed = mutants.load()  # raises unless each snippet occurs once in its file
    assert len(listed) >= 25 and len({m["name"] for m in listed}) == len(listed)
    for m in listed:
        assert m["snippet"] != m["replacement"] and m["tests"]
        for test in m["tests"]:
            assert (ROOT / test.split("::")[0]).is_file()
