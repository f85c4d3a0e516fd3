import argparse
import ast
import contextlib
import gc
import hashlib
import importlib
import inspect
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import textwrap
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apgoldbach import cli, partitions, primes, summaries
from apgoldbach.cli import (
    EXIT_FAIL,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    compute_sweep,
    figure_documents,
    load_cache_entry,
    main,
    save_cache_entry,
    table_document,
)
from apgoldbach.partitions import exceptional_sets_for_modulus
from apgoldbach.primes import MemoryBudgetError


ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _count_forks(monkeypatch) -> list[int]:
    """The pids of the children that os.fork makes from now on."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _count_engine_calls(monkeypatch) -> list[int]:
    """The moduli that cli.exceptional_sets_for_modulus computes from now
    on in this process."""
    moduli = []
    engine = cli.exceptional_sets_for_modulus

    def counted(m, *args, **kwargs):
        moduli.append(m)
        return engine(m, *args, **kwargs)

    monkeypatch.setattr(cli, "exceptional_sets_for_modulus", counted)
    return moduli


def _swept(cache: Path, **config) -> tuple[dict, dict]:
    """(summaries, sets) of a sweep into the fresh cache directory
    `cache`, the sets read back from the files it wrote."""
    config = RunConfig(cache_dir=cache, **config)
    sweep = compute_sweep(config)
    return sweep, {m: load_cache_entry(cache, m, config.N) for m in config.moduli}


def _assert_no_children():
    # waitpid(-1) would see a running child and reap a zombie
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestExceptions:
    def test_known_set(self, capsys):
        code, out, _ = run(
            capsys, "exceptions", "--m", "4", "--a", "1", "--b", "1",
            "--limit", "1000000",
        )
        assert code == EXIT_OK
        # the CLI prints the default M itself
        assert out == (
            "2 6 14 38 62\n"
            "stage-1 bound M = 10000, survivors resolved in stage 2 = 0, confirmed = True\n"
            "spot check: 999998 = 37 + 999961\n"
        )

    def test_empty_set(self, capsys):
        code, out, _ = run(
            capsys, "exceptions", "--m", "8", "--a", "3", "--b", "5",
            "--limit", "1000000",
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "(empty)"

    def test_inadmissible_pair(self, capsys):
        code, _, err = run(
            capsys, "exceptions", "--m", "4", "--a", "2", "--b", "1",
            "--limit", "1000",
        )
        assert code == EXIT_USAGE
        assert "coprime" in err

    def test_spot_check_witness_line(self, capsys):
        code, out, _ = run(
            capsys, "exceptions", "--m", "6", "--a", "1", "--b", "5",
            "--limit", "100000",
        )
        assert code == EXIT_OK
        assert any(line.startswith("spot check:") for line in out.splitlines())

    @pytest.mark.parametrize("limit,spot", [
        # 62 is an exception, so the spot check walks down past it
        (62, "2 6 14 38 62\nstage-1 bound M = 62, survivors resolved in stage 2 = 0, "
             "confirmed = True\nspot check: 58 = 5 + 53\n"),
        # every candidate up to 6 is an exception: there is nothing to check
        (6, "2 6\nstage-1 bound M = 6, survivors resolved in stage 2 = 0, confirmed = True\n"),
    ])
    def test_spot_check_skips_the_exceptions(self, capsys, limit, spot):
        assert run(capsys, "exceptions", "--m", "4", "--a", "1", "--b", "1",
                   "--limit", str(limit)) == (EXIT_OK, spot, "")

    def test_cache_not_read_or_written(self, capsys, monkeypatch, tmp_path):
        # survivor counts depend on N, so exceptions always computes and
        # takes no cache directory (test_cache_dir_only_where_read), not
        # even from the environment: a smaller N after a larger one prints
        # its own count
        monkeypatch.setattr(partitions, "default_stage1_bound", lambda m, N: min(100, N))
        cache = tmp_path / "cache"
        monkeypatch.setenv(cli.CACHE_ENV_VAR, str(cache))
        base = ["exceptions", "--m", "4", "--a", "1", "--b", "1"]
        run(capsys, *base, "--limit", "100000")
        code, out, _ = run(capsys, *base, "--limit", "1000")
        assert code == EXIT_OK
        assert out.splitlines()[1] == (
            "stage-1 bound M = 100, survivors resolved in stage 2 = 5, confirmed = True"
        )
        monkeypatch.delenv(cli.CACHE_ENV_VAR)
        assert out == run(capsys, *base, "--limit", "1000")[1]
        assert not cache.exists()

    def test_over_budget_limit_usage_error(self, capsys):
        # the budget check runs before anything is allocated: a single
        # pair's memory outgrows the budget only through the base-prime
        # sieve of a huge N, and a sweep's only through its table, past
        # the table's own limit of ~4.3*10^9.  numpy is imported first, so
        # that its import (5.4 MB) is not traced when this test runs alone
        importlib.import_module("numpy")
        for command in (
            ["exceptions", "--m", "4", "--a", "1", "--b", "1",
             "--limit", "100000000000000000"],
            ["table1", "--m-min", "2", "--m-max", "4", "--limit", "5000000000",
             "--threads", "1"],
        ):
            tracemalloc.start()
            try:
                code, out, err = run(capsys, *command)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == EXIT_USAGE, command
            assert out == ""
            assert err.startswith("error:") and "budget" in err
            assert peak < 2**20, command

    def test_large_limit_within_small_budget(self, capsys, monkeypatch):
        # a single pair holds one window of its b-class whatever N, so 10^8
        # fits in 8 MiB, where a table and an N/m-entry mask would not
        monkeypatch.setattr(primes, "DEFAULT_MEMORY_BUDGET_BYTES", 8 * 2**20)
        command = ["exceptions", "--m", "4", "--a", "3", "--b", "1", "--limit", "100000000"]
        code, out, _ = run(capsys, *command)
        assert code == EXIT_OK
        assert out.splitlines()[0] == "4"
        # a large M widens the window: 3 MB of a-class mask, 24 MB for
        # its int64 indices and a 4 MB window with its 4 MB of packed
        # copies do not fit
        monkeypatch.setattr(partitions, "default_stage1_bound",
                            lambda m, N: min(12_000_000, N))
        code, out, err = run(capsys, *command)
        assert code == EXIT_USAGE
        assert out == "" and "budget" in err

    def test_threads_do_not_change_output(self, capsys, monkeypatch):
        # short windows split the pair into shares: 2 and 3 workers fork 1
        # and 2 children; M = 300 leaves 329 survivors to stage 2
        monkeypatch.setattr(partitions, "SIEVE_SEGMENT_SIZE", 1 << 10)
        monkeypatch.setattr(partitions, "default_stage1_bound", lambda m, N: min(300, N))
        forks = _count_forks(monkeypatch)
        argv = ["exceptions", "--m", "4", "--a", "1", "--b", "3",
                "--limit", "200000"]
        outs = []
        for threads in (1, 2, 3):
            code, out, err = run(capsys, *argv, "--threads", str(threads))
            assert (code, err) == (EXIT_OK, "")
            outs.append(out)
        assert outs == [outs[0]] * 3
        assert "survivors resolved in stage 2 = 329," in outs[0]
        assert len(forks) == 3
        _assert_no_children()


TABLE1_M4_JSON = """\
[
  {
    "m": "4",
    "L0_min": "1",
    "L0_avg": "1.0",
    "L0_max": "1",
    "E0_max": "4",
    "e0_m": "1",
    "e0_tilde_m": "2",
    "L_min": "1",
    "L_avg": "2.0",
    "L_max": "5",
    "E_max": "62",
    "e_m": "6",
    "e_tilde_m": "8"
  }
]
"""

TABLE2_M8_JSON = """\
[
  {
    "m": "4",
    "count": "0",
    "percent": "0.0"
  },
  {
    "m": "6",
    "count": "0",
    "percent": "0.0"
  },
  {
    "m": "8",
    "count": "3",
    "percent": "18.8"
  }
]
"""


class TestTables:
    def test_table1_single_row(self, capsys):
        code, out, _ = run(
            capsys, "table1", "--m-min", "2", "--m-max", "2",
            "--limit", "10000", "--threads", "1",
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[1] == "2,2,2.0,2,4,2,2,2,2.0,2,4,2,2"

    def test_empty_range_header_only(self, capsys):
        code, out, _ = run(
            capsys, "table1", "--m-min", "4", "--m-max", "2",
            "--limit", "10000", "--threads", "1",
        )
        assert code == EXIT_OK
        assert len(out.splitlines()) == 1

    def test_table2_row(self, capsys):
        code, out, _ = run(
            capsys, "table2", "--m-min", "8", "--m-max", "8",
            "--limit", "1000000", "--threads", "1",
        )
        assert code == EXIT_OK
        assert out.splitlines()[1] == "8,3,18.8"

    def test_odd_endpoint_usage_error(self, capsys):
        code, _, err = run(
            capsys, "table1", "--m-min", "3", "--m-max", "9",
            "--limit", "1000", "--threads", "1",
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("command", ["table1", "table2", "figures"])
    def test_zero_modulus_usage_error(self, capsys, tmp_path, command):
        # m = 0 has no unit classes: the range is refused before anything
        # computes, so the engine is never imported
        argv = [command, "--m-min", "0", "--m-max", "4", "--limit", "1000", "--threads", "1"]
        if command == "figures":
            argv += ["--output-dir", str(tmp_path / "out")]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: moduli must be >= 2, got m_min = 0\n"
        assert _fresh_cli(argv) == [EXIT_USAGE, [], ""]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["exceptions", "--m", "4", "--a", "1", "--b", "1"],
        ["figures", "--m-max", "4"],
        ["verify", "conj2"],
        ["heuristic", "--m", "10"],
    ], ids=lambda argv: argv[0])
    def test_format_only_where_honored(self, capsys, monkeypatch, tmp_path, argv):
        # only table1 and table2 write JSON; the others refuse the flag
        monkeypatch.chdir(tmp_path)  # where figures would write
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--limit", "1000", "--format", "json"])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --format json" in capsys.readouterr().err

    def test_cache_dir_only_where_read(self, capsys, tmp_path):
        # exceptions always computes its pair, so it refuses the flag
        with pytest.raises(SystemExit) as exc:
            main(["exceptions", "--m", "4", "--a", "1", "--b", "1", "--limit", "1000",
                  "--cache-dir", str(tmp_path)])
        assert exc.value.code == EXIT_USAGE
        assert f"unrecognized arguments: --cache-dir {tmp_path}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["-M", "--stage1-bound"])
    @pytest.mark.parametrize("argv", [
        ["exceptions", "--m", "4", "--a", "1", "--b", "1"],
        ["table1"],
        ["table2"],
        ["figures"],
        ["verify", "conj2"],
        ["heuristic", "--m", "10"],
    ], ids=lambda argv: argv[0])
    def test_stage1_bound_is_no_option(self, capsys, monkeypatch, tmp_path, argv, flag):
        # the engine derives M from m and N, and no M changes an element
        monkeypatch.chdir(tmp_path)  # where figures would write
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--limit", "1000", flag, "300"])
        assert exc.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {flag} 300" in capsys.readouterr().err

    def test_run_config_has_no_stage1_bound(self):
        assert list(inspect.signature(RunConfig).parameters) == [
            "N", "m_min", "m_max", "cache_dir", "threads"]

    def test_run_config_replace_checks_like_the_constructor(self):
        config = RunConfig(N=10**4, m_min=4, m_max=8, threads=2)
        assert vars(config.replace(m_max=10)) == {
            "N": 10**4, "m_min": 4, "m_max": 10, "cache_dir": None, "threads": 2}
        assert config.m_max == 8
        with pytest.raises(ValueError, match="must be even"):
            config.replace(m_min=3)

    @pytest.mark.parametrize("argv,expected", [
        (["table1", "--m-min", "4", "--m-max", "4"], TABLE1_M4_JSON),
        (["table2", "--m-min", "4", "--m-max", "8"], TABLE2_M8_JSON),
    ], ids=["table1", "table2"])
    def test_json_bytes(self, capsys, argv, expected):
        code, out, err = run(capsys, *argv, "--limit", "10000", "--threads", "1",
                             "--format", "json")
        assert (code, out, err) == (EXIT_OK, expected, "")

    def test_json_round_trip(self, capsys):
        config = RunConfig(N=10**4, m_min=2, m_max=6, threads=1)
        doc = table_document("table1", compute_sweep(config), "json")
        reloaded = json.loads(doc)
        assert json.dumps(reloaded, indent=2) + "\n" == doc

    def test_thread_count_does_not_change_output(self):
        serial = compute_sweep(RunConfig(N=10**4, m_min=2, m_max=10, threads=1))
        parallel = compute_sweep(RunConfig(N=10**4, m_min=2, m_max=10, threads=4))
        for which in ("table1", "table2"):
            assert table_document(which, serial) == table_document(which, parallel)

    def test_auto_worker_count_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert RunConfig(threads=0).worker_count == 3
        assert RunConfig(threads=5).worker_count == 5
        monkeypatch.delattr(os, "sched_getaffinity")
        assert RunConfig(threads=0).worker_count == 8

    def test_pool_capped_at_missing_moduli(self, monkeypatch, tmp_path):
        # one share per worker and no more shares than moduli: two moduli
        # on eight workers run in this process and one child
        forks = _count_forks(monkeypatch)
        parallel = _swept(tmp_path / "parallel", N=10**4, m_min=4, m_max=6, threads=8)
        assert len(forks) == 1
        assert parallel == _swept(tmp_path / "serial", N=10**4, m_min=4, m_max=6, threads=1)
        _assert_no_children()

    def test_sweep_runs_the_engine_only_where_the_double_is_out_of_range(
        self, monkeypatch, tmp_path, table_1e5
    ):
        # 2, 4 and 6 are derived from 4, 8 and 12
        calls = _count_engine_calls(monkeypatch)
        _, sets = _swept(tmp_path, N=10**4, m_min=2, m_max=12, threads=1)
        assert sorted(calls) == [8, 10, 12]
        assert sets == {m: exceptional_sets_for_modulus(m, 10**4, table=table_1e5)
                        for m in range(2, 13, 2)}

    def test_pool_gets_only_the_computed_moduli(self, monkeypatch, tmp_path):
        # of m = 2, ..., 8 only 6 and 8 are computed: one share here and
        # one child, however many workers
        forks = _count_forks(monkeypatch)
        parallel = _swept(tmp_path / "parallel", N=10**4, m_min=2, m_max=8, threads=8)
        assert len(forks) == 1
        assert parallel == _swept(tmp_path / "serial", N=10**4, m_min=2, m_max=8, threads=1)
        _assert_no_children()

    def test_workers_send_back_only_the_sets_still_to_derive(self, monkeypatch):
        # m <= 12 computes 8, 10 and 12; only 8 and 12 have a half, 4 and
        # 6, to derive, so only their sets cross the pipe or stay here
        sent = []
        real = partitions.fork_map

        def recorded(fn, shares, *dead):
            results = real(fn, shares, *dead)
            sent.extend(result for share in results for result in share)
            return results

        monkeypatch.setattr(partitions, "fork_map", recorded)
        compute_sweep(RunConfig(N=10**4, m_max=12, threads=2))
        assert sorted(summary.m for summary, _ in sent) == [8, 10, 12]
        assert sorted(summary.m for summary, sets in sent if sets is not None) == [8, 12]

    def test_miss_derived_from_a_cached_double(self, monkeypatch, tmp_path, table_1e5):
        # 6 and 8 are cached and 4 is derived from 8: no engine call, no
        # sieve and no fork
        compute_sweep(RunConfig(N=10**4, m_min=6, m_max=8, threads=1, cache_dir=tmp_path))
        calls, forks = _count_engine_calls(monkeypatch), _count_forks(monkeypatch)

        def no_sieve(*args, **kwargs):
            raise AssertionError("sieved with every miss derivable")

        monkeypatch.setattr(partitions, "sieve_primes", no_sieve)
        sweep = compute_sweep(
            RunConfig(N=10**4, m_min=4, m_max=8, threads=2, cache_dir=tmp_path)
        )
        assert calls == forks == []
        sets = exceptional_sets_for_modulus(4, 10**4, table=table_1e5)
        assert load_cache_entry(tmp_path, 4, 10**4) == sets
        assert sweep[4] == summaries.summarize_modulus(sets, 4)

    def test_moduli_dealt_heaviest_first(self):
        def dealt(N, moduli, workers):  # the moduli of each share of the sweep's plan
            shares = partitions.deal(partitions.sweep_plan(N, moduli, None), workers)
            return [[job.args[0] for job in share] for share in shares]

        # phi(m)^2 (N - 2)//m at 10^4: m = 8 costs 19,984, m = 4 9,996,
        # m = 6 and m = 2 less
        assert dealt(10**4, [2, 4, 6, 8], 3) == [[8], [4], [6, 2]]
        assert dealt(10**4, [2, 4, 6, 8], 1) == [[8, 4, 6, 2]]
        # the computed moduli of the benchmark's desk (m <= 50) and rerun
        # (m <= 30) sweeps at 10^6 on 2 workers, pinned as phi(m)^2/m
        # dealt them, so that a change to the work figure that moves them
        # fails here
        assert dealt(10**6, list(range(26, 51, 2)), 2) == [
            [46, 32, 34, 26, 48, 36], [44, 38, 50, 40, 28, 42, 30]]
        assert dealt(10**6, list(range(16, 31, 2)), 2) == [
            [26, 16, 20, 18], [28, 22, 24, 30]]

    def test_reused_worker_table_checks_budget(self, monkeypatch):
        # each sweep checks its table beside its own moduli's windows: at
        # 10^7, on the packed kernel, one of m = 30 (5,726,848 bytes) fits
        # a 6 MB budget, and one of m = 2 (7,451,378 bytes), run next in the
        # same process, does not, and fails before it sieves
        monkeypatch.setattr(primes, "DEFAULT_MEMORY_BUDGET_BYTES", 6_000_000)
        assert compute_sweep(RunConfig(N=10**7, m_min=30, m_max=30, threads=1))
        sieved = []
        monkeypatch.setattr(partitions, "sieve_primes", sieved.append)
        with pytest.raises(MemoryBudgetError, match="of class copies"):
            compute_sweep(RunConfig(N=10**7, m_min=2, m_max=2, threads=1))
        assert sieved == []

    def test_reused_worker_flags_check_budget(self, monkeypatch):
        # the same on the int-bitset kernel, at 10^6: one of m = 30
        # (984,300 bytes; its sieve 1,060,443) fits a 1.2 MB budget, one
        # of m = 2 (1,383,755 bytes) does not, and fails before it sieves
        monkeypatch.setattr(primes, "DEFAULT_MEMORY_BUDGET_BYTES", 1_200_000)
        assert compute_sweep(RunConfig(N=10**6, m_min=30, m_max=30, threads=1))
        sieved = []
        monkeypatch.setattr(partitions, "sieve_primes", sieved.append)
        with pytest.raises(MemoryBudgetError, match="of odd flags, "):
            compute_sweep(RunConfig(N=10**6, m_min=2, m_max=2, threads=1))
        assert sieved == []

    @pytest.mark.parametrize("N,budget,need", [
        (10**7, 6_600_000, "of class copies"),
        (10**6, 1_200_000, "of odd flags, "),
    ], ids=["packed", "int-bitset"])
    def test_budget_reserves_only_computed_moduli(self, monkeypatch, tmp_path, N, budget, need):
        # a derived modulus needs no window: with 4 cached, a sweep of
        # m = 2-6 derives 2 and checks the windows of 6 alone (6,475,508
        # bytes at 10^7 on the packed kernel, 983,972 at 10^6 on the
        # int-bitset kernel, beside its sieve's 1,060,443), which fit where
        # those of 2 (1,383,755 bytes) do not
        compute_sweep(RunConfig(N=N, m_min=4, m_max=4, threads=1, cache_dir=tmp_path))
        monkeypatch.setattr(primes, "DEFAULT_MEMORY_BUDGET_BYTES", budget)
        compute_sweep(RunConfig(N=N, m_min=2, m_max=6, threads=1, cache_dir=tmp_path))
        assert load_cache_entry(tmp_path, 2, N) == {(1, 1): (2, 4)}
        with pytest.raises(MemoryBudgetError, match=need):
            compute_sweep(RunConfig(N=N, m_min=2, m_max=2, threads=1))

    def test_sweep_sieves_once_before_it_forks(self, monkeypatch, tmp_path):
        # the parent sieves the one table and the workers inherit it: a
        # sieve in a child would fail the sweep
        parent, events = os.getpid(), []
        sieve, fork = partitions.sieve_primes, os.fork

        def recorded_sieve(*args, **kwargs):
            if os.getpid() != parent:
                raise AssertionError("a worker sieved")
            events.append("sieve")
            return sieve(*args, **kwargs)

        def recorded_fork():
            events.append("fork")
            return fork()

        monkeypatch.setattr(partitions, "sieve_primes", recorded_sieve)
        monkeypatch.setattr(os, "fork", recorded_fork)
        parallel = _swept(tmp_path / "parallel", N=10**4, m_min=4, m_max=6, threads=2)
        assert events == ["sieve", "fork"]
        assert parallel == _swept(tmp_path / "serial", N=10**4, m_min=4, m_max=6, threads=1)
        _assert_no_children()

    def test_plan_gives_each_modulus_one_source_and_runs_nothing(self, monkeypatch, tmp_path):
        # with 8 cached at N' = 2*10^4, the plan of m = 2-12 at 10^4 reads
        # 8 (and keeps its sets, since 4 is derived from them), computes 10
        # and 12, whose doubles are out of range, on the int-bitset kernel,
        # and derives 2, 4 and 6; building it sieves, forks and writes nothing
        compute_sweep(RunConfig(N=2 * 10**4, m_min=8, m_max=8, threads=1, cache_dir=tmp_path))
        files = sorted(tmp_path.iterdir())

        def refused(*args, **kwargs):
            raise AssertionError("the plan ran something")

        monkeypatch.setattr(partitions, "sieve_primes", refused)
        monkeypatch.setattr(os, "fork", refused)
        monkeypatch.setattr(cli, "save_cache_entry", refused)
        cached, jobs, derived = cli.plan_sweep(
            RunConfig(N=10**4, m_min=2, m_max=12, threads=2, cache_dir=tmp_path))
        sets = load_cache_entry(tmp_path, 8, 10**4)
        assert cached == {8: (summaries.summarize_modulus(sets, 8), sets)}
        assert [job.args for job in jobs] == [(10, False), (12, False)]
        assert derived == [2, 4, 6]
        assert sorted(tmp_path.iterdir()) == files

    def test_long_run_plan_computes_half_on_the_packed_kernel(self, monkeypatch):
        # the RunConfig defaults, m <= 200 at 10^7: 102-200 computed on the
        # packed kernel, each job counting the bytes that _check_sweep_budget
        # gives beside the packed table, and 2-100 derived; nothing sieved
        monkeypatch.setattr(partitions, "sieve_primes", None)
        cached, jobs, derived = cli.plan_sweep(RunConfig())
        N = 10**7
        assert cached == {} and derived == list(range(2, 101, 2))
        assert [job.args for job in jobs] == [(m, True) for m in range(102, 201, 2)]
        for job in jobs:
            m = job.args[0]
            *_, need, table = partitions._check_sweep_budget(
                m, N, partitions.default_stage1_bound(m, N))
            assert (job.need, job.shared) == (need, table)
        assert {job.shared for job in jobs} == {625_000}

    @pytest.mark.parametrize("N,m_max,packed", [
        (10**6, 50, False), (10**6, 30, False), (2 * 10**6, 200, False), (10**7, 200, True),
    ], ids=["desk", "rerun", "m200-2e6", "long-run"])
    def test_size_rule_picks_each_sweeps_kernel(self, monkeypatch, N, m_max, packed):
        # the kernel of the sweeps of table1 in desk's and rerun's
        # benchmark runs, of m <= 200 at 2*10^6, whose longest rows, 19,608
        # candidates, run faster on the int-bitset kernel, and of the long
        # run (RunConfig's defaults).  Nothing is sieved
        monkeypatch.setattr(partitions, "sieve_primes", None)
        _, jobs, _ = cli.plan_sweep(RunConfig(N=N, m_max=m_max))
        assert jobs and {job.args[1] for job in jobs} == {packed}


def _long_options(parser: argparse.ArgumentParser) -> set[str]:
    """The long options of parser and of its subcommands, but --help."""
    options = set()
    for action in parser._actions:
        options.update(o for o in action.option_strings if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for subparser in action.choices.values():
                options |= _long_options(subparser)
    return options - {"--help"}


def test_readme_names_every_option_and_no_other():
    # the CLI section documents every option; outside the install
    # commands (pip's and pytest's flags), README names no option that
    # the parser does not register
    sections = re.split(r"^## ", (ROOT / "README.md").read_text(), flags=re.M)
    named = {s.split("\n", 1)[0]: set(re.findall(r"--[a-z][a-z0-9-]*", s)) for s in sections}
    registered = _long_options(cli.build_parser())
    assert registered - named["CLI"] == set()
    del named["Install and test"]
    assert set().union(*named.values()) - registered == set()


def test_cli_import_loads_no_pool_or_hashlib():
    # the pool and the checksum import their modules when first used
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys, apgoldbach.cli; print(sorted(set(sys.modules) & {%r, %r, %r}))" % (
        "multiprocessing", "concurrent.futures", "_hashlib")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "[]\n"


def _fresh_python(code: str, **env_vars: str) -> str:
    """stdout of a fresh interpreter running code with src/ on its path, with
    no OPENBLAS_NUM_THREADS or cache directory but those in env_vars: this
    process set the former when it imported apgoldbach."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.pop(cli.CACHE_ENV_VAR, None)
    env.update(env_vars)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60).stdout


# the engine, which only the processes that compute import
ENGINE_MODULES = {"numpy", "apgoldbach.partitions", "apgoldbach.primes"}


def _fresh_cli(argv: list[str], modules: set[str] = ENGINE_MODULES) -> list:
    """[exit code, the loaded modules among `modules`, stdout] of
    cli.main(argv) in a fresh interpreter; an empty argv only imports.
    The probe itself imports no json, so that it can be among `modules`."""
    code = textwrap.dedent(f"""\
        import contextlib, io, sys
        from apgoldbach import cli
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main({argv!r}) if {argv!r} else 0
        print(repr([rc, sorted(set(sys.modules) & {modules!r}), out.getvalue()]))
    """)
    return ast.literal_eval(_fresh_python(code))


@pytest.mark.parametrize("caller,seen", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")])
def test_blas_threads_default_to_one_unless_set(caller, seen):
    # pytest has loaded numpy before any test runs, so only a fresh
    # interpreter shows the setting made before numpy's import
    code = "import os, apgoldbach.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh_python(code, **caller) == seen + "\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
def test_cli_import_starts_no_thread():
    # numpy's OpenBLAS starts a helper thread unless told to use one
    # thread; the CLI imports numpy when it first runs the packed kernel,
    # so count after a sweep that computes a modulus on it
    code = textwrap.dedent("""\
        import contextlib, io, os, sys
        from apgoldbach import cli
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["table1", "--m-max", "6", "--limit", "10000000", "--threads", "1"])
        print(rc, "numpy" in sys.modules, len(os.listdir("/proc/self/task")))
    """)
    assert _fresh_python(code) == "0 True 1\n"


@pytest.mark.skipif(not os.path.isfile("/proc/self/status"), reason="no /proc/self/status")
def test_bitset_sweep_peak_memory_within_budget():
    # a fresh interpreter sets the budget to the largest that the
    # int-bitset sweep of m = 44-50 at 10^6 counts for one modulus; the
    # sweep passes the check, and its peak RSS rises from just after the
    # imports by no more than that
    code = textwrap.dedent("""\
        import re, sys
        from apgoldbach import cli, partitions, primes, summaries

        def status(key):
            with open("/proc/self/status") as f:
                return int(re.search(key + r":\\s+(\\d+) kB", f.read()).group(1)) * 1024

        needs = []
        for m in range(44, 51, 2):
            M = partitions.default_stage1_bound(m, 10**6)
            *_, need, table = partitions._check_sweep_budget(m, 10**6, M, packed=False)
            needs.append(need + table)
        primes.DEFAULT_MEMORY_BUDGET_BYTES = max(needs)
        base = status("VmRSS")
        cli.compute_sweep(cli.RunConfig(N=10**6, m_min=44, m_max=50, threads=1))
        print(status("VmHWM") - base <= max(needs), "numpy" in sys.modules)
    """)
    assert _fresh_python(code) == "True False\n"


@pytest.mark.skipif(not os.path.isfile("/proc/self/status"), reason="no /proc/self/status")
def test_packed_pair_peak_memory_within_budget():
    # as above for one packed-route pair, (1, 3) mod 4 at 2*10^7 (5
    # windows) on one worker: the budget is what _group_jobs counts for
    # its one share, and numpy is imported before the baseline
    code = textwrap.dedent("""\
        import re
        import numpy
        from apgoldbach import partitions, primes

        def status(key):
            with open("/proc/self/status") as f:
                return int(re.search(key + r":\\s+(\\d+) kB", f.read()).group(1)) * 1024

        pair, N = partitions.AdmissiblePair(1, 3, 4), 2 * 10**7
        needs = [job.need for job in
                 partitions._group_jobs(4, 3, [1], partitions.default_stage1_bound(4, N), N, 1)]
        primes.DEFAULT_MEMORY_BUDGET_BYTES = max(needs)
        base = status("VmRSS")
        es = partitions.exceptional_set(pair, N)
        print(status("VmHWM") - base <= max(needs), es.elements)
    """)
    assert _fresh_python(code) == "True (4,)\n"


@pytest.mark.skipif(not os.path.isfile("/proc/self/status"), reason="no /proc/self/status")
def test_bitset_group_peak_memory_within_budget():
    # as above for one int-route group, the pairs (1, 3) and (3, 3) mod 4
    # at 2^23 + 1, the largest N on that route, sharing one b-class row:
    # the budget is what _group_jobs counts for the group, and numpy is
    # never loaded.  The rise also stays under a measured bound, 3.25 MB:
    # on 2 vCPUs it read 2.91-3.06 MB in 22 fresh runs, and 3.47-3.58 MB
    # where a copy of each class's rows of the block's bitset was kept
    # through the block, which the count's slack alone would pass
    code = textwrap.dedent("""\
        import re, sys
        from apgoldbach import partitions, primes

        def status(key):
            with open("/proc/self/status") as f:
                return int(re.search(key + r":\\s+(\\d+) kB", f.read()).group(1)) * 1024

        N = 2**23 + 1
        [job] = partitions._group_jobs(4, 3, [1, 3], partitions.default_stage1_bound(4, N), N, 1)
        need = primes.DEFAULT_MEMORY_BUDGET_BYTES = job.need
        base = status("VmRSS")
        sets = partitions.exceptional_sets([partitions.AdmissiblePair(a, 3, 4) for a in (1, 3)], N)
        rise = status("VmHWM") - base
        print(need, rise <= need, rise <= 3_250_000, "numpy" in sys.modules,
              [es.elements for es in sets])
    """)
    assert _fresh_python(code) == "4176730 True True False [(4,), (2,)]\n"


@pytest.mark.parametrize("module", ["apgoldbach", "apgoldbach.cli"])
def test_import_loads_no_engine(module):
    code = f"import sys, {module}; print(sorted(set(sys.modules) & {ENGINE_MODULES!r}))"
    assert _fresh_python(code) == "[]\n"


@pytest.mark.parametrize("cached", [True, False], ids=["cached", "uncached"])
def test_cached_sweep_forks_with_hashlib_loaded(tmp_path, cached):
    # a cold cached sweep imports hashlib, for its files' checksums, before
    # run_plan forks the workers, so that they inherit it instead of each
    # importing it at its first save; a sweep with no cache loads none
    cache = f"Path({str(tmp_path)!r})" if cached else "None"
    code = textwrap.dedent(f"""\
        import sys
        from pathlib import Path
        from apgoldbach import cli, partitions

        seen, real = [], partitions.run_plan
        partitions.run_plan = lambda *args, **kw: (
            seen.append("hashlib" in sys.modules) or real(*args, **kw))
        cli.compute_sweep(cli.RunConfig(N=10**4, m_min=6, m_max=8, threads=2, cache_dir={cache}))
        print(seen, "hashlib" in sys.modules)
    """)
    assert _fresh_python(code) == f"[{cached}] {cached}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["m6_N10000.json", "m8_N10000.json"] if cached else [])


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A cache holding m <= 50 at N = 10^4."""
    cache = tmp_path_factory.mktemp("warm")
    compute_sweep(RunConfig(N=10**4, m_min=2, m_max=50, threads=1, cache_dir=cache))
    return cache


@pytest.mark.parametrize("argv", [["table2"], ["figures"], ["verify", "asy"]])
def test_warm_cache_loads_no_engine(capsys, tmp_path, warm_cache, argv):
    # each reads m <= 50 off the cache and computes nothing; the row types
    # are named tuples, so neither dataclasses nor the inspect module it
    # imports is loaded
    args = [*argv, "--limit", "10000", "--threads", "1"]
    if argv == ["figures"]:
        args += ["--output-dir", str(tmp_path)]
    code, uncached, _ = run(capsys, *args)
    figures = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    for p in tmp_path.iterdir():
        p.unlink()
    assert code == EXIT_OK
    assert _fresh_cli([*args, "--cache-dir", str(warm_cache)],
                      ENGINE_MODULES | {"dataclasses", "inspect"}) == [EXIT_OK, [], uncached]
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == figures


def test_derived_misses_load_no_engine(capsys, tmp_path):
    # with 4 cached, the sweep of m = 2-4 derives 2 from it and computes
    # nothing: the derivation lives in summaries, which loads no numpy
    compute_sweep(RunConfig(N=10**4, m_min=4, m_max=4, threads=1, cache_dir=tmp_path))
    args = ["table1", "--m-min", "2", "--m-max", "4", "--limit", "10000"]
    code, uncached, _ = run(capsys, *args)
    assert code == EXIT_OK
    assert _fresh_cli([*args, "--cache-dir", str(tmp_path)],
                      {"numpy", "apgoldbach.partitions"}) == [EXIT_OK, [], uncached]


def test_cold_pool_starts_after_the_engine_import():
    # forked workers inherit the engine that the parent imported
    code = textwrap.dedent("""\
        import contextlib, io, os, sys
        from apgoldbach import cli

        seen = ["apgoldbach.partitions" in sys.modules]
        fork = os.fork

        def recorded():
            seen.append("apgoldbach.partitions" in sys.modules)
            return fork()

        os.fork = recorded
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["table1", "--m-min", "4", "--m-max", "6",
                           "--limit", "10000", "--threads", "2"])
        print(rc, seen)
    """)
    assert _fresh_python(code) == "0 [False, True]\n"


def test_split_pair_maps_its_shares_after_the_numpy_import():
    # forked shares inherit numpy from the process that maps them, so that
    # none imports it again: a pair of 8 windows of 64 entries, split in 2,
    # has imported it once its plan is built, before the runner forks
    code = textwrap.dedent("""\
        import sys
        from apgoldbach import partitions

        partitions.SIEVE_SEGMENT_SIZE = 64
        seen = ["numpy" in sys.modules]
        pair = partitions.AdmissiblePair(1, 3, 4)
        plan = partitions.batch_plan([pair], 2000, 2)
        seen.append(("numpy" in sys.modules, len(partitions.deal(plan, 2, 64))))
        es = partitions.exceptional_set(pair, 2000, workers=2)
        print(es.elements, seen)
    """)
    assert _fresh_python(code) == "(4,) [False, (True, 2)]\n"


LAZY_MODULES = ENGINE_MODULES | {"apgoldbach.heuristics", "apgoldbach.summaries", "fractions",
                                 "decimal", "concurrent.futures", "multiprocessing"}
# summaries rounds integer ratios itself: no fractions, and so no decimal
SUMMARIES = {"apgoldbach.summaries"}


# a pair below the share threshold runs stage 1 on int bitsets, without numpy
SMALL_PAIR_MODULES = ["apgoldbach.partitions", "apgoldbach.primes"]


@pytest.mark.parametrize("argv,loaded", [
    ([], []),
    (["verify", "conj2", "--limit", "1000"], SMALL_PAIR_MODULES),
    (["exceptions", "--m", "4", "--a", "1", "--b", "1", "--limit", "1000"],
     SMALL_PAIR_MODULES),
    # a sweep on the packed kernel, on one worker and forking one
    (["table1", "--m-max", "6", "--limit", "10000000", "--threads", "1"],
     sorted(ENGINE_MODULES | SUMMARIES)),
    (["table1", "--m-max", "6", "--limit", "10000000", "--threads", "2"],
     sorted(ENGINE_MODULES | SUMMARIES)),
    # the desk sweep, on the int-bitset kernel
    (["table1", "--m-max", "50", "--limit", "1000000"],
     sorted(SMALL_PAIR_MODULES + ["apgoldbach.summaries"])),
    (["exceptions", "--m", "4", "--a", "1", "--b", "1", "--limit", "30000000",
      "--threads", "2"], sorted(ENGINE_MODULES)),
    # the model alone: neither numpy nor summaries without a cache directory
    (["heuristic", "--m", "10", "--limit", "1000"], ["apgoldbach.heuristics"]),
])
def test_subcommand_loads_only_the_modules_it_runs(argv, loaded):
    # import alone (argv []) loads none of LAZY_MODULES
    assert _fresh_cli(argv, LAZY_MODULES)[:2] == [EXIT_OK, loaded]


@pytest.mark.parametrize("argv,unused", [
    ([], {"numpy", "dataclasses", "inspect", "json"}),
    (["heuristic", "--m", "10", "--limit", "1000"],
     {"numpy", "apgoldbach.summaries", "dataclasses", "json", "fractions", "decimal",
      "numbers"}),
    (["verify", "conj2", "--limit", "1000"], {"numpy", "dataclasses", "inspect", "json"}),
    (["exceptions", "--m", "4", "--a", "1", "--b", "1", "--limit", "1000"],
     {"numpy", "dataclasses", "inspect", "json"}),
    # at N = 5*10^6 the pair E(5, 5, 6) has 833,333 candidates, under 2^21
    (["verify", "ternary", "--limit", "5000000"], {"numpy", "dataclasses", "inspect"}),
    # the warm cache's directory is appended
    (["table1", "--limit", "10000", "--threads", "1", "--cache-dir"],
     {"numpy", "fractions", "decimal", "numbers"}),
    # the sweeps of the desk and rerun workloads run the int-bitset kernel
    (["table1", "--m-max", "50", "--limit", "1000000"],
     {"numpy", "dataclasses", "inspect", "json", "fractions", "decimal", "numbers"}),
    (["table1", "--m-max", "30", "--limit", "1000000"],
     {"numpy", "dataclasses", "inspect", "json", "fractions", "decimal", "numbers"}),
], ids=["import", "heuristic", "verify", "exceptions", "verify-5e6", "warm-table1",
        "desk-table1", "rerun-table1"])
def test_command_loads_no_module_it_does_not_use(request, argv, unused):
    # json is for the cache and the JSON table format, and numpy only for
    # the packed kernel; no module loads dataclasses (or the inspect
    # module it imports), and the tables are integers and integer ratios,
    # rounded without fractions
    if argv[-1:] == ["--cache-dir"]:
        argv = [*argv, str(request.getfixturevalue("warm_cache"))]
    assert _fresh_cli(argv, unused)[:2] == [EXIT_OK, []]


@pytest.mark.parametrize("target", ["conj2", "conj3"])
def test_verify_forks_a_worker_without_numpy(target):
    # at 5*10^6 on 2 CPUs conj2 and conj3 fork one worker for their
    # int-bitset groups, and load neither numpy nor dataclasses, inspect
    # or json
    code = textwrap.dedent(f"""\
        import contextlib, io, os, sys
        from apgoldbach import cli

        os.sched_getaffinity = lambda pid: {{0, 1}}
        forks, fork = [], os.fork

        def counted():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        os.fork = counted
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["verify", "{target}", "--limit", "5000000"])
        print(rc, len(forks), sorted(set(sys.modules) & {{"numpy", "dataclasses", "inspect",
                                                          "json"}}))
    """)
    assert _fresh_python(code) == "0 1 []\n"


def test_module_run_freezes_the_heap_before_exit():
    # `python -m apgoldbach.cli` ends through main_and_exit: an atexit probe
    # finds numpy's modules frozen and the collector's generations empty;
    # a sweep that computes a modulus on the packed kernel loads numpy
    code = textwrap.dedent("""\
        import atexit, gc, runpy, sys
        atexit.register(lambda: print(gc.get_freeze_count(),
                                      sum(len(gc.get_objects(g)) for g in range(3))))
        sys.argv = ["apgoldbach", "table1", "--m-max", "6", "--limit", "10000000",
                    "--threads", "1"]
        runpy.run_module("apgoldbach.cli", run_name="__main__")
    """)
    *report, probe = _fresh_python(code).splitlines()
    assert report[-1] == "6,1,1.0,1,6,1,2,1,1.25,2,8,4,5"
    frozen, tracked = map(int, probe.split())
    assert frozen >= 20_000
    assert tracked < 100


def test_module_run_exits_with_main_status():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "apgoldbach.cli", "table1", "--m-min", "3", "--m-max", "9"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (EXIT_USAGE, "")
    assert done.stderr == "error: modulus range endpoints must be even\n"


def test_main_in_process_does_not_freeze(capsys):
    # tests, scripts/ and the benchmark's tracer call main() in-process
    before = gc.get_freeze_count()
    assert main(["verify", "conj2", "--limit", "1000"]) == EXIT_OK
    assert gc.get_freeze_count() == before


def test_console_script_is_the_exit_function():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(cli.__file__).resolve().parents[2] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["apgoldbach"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.main_and_exit


class TestFigures:
    def test_fig_documents(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "figures", "--m-min", "4", "--m-max", "8",
            "--limit", "1000000", "--threads", "1",
            "--output-dir", str(tmp_path),
        )
        assert code == EXIT_OK
        fig1 = (tmp_path / "fig1.csv").read_text().splitlines()
        assert "6,8,2" in fig1  # largest exception and totient at m = 6
        fig2 = (tmp_path / "fig2.csv").read_text().splitlines()
        m4 = dict(zip(fig2[0].split(","), fig2[1].split(",")))
        assert m4["16m2"] == "256"
        assert m4["E_max"] == "62"

    def test_m50_document_bytes(self, capsys, tmp_path):
        # both documents of m <= 50 at 10^5, byte for byte
        assert run(capsys, "figures", "--m-max", "50", "--limit", "100000",
                   "--threads", "1", "--output-dir", str(tmp_path))[0] == EXIT_OK
        assert {name: hashlib.md5((tmp_path / name).read_bytes()).hexdigest()
                for name in ("fig1.csv", "fig2.csv")} == {
            "fig1.csv": "4d4ae1b4cd9eaa942bdf94830b6b7bb3",
            "fig2.csv": "7f0631230b58e73aad29843e43bbe914",
        }


def test_documents_read_only_the_summaries(capsys, monkeypatch, tmp_path):
    # the sweep summarizes each modulus where its sets are made; the
    # documents print the CLI's bytes from its summaries alone
    argv = ["--m-max", "12", "--limit", "10000", "--threads", "2"]
    tables = {which: run(capsys, which, *argv)[1] for which in ("table1", "table2")}
    assert run(capsys, "figures", *argv, "--output-dir", str(tmp_path))[0] == EXIT_OK
    sweep = compute_sweep(RunConfig(N=10**4, m_max=12, threads=2))

    def no_sets(sets, m):
        raise AssertionError("a document summarized the sets")

    monkeypatch.setattr(summaries, "summarize_modulus", no_sets)
    for which, out in tables.items():
        assert table_document(which, sweep) == out
    assert figure_documents(sweep) == tuple(
        (tmp_path / name).read_text() for name in ("fig1.csv", "fig2.csv"))


# The whole report of each verify target at --limit 100000, byte for byte.
VERIFY_REPORTS_1E5 = {
    "conj2": (
        "mod-4 case (i): violations [] expected [] -> PASS\n"
        "mod-4 case (ii): violations [4] expected [4] -> PASS\n"
        "mod-4 case (iii): violations [2] expected [2] -> PASS\n"
        "mod-4 case (iv): violations [2, 6, 14, 38, 62] expected [2, 6, 14, 38, 62] -> PASS\n"
    ),
    "conj3": (
        "sample item (i): p=1 mod 3: [6] -> PASS\n"
        "sample item (ii): p=2 mod 5: []; p=1 mod 5: [10, 20] -> PASS\n"
        "sample item (iii): p=3 mod 7: [] -> PASS\n"
        "sample item (iv): p=3 mod 11: [] -> PASS\n"
        "sample item (v): p=3 mod 8: [] -> PASS\n"
        "sample item (vi): p=3 mod 16: [] -> PASS\n"
        "sample item (vii): p=7 mod 60: [] -> PASS\n"
    ),
    "ternary": "ternary: violations [] -> PASS\n",
    "asy": (
        "max over computed m of E_max(m)/(m^2 (ln m)^2) = 2.016326 "
        "(asymptotic claim, no pass/fail)\n"
    ),
}


class TestVerify:
    @pytest.mark.parametrize("target", list(VERIFY_REPORTS_1E5))
    def test_report_bytes(self, capsys, target):
        assert run(capsys, "verify", target, "--limit", "100000") == (
            EXIT_OK, VERIFY_REPORTS_1E5[target], "")

    def test_excluded_residue_exits_2(self, capsys):
        # a = 11 is refused before any item runs: nothing is printed
        assert run(capsys, "verify", "conj3", "--limit", "1000", "--a", "11") == (
            EXIT_USAGE, "",
            "error: a=11 is congruent to +-1 or +-11 mod 60, excluded by the statement\n")

    def test_conj2(self, capsys):
        code, out, _ = run(capsys, "verify", "conj2", "--limit", "100000")
        assert code == EXIT_OK
        assert out.count("PASS") == 4

    def test_small_limits_pass(self, capsys):
        # each expected list is cut at N, so a limit below its largest
        # exception (62 for conj2, 20 for conj3) still passes
        for target, top in (("conj2", 70), ("conj3", 25)):
            for N in range(2, top + 1):
                code, out, _ = run(capsys, "verify", target, "--limit", str(N))
                assert (code, out.count("FAIL")) == (EXIT_OK, 0), (target, N, out)
        code, out, _ = run(capsys, "verify", "conj2", "--limit", "20")
        assert "mod-4 case (iv): violations [2, 6, 14] expected [2, 6, 14] -> PASS" in out

    def test_ternary(self, capsys):
        code, out, _ = run(capsys, "verify", "ternary", "--limit", "10000")
        assert code == EXIT_OK
        assert "PASS" in out

    def test_asy_reports_ratio(self, capsys):
        code, out, _ = run(
            capsys, "verify", "asy", "--limit", "100000",
        )
        assert code == EXIT_OK
        assert "E_max(m)/(m^2 (ln m)^2)" in out

    @pytest.mark.parametrize("target,forked", [("conj2", 2), ("conj3", 2), ("ternary", 0)])
    def test_bytes_do_not_depend_on_the_worker_count(self, capsys, monkeypatch, target, forked):
        # the exceptional sets are one batch dealt to one worker per CPU:
        # on 1 and on 2 CPUs every report and exit code is the same.  Only
        # conj2 and conj3 at 5*10^6 and 2*10^7 have a segment of candidates
        # for each of 2 shares, and ternary has one pair; at 2*10^7 conj2's
        # pairs, and conj3's moduli 6 and 8, take the packed route
        forks = _count_forks(monkeypatch)
        runs = {}
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            runs[cpus] = [run(capsys, "verify", target, "--limit", str(N))
                          for N in (10**3, 10**6, 5 * 10**6, 2 * 10**7)]
            assert len(forks) == forked * (cpus - 1)
        assert runs[1] == runs[2]
        assert {(code, err) for code, _, err in runs[1]} == {(EXIT_OK, "")}
        _assert_no_children()

    def test_unknown_target(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "conj9"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("target,flag", [
        *((t, f) for t in ("conj2", "conj3", "ternary")
          for f in ("--threads 2", "--cache-dir /nonexistent")),
        ("conj2", "--a 11"), ("ternary", "--a 11"), ("asy", "--a 11"),
    ])
    def test_flags_only_where_read(self, capsys, target, flag):
        # only the asy sweep takes --threads and a cache (the other targets
        # run one worker per CPU), and only conj3 has an item that reads a
        # residue
        with pytest.raises(SystemExit) as exc:
            main(["verify", target, "--limit", "1000", *flag.split()])
        assert exc.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv,err", [
    (["table1", "--limit", "1"], "search limit must be >= 2, got 1"),
    (["verify", "conj2", "--limit", "1"], "search limit must be >= 2, got 1"),
    (["table1", "--m-max", "4", "--limit", "1000", "--threads", "-1"], "threads must be >= 0"),
    (["heuristic", "--m", "10", "--c", "0"], "c=0.0 must be positive"),
    # the model sum needs N >= 10; no smaller --limit is raised to it
    (["heuristic", "--m", "10", "--limit", "5"], "N=5 must be >= 10"),
], ids=["table1-limit", "verify-limit", "threads", "heuristic-c", "heuristic-limit"])
def test_bad_value_exits_2(capsys, argv, err):
    assert run(capsys, *argv) == (EXIT_USAGE, "", f"error: {err}\n")


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


class TestHeuristic:
    def test_m50_report_bytes(self, capsys):
        # at the default limit, 10^6
        assert run(capsys, "heuristic", "--m", "50") == (EXIT_OK, HEURISTIC_M50, "")

    def test_m10(self, capsys):
        code, out, _ = run(capsys, "heuristic", "--m", "10", "--limit", "10000")
        assert code == EXIT_OK
        assert "r = 3" in out

    def test_m4(self, capsys):
        code, out, _ = run(capsys, "heuristic", "--m", "4", "--limit", "10000")
        assert code == EXIT_OK
        assert "r = 2" in out
        assert "E[W] = 3.000000" in out

    def test_m2(self, capsys):
        code, out, _ = run(capsys, "heuristic", "--m", "2", "--limit", "10000")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert "r = 1" in lines
        assert "E[W] = 1.000000" in lines
        # m = 2's own predictions: 4 (ln 2)^2 and r^2/(2m) with r = 1
        assert "predicted E_max bound (c=1.0): 1.922" in lines
        assert "predicted mean length (delta=0.5): 0.250000" in lines

    def test_m50(self, capsys):
        # the desk check: E[W] = r * H_r for r = 16
        code, out, _ = run(capsys, "heuristic", "--m", "50", "--limit", "10000")
        assert code == EXIT_OK
        assert "E[W] = 54.091664" in out.splitlines()

    def test_odd_m_usage_error(self, capsys):
        code, _, err = run(capsys, "heuristic", "--m", "5", "--limit", "10000")
        assert code == EXIT_USAGE

    def test_seed_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["heuristic", "--m", "4", "--seed", "1"])
        assert exc.value.code == EXIT_USAGE

    def test_threads_flag_rejected(self):
        # the sweep of a heuristic is one modulus, which one worker computes
        with pytest.raises(SystemExit) as exc:
            main(["heuristic", "--m", "10", "--threads", "1"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("command", [["heuristic", "--m", "10"],
                                         ["table1", "--threads", "1"]])
    def test_cache_io_error_exits_3(self, capsys, tmp_path, command):
        # the cache directory cannot be made under a regular file; the
        # observed comparison does not swallow that
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run(
            capsys, *command, "--limit", "10000",
            "--cache-dir", str(blocker / "cache"),
        )
        assert code == EXIT_IO
        assert out == ""
        assert err.startswith("I/O error:")

    @pytest.mark.parametrize("command", [["heuristic", "--m", "10"],
                                         ["table1", "--threads", "1"]])
    def test_over_budget_exits_2(self, capsys, monkeypatch, tmp_path, command):
        # a 1 KB budget stands in for an over-budget --limit, so that the
        # model's truncated sum stays small
        monkeypatch.setattr(primes, "DEFAULT_MEMORY_BUDGET_BYTES", 1000)
        code, out, err = run(
            capsys, *command, "--limit", "10000",
            "--cache-dir", str(tmp_path),
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and "budget" in err


SWEEP_ARGV = ["table1", "--m-min", "4", "--m-max", "6", "--limit", "10000", "--threads", "2"]
PAIR_ARGV = ["exceptions", "--m", "4", "--a", "1", "--b", "3", "--limit", "200000",
             "--threads", "2"]


@pytest.mark.parametrize("where", ["parent", "child"])
@pytest.mark.parametrize("argv", [SWEEP_ARGV, PAIR_ARGV], ids=["sweep", "pair"])
def test_budget_error_in_a_worker_exits_2(capsys, monkeypatch, argv, where):
    # the sweep deals m = 4 to this process and m = 6 to the child; the
    # pair, in short windows, runs windows 0, 2, ... here and 1, 3, ... there.
    # The error stops the side it is raised in, and the other side's child
    # is reaped either way
    parent = os.getpid()
    monkeypatch.setattr(partitions, "SIEVE_SEGMENT_SIZE", 1 << 10)

    def over_budget(fn):
        def wrapped(*args, **kwargs):
            if (os.getpid() == parent) == (where == "parent") and args[0] != 1:
                raise MemoryBudgetError(f"over the budget in the {where}")
            return fn(*args, **kwargs)
        return wrapped

    # each share of the pair sieves the a-class (1 mod 4), which passes,
    # and its b-windows (3 mod 4); the sweep's moduli run in both processes
    monkeypatch.setattr(cli, "exceptional_sets_for_modulus",
                        over_budget(cli.exceptional_sets_for_modulus))
    monkeypatch.setattr(partitions, "sieve_progression",
                        over_budget(partitions.sieve_progression))
    forks = _count_forks(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: over the budget in the {where}\n"
    assert len(forks) == 1
    _assert_no_children()


def test_killed_worker_fails_the_parent():
    # the parent reads end of file from a killed child's pipe, so it does
    # not wait for a result; it names the wait status and reaps every child
    code = textwrap.dedent("""\
        import os, signal
        from apgoldbach import cli

        parent, real = os.getpid(), cli.exceptional_sets_for_modulus

        def killed(*args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args, **kwargs)

        cli.exceptional_sets_for_modulus = killed
        try:
            cli.compute_sweep(cli.RunConfig(N=10**4, m_min=4, m_max=8, threads=3))
        except RuntimeError as exc:
            print(exc)
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            print("no children")
    """)
    assert re.fullmatch(
        r"worker process \d+ sent no result: wait status 9 \(killed by signal 9\)\n"
        r"no children\n",
        _fresh_python(code),
    )


def test_killed_worker_exits_4_and_leaves_no_tmp_file(capsys, monkeypatch, tmp_path):
    # the child that computes m = 6 writes its temporary cache file, as
    # save_cache_entry does, and is killed before it can rename it: the
    # run is an internal error, not a failed check, and the sweep removes
    # the dead child's file
    parent, real = os.getpid(), cli.exceptional_sets_for_modulus

    def killed(m, N, table):
        if os.getpid() != parent:
            tmp_path.mkdir(exist_ok=True)
            (tmp_path / f"m{m}_N{N}.{os.getpid()}.tmp").write_text("{")
            os.kill(os.getpid(), signal.SIGKILL)
        return real(m, N, table)

    monkeypatch.setattr(cli, "exceptional_sets_for_modulus", killed)
    forks = _count_forks(monkeypatch)
    code, out, err = run(capsys, *SWEEP_ARGV, "--cache-dir", str(tmp_path))
    assert (code, out) == (EXIT_INTERNAL, "")
    assert err == (f"internal error: RuntimeError: worker process {forks[0]} sent no "
                   "result: wait status 9 (killed by signal 9)\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m4_N10000.json"]
    _assert_no_children()


@pytest.mark.parametrize("b", [3, 1], ids=["parent", "child-share"])
def test_budget_error_in_a_verify_worker_exits_2(capsys, monkeypatch, b):
    # conj2 at 5*10^6 on 2 CPUs runs the b = 3 group here and the b = 1
    # group in the child; every group's budget is checked here before the
    # fork, so a group over budget on either share exits 2 with no fork
    real = partitions.check_budget

    def over_budget(what, parts):
        if f", {b}, 4), a in" in what:
            raise MemoryBudgetError(f"the b = {b} group is over the budget in {os.getpid()}")
        return real(what, parts)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(partitions, "check_budget", over_budget)
    forks = _count_forks(monkeypatch)
    code, out, err = run(capsys, "verify", "conj2", "--limit", "5000000")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: the b = {b} group is over the budget in {os.getpid()}\n"
    assert forks == []
    _assert_no_children()


def test_killed_verify_worker_exits_4(capsys, monkeypatch):
    # conj3 at 5*10^6 on 2 CPUs: the child is killed as it starts its
    # first job, and the run is an internal error, not a failed check
    parent, real = os.getpid(), partitions._job_sets

    def killed(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(partitions, "_job_sets", killed)
    forks = _count_forks(monkeypatch)
    code, out, err = run(capsys, "verify", "conj3", "--limit", "5000000")
    assert (code, out) == (EXIT_INTERNAL, "")
    assert err == (f"internal error: RuntimeError: worker process {forks[0]} sent no "
                   "result: wait status 9 (killed by signal 9)\n")
    _assert_no_children()


def test_killed_pair_worker_exits_4(capsys, monkeypatch):
    # the pair's child, which runs windows 1, 3, ..., is killed as it
    # sieves its first b-window
    parent, real = os.getpid(), partitions.sieve_progression

    def killed(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(partitions, "SIEVE_SEGMENT_SIZE", 1 << 10)
    monkeypatch.setattr(partitions, "sieve_progression", killed)
    forks = _count_forks(monkeypatch)
    code, out, err = run(capsys, *PAIR_ARGV)
    assert (code, out) == (EXIT_INTERNAL, "")
    assert err == (f"internal error: RuntimeError: worker process {forks[0]} sent no "
                   "result: wait status 9 (killed by signal 9)\n")
    _assert_no_children()


@pytest.mark.parametrize("argv,name,exc", [
    (["verify", "conj2", "--limit", "1000"], "_bitset_group",
     IndexError("index 9 is out of range")),
    (["table1", "--m-max", "6", "--limit", "10000", "--threads", "1"], "sieve_primes",
     MemoryError("no room")),
], ids=["verify-IndexError", "table1-MemoryError"])
def test_engine_error_exits_4(capsys, monkeypatch, argv, name, exc):
    # an exception that is neither bad input (2) nor I/O (3) is an internal
    # error, one line on stderr, and never the exit code of a failed check
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(partitions, name, broken)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_INTERNAL, "")
    assert err == f"internal error: {type(exc).__name__}: {exc}\n"


@pytest.mark.parametrize("argv", [
    ["table1", "--m-max", "12", "--limit", "10000"],
    ["exceptions", "--m", "4", "--a", "1", "--b", "3", "--limit", "10000"],
], ids=["table1", "exceptions"])
def test_fork_map_without_os_fork_runs_the_shares_here(capsys, monkeypatch, argv):
    # where os.fork does not exist, two workers' shares run in order in
    # this process and print the bytes of one worker.  The sweep computes
    # m = 8, 10 and 12; 256-candidate windows give the pair 10 windows
    monkeypatch.setattr(partitions, "SIEVE_SEGMENT_SIZE", 256)
    serial = run(capsys, *argv, "--threads", "1")
    assert serial[0] == EXIT_OK
    shares, real = [], partitions.fork_map
    monkeypatch.setattr(partitions, "fork_map",
                        lambda fn, xs, *dead: shares.append(len(xs)) or real(fn, xs, *dead))
    monkeypatch.delattr(os, "fork")
    assert run(capsys, *argv, "--threads", "2") == serial
    assert shares == [2]


def test_fork_map_children_hold_no_read_end(monkeypatch):
    # before it computes, each child closes the result pipes' read ends it
    # inherited, its own and those of the children forked before it, so
    # that once this process is gone no reader is left and a child's write
    # fails instead of blocking.  This process still reads both pipes
    import fcntl

    pipes, real = set(), os.pipe

    def recorded_pipe():
        r, w = real()
        st = os.fstat(r)
        pipes.add((st.st_dev, st.st_ino))  # both ends share the inode
        return r, w

    def open_read_ends(share):
        ends = []
        for fd in range(256):
            try:
                st = os.fstat(fd)
            except OSError:
                continue
            if ((st.st_dev, st.st_ino) in pipes
                    and fcntl.fcntl(fd, fcntl.F_GETFL) & os.O_ACCMODE == os.O_RDONLY):
                ends.append(fd)
        return share, os.getpid(), ends

    monkeypatch.setattr(os, "pipe", recorded_pipe)
    results = partitions.fork_map(open_read_ends, [0, 1, 2])
    assert len(pipes) == 2
    assert [share for share, _, _ in results] == [0, 1, 2]
    assert [pid == os.getpid() for _, pid, _ in results] == [True, False, False]
    assert [len(ends) for _, _, ends in results] == [2, 0, 0]
    _assert_no_children()


def _running(pid: int) -> bool:
    """Whether process pid exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


@pytest.mark.skipif(not hasattr(os, "fork") or not os.path.isdir("/proc/self"),
                    reason="needs os.fork and /proc")
@pytest.mark.parametrize("argv,pad", [
    (["table1", "--m-max", "200", "--limit", "100000", "--threads", "2"], False),
    # two window shares of one pair
    (["exceptions", "--m", "4", "--a", "1", "--b", "3", "--limit", "50000000",
      "--threads", "2"], True),
    # eight int-bitset groups dealt to the CPUs
    (["verify", "conj3", "--limit", "5000000"], True),
], ids=["table1", "exceptions", "verify"])
def test_held_worker_exits_once_its_parent_is_killed(tmp_path, argv, pad):
    # a fresh run on 2 or more workers whose children, each with its share
    # computed, write their pids and wait on a file while their parent is
    # SIGKILLed.  Each child's result is more than a pipe holds (64 KiB:
    # the sweep's own, the batches' padded, as theirs are small), so its
    # write would block while any read end were open; released, the
    # children find none, their writes fail and they are gone (or
    # zombies) within seconds
    if argv[0] == "verify" and cli.RunConfig().worker_count < 2:
        pytest.skip("verify deals its groups to the CPUs, fewer than 2 here")
    held, count, release = tmp_path / "held", tmp_path / "children", tmp_path / "release"
    held.mkdir()
    code = textwrap.dedent(f"""\
        import os, pickle, time
        from apgoldbach import cli, partitions

        parent, real = os.getpid(), partitions.fork_map

        def held(fn, shares, *dead):
            with open({str(count)!r}, "w") as f:
                f.write(str(len(shares) - 1))
            def share(x):
                out = fn(x)
                if os.getpid() != parent:
                    if {pad}:
                        out = (out, bytes(64 * 1024))
                    big = len(pickle.dumps((True, out))) > 64 * 1024
                    tmp = os.path.join({str(held)!r}, f"{{os.getpid()}}.tmp")
                    with open(tmp, "w") as f:
                        f.write(str(big))
                    os.replace(tmp, tmp[:-4])
                    while not os.path.exists({str(release)!r}):
                        time.sleep(0.01)
                return out
            return real(share, shares, *dead)

        partitions.fork_map = held
        cli.main({argv!r})
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    env.pop(cli.CACHE_ENV_VAR, None)
    proc = subprocess.Popen([sys.executable, "-c", code], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def children() -> list[Path]:  # the pid file of every child that holds
        return [p for p in held.iterdir() if p.suffix != ".tmp"]

    try:
        for _ in range(6000):  # up to 60 s for every child to hold
            if proc.poll() is not None or (
                    count.exists() and str(len(children())) == count.read_text()):
                break
            time.sleep(0.01)
        assert children() and {p.read_text() for p in children()} == {"True"}
        proc.kill()
        proc.wait(timeout=10)
        release.touch()
        pids = [int(p.name) for p in children()]
        for _ in range(100):  # up to 5 s for the children to go
            if not any(map(_running, pids)):
                break
            time.sleep(0.05)
        assert not any(map(_running, pids))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        release.touch()  # a child still computing then exits once done
        for pid in (int(p.name) for p in children()):
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


@pytest.mark.skipif(not hasattr(os, "fork") or not os.path.isdir("/proc/self"),
                    reason="needs os.fork and /proc")
@pytest.mark.parametrize("sig,target,holders", [
    (signal.SIGTERM, "parent", 1), (signal.SIGINT, "parent", 1), (signal.SIGTERM, "worker", 1),
    (signal.SIGTERM, "worker", 2),
], ids=["SIGTERM", "SIGINT", "SIGTERM-worker", "SIGTERM-worker-parent-held"])
def test_signal_stops_the_run_and_its_workers(tmp_path, sig, target, holders):
    # a console-script run (main_and_exit) on 2 workers whose child holds
    # in its first cache write, its temporary file written, while the
    # parent or the child is signalled: the run exits 128 + signal with
    # one line on stderr, the child is gone within seconds and no
    # temporary cache file is left.  With 2 holders the parent holds in
    # its own first cache write too, so only a worker that passes the
    # signal on to the parent stops the run, within 10 s
    held, cache = tmp_path / "held", tmp_path / "cache"
    held.mkdir()
    argv = ["table1", "--m-max", "200", "--limit", "100000", "--threads", "2",
            "--cache-dir", str(cache)]
    code = textwrap.dedent(f"""\
        import os, pathlib, sys, time
        from apgoldbach import cli

        parent, real = os.getpid(), pathlib.Path.write_text

        def write_text(self, *args, **kwargs):
            real(self, *args, **kwargs)
            if (os.getpid() != parent or {holders == 2!r}) and self.suffix == ".tmp":
                open(os.path.join({str(held)!r}, str(os.getpid())), "w").close()
                while True:
                    time.sleep(0.01)

        pathlib.Path.write_text = write_text
        sys.argv = ["apgoldbach", *{argv!r}]
        cli.main_and_exit()
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    env.pop(cli.CACHE_ENV_VAR, None)
    proc = subprocess.Popen([sys.executable, "-c", code], env=env, text=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        for _ in range(6000):  # up to 60 s for the child (and the parent) to hold
            if proc.poll() is not None or len(list(held.iterdir())) == holders:
                break
            time.sleep(0.01)
        child = next(pid for pid in (int(p.name) for p in held.iterdir()) if pid != proc.pid)
        os.kill(child if target == "worker" else proc.pid, sig)
        _, err = proc.communicate(timeout=10 if holders == 2 else 30)
        assert (proc.returncode, err) == (128 + sig, f"interrupted: {sig.name}\n")
        for _ in range(100):  # up to 5 s for the child to go
            if not _running(child):
                break
            time.sleep(0.05)
        assert not _running(child)
        assert list(cache.glob("*.tmp")) == []
    finally:
        for pid in (int(p.name) for p in held.iterdir()):
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stderr.close()


def _files(path: Path) -> list[tuple[str, int]]:
    return sorted((p.name, p.stat().st_size) for p in path.iterdir())


class TestCache:
    def test_file_bytes(self, tmp_path, table_1e5):
        # dicts compare without order, so the round trip alone does not pin
        # the file: these are its bytes, pair order included
        save_cache_entry(tmp_path, 8, 10**4,
                         exceptional_sets_for_modulus(8, 10**4, table=table_1e5))
        data = (tmp_path / "m8_N10000.json").read_bytes()
        assert len(data) == 375
        assert hashlib.sha256(data).hexdigest() == (
            "9201cbaae182ac627bb96597a9ccf60d89331e1a99ebab691807d40429f92025"
        )

    def test_derived_moduli_write_the_engine_bytes(self, tmp_path, table_1e5):
        # a cold sweep of m <= 12 derives 2, 4 and 6; their files are those
        # of the engine's own sets, in the same schema
        assert cli.CACHE_SCHEMA_VERSION == 2
        swept, direct = tmp_path / "swept", tmp_path / "direct"
        compute_sweep(RunConfig(N=10**4, m_max=12, threads=1, cache_dir=swept))
        for m in (2, 4, 6):
            save_cache_entry(direct, m, 10**4,
                             exceptional_sets_for_modulus(m, 10**4, table=table_1e5))
            name = f"m{m}_N10000.json"
            assert (swept / name).read_bytes() == (direct / name).read_bytes()

    def test_round_trip(self, tmp_path, table_1e5):
        sets = exceptional_sets_for_modulus(8, 10**4, table=table_1e5)
        save_cache_entry(tmp_path, 8, 10**4, sets)
        assert [p.name for p in tmp_path.iterdir()] == ["m8_N10000.json"]
        assert load_cache_entry(tmp_path, 8, 10**4) == sets

    def test_save_ignores_other_temp_names(self, tmp_path, table_1e5):
        # a directory on the name another writer might use does not stop
        # the save, and the save leaves no temp file of its own
        sets = exceptional_sets_for_modulus(8, 10**4, table=table_1e5)
        (tmp_path / "m8_N10000.tmp").mkdir()
        save_cache_entry(tmp_path, 8, 10**4, sets)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m8_N10000.json", "m8_N10000.tmp"]
        assert load_cache_entry(tmp_path, 8, 10**4) == sets

    def test_failed_save_removes_its_temp_file(self, monkeypatch, tmp_path, table_1e5):
        def fail(self, target):
            raise OSError("disk full")

        monkeypatch.setattr(Path, "replace", fail)
        sets = exceptional_sets_for_modulus(8, 10**4, table=table_1e5)
        with pytest.raises(OSError, match="disk full"):
            save_cache_entry(tmp_path, 8, 10**4, sets)
        assert list(tmp_path.iterdir()) == []

    def test_prefix_reuse(self, tmp_path, table_1e5):
        sets = exceptional_sets_for_modulus(4, 10**4, table=table_1e5)
        save_cache_entry(tmp_path, 4, 10**4, sets)
        hit = load_cache_entry(tmp_path, 4, 100)
        assert hit == exceptional_sets_for_modulus(4, 100, table=table_1e5)
        assert hit[(1, 1)] == (2, 6, 14, 38, 62)
        assert load_cache_entry(tmp_path, 4, 10**4 + 1) is None
        assert load_cache_entry(tmp_path, 40, 100) is None

    def test_exact_hit_skips_glob(self, monkeypatch, tmp_path, table_1e5):
        for N in (100, 10**4):
            save_cache_entry(
                tmp_path, 4, N, exceptional_sets_for_modulus(4, N, table=table_1e5)
            )
        globs = []
        glob = Path.glob
        monkeypatch.setattr(
            Path, "glob", lambda self, pattern: globs.append(pattern) or glob(self, pattern)
        )
        hit = load_cache_entry(tmp_path, 4, 100)
        assert hit is not None and hit[(1, 1)] == (2, 6, 14, 38, 62)
        assert globs == []
        # no entry at N = 1000: the glob finds the N = 10^4 run's prefix
        hit = load_cache_entry(tmp_path, 4, 1000)
        assert hit is not None and hit[(1, 1)] == (2, 6, 14, 38, 62)
        assert len(globs) == 1

    def test_corrupt_entry_ignored(self, tmp_path, table_1e5, capsys):
        save_cache_entry(
            tmp_path, 4, 10**4, exceptional_sets_for_modulus(4, 10**4, table=table_1e5)
        )
        path = next(tmp_path.glob("*.json"))
        doc = json.loads(path.read_text())
        doc["payload"]["sets"][0][2] = [999]
        path.write_text(json.dumps(doc))
        assert load_cache_entry(tmp_path, 4, 10**4) is None
        assert "corrupt" in capsys.readouterr().err

    def test_schema_version_mismatch_ignored(self, tmp_path, table_1e5):
        save_cache_entry(
            tmp_path, 4, 10**4, exceptional_sets_for_modulus(4, 10**4, table=table_1e5)
        )
        path = next(tmp_path.glob("*.json"))
        doc = json.loads(path.read_text())
        doc["schema_version"] = 1
        path.write_text(json.dumps(doc))
        assert load_cache_entry(tmp_path, 4, 10**4) is None

    @pytest.mark.parametrize("version,warns", [
        (None, True), ("2", True), (2.0, True), (True, True), ("missing", True),
        (1, False), (3, False),
    ])
    def test_only_an_integer_version_is_skipped_silently(
        self, tmp_path, table_1e5, capsys, version, warns
    ):
        save_cache_entry(
            tmp_path, 4, 10**4, exceptional_sets_for_modulus(4, 10**4, table=table_1e5)
        )
        path = next(tmp_path.glob("*.json"))
        doc = json.loads(path.read_text())
        if version == "missing":
            del doc["schema_version"]
        else:
            doc["schema_version"] = version
        path.write_text(json.dumps(doc))
        assert load_cache_entry(tmp_path, 4, 10**4) is None
        err = capsys.readouterr().err
        if warns:
            assert err == (f"warning: ignoring corrupt cache entry {path}: "
                           f"schema_version {doc.get('schema_version')!r} is not an integer\n")
        else:
            assert err == ""

    def test_parallel_sweep_fills_and_reads_cache(self, tmp_path):
        plain = table_document("table1", compute_sweep(RunConfig(N=10**4, m_max=10, threads=1)))
        cached = RunConfig(N=10**4, m_max=10, threads=2, cache_dir=tmp_path)
        assert table_document("table1", compute_sweep(cached)) == plain  # cold: every modulus misses
        # one file per modulus m = 2, 4, ..., 10
        assert [name for name, _ in _files(tmp_path)] == [
            f"m{m}_N10000.json" for m in (10, 2, 4, 6, 8)
        ]
        assert table_document("table1", compute_sweep(cached)) == plain  # warm: every modulus hits

    def test_warm_cache_transparent(self, capsys, tmp_path):
        args = ["table1", "--m-min", "4", "--m-max", "6", "--limit", "10000",
                "--threads", "1", "--cache-dir", str(tmp_path)]
        code1 = main(args)
        cold = capsys.readouterr().out
        code2 = main(args)
        warm = capsys.readouterr().out
        assert code1 == code2 == EXIT_OK
        assert cold == warm
        assert list(tmp_path.glob("*.json"))

    def test_smaller_limit_reuses_larger_run(self, capsys, tmp_path):
        # the default stage-1 bound min(bound, N) changes with N; it is no
        # part of the key, so the N = 10^4 run reads the N = 10^5 files
        args = ["table1", "--m-min", "2", "--m-max", "10", "--threads", "1"]
        cache = ["--cache-dir", str(tmp_path)]
        assert run(capsys, *args, "--limit", "100000", *cache)[0] == EXIT_OK
        files = _files(tmp_path)
        code, out, _ = run(capsys, *args, "--limit", "10000", *cache)
        assert code == EXIT_OK
        assert _files(tmp_path) == files
        assert out == run(capsys, *args, "--limit", "10000")[1]


SWEEP_MODULI = st.sampled_from([2, 4, 6, 8, 10, 12, 30])


@given(m=SWEEP_MODULI, N=st.integers(2, 5000))
@settings(max_examples=25, deadline=None)
def test_cache_round_trip_property(table_1e5, m, N):
    sets = exceptional_sets_for_modulus(m, N, table=table_1e5)
    with tempfile.TemporaryDirectory() as d:
        save_cache_entry(Path(d), m, N, sets)
        assert load_cache_entry(Path(d), m, N) == sets


@given(m=SWEEP_MODULI, N=st.integers(2, 5000), extra=st.integers(0, 5000))
@settings(max_examples=25, deadline=None)
def test_cache_prefix_truncation_property(table_1e5, m, N, extra):
    larger = exceptional_sets_for_modulus(m, N + extra, table=table_1e5)
    with tempfile.TemporaryDirectory() as d:
        save_cache_entry(Path(d), m, N + extra, larger)
        hit = load_cache_entry(Path(d), m, N)
    assert hit == {k: tuple(e for e in v if e <= N) for k, v in larger.items()}
    assert hit == exceptional_sets_for_modulus(m, N, table=table_1e5)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8,
)


def _checksummed(sets) -> dict:
    """A cache document for m = 4 at N = 10^4 whose checksum holds, with
    `sets` as its pair list."""
    payload = {"m": 4, "N": 10**4, "sets": sets}
    return {"schema_version": cli.CACHE_SCHEMA_VERSION, "payload": payload,
            "checksum": cli._payload_checksum(payload)}


@given(doc=JSON_VALUES | JSON_VALUES.map(_checksummed))
@example(doc={"payload": None})
@example(doc=[])
@example(doc="x")
@example(doc=5)
@example(doc=_checksummed(5))
@example(doc=_checksummed([]))
@example(doc=_checksummed([[1, 1, ["2"]], [1, 3, []], [3, 3, []]]))
# sets of the right pairs and types, mod 4 at 10^4, that are not sets of
# the pairs: out of order, a pair twice, an element below 2 or off its
# class, a string for a list
@example(doc=_checksummed([[1, 1, [6, 2]], [1, 3, []], [3, 3, []]]))
@example(doc=_checksummed([[1, 1, [2, 6, 14, 38, 62]], [1, 3, [4]], [3, 3, [2]],
                           [1, 1, [2, 6]]]))
@example(doc=_checksummed([[1, 1, [2, 6, 14, 38, 62]], [1, 3, [4]], [3, 1, []], [3, 3, [2]]]))
@example(doc=_checksummed([[1, 1, [-2, 2, 6, 14, 38, 62]], [1, 3, [4]], [3, 3, [2]]]))
@example(doc=_checksummed([[1, 1, [2, 6, 14, 38, 62, 64]], [1, 3, [4]], [3, 3, [2]]]))
@example(doc=_checksummed([[1, 1, ""], [1, 3, [4]], [3, 3, [2]]]))
@settings(max_examples=40, deadline=None)
def test_cache_file_of_any_json_is_recomputed_property(doc):
    # whatever valid JSON the exact-key file holds, table1 warns once and
    # prints what it prints without a cache
    argv = ["table1", "--m-min", "4", "--m-max", "4", "--limit", "10000", "--threads", "1"]
    uncached, out, err = io.StringIO(), io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(uncached):
        assert main(argv) == EXIT_OK
    with tempfile.TemporaryDirectory() as d:
        path = Path(d, "m4_N10000.json")
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--cache-dir", d])
    assert code == EXIT_OK
    assert out.getvalue() == uncached.getvalue()
    assert err.getvalue().startswith(f"warning: ignoring corrupt cache entry {path}: ")
    assert err.getvalue().count("\n") == 1


@given(m=SWEEP_MODULI, N=st.integers(2, 5000), edit=st.sampled_from(["N", "drop", "add", "M"]))
@settings(max_examples=25, deadline=None)
def test_cache_edited_payload_ignored_property(table_1e5, m, N, edit):
    sets = exceptional_sets_for_modulus(m, N, table=table_1e5)
    with tempfile.TemporaryDirectory() as d:
        save_cache_entry(Path(d), m, N, sets)
        path = next(Path(d).iterdir())
        doc = json.loads(path.read_text())
        payload = doc["payload"]
        if edit == "N":
            payload["N"] += 2
        elif edit == "drop":
            payload["sets"].pop()
        elif edit == "add":
            payload["sets"][-1][2].append(N + 2)
        else:
            payload["M"] = 100
        path.write_text(json.dumps(doc))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            assert load_cache_entry(Path(d), m, N) is None
    assert f"warning: ignoring corrupt cache entry {path}: checksum mismatch" in stderr.getvalue()
