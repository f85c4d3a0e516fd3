import contextlib
import functools
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apgoldbach import cli, partitions
from apgoldbach.cli import (
    EXIT_FAIL,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    compute_sweep,
    load_cache_entry,
    main,
    save_cache_entry,
    table1_document,
    table2_document,
)
from apgoldbach.partitions import exceptional_sets_for_modulus
from apgoldbach.primes import MemoryBudgetError, sieve_primes


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
        assert out.splitlines()[0] == "2 6 14 38 62"

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

    def test_cache_not_read_or_written(self, capsys, tmp_path):
        # survivor counts depend on N and M, so exceptions always computes:
        # a smaller N after a larger one prints its own count
        cache = tmp_path / "cache"
        base = ["exceptions", "--m", "4", "--a", "1", "--b", "1", "-M", "100"]
        run(capsys, *base, "--limit", "100000", "--cache-dir", str(cache))
        code, out, _ = run(capsys, *base, "--limit", "1000", "--cache-dir", str(cache))
        assert code == EXIT_OK
        assert out.splitlines()[1] == (
            "stage-1 bound M = 100, survivors resolved in stage 2 = 5, confirmed = True"
        )
        assert out == run(capsys, *base, "--limit", "1000")[1]
        assert not cache.exists()

    def test_over_budget_limit_usage_error(self, capsys):
        # the budget check runs before anything is allocated: a single
        # pair's memory grows with M, not N, and a sweep's table and class
        # masks grow with N
        for command in (
            ["exceptions", "--m", "4", "--a", "1", "--b", "1",
             "--limit", "3000000000", "-M", "3000000000"],
            ["table1", "--m-min", "2", "--m-max", "4", "--limit", "500000000",
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
        budget = 8 * 2**20
        monkeypatch.setattr(partitions, "DEFAULT_MEMORY_BUDGET_BYTES", budget)
        monkeypatch.setattr(
            partitions, "sieve_primes",
            functools.partial(sieve_primes, memory_budget_bytes=budget),
        )
        command = ["exceptions", "--m", "4", "--a", "3", "--b", "1", "--limit", "100000000"]
        code, out, _ = run(capsys, *command)
        assert code == EXIT_OK
        assert out.splitlines()[0] == "4"
        # a large M widens the window: 3 MB of a-class mask, 3 MB of
        # small-prime indices and a 4 MB window with its 4 MB of packed
        # copies do not fit
        code, out, err = run(capsys, *command, "-M", "12000000")
        assert code == EXIT_USAGE
        assert out == "" and "budget" in err

    def test_threads_do_not_change_output(self, capsys, monkeypatch):
        # short windows split the pair into shares: 2 and 3 workers fork 1
        # and 2 children; -M 300 leaves 329 survivors to stage 2
        monkeypatch.setattr(partitions, "_WINDOW", 1 << 10)
        forks = _count_forks(monkeypatch)
        argv = ["exceptions", "--m", "4", "--a", "1", "--b", "3",
                "--limit", "200000", "-M", "300"]
        outs = []
        for threads in (1, 2, 3):
            code, out, err = run(capsys, *argv, "--threads", str(threads))
            assert (code, err) == (EXIT_OK, "")
            outs.append(out)
        assert outs == [outs[0]] * 3
        assert "survivors resolved in stage 2 = 329," in outs[0]
        assert len(forks) == 3
        _assert_no_children()


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

    def test_json_round_trip(self, capsys):
        config = RunConfig(N=10**4, m_min=2, m_max=6, threads=1)
        doc = table1_document(compute_sweep(config), "json")
        reloaded = json.loads(doc)
        assert json.dumps(reloaded, indent=2) + "\n" == doc

    def test_thread_count_does_not_change_output(self):
        serial = compute_sweep(RunConfig(N=10**4, m_min=2, m_max=10, threads=1))
        parallel = compute_sweep(RunConfig(N=10**4, m_min=2, m_max=10, threads=4))
        assert table1_document(serial) == table1_document(parallel)
        assert table2_document(serial) == table2_document(parallel)

    def test_auto_worker_count_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert RunConfig(threads=0).worker_count == 3
        assert RunConfig(threads=5).worker_count == 5
        monkeypatch.delattr(os, "sched_getaffinity")
        assert RunConfig(threads=0).worker_count == 8

    def test_pool_capped_at_missing_moduli(self, monkeypatch):
        # one share per worker and no more shares than moduli: two moduli
        # on eight workers run in this process and one child
        forks = _count_forks(monkeypatch)
        sweep = compute_sweep(RunConfig(N=10**4, m_min=4, m_max=6, threads=8))
        assert len(forks) == 1
        assert sweep == compute_sweep(RunConfig(N=10**4, m_min=4, m_max=6, threads=1))
        _assert_no_children()

    def test_moduli_dealt_heaviest_first(self):
        # phi(m)^2/m: m = 8 costs 2, m = 4 costs 1, m = 6 and m = 2 less
        jobs = [(m, 100, 10, 0) for m in (2, 4, 6, 8)]
        shares = cli._modulus_shares(jobs, 3)
        assert [[job[0] for job in share] for share in shares] == [[8], [4], [6, 2]]
        assert [job[0] for job in cli._modulus_shares(jobs, 1)[0]] == [8, 4, 6, 2]

    def test_reused_worker_table_checks_budget(self, monkeypatch):
        # the sweep's one table reserves its largest index: a sweep of
        # m = 30 fits a 1 MiB budget beside its table, and one of m = 2,
        # run next in the same process, does not
        monkeypatch.setattr(
            cli, "sieve_primes", functools.partial(sieve_primes, memory_budget_bytes=2**20)
        )
        assert compute_sweep(RunConfig(N=10**6, m_min=30, m_max=30, threads=1))
        with pytest.raises(MemoryBudgetError, match="reserved"):
            compute_sweep(RunConfig(N=10**6, m_min=2, m_max=2, threads=1))

    def test_sweep_sieves_once_before_it_forks(self, monkeypatch):
        # the parent sieves the one table and the workers inherit it: a
        # sieve in a child would fail the sweep
        parent, events = os.getpid(), []
        sieve, fork = cli.sieve_primes, os.fork

        def recorded_sieve(*args, **kwargs):
            if os.getpid() != parent:
                raise AssertionError("a worker sieved")
            events.append("sieve")
            return sieve(*args, **kwargs)

        def recorded_fork():
            events.append("fork")
            return fork()

        monkeypatch.setattr(cli, "sieve_primes", recorded_sieve)
        monkeypatch.setattr(os, "fork", recorded_fork)
        sweep = compute_sweep(RunConfig(N=10**4, m_min=4, m_max=6, threads=2))
        assert events == ["sieve", "fork"]
        assert sweep == compute_sweep(RunConfig(N=10**4, m_min=4, m_max=6, threads=1))
        _assert_no_children()


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
    cli.main(argv) in a fresh interpreter; an empty argv only imports."""
    code = textwrap.dedent(f"""\
        import contextlib, io, json, sys
        from apgoldbach import cli
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main({argv!r}) if {argv!r} else 0
        print(json.dumps([rc, sorted(set(sys.modules) & {modules!r}), out.getvalue()]))
    """)
    return json.loads(_fresh_python(code))


@pytest.mark.parametrize("caller,seen", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")])
def test_blas_threads_default_to_one_unless_set(caller, seen):
    # pytest has loaded numpy before any test runs, so only a fresh
    # interpreter shows the setting made before numpy's import
    code = "import os, apgoldbach.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh_python(code, **caller) == seen + "\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
def test_cli_import_starts_no_thread():
    # numpy's OpenBLAS starts a helper thread unless told to use one
    # thread; the CLI imports numpy when it first computes, so count after
    # an engine command
    code = textwrap.dedent("""\
        import contextlib, io, os, sys
        from apgoldbach import cli
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["verify", "conj2", "--limit", "1000"])
        print(rc, "numpy" in sys.modules, len(os.listdir("/proc/self/task")))
    """)
    assert _fresh_python(code) == "0 True 1\n"


@pytest.mark.parametrize("module", ["apgoldbach", "apgoldbach.cli"])
def test_import_loads_no_engine(module):
    code = f"import sys, {module}; print(sorted(set(sys.modules) & {ENGINE_MODULES!r}))"
    assert _fresh_python(code) == "[]\n"


def test_public_names_load_on_first_access():
    code = textwrap.dedent("""\
        import apgoldbach
        names = [getattr(apgoldbach, name).__module__ for name in apgoldbach.__all__]
        print(apgoldbach.__all__)
        print(sorted(set(names)), set(apgoldbach.__all__) <= set(dir(apgoldbach)))
        try:
            apgoldbach.no_such_name
        except AttributeError as exc:
            print(exc)
    """)
    assert _fresh_python(code) == (
        "['AdmissiblePair', 'ExceptionalSet', 'PartitionWitness', 'PrimeTable', "
        "'exceptional_set', 'exceptional_sets_for_modulus', 'find_witness', 'is_prime', "
        "'sieve_primes']\n"
        "['apgoldbach.partitions', 'apgoldbach.primes'] True\n"
        "module 'apgoldbach' has no attribute 'no_such_name'\n"
    )


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A cache holding m <= 50 at N = 10^4."""
    cache = tmp_path_factory.mktemp("warm")
    compute_sweep(RunConfig(N=10**4, m_min=2, m_max=50, threads=1, cache_dir=cache))
    return cache


@pytest.mark.parametrize("argv", [["table2"], ["figures"], ["verify", "asy"]])
def test_warm_cache_loads_no_engine(capsys, tmp_path, warm_cache, argv):
    # each reads m <= 50 off the cache and computes nothing
    args = [*argv, "--limit", "10000", "--threads", "1"]
    if argv == ["figures"]:
        args += ["--output-dir", str(tmp_path)]
    code, uncached, _ = run(capsys, *args)
    figures = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    for p in tmp_path.iterdir():
        p.unlink()
    assert code == EXIT_OK
    assert _fresh_cli([*args, "--cache-dir", str(warm_cache)]) == [EXIT_OK, [], uncached]
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == figures


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


LAZY_MODULES = ENGINE_MODULES | {"apgoldbach.heuristics", "apgoldbach.summaries", "fractions",
                                 "decimal", "concurrent.futures", "multiprocessing"}
SUMMARIES = {"apgoldbach.summaries", "decimal", "fractions"}


@pytest.mark.parametrize("argv,loaded", [
    ([], []),
    (["verify", "conj2", "--limit", "1000"], sorted(ENGINE_MODULES)),
    (["exceptions", "--m", "4", "--a", "1", "--b", "1", "--limit", "1000"],
     sorted(ENGINE_MODULES)),
    (["table1", "--m-max", "6", "--limit", "1000", "--threads", "1"],
     sorted(ENGINE_MODULES | SUMMARIES)),
    # both fork one worker
    (["table1", "--m-max", "6", "--limit", "1000", "--threads", "2"],
     sorted(ENGINE_MODULES | SUMMARIES)),
    (["exceptions", "--m", "4", "--a", "1", "--b", "1", "--limit", "30000000",
      "--threads", "2"], sorted(ENGINE_MODULES)),
    # the model alone: numpy, but neither partitions nor primes
    (["heuristic", "--m", "10", "--limit", "1000"],
     sorted(SUMMARIES | {"apgoldbach.heuristics", "numpy"})),
])
def test_subcommand_loads_only_the_modules_it_runs(argv, loaded):
    # import alone (argv []) loads none of LAZY_MODULES
    assert _fresh_cli(argv, LAZY_MODULES)[:2] == [EXIT_OK, loaded]


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


class TestVerify:
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

    def test_unknown_target(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "conj9"])
        assert exc.value.code == EXIT_USAGE


class TestHeuristic:
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
        assert "r = 1" in out
        assert "E[W] = 1.000000" in out

    def test_odd_m_usage_error(self, capsys):
        code, _, err = run(capsys, "heuristic", "--m", "5", "--limit", "10000")
        assert code == EXIT_USAGE

    def test_seed_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["heuristic", "--m", "4", "--seed", "1"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("command", [["heuristic", "--m", "10"], ["table1"]])
    def test_cache_io_error_exits_3(self, capsys, tmp_path, command):
        # the cache directory cannot be made under a regular file; the
        # observed comparison does not swallow that
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run(
            capsys, *command, "--limit", "10000", "--threads", "1",
            "--cache-dir", str(blocker / "cache"),
        )
        assert code == EXIT_IO
        assert out == ""
        assert err.startswith("I/O error:")

    @pytest.mark.parametrize("command", [["heuristic", "--m", "10"], ["table1"]])
    def test_over_budget_exits_2(self, capsys, monkeypatch, tmp_path, command):
        # a 1 KB budget stands in for an over-budget --limit, so that the
        # model's truncated sum stays small
        monkeypatch.setattr(
            cli, "sieve_primes", functools.partial(sieve_primes, memory_budget_bytes=1000)
        )
        code, out, err = run(
            capsys, *command, "--limit", "10000", "--threads", "1",
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
    monkeypatch.setattr(partitions, "_WINDOW", 1 << 10)

    def over_budget(fn):
        def wrapped(*args, **kwargs):
            if (os.getpid() == parent) == (where == "parent") and args[0] != 1:
                raise MemoryBudgetError(f"over the budget in the {where}")
            return fn(*args, **kwargs)
        return wrapped

    # the pair sieves its a-class (1 mod 4) here before it forks; its
    # b-windows (3 mod 4) and the sweep's moduli run in both processes
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


def _files(path: Path) -> list[tuple[str, int]]:
    return sorted((p.name, p.stat().st_size) for p in path.iterdir())


class TestCache:
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

    def test_parallel_sweep_fills_and_reads_cache(self, tmp_path):
        plain = table1_document(compute_sweep(RunConfig(N=10**4, m_max=10, threads=1)))
        cached = RunConfig(N=10**4, m_max=10, threads=2, cache_dir=tmp_path)
        assert table1_document(compute_sweep(cached)) == plain  # cold: every modulus misses
        # one file per modulus m = 2, 4, ..., 10
        assert [name for name, _ in _files(tmp_path)] == [
            f"m{m}_N10000.json" for m in (10, 2, 4, 6, 8)
        ]
        assert table1_document(compute_sweep(cached)) == plain  # warm: every modulus hits

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
@example(doc=[])
@example(doc="x")
@example(doc=5)
@example(doc=_checksummed(5))
@example(doc=_checksummed([]))
@example(doc=_checksummed([[1, 1, ["2"]], [1, 3, []], [3, 3, []]]))
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
