import contextlib
import functools
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apgoldbach import cli
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
from apgoldbach.primes import sieve_primes


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        # the budget check runs before the sieve allocates anything
        code, out, err = run(
            capsys, "exceptions", "--m", "4", "--a", "1", "--b", "1",
            "--limit", "3000000000",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and "budget" in err


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
        monkeypatch.setattr(cli, "_WORKER_TABLE", {})
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


def _files(path: Path) -> list[tuple[str, int]]:
    return sorted((p.name, p.stat().st_size) for p in path.iterdir())


class TestCache:
    def test_round_trip(self, tmp_path, table_1e5):
        sets = exceptional_sets_for_modulus(8, 10**4, table=table_1e5)
        save_cache_entry(tmp_path, 8, 10**4, sets)
        assert [p.name for p in tmp_path.iterdir()] == ["m8_N10000.json"]
        assert load_cache_entry(tmp_path, 8, 10**4) == sets

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
