import json
from pathlib import Path

import pytest

from apgoldbach.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    load_cache_entry,
    main,
    save_cache_entry,
    table1_document,
    table2_document,
)
from apgoldbach.partitions import AdmissiblePair, exceptional_set


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
        config = RunConfig(N=10**4, m_min=2, m_max=6, output_format="json", threads=1)
        doc = table1_document(config)
        reloaded = json.loads(doc)
        assert json.dumps(reloaded, indent=2) + "\n" == doc

    def test_thread_count_does_not_change_output(self):
        serial = RunConfig(N=10**4, m_min=2, m_max=10, threads=1)
        parallel = RunConfig(N=10**4, m_min=2, m_max=10, threads=4)
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


class TestCache:
    def test_round_trip(self, tmp_path, table_1e5):
        es = exceptional_set(AdmissiblePair(1, 1, 4), 10**4, M=10**4, table=table_1e5)
        save_cache_entry(tmp_path, es)
        hit = load_cache_entry(tmp_path, 4, 1, 1, 10**4, 10**4)
        assert hit is not None
        assert hit.elements == es.elements

    def test_prefix_reuse(self, tmp_path, table_1e5):
        es = exceptional_set(AdmissiblePair(1, 1, 4), 10**4, M=10**3, table=table_1e5)
        save_cache_entry(tmp_path, es)
        hit = load_cache_entry(tmp_path, 4, 1, 1, 100, 10**3)
        assert hit is not None
        assert hit.elements == tuple(e for e in es.elements if e <= 100)

    def test_exact_hit_skips_glob(self, monkeypatch, tmp_path, table_1e5):
        for N in (100, 10**4):
            es = exceptional_set(AdmissiblePair(1, 1, 4), N, M=100, table=table_1e5)
            save_cache_entry(tmp_path, es)
        globs = []
        glob = Path.glob
        monkeypatch.setattr(
            Path, "glob", lambda self, pattern: globs.append(pattern) or glob(self, pattern)
        )
        hit = load_cache_entry(tmp_path, 4, 1, 1, 100, 100)
        assert hit is not None and hit.elements == (2, 6, 14, 38, 62)
        assert globs == []
        # no entry at N = 1000: the glob finds the N = 10^4 run's prefix
        hit = load_cache_entry(tmp_path, 4, 1, 1, 1000, 100)
        assert hit is not None and hit.search_limit == 1000
        assert hit.elements == (2, 6, 14, 38, 62)
        assert len(globs) == 1

    def test_corrupt_entry_ignored(self, tmp_path, table_1e5, capsys):
        es = exceptional_set(AdmissiblePair(1, 1, 4), 10**4, M=10**4, table=table_1e5)
        save_cache_entry(tmp_path, es)
        path = next(tmp_path.glob("*.json"))
        doc = json.loads(path.read_text())
        doc["payload"]["elements"] = [999]
        path.write_text(json.dumps(doc))
        assert load_cache_entry(tmp_path, 4, 1, 1, 10**4, 10**4) is None
        assert "corrupt" in capsys.readouterr().err

    def test_schema_version_mismatch_ignored(self, tmp_path, table_1e5):
        es = exceptional_set(AdmissiblePair(1, 1, 4), 10**4, M=10**4, table=table_1e5)
        save_cache_entry(tmp_path, es)
        path = next(tmp_path.glob("*.json"))
        doc = json.loads(path.read_text())
        doc["schema_version"] = 999
        path.write_text(json.dumps(doc))
        assert load_cache_entry(tmp_path, 4, 1, 1, 10**4, 10**4) is None

    def test_parallel_sweep_fills_and_reads_cache(self, tmp_path):
        plain = RunConfig(N=10**4, m_min=2, m_max=10, threads=1)
        cached = RunConfig(N=10**4, m_min=2, m_max=10, threads=2, cache_dir=tmp_path)
        expected = table1_document(plain)
        assert table1_document(cached) == expected  # cold: every modulus misses
        # one entry per ordered pair: phi(m)^2 summed over m = 2, 4, ..., 10
        assert len(list(tmp_path.glob("*.json"))) == 1 + 4 + 4 + 16 + 16
        assert table1_document(cached) == expected  # warm: every modulus hits

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
