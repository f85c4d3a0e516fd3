"""Benchmark of the apgoldbach CLI, run from the root of a checkout:

    python3 perfbench/run.py --workload desk --seed 0 --seconds 10 --trace 0

Workloads (W = the number of CPUs this process may use, as nproc reports):

    desk    table1 for even m <= 50 at N = 10^6 on W workers, then heuristic --m 50
    verify  verify conj2, conj3 and ternary, each at N = 5 * 10^6
    deep    exceptions --m 4 --a A --b B at N = 2 * 10^8; the seed picks (A, B)
    rerun   table1, table2 and figures for m <= 30 at N = 10^6 on W workers,
            sharing one fresh cache directory set through APGOLDBACH_CACHE_DIR

Each command is an operation; it fails on a non-zero exit or an output that
fails its check in checks.py.  Only rerun sees APGOLDBACH_CACHE_DIR.

--trace 0 repeats whole workload iterations, each one `sh` process that runs
the commands as fresh CLI processes, until --seconds have passed.  It reports
the medians of wall time, user+sys CPU time and peak RSS of the iteration's
process tree (from os.wait4 on that `sh`), and setup_s, the median wall time of
fresh interpreters that import apgoldbach.cli and exit.

--trace 1 runs the commands once untraced and once traced in-process with
--threads 1, so that every span lands in one process (see inprocess.py), and
reports the per-layer metrics, among them trace.overhead_s, the traced minus
the untraced wall time.  When the workload has per-modulus tasks, one more
untraced CLI iteration on W workers gives cli.pool_efficiency: the traced task
time divided by W times that iteration's wall time.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; metric names and units come from BENCHMARK.json.
"""

import argparse
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Iterator

import checks

ROOT = Path.cwd()
SRC = ROOT / "src"
TABLES = ROOT / "tests" / "data"
SCRATCH = ROOT / ".perfbench_tmp"
HERE = Path(__file__).resolve().parent
WORKERS = len(os.sched_getaffinity(0))
DEEP_PAIRS = ((1, 1), (1, 3), (3, 1), (3, 3))
DEEP_LIMIT = 2 * 10**8
SETUP_REPEATS = 9
CACHE_ENV_VAR = "APGOLDBACH_CACHE_DIR"


@dataclass
class Command:
    argv: list[str]
    check: checks.Check


def workload_commands(workload: str, seed: int, workdir: Path, threads: int) -> list[Command]:
    if workload == "desk":
        return [
            Command(["table1", "--m-min", "2", "--m-max", "50", "--limit", "1000000",
                     "--threads", str(threads)],
                    checks.equals((TABLES / "table1_m50.csv").read_text())),
            Command(["heuristic", "--m", "50"], checks.equals(checks.HEURISTIC_M50)),
        ]
    if workload == "verify":
        return [Command(["verify", target, "--limit", "5000000"], check)
                for target, check in (("conj2", checks.verify_conj2),
                                      ("conj3", checks.verify_conj3),
                                      ("ternary", checks.verify_ternary))]
    if workload == "deep":
        a, b = DEEP_PAIRS[seed % len(DEEP_PAIRS)]
        return [Command(["exceptions", "--m", "4", "--a", str(a), "--b", str(b),
                         "--limit", str(DEEP_LIMIT)], checks.deep(a, b, DEEP_LIMIT))]
    if workload == "rerun":
        sweep = ["--m-min", "2", "--m-max", "30", "--limit", "1000000", "--threads", str(threads)]
        table1 = checks.table_prefix(TABLES / "table1_m50.csv", 30)
        table2 = checks.table_prefix(TABLES / "table2_m50.csv", 30)
        figdir = workdir / "figures"
        return [
            Command(["table1", *sweep], checks.equals(table1)),
            Command(["table2", *sweep], checks.equals(table2)),
            Command(["figures", *sweep, "--output-dir", str(figdir)],
                    checks.fig1_matches(table1, figdir)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def command_env(workload: str, workdir: Path) -> dict[str, str]:
    """The CLI's environment: src/ on the path, and a cache directory in
    workdir for rerun only."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop(CACHE_ENV_VAR, None)
    if workload == "rerun":
        env[CACHE_ENV_VAR] = str(workdir / "cache")
    return env


@contextmanager
def scratch_dir() -> Iterator[Path]:
    SCRATCH.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        yield path
    finally:
        shutil.rmtree(path)


@dataclass
class Usage:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_tree(argv: list[str], env: dict[str, str], cwd: Path) -> Usage:
    """Run argv and wait for it; usage covers every descendant it waited for."""
    start = perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL)
    _, status, ru = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Usage(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024)


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, cmd: Command, rc, stdout: str, label: str) -> None:
        self.attempted += 1
        reason = f"exit code {rc}" if rc != 0 else cmd.check(stdout)
        if reason is not None:
            self.failed += 1
            print(f"FAIL {label} {shlex.join(cmd.argv)}: {reason}", file=sys.stderr)


def cli_iteration(workload: str, seed: int, threads: int, tally: Tally) -> Usage:
    """One workload iteration: the commands as fresh CLI processes under one sh."""
    with scratch_dir() as workdir:
        cmds = workload_commands(workload, seed, workdir, threads)
        cli = [sys.executable, "-m", "apgoldbach.cli"]
        script = "; ".join(
            f"{shlex.join(cli + c.argv)} >{i}.out 2>{i}.err; echo $? >{i}.rc"
            for i, c in enumerate(cmds))
        usage = run_tree(["sh", "-c", script], command_env(workload, workdir), workdir)
        for i, c in enumerate(cmds):
            rc = int((workdir / f"{i}.rc").read_text())
            if rc != 0:
                sys.stderr.write((workdir / f"{i}.err").read_text())
            tally.record(c, rc, (workdir / f"{i}.out").read_text(), workload)
    return usage


def measure_setup() -> float:
    argv = [sys.executable, "-c", "import apgoldbach.cli"]
    env = command_env("", ROOT)
    subprocess.run(argv, env=env, check=True)  # compiles bytecode
    return statistics.median(run_tree(argv, env, ROOT).wall_s for _ in range(SETUP_REPEATS))


def end_to_end(workload: str, seed: int, seconds: float, tally: Tally) -> dict[str, float]:
    setup_s = measure_setup()
    runs: list[Usage] = []
    start = perf_counter()
    while not runs or perf_counter() - start < seconds:
        runs.append(cli_iteration(workload, seed, WORKERS, tally))
    walls = sorted(u.wall_s for u in runs)
    n = len(walls)
    tail = (f"p{100 * (n - 10) / n:.4g} {walls[n - 11]:.4f} s" if n > 10
            else "no percentile has 10 samples beyond it")
    print(f"{workload}: wall_s median {statistics.median(walls):.4f} s, {tail}, "
          f"n = {n}; error_rate {tally.failed}/{tally.attempted}")
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(u.cpu_s for u in runs),
        "peak_rss_mb": statistics.median(u.peak_rss_mb for u in runs),
        "setup_s": setup_s,
    }


def in_process(workload: str, seed: int, trace: bool, tally: Tally) -> tuple[Usage, dict]:
    """Run the workload once through inprocess.py; the result gains the cache
    directory's file count and size."""
    with scratch_dir() as workdir:
        cmds = workload_commands(workload, seed, workdir, threads=1)
        spec = workdir / "spec.json"
        spec.write_text(json.dumps({"commands": [c.argv for c in cmds], "trace": trace}))
        result_path = workdir / "result.json"
        usage = run_tree([sys.executable, str(HERE / "inprocess.py"), str(spec), str(result_path)],
                         command_env(workload, workdir), workdir)
        result = json.loads(result_path.read_text())
        label = f"{workload} in-process{' traced' if trace else ''}"
        for c, out in zip(cmds, result["outputs"], strict=True):
            tally.record(c, out["rc"], out["stdout"], label)
        cache = [p for p in (workdir / "cache").rglob("*") if p.is_file()]
        result["layers"]["cli.cache_files"] = len(cache)
        result["layers"]["cli.cache_bytes"] = sum(p.stat().st_size for p in cache)
    return usage, result


def per_layer(workload: str, seed: int, tally: Tally) -> dict[str, float]:
    plain, _ = in_process(workload, seed, False, tally)
    traced, result = in_process(workload, seed, True, tally)
    layers = result["layers"]
    table_bytes = layers["primes.table_bytes"]
    layers["primes.rss_per_table_byte"] = (
        plain.peak_rss_mb * 2**20 / table_bytes if table_bytes else 0.0)
    pool_efficiency = 0.0
    if layers["cli.modulus_tasks"]:
        wall = cli_iteration(workload, seed, WORKERS, tally).wall_s
        pool_efficiency = result["task_s"] / (WORKERS * wall)
    layers["cli.pool_efficiency"] = pool_efficiency
    layers["trace.overhead_s"] = traced.wall_s - plain.wall_s
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("desk", "verify", "deep", "rerun"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    missing = [p for p in (spec_path, SRC / "apgoldbach" / "cli.py",
                           TABLES / "table1_m50.csv", TABLES / "table2_m50.csv")
               if not p.is_file()]
    if missing:
        print(f"error: run from the repository root; missing {missing[0]}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    tally = Tally()
    if args.trace:
        values = per_layer(args.workload, args.seed, tally)
    else:
        values = end_to_end(args.workload, args.seed, args.seconds, tally)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
