"""Run every workload untraced and traced, print every metric, and write a record.

    python3 perfbench/record.py [--seed 0] [--out perfbench/BENCH_baseline.json]

Run from the root of a checkout.  The record holds, per workload, the result
of run.py with --trace 0 and with --trace 1, error_rate (failed / attempted),
and the machine facts and src/ line count that a later record is compared
against.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    record = {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "src_lines": sum(len(p.read_text().splitlines()) for p in Path("src").rglob("*.py")),
        "seed": args.seed,
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        entry = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(trace)],
                capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            result["error_rate"] = result["failed"] / result["attempted"]
            entry["traced" if trace else "untraced"] = result
            for name, metric in result["metrics"].items():
                print(f"{workload:7} {name:30} {metric['value']:>16.6g} {metric['unit']}")
            print(f"{workload:7} {'error_rate':30} {result['error_rate']:>16.6g} "
                  f"({result['failed']}/{result['attempted']})", flush=True)
        record["workloads"][workload] = entry
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
