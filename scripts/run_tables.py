#!/usr/bin/env python3
"""Full reproduction run: tables and figure data for a modulus range.

Writes table1.csv, table2.csv, fig1.csv, fig2.csv into --output-dir.
The desk-scale defaults (m <= 50, N = 10^6) finish in well under a
minute on a few cores; raise --limit and --m-max for the long run.
Exits as the apgoldbach CLI does (cli.exit_status).
"""

import argparse
import sys
import time
from pathlib import Path

from apgoldbach.cli import (
    EXIT_OK,
    RunConfig,
    compute_sweep,
    exit_status,
    figure_documents,
    table_document,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--limit", "-N", type=int, default=10**6)
    parser.add_argument("--m-min", type=int, default=2)
    parser.add_argument("--m-max", type=int, default=50)
    parser.add_argument("--threads", type=int, default=0)
    parser.add_argument("--cache-dir", type=Path, default=None)
    parser.add_argument("--output-dir", type=Path, default=Path("out"))
    args = parser.parse_args()

    config = RunConfig(
        N=args.limit,
        m_min=args.m_min,
        m_max=args.m_max,
        cache_dir=args.cache_dir,
        threads=args.threads,
    )
    args.output_dir.mkdir(parents=True, exist_ok=True)

    start = time.monotonic()
    sweep = compute_sweep(config)
    for which in ("table1", "table2"):
        (args.output_dir / f"{which}.csv").write_text(table_document(which, sweep))
    fig1, fig2 = figure_documents(sweep)
    (args.output_dir / "fig1.csv").write_text(fig1)
    (args.output_dir / "fig2.csv").write_text(fig2)
    print(
        f"wrote 4 documents to {args.output_dir} "
        f"(m = {args.m_min}..{args.m_max}, N = {args.limit}) "
        f"in {time.monotonic() - start:.1f}s"
    )
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(exit_status(main))
