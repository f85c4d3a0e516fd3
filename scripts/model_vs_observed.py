#!/usr/bin/env python3
"""Compare the coupon-collector model against computed exceptional sets.

For each even modulus, prints the model quantities (r, expected mean set
length from the truncated sum, the r^(1/delta)/(2m) bound) next to the
observed per-pair mean length and largest exception.  No tolerance is
asserted; the columns are labeled model vs observed for inspection.
Exits as the apgoldbach CLI does (cli.exit_status).
"""

import argparse
import sys

from apgoldbach.cli import EXIT_OK, RunConfig, compute_sweep, exit_status
from apgoldbach.heuristics import CouponModel, expected_exception_length, predict_bounds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--limit", "-N", type=int, default=10**6)
    parser.add_argument("--m-min", type=int, default=4)
    parser.add_argument("--m-max", type=int, default=50)
    parser.add_argument("--delta", type=float, default=0.5)
    parser.add_argument("--c", type=float, default=1.0)
    parser.add_argument("--threads", type=int, default=0)
    args = parser.parse_args()

    config = RunConfig(N=args.limit, m_min=args.m_min, m_max=args.m_max, threads=args.threads)
    lines = ["m,r,model_mean_length,model_length_bound,model_emax_bound,"
             "observed_L_avg,observed_E_max"]
    for m, summary in compute_sweep(config).items():
        model = CouponModel.for_modulus(m)
        est = expected_exception_length(m, args.limit)
        pred = predict_bounds(m, args.c, args.delta)
        s = summary.unrestricted
        lines.append(
            f"{m},{model.r},{est.value:.4f},{pred.expected_length:.4f},"
            f"{pred.e_max_bound:.1f},{s.e_count_mult / s.pairs:.4f},{s.e_max}"
        )
    print("\n".join(lines))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(exit_status(main))
