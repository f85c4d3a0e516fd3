#!/usr/bin/env python3
"""Cross-check the two sweep kernels, modulus by modulus.

For each even m in [--m-min, --m-max] at N = --limit, stage 1 of every
unordered pair runs through both sweep kernels: the packed numpy kernel
(partitions._sweep_stage1), off the packed prime table, and the int-bitset
kernel (partitions._bitset_sweep), off the unpacked table of odd flags;
both come from sieve_primes, as a sweep reads them.  The two kernels
share no marking, scanning or tail code, and their candidate lists must
be equal pair by pair.  The table and the flags, which share no packing
code, are checked on their own: sampled entries of each unit class, and
every entry up to 100, are compared with is_prime, whose Miller-Rabin
test shares no code with the sieve.  The entries up to 100 hold 1 and
the primes 3-13 that the sieve's presieve pattern strikes and restores,
where a fault in the sieve that both kernels read would leave the
kernels agreeing.

Prints one line per modulus.  Exits 1 at the first difference, in modulus
order, naming (m, a, b) or the table entry; otherwise it exits as the
apgoldbach CLI does (cli.exit_status).  The moduli are the jobs of a
sweep's plan (partitions.sweep_plan), which sieves nothing: this script
sieves each kind of table once, the plan's kind (args (m, packed)) first,
and the runner (partitions.run_plan) runs the jobs on --threads worker
processes (0 = one per CPU).
"""

import argparse
import math
import random
import sys
import time
from typing import Optional

from apgoldbach import cli, partitions
from apgoldbach.primes import PrimeTable, is_prime, sieve_primes

# Table entries checked against is_prime per unit class of a modulus.
SAMPLES = 32


def check_modulus(m: int, N: int, table: PrimeTable,
                  other: PrimeTable) -> tuple[int, int, Optional[str]]:
    """(pairs compared, table entries sampled, the first difference or
    None) for modulus m at N, off a packed table and one of odd flags, in
    either order."""
    table, unpacked = (table, other) if table.packed else (other, table)
    flags = unpacked.primes()
    units = [a for a in range(1, m) if math.gcd(a, m) == 1]
    rng = random.Random(m)
    sampled = 0
    for b in units:
        entries = range((N - 1 - b) // m + 1)  # b + j*m <= N - 1, the sweep's reach
        small = entries[: max(0, (100 - b) // m + 1)]  # b + j*m <= 100
        for j in [*rng.sample(entries, min(SAMPLES, len(entries))), *small]:
            sampled += 1
            n, i = b + j * m, b // 2 + j * (m // 2)  # i: the odd entry of n
            prime = is_prime(n)
            for name, entry in (("table entry", table.bits[i >> 3] >> (7 - i % 8) & 1),
                                ("odd flag", flags[i])):
                if entry != prime:
                    return 0, sampled, f"{name} {n} (m = {m}, b = {b}) disagrees with is_prime"
    M = partitions.default_stage1_bound(m, N)
    packed = partitions._sweep_stage1(m, N, M, table)
    bitset = partitions._bitset_sweep(m, N, M, unpacked)
    for (a, b), survivors in packed.items():
        if bitset.get((a, b)) != survivors:
            return 0, sampled, (f"(m, a, b) = ({m}, {a}, {b}): the packed kernel leaves "
                                f"{len(survivors)} candidates, the int-bitset kernel "
                                f"{len(bitset.get((a, b), []))}")
    if bitset.keys() != packed.keys():
        return 0, sampled, f"m = {m}: the kernels key different pairs"
    return len(packed), sampled, None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--limit", "-N", type=int, default=2 * 10**5)
    parser.add_argument("--m-min", type=int, default=2)
    parser.add_argument("--m-max", type=int, default=200)
    parser.add_argument("--threads", type=int, default=0)
    args = parser.parse_args()
    config = cli.RunConfig(N=args.limit, m_min=args.m_min, m_max=args.m_max,
                           threads=args.threads)

    start = time.monotonic()
    N = config.N
    jobs = partitions.sweep_plan(N, config.moduli,
                                 lambda m, table: check_modulus(m, N, table, other))
    # both kinds sieved here, before the fork, and the packed one imports
    # numpy for both kernels' workers; each job runs on the plan's kind
    if jobs:
        packed = jobs[0].args[1]
        table, other = sieve_primes(N, packed), sieve_primes(N, not packed)
        jobs = [job._replace(args=(job.args[0], table)) for job in jobs]
    done = partitions.run_plan(jobs, config.worker_count)
    for m, (pairs, sampled, error) in zip(config.moduli, done):
        if error is not None:
            print(f"FAIL {error}")
            return cli.EXIT_FAIL
        print(f"m = {m}: {pairs} pairs agree, {sampled} table entries match is_prime")
    print(f"both kernels agree on m = {args.m_min}..{args.m_max} at N = {N} "
          f"in {time.monotonic() - start:.1f}s")
    return cli.EXIT_OK


if __name__ == "__main__":
    sys.exit(cli.exit_status(main))
