"""Command-line front end.

Subcommands: exceptions, table1, table2, figures, verify, heuristic.
Exit codes: 0 success/PASS, 1 verification FAIL, 2 usage error, 3 I/O
error, 4 internal error (a dead worker, an engine bug); SIGINT or SIGTERM
ends a run with exit 128 + signal (main_and_exit).
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, NoReturn, Optional

# The engine (partitions and primes, and numpy where the packed kernel
# runs) is imported only where stage 1 runs, so that a sweep whose every
# modulus is cached or derived never loads it; summaries and heuristics
# are imported where they are used, so that `exceptions` and the engine
# `verify` targets never load them and `heuristic` loads summaries only
# with a cache directory; json only by the cache and the JSON tables
if TYPE_CHECKING:
    from .partitions import AdmissiblePair, Job
    from .primes import PrimeTable
    from .summaries import ModulusSets, ModulusSummary

CACHE_ENV_VAR = "APGOLDBACH_CACHE_DIR"
CACHE_SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


class RunConfig:
    """The settings of one run, checked when it is made."""

    def __init__(self, N: int = 10**7, m_min: int = 2, m_max: int = 200,
                 cache_dir: Optional[Path] = None, threads: int = 0):
        if N < 2:
            raise ValueError(f"search limit must be >= 2, got {N}")
        if m_min % 2 or m_max % 2:
            raise ValueError("modulus range endpoints must be even")
        if m_min < 2 and m_min <= m_max:  # a non-empty range
            raise ValueError(f"moduli must be >= 2, got m_min = {m_min}")
        if threads < 0:
            raise ValueError("threads must be >= 0")
        self.N = N
        self.m_min = m_min
        self.m_max = m_max
        self.cache_dir = cache_dir
        self.threads = threads

    def replace(self, **changes) -> RunConfig:
        """A copy with `changes`, checked like a new config."""
        return RunConfig(**{**vars(self), **changes})

    @property
    def moduli(self) -> list[int]:
        return list(range(self.m_min, self.m_max + 1, 2))

    @property
    def worker_count(self) -> int:
        """`threads`, or else the CPUs this process may run on."""
        if self.threads > 0:
            return self.threads
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Cache


def _payload_checksum(payload: dict) -> str:
    import hashlib  # here, so that starting the CLI does not load it
    import json

    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _cache_path(cache_dir: Path, m: int, N: int) -> Path:
    return cache_dir / f"m{m}_N{N}.json"


def save_cache_entry(cache_dir: Path, m: int, N: int, sets: ModulusSets) -> None:
    """Write the sweep of modulus m at N as one checksummed file, one
    [a, b, elements] entry per unordered pair a <= b."""
    import json

    payload = {
        "m": m,
        "N": N,
        "sets": [
            [a, b, list(elements)] for (a, b), elements in sets.items() if a <= b
        ],
    }
    doc = {
        "schema_version": CACHE_SCHEMA_VERSION,
        "payload": payload,
        "checksum": _payload_checksum(payload),
    }
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = _cache_path(cache_dir, m, N)
    # a name no other live process writes, so runs sharing the directory
    # never rename each other's file away
    tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(doc))
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _cache_candidates(cache_dir: Path, m: int, N: int) -> Iterator[Path]:
    """The exact-key path, then the other N of the same m in name order.
    Callers stop at the first valid entry, so the directory is globbed
    only when the exact path is missing or invalid."""
    exact = _cache_path(cache_dir, m, N)
    yield exact
    for p in sorted(cache_dir.glob(f"m{m}_N*.json")):
        if p != exact:
            yield p


def _payload_sets(rows, m: int, N: int) -> ModulusSets:
    """The ordered-pair sets of a payload's [a, b, elements] rows, cut at
    N.  ValueError or TypeError unless the rows list each pair of units mod
    m once, each with a list of integers n >= 2, n = a + b (mod m), in
    strictly ascending order."""
    import bisect

    sets: ModulusSets = {}
    for a, b, elements in rows:
        if not (type(a) is type(b) is int and type(elements) is list) or (a, b) in sets:
            raise ValueError(f"row [{a!r}, {b!r}, ...] is malformed or repeated")
        last = 1
        for n in elements:
            if type(n) is not int or n <= last or (n - a - b) % m:
                raise ValueError(f"element {n!r} of ({a}, {b}) is out of order or class")
            last = n
        sets[(a, b)] = sets[(b, a)] = tuple(elements[:bisect.bisect_right(elements, N)])
    units = [a for a in range(1, m) if math.gcd(a, m) == 1]
    if sets.keys() != {(a, b) for a in units for b in units}:
        raise ValueError(f"pairs do not match m = {m}")
    return sets


def load_cache_entry(cache_dir: Path, m: int, N: int) -> Optional[ModulusSets]:
    """The cached sweep of modulus m at N, keyed by ordered pair, or None.

    The elements do not depend on the stage-1 bound, so it is no part of
    the key, and a file at N' >= N serves N: each sorted element list
    truncates to a prefix.  Entries of another (integer) schema version
    are skipped; any other entry that does not hold a sweep of m (bad
    JSON, no integer schema_version, a checksum mismatch, a payload of
    the wrong shape) is ignored with a warning.
    """
    import json

    for path in _cache_candidates(cache_dir, m, N):
        if not path.is_file():
            continue
        try:
            doc = json.loads(path.read_text())
            if not isinstance(doc, dict):
                raise ValueError("not a JSON object")
            payload = doc["payload"]
            version = doc.get("schema_version")
            if type(version) is not int:
                raise ValueError(f"schema_version {version!r} is not an integer")
            if version != CACHE_SCHEMA_VERSION:
                continue
            if doc.get("checksum") != _payload_checksum(payload):
                raise ValueError("checksum mismatch")
            if payload["m"] != m or payload["N"] < N:
                continue
            return _payload_sets(payload["sets"], m, N)
        except (ValueError, KeyError, TypeError) as exc:
            print(f"warning: ignoring corrupt cache entry {path}: {exc}", file=sys.stderr)
    return None


# ---------------------------------------------------------------------------
# Per-modulus computation


def exceptional_sets_for_modulus(m: int, N: int, table: PrimeTable) -> ModulusSets:
    """partitions.exceptional_sets_for_modulus, called through this name so
    that perfbench/inprocess.py can patch it to time each modulus."""
    from . import partitions

    return partitions.exceptional_sets_for_modulus(m, N, table=table)


def _summarized(m: int, sets: ModulusSets, derived: list[int], miss: Optional[RunConfig] = None):
    """The summary of modulus m, and its sets while m/2 is still to be
    derived from them; a miss of the sweep `miss` is cached first."""
    from . import summaries  # no numpy: deriving a miss loads no engine

    if miss is not None and miss.cache_dir is not None:
        save_cache_entry(miss.cache_dir, m, miss.N, sets)
    return summaries.summarize_modulus(sets, m), sets if m // 2 in derived else None


def plan_sweep(config: RunConfig) -> tuple[dict, list[Job], list[int]]:
    """The plan of a sweep, (cached, jobs, derived), giving every modulus in
    range one source: `cached` maps each cache hit at N' >= N, read once,
    ascending, to _summarized of it; `jobs` compute each miss whose double
    2m is out of range (partitions.sweep_plan: its budget checked, args (m,
    packed)); `derived` lists, ascending, every other miss.  It sieves,
    forks and writes nothing, and without jobs loads no engine."""
    N, cache_dir = config.N, config.cache_dir
    cached, computed, derived = {}, [], []
    for m in config.moduli:
        sets = None if cache_dir is None else load_cache_entry(cache_dir, m, N)
        if sets is not None:
            cached[m] = _summarized(m, sets, derived)
        else:
            (computed if 2 * m > config.m_max else derived).append(m)
    jobs = []
    if computed:
        from . import partitions
        jobs = partitions.sweep_plan(N, computed, lambda m, table: _summarized(
            m, exceptional_sets_for_modulus(m, N, table), derived, config))
    return cached, jobs, derived


def run_sweep(config: RunConfig, plan: tuple) -> dict[int, ModulusSummary]:
    """The summary of every modulus in range, in modulus order: the one
    executor of plan_sweep's `plan`, whose `cached` it fills in place.  It
    sieves the table of the jobs' kind (partitions.sieve_primes), runs them
    on it in workers (partitions.run_plan), then derives each other miss m,
    descending, from the sets of 2m, dropped then
    (summaries.exceptional_sets_from_double)."""
    from . import summaries

    found, jobs, derived = plan
    if jobs:
        from . import partitions  # loaded by the plan
        if config.cache_dir is not None:  # before run_plan forks, so that workers inherit it
            import hashlib

        def dead(pid: int) -> None:  # a killed worker skipped save_cache_entry's cleanup
            for tmp in config.cache_dir.glob(f"m*_N*.{pid}.tmp") if config.cache_dir else ():
                tmp.unlink(missing_ok=True)

        table = partitions.sieve_primes(config.N, packed=jobs[0].args[1])
        jobs = [job._replace(args=(job.args[0], table)) for job in jobs]
        found.update(zip((job.args[0] for job in jobs),
                         partitions.run_plan(jobs, config.worker_count, dead=dead)))
    for m in reversed(derived):
        summary, double = found[2 * m]
        found[2 * m] = summary, None
        found[m] = _summarized(m, summaries.exceptional_sets_from_double(m, double), derived, config)
    return {m: found[m][0] for m in config.moduli}


def compute_sweep(config: RunConfig) -> dict[int, ModulusSummary]:
    """The summary of every modulus in range, in modulus order: its Table 1
    row, which carries its Table 2 row.  It only builds the sweep's plan
    and runs it; only a sweep on the packed kernel imports numpy."""
    return run_sweep(config, plan_sweep(config))


# ---------------------------------------------------------------------------
# Documents

FIG1_HEADER = "m,E_max,phi"
GROWTH_HEADER = "m,E_max,phi,8m2,16m2,2m2_ln_m,4m2_ln_m"


def table_document(which: str, sweep: dict[int, ModulusSummary],
                   output_format: str = "csv") -> str:
    """Table 1 (per-modulus aggregates) or Table 2 (empty-pair counts) of a
    sweep, as CSV or as a JSON list of rows keyed by the CSV header."""
    from . import summaries

    header = {"table1": summaries.TABLE1_HEADER, "table2": summaries.TABLE2_HEADER}[which]
    rows = [(s if which == "table1" else s.empty).csv_row() for s in sweep.values()]
    if output_format == "json":
        import json

        keys = header.split(",")
        return json.dumps([dict(zip(keys, r.split(","))) for r in rows], indent=2) + "\n"
    return "\n".join([header] + rows) + "\n"


def figure_documents(sweep: dict[int, ModulusSummary]) -> tuple[str, str]:
    """(fig1, fig2) plot data, read from each modulus's Table 1 summary:
    E_max against phi(m), the restricted family's pair count; fig2 adds
    the quadratic / quadratic-log reference curves."""
    fig1, fig2 = [FIG1_HEADER], [GROWTH_HEADER]
    for m, s in sweep.items():
        row = f"{m},{s.unrestricted.e_max},{s.restricted.pairs}"
        fig1.append(row)
        lnm = math.log(m)
        fig2.append(f"{row},{8 * m * m},{16 * m * m},"
                    f"{2 * m * m * lnm:.6g},{4 * m * m * lnm:.6g}")
    return "\n".join(fig1) + "\n", "\n".join(fig2) + "\n"


# ---------------------------------------------------------------------------
# Verification reports

CONJ2_EXPECTED = {
    # the mod-4 statement's (iv) list has a transcription slip (18 for 38);
    # these are the computed violation sets, cross-checked against the
    # explicit exceptional sets for modulus 4
    "i": (),
    "ii": (4,),
    "iii": (2,),
    "iv": (2, 6, 14, 38, 62),
}

CONJ3_EXPECTED = {"i": ((6,),), "ii": ((), (10, 20)),
                  **dict.fromkeys(("iii", "iv", "v", "vi", "vii"), ((),))}


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apgoldbach",
        description="Goldbach representations with both primes in "
        "arithmetic progressions: exceptional sets, tables, and the "
        "coupon-collector growth model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exceptions", help="exceptional set for one (a, b, m)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.set_defaults(run=cmd_exceptions)

    for name, help_ in (
        ("table1", "per-modulus aggregate statistics"),
        ("table2", "empty-set pair counts"),
        ("figures", "growth plot data"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--m-min", type=int, default=2)
        p.add_argument("--m-max", type=int, default=50)
        if name == "figures":
            p.add_argument("--output-dir", type=Path, default=Path("."))
            p.set_defaults(run=cmd_figures)
        else:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
            p.set_defaults(run=cmd_table)

    p = sub.add_parser("verify", help="check the explicit conjecture statements")
    targets = p.add_subparsers(dest="target", required=True)
    for target in ("conj2", "conj3", "ternary", "asy"):
        targets.add_parser(target).set_defaults(run=cmd_verify)
    targets.choices["conj3"].add_argument("--a", type=int, default=7,
                                          help="residue mod 60 for sample item (vii)")

    p = sub.add_parser("heuristic", help="coupon-collector model report")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=0.5)
    p.set_defaults(run=cmd_heuristic)

    commands = {**sub.choices, **{f"verify {t}": p for t, p in targets.choices.items()}}
    del commands["verify"]
    for name, p in commands.items():
        p.add_argument("--limit", "-N", type=int, default=10**6,
                       help="inclusive search limit for n (default 10^6)")
        sweep = name in ("table1", "table2", "figures", "verify asy")
        if sweep or name == "heuristic":  # the commands that read the cache
            p.add_argument("--cache-dir", type=Path,
                           default=os.environ.get(CACHE_ENV_VAR) or None)
        if sweep or name == "exceptions":  # heuristic's sweep is one modulus, one worker
            p.add_argument("--threads", type=int, default=0,
                           help="worker processes, over the moduli of a sweep or the "
                           "windows of one exceptions pair (0 = auto: one per CPU)")
    return parser


def _config_from(args: argparse.Namespace, m_range: bool = False) -> RunConfig:
    moduli = dict(m_min=args.m_min, m_max=args.m_max) if m_range else {}
    return RunConfig(N=args.limit, cache_dir=args.cache_dir, threads=args.threads, **moduli)


def cmd_exceptions(args: argparse.Namespace) -> int:
    from . import partitions

    pair = partitions.AdmissiblePair(args.a, args.b, args.m)
    config = RunConfig(N=args.limit, threads=args.threads)
    es = partitions.exceptional_set(pair, config.N, config.worker_count)
    body = " ".join(str(n) for n in es.elements) if es.elements else "(empty)"
    print(body)
    print(f"stage-1 bound M = {partitions.default_stage1_bound(pair.m, config.N)}, "
          f"survivors resolved in stage 2 = {es.stage1_survivors}, confirmed = True")
    spot = _largest_non_exception(pair, config.N, set(es.elements))
    if spot is not None:
        w = partitions.find_witness(spot, pair)
        if w is not None:
            print(f"spot check: {w.n} = {w.p} + {w.q}")
    return EXIT_OK


def _largest_non_exception(pair: AdmissiblePair, N: int, elements: set) -> Optional[int]:
    c = pair.target_residue
    n = c + ((N - c) // pair.m) * pair.m
    while n >= 2:
        if n not in elements:
            return n
        n -= pair.m
    return None


def cmd_table(args: argparse.Namespace) -> int:
    sweep = compute_sweep(_config_from(args, m_range=True))
    sys.stdout.write(table_document(args.command, sweep, args.format))
    return EXIT_OK


def cmd_figures(args: argparse.Namespace) -> int:
    fig1, fig2 = figure_documents(compute_sweep(_config_from(args, m_range=True)))
    out = args.output_dir
    out.mkdir(parents=True, exist_ok=True)
    (out / "fig1.csv").write_text(fig1)
    (out / "fig2.csv").write_text(fig2)
    print(f"wrote {out / 'fig1.csv'} and {out / 'fig2.csv'}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    """Check one target at --limit and print its report once every check
    has run; the asy sweep runs over m <= 50 with the rest of the config.
    The other targets take no --threads: their exceptional sets are one
    partitions.exceptional_sets batch on one worker per CPU."""
    if args.target == "asy":
        sweep = compute_sweep(_config_from(args).replace(m_min=2, m_max=50))
        worst = max(
            s.unrestricted.e_max / (m * m * math.log(m) ** 2)
            for m, s in sweep.items() if m >= 4
        )
        print(f"max over computed m of E_max(m)/(m^2 (ln m)^2) = {worst:.6f} "
              "(asymptotic claim, no pass/fail)")
        return EXIT_OK
    from . import partitions

    config = RunConfig(N=args.limit)
    N, workers = config.N, config.worker_count
    checks = []  # (report line before its verdict, passed)
    if args.target == "conj2":
        for case, got in partitions.verify_conjecture_mod4(N, workers).items():
            expected = tuple(n for n in CONJ2_EXPECTED[case] if n <= N)
            checks.append((f"mod-4 case ({case}): violations {list(got)} "
                           f"expected {list(expected)}", got == expected))
    elif args.target == "conj3":
        for item, reps in partitions.verify_conjecture_samples(N, args.a, workers).items():
            expected = tuple(tuple(n for n in e if n <= N) for e in CONJ3_EXPECTED[item])
            detail = "; ".join(
                f"p={r.residue} mod {r.modulus}: {list(r.violations)}" for r in reps
            )
            checks.append((f"sample item ({item}): {detail}",
                           tuple(r.violations for r in reps) == expected))
    else:
        got = partitions.verify_ternary(N, workers)
        checks.append((f"ternary: violations {list(got)}", got == ()))
    sys.stdout.write("".join(f"{line} -> {'PASS' if ok else 'FAIL'}\n" for line, ok in checks))
    return EXIT_OK if all(ok for _, ok in checks) else EXIT_FAIL


def cmd_heuristic(args: argparse.Namespace) -> int:
    from . import heuristics

    config, m = RunConfig(N=args.limit, cache_dir=args.cache_dir), args.m
    model = heuristics.CouponModel.for_modulus(m)
    k = round(heuristics.g2_estimate(m * m))  # for_modulus took m even, >= 2
    pred = heuristics.predict_bounds(m, args.c, args.delta)
    est = heuristics.expected_exception_length(m, config.N)
    lines = [
        f"m = {m}",
        f"r = {model.r}",
        f"alpha = {model.alpha:.6f}",
        f"E[W] = {heuristics.coupon_expected_wait(model.r):.6f}",
        f"P(W > g2~(m^2)) = P(W > {k}) = {heuristics.coupon_tail(model.r, k):.6g}",
        f"predicted E_max bound (c={args.c}): {pred.e_max_bound:.3f}",
        f"predicted mean length (delta={args.delta}): {pred.expected_length:.6f}",
        f"model mean length (truncated sum): {est.value:.6f} "
        f"(tail bound {est.tail_bound:.3g})",
    ]
    if config.cache_dir is not None:
        u = compute_sweep(config.replace(m_min=m, m_max=m))[m].unrestricted
        lines.append(f"observed: L_avg = {u.e_count_mult / u.pairs:.6f}, E_max = {u.e_max}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def exit_status(run: Callable[[], int]) -> int:
    """run()'s exit code, or that of its exception, named in one line on
    stderr: a ValueError (input, budget), an OSError, or any other, such
    as a dead worker, so that only a failed check exits EXIT_FAIL."""
    try:
        return run()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return exit_status(lambda: args.run(args))


def main_and_exit() -> NoReturn:
    """Run main() and exit with its status: the `apgoldbach` console
    script and `python -m apgoldbach.cli`.  SIGINT and SIGTERM raise
    KeyboardInterrupt(signal), once, so that fork_map reaps the workers
    and save_cache_entry removes its temporary file; the run exits 128 +
    signal.  A worker (a child of this process) also sends the signal on
    to this process, so that the run stops at once, not once this
    process's own share is done.

    gc.freeze() first takes every object alive at exit (some 21,000
    after an engine command, nearly all of them numpy's and the standard
    library's modules) out of the collections that interpreter
    finalization runs; the rest of teardown is unchanged.  main() never
    freezes, since tests and scripts call it in-process.
    """
    import signal

    parent = os.getpid()

    def stop(signum: int, frame: object) -> NoReturn:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        if os.getpid() != parent and os.getppid() == parent:  # a worker
            os.kill(parent, signum)
        raise KeyboardInterrupt(signum)

    signal.signal(signal.SIGINT, stop)
    signal.signal(signal.SIGTERM, stop)
    try:
        status = main()
    except KeyboardInterrupt as exc:  # raised by stop, here or in a worker
        print(f"interrupted: {signal.Signals(exc.args[0]).name}", file=sys.stderr)
        status = 128 + exc.args[0]
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    main_and_exit()
