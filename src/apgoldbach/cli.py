"""Command-line front end.

Subcommands: exceptions, table1, table2, figures, verify, heuristic.
Exit codes: 0 success/PASS, 1 verification FAIL, 2 usage error, 3 I/O
error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, NoReturn, Optional, Sequence, TypeVar

# The engine (partitions and primes, and with them numpy) is imported only
# where something is computed, so that a warm-cache table1, table2, figures
# or verify asy never loads it; summaries and heuristics (and the fractions
# and decimal modules they load) are imported where they are used, so that
# `exceptions` and the engine-only `verify` targets never load them
if TYPE_CHECKING:
    from .partitions import AdmissiblePair
    from .primes import PrimeTable
    from .summaries import ModulusSets

CACHE_ENV_VAR = "APGOLDBACH_CACHE_DIR"
CACHE_SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


@dataclass
class RunConfig:
    N: int = 10**7
    m_min: int = 2
    m_max: int = 200
    M: Optional[int] = None  # None = adaptive per-modulus bound
    output_format: str = "csv"
    cache_dir: Optional[Path] = None
    threads: int = 0

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"search limit must be >= 2, got {self.N}")
        if self.m_min % 2 or self.m_max % 2:
            raise ValueError("modulus range endpoints must be even")
        if self.m_min < 2 and self.m_min <= self.m_max:  # a non-empty range
            raise ValueError(f"moduli must be >= 2, got m_min = {self.m_min}")
        if self.threads < 0:
            raise ValueError("threads must be >= 0")

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

    def stage1_bound(self, m: int) -> int:
        """M for modulus m: the fixed bound if set, else the adaptive one."""
        if self.M is not None:
            return self.M
        from . import partitions

        return min(partitions.default_stage1_bound(m), self.N)


# ---------------------------------------------------------------------------
# Cache


def _payload_checksum(payload: dict) -> str:
    import hashlib  # here, so that starting the CLI does not load it

    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _cache_path(cache_dir: Path, m: int, N: int) -> Path:
    return cache_dir / f"m{m}_N{N}.json"


def save_cache_entry(cache_dir: Path, m: int, N: int, sets: ModulusSets) -> None:
    """Write the sweep of modulus m at N as one checksummed file, one
    [a, b, elements] entry per unordered pair a <= b."""
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
    N.  ValueError or TypeError unless the rows hold integers only and
    cover exactly the pairs of units mod m."""
    sets: ModulusSets = {}
    for a, b, elements in rows:
        if not all(type(x) is int for x in (a, b, *elements)):
            raise ValueError("non-integer entry")
        sets[(a, b)] = sets[(b, a)] = tuple(e for e in elements if e <= N)
    units = [a for a in range(1, m) if math.gcd(a, m) == 1]
    if sets.keys() != {(a, b) for a in units for b in units}:
        raise ValueError(f"pairs do not match m = {m}")
    return sets


def load_cache_entry(cache_dir: Path, m: int, N: int) -> Optional[ModulusSets]:
    """The cached sweep of modulus m at N, keyed by ordered pair, or None.

    The elements do not depend on the stage-1 bound, so it is no part of
    the key, and a file at N' >= N serves N: each sorted element list
    truncates to a prefix.  Entries of another schema version are
    skipped; any other entry that does not hold a sweep of m (bad JSON,
    a checksum mismatch, a payload of the wrong shape) is ignored with a
    warning.
    """
    for path in _cache_candidates(cache_dir, m, N):
        if not path.is_file():
            continue
        try:
            doc = json.loads(path.read_text())
            if not isinstance(doc, dict):
                raise ValueError("not a JSON object")
            payload = doc["payload"]
            if doc.get("schema_version") != CACHE_SCHEMA_VERSION:
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
# Worker processes

T = TypeVar("T")
R = TypeVar("R")


def fork_map(fn: Callable[[T], R], shares: Sequence[T]) -> list[R]:
    """[fn(x) for x in shares], each share in its own process.

    This process computes shares[0]; a child forked for each other share
    computes it, sends back its pickled result or the exception it raised,
    which is raised here, and leaves with os._exit.  A child that dies
    without sending one raises RuntimeError naming its wait status.  Every
    child is reaped before this returns or raises.  Serial where os.fork
    does not exist.

    Children are copies of this process, engine and all, so fn and the
    shares need not be picklable; this process must run no other thread
    (importing apgoldbach keeps numpy's OpenBLAS to one).
    """
    if len(shares) < 2 or not hasattr(os, "fork"):
        return [fn(x) for x in shares]
    import pickle

    children = []  # (pid, read end of its pipe) of each child not yet reaped
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _run_share(fn, share, w)
            except BaseException:
                os.close(r)
                raise
            finally:
                os.close(w)
            children.append((pid, open(r, "rb")))
        results = [fn(shares[0])]
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if status:
                code = os.waitstatus_to_exitcode(status)
                how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
                raise RuntimeError(
                    f"worker process {pid} sent no result: wait status {status} ({how})"
                )
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        if children:  # this process failed first: stop and reap the rest
            import signal

            for pid, pipe in children:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _run_share(fn: Callable[[T], R], share: T, w: int) -> NoReturn:
    """The child's side of fork_map: write (True, fn(share)) or (False,
    the exception it raised), pickled, to the pipe end w and exit; exit
    status 1 if that fails."""
    import pickle

    status = 1
    try:
        try:
            out = (True, fn(share))
        except BaseException as exc:  # raised again in the parent
            out = (False, exc)
        with open(w, "wb") as pipe:
            pipe.write(pickle.dumps(out))
        status = 0
    finally:
        os._exit(status)


# ---------------------------------------------------------------------------
# Per-modulus computation


def sieve_primes(limit: int, **kwargs) -> PrimeTable:
    """primes.sieve_primes.  The sweep calls the engine through this name
    and exceptional_sets_for_modulus, so that callers can patch them; the
    first call imports the engine."""
    from . import primes

    return primes.sieve_primes(limit, **kwargs)


def exceptional_sets_for_modulus(
    m: int, N: int, M: Optional[int] = None, table: Optional[PrimeTable] = None
) -> ModulusSets:
    """partitions.exceptional_sets_for_modulus (see sieve_primes)."""
    from . import partitions

    return partitions.exceptional_sets_for_modulus(m, N, M=M, table=table)


def _modulus_shares(jobs: list[tuple[int, int]], workers: int) -> list[list]:
    """The jobs dealt to min(workers, len(jobs)) shares: heaviest first, each
    to the share with the least estimated work.  Modulus m costs about
    phi(m)^2/m, in proportion to its stage-1 OR bytes: for each of its
    phi(m) small-prime classes, up to phi(m) rows of N/m candidates."""

    def cost(m: int) -> float:
        return sum(math.gcd(a, m) == 1 for a in range(1, m)) ** 2 / m

    shares: list[list] = [[] for _ in range(min(workers, len(jobs)))]
    loads = [0.0] * len(shares)
    for job in sorted(jobs, key=lambda job: -cost(job[0])):
        k = loads.index(min(loads))
        shares[k].append(job)
        loads[k] += cost(job[0])
    return shares


def compute_sweep(config: RunConfig) -> dict[int, ModulusSets]:
    """Sets for every modulus in range; cache misses are dealt to the
    workers' shares (fork_map) and then written to the cache.  The table
    is sieved once, before the fork, and the workers read it
    copy-on-write; its budget reserves the largest index of the sweep.

    Results are merged in modulus order, so the output is independent of
    how the moduli were dealt.
    """
    results: dict[int, ModulusSets] = {}
    missing = []
    for m in config.moduli:
        if config.cache_dir is not None:
            cached = load_cache_entry(config.cache_dir, m, config.N)
            if cached is not None:
                results[m] = cached
                continue
        missing.append(m)
    if not missing:
        return results
    # a miss computes: import the engine here, before fork_map forks the
    # workers, so that they inherit it instead of each importing numpy
    from . import partitions

    N = config.N
    reserved = max(partitions.class_mask_bytes(m, N) for m in missing)
    table = sieve_primes(N, reserved_bytes=reserved)
    shares = _modulus_shares([(m, config.stage1_bound(m)) for m in missing], config.worker_count)
    computed = fork_map(
        lambda share: [exceptional_sets_for_modulus(m, N, M=M, table=table) for m, M in share],
        shares,
    )
    for share, sets_list in zip(shares, computed):
        for (m, _), sets in zip(share, sets_list):
            results[m] = sets
    if config.cache_dir is not None:
        for m in missing:
            save_cache_entry(config.cache_dir, m, config.N, results[m])
    return {m: results[m] for m in config.moduli}


# ---------------------------------------------------------------------------
# Documents


def table1_document(sweep: dict[int, ModulusSets], output_format: str = "csv") -> str:
    from . import summaries

    rows = [summaries.summarize_modulus(sets, m) for m, sets in sweep.items()]
    if output_format == "json":
        doc = [dict(zip(summaries.TABLE1_HEADER.split(","), r.csv_row().split(",")))
               for r in rows]
        return json.dumps(doc, indent=2) + "\n"
    lines = [summaries.TABLE1_HEADER] + [r.csv_row() for r in rows]
    return "\n".join(lines) + "\n"


def table2_document(sweep: dict[int, ModulusSets], output_format: str = "csv") -> str:
    from . import summaries

    rows = [summaries.count_empty_pairs(sets, m) for m, sets in sweep.items()]
    if output_format == "json":
        doc = [dict(zip(summaries.TABLE2_HEADER.split(","), r.csv_row().split(",")))
               for r in rows]
        return json.dumps(doc, indent=2) + "\n"
    lines = [summaries.TABLE2_HEADER] + [r.csv_row() for r in rows]
    return "\n".join(lines) + "\n"


def figure_documents(sweep: dict[int, ModulusSets]) -> tuple[str, str]:
    """(fig1, fig2) plot data: largest exception vs totient, and vs the
    quadratic / quadratic-log reference curves."""
    from . import summaries

    rows = [summaries.summarize_modulus(sets, m) for m, sets in sweep.items()]
    fig1_lines = ["m,E_max,phi"] + [
        f"{r.m},{r.unrestricted.e_max},{summaries.totient(r.m)}" for r in rows
    ]
    growth = summaries.growth_series(rows)
    fig2_lines = [summaries.GROWTH_HEADER] + [g.csv_row() for g in growth]
    return "\n".join(fig1_lines) + "\n", "\n".join(fig2_lines) + "\n"


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

CONJ3_EXPECTED = {
    "i": ((6,),),
    "ii": ((), (10, 20)),
    "iii": ((),),
    "iv": ((),),
    "v": ((),),
    "vi": ((),),
    "vii": ((),),
}


def verify_report(target: str, config: RunConfig, a: int = 7) -> tuple[str, bool]:
    """(report text, all passed) for one verification target at config.N;
    the asy sweep runs over m <= 50 with the rest of the config."""
    N = config.N
    lines = []
    ok = True
    if target in ("conj2", "conj3", "ternary"):
        from . import partitions
    if target == "conj2":
        sets: dict = {}  # the cases share the three sets mod 4
        for case in partitions.MOD4_CASES:
            got = partitions.verify_conjecture_mod4(case, N, sets)
            expected = tuple(n for n in CONJ2_EXPECTED[case] if n <= N)
            passed = got == expected
            ok &= passed
            lines.append(
                f"mod-4 case ({case}): violations {list(got)} "
                f"expected {list(expected)} -> {'PASS' if passed else 'FAIL'}"
            )
    elif target == "conj3":
        for item in partitions.SAMPLE_ITEMS:
            kwargs = {"a": a} if item == "vii" else {}
            reps = partitions.verify_conjecture_samples(item, N, **kwargs)
            got = tuple(r.violations for r in reps)
            expected = tuple(tuple(n for n in e if n <= N) for e in CONJ3_EXPECTED[item])
            passed = got == expected
            ok &= passed
            detail = "; ".join(
                f"p={r.residue} mod {r.modulus}: {list(r.violations)}" for r in reps
            )
            lines.append(f"sample item ({item}): {detail} -> {'PASS' if passed else 'FAIL'}")
    elif target == "ternary":
        got = partitions.verify_ternary(N)
        passed = got == ()
        ok &= passed
        lines.append(
            f"ternary: violations {list(got)} -> {'PASS' if passed else 'FAIL'}"
        )
    elif target == "asy":
        from . import summaries

        sweep = compute_sweep(replace(config, m_min=2, m_max=50))
        worst = 0.0
        for m, sets in sweep.items():
            if m < 4:
                continue
            s = summaries.summarize_modulus(sets, m)
            ratio = s.unrestricted.e_max / (m * m * math.log(m) ** 2)
            worst = max(worst, ratio)
        lines.append(
            f"max over computed m of E_max(m)/(m^2 (ln m)^2) = {worst:.6f} "
            "(asymptotic claim, no pass/fail)"
        )
    else:
        raise ValueError(f"unknown verify target {target!r}")
    return "\n".join(lines) + "\n", ok


def heuristic_report(m: int, config: RunConfig, c: float, delta: float) -> str:
    from . import heuristics, summaries

    model = heuristics.CouponModel.for_modulus(m)
    lines = [
        f"m = {m}",
        f"r = {model.r}",
        f"alpha = {model.alpha:.6f}",
        f"E[W] = {model.expected_wait:.6f}",
    ]
    n_probe = m * m if (m * m) % 2 == 0 else m * m + 1
    if n_probe >= 4:
        k = round(heuristics.g2_estimate(n_probe))
        lines.append(
            f"P(W > g2~(m^2)) = P(W > {k}) = {heuristics.coupon_tail(model.r, k):.6g}"
        )
    pred = heuristics.predict_bounds(max(m, 4), c, delta)
    lines.append(f"predicted E_max bound (c={c}): {pred.e_max_bound:.3f}")
    lines.append(f"predicted mean length (delta={delta}): {pred.expected_length:.6f}")
    est = heuristics.expected_exception_length(m, max(config.N, 10))
    lines.append(
        f"model mean length (truncated sum): {est.value:.6f} "
        f"(tail bound {est.tail_bound:.3g})"
    )
    if config.cache_dir is not None:
        sets = compute_sweep(replace(config, m_min=m, m_max=m))[m]
        s = summaries.summarize_modulus(sets, m)
        lines.append(
            f"observed: L_avg = {float(s.unrestricted.l_avg):.6f}, "
            f"E_max = {s.unrestricted.e_max}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--limit", "-N", type=int, default=10**6,
                   help="inclusive search limit for n (default 10^6)")
    p.add_argument("--stage1-bound", "-M", type=int, default=None,
                   help="stage-1 prime bound (default: adaptive per modulus)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--cache-dir", type=Path,
                   default=os.environ.get(CACHE_ENV_VAR) or None)
    p.add_argument("--threads", type=int, default=0,
                   help="worker processes, over the moduli of a sweep or the "
                   "windows of one exceptions pair (0 = auto: one per CPU)")


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
    _add_common(p)

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
        _add_common(p)

    p = sub.add_parser("verify", help="check the explicit conjecture statements")
    p.add_argument("target", choices=("conj2", "conj3", "ternary", "asy"))
    p.add_argument("--a", type=int, default=7,
                   help="residue mod 60 for sample item (vii)")
    _add_common(p)

    p = sub.add_parser("heuristic", help="coupon-collector model report")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=0.5)
    _add_common(p)

    return parser


def _config_from(args: argparse.Namespace, m_range: bool = False) -> RunConfig:
    kwargs = dict(
        N=args.limit,
        M=args.stage1_bound,
        output_format=args.format,
        cache_dir=args.cache_dir,
        threads=args.threads,
    )
    if m_range:
        kwargs["m_min"] = args.m_min
        kwargs["m_max"] = args.m_max
    return RunConfig(**kwargs)


def cmd_exceptions(args: argparse.Namespace) -> int:
    from . import partitions

    pair = partitions.AdmissiblePair(args.a, args.b, args.m)
    config = _config_from(args)
    es = partitions.exceptional_set(pair, config.N, M=config.stage1_bound(args.m),
                                    workers=config.worker_count, share_map=fork_map)
    body = " ".join(str(n) for n in es.elements) if es.elements else "(empty)"
    print(body)
    print(f"stage-1 bound M = {es.stage1_bound}, "
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


def cmd_table(args: argparse.Namespace, which: str) -> int:
    config = _config_from(args, m_range=True)
    document = table1_document if which == "table1" else table2_document
    sys.stdout.write(document(compute_sweep(config), config.output_format))
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
    report, ok = verify_report(args.target, _config_from(args), a=args.a)
    sys.stdout.write(report)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_heuristic(args: argparse.Namespace) -> int:
    config = _config_from(args)
    sys.stdout.write(heuristic_report(args.m, config, args.c, args.delta))
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "exceptions":
            return cmd_exceptions(args)
        if args.command in ("table1", "table2"):
            return cmd_table(args, args.command)
        if args.command == "figures":
            return cmd_figures(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "heuristic":
            return cmd_heuristic(args)
        parser.error(f"unknown command {args.command}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
