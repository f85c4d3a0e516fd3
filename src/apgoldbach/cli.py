"""Command-line front end.

Subcommands: exceptions, table1, table2, figures, verify, heuristic.
Exit codes: 0 success/PASS, 1 verification FAIL, 2 usage error, 3 I/O
error.
"""

import argparse
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Optional

from . import heuristics, partitions, summaries
from .partitions import AdmissiblePair, exceptional_sets_for_modulus
from .primes import sieve_primes
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
        if self.threads < 0:
            raise ValueError("threads must be >= 0")

    @property
    def moduli(self) -> list[int]:
        return list(range(self.m_min, self.m_max + 1, 2))

    @property
    def worker_count(self) -> int:
        return self.threads if self.threads > 0 else (os.cpu_count() or 1)

    def stage1_bound(self, m: int) -> int:
        """M for modulus m: the fixed bound if set, else the adaptive one."""
        if self.M is not None:
            return self.M
        return min(partitions.default_stage1_bound(m), self.N)


# ---------------------------------------------------------------------------
# Cache


def _payload_checksum(payload: dict) -> str:
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
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc))
    tmp.replace(path)


def _cache_candidates(cache_dir: Path, m: int, N: int) -> Iterator[Path]:
    """The exact-key path, then the other N of the same m in name order.
    Callers stop at the first valid entry, so the directory is globbed
    only when the exact path is missing or invalid."""
    exact = _cache_path(cache_dir, m, N)
    yield exact
    for p in sorted(cache_dir.glob(f"m{m}_N*.json")):
        if p != exact:
            yield p


def load_cache_entry(cache_dir: Path, m: int, N: int) -> Optional[ModulusSets]:
    """The cached sweep of modulus m at N, keyed by ordered pair, or None.

    The elements do not depend on the stage-1 bound, so it is no part of
    the key, and a file at N' >= N serves N: each sorted element list
    truncates to a prefix.  Entries with a schema or checksum mismatch are
    ignored with a warning.
    """
    for path in _cache_candidates(cache_dir, m, N):
        if not path.is_file():
            continue
        try:
            doc = json.loads(path.read_text())
            payload = doc["payload"]
            if doc.get("schema_version") != CACHE_SCHEMA_VERSION:
                continue
            if doc.get("checksum") != _payload_checksum(payload):
                raise ValueError("checksum mismatch")
            if payload["m"] != m or payload["N"] < N:
                continue
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            print(f"warning: ignoring corrupt cache entry {path}: {exc}", file=sys.stderr)
            continue
        sets: ModulusSets = {}
        for a, b, elements in payload["sets"]:
            sets[(a, b)] = sets[(b, a)] = tuple(e for e in elements if e <= N)
        return sets
    return None


# ---------------------------------------------------------------------------
# Per-modulus computation (worker-safe)

_WORKER_TABLE = {}


def _sets_for_modulus(args: tuple[int, int, int]) -> ModulusSets:
    """Worker entry: compute all ordered-pair sets for one modulus."""
    m, N, M = args
    table = _WORKER_TABLE.get(N)
    if table is None:
        table = sieve_primes(N)
        _WORKER_TABLE.clear()
        _WORKER_TABLE[N] = table
    return exceptional_sets_for_modulus(m, N, M=M, table=table)


def compute_sweep(config: RunConfig) -> dict[int, ModulusSets]:
    """Sets for every modulus in range; cache misses run in parallel over
    moduli and are then written to the cache.

    Results are merged in modulus order, so the output is independent of
    worker scheduling.
    """
    results: dict[int, ModulusSets] = {}
    jobs = []
    for m in config.moduli:
        if config.cache_dir is not None:
            cached = load_cache_entry(config.cache_dir, m, config.N)
            if cached is not None:
                results[m] = cached
                continue
        jobs.append((m, config.N, config.stage1_bound(m)))

    if config.worker_count > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=config.worker_count) as pool:
            computed = list(pool.map(_sets_for_modulus, jobs))
    else:
        computed = [_sets_for_modulus(job) for job in jobs]
    for (m, _, _), sets in zip(jobs, computed):
        results[m] = sets
        if config.cache_dir is not None:
            save_cache_entry(config.cache_dir, m, config.N, sets)
    return {m: results[m] for m in config.moduli}


# ---------------------------------------------------------------------------
# Documents


def table1_document(sweep: dict[int, ModulusSets], output_format: str = "csv") -> str:
    rows = [summaries.summarize_modulus(sets, m) for m, sets in sweep.items()]
    if output_format == "json":
        doc = [dict(zip(summaries.TABLE1_HEADER.split(","), r.csv_row().split(",")))
               for r in rows]
        return json.dumps(doc, indent=2) + "\n"
    lines = [summaries.TABLE1_HEADER] + [r.csv_row() for r in rows]
    return "\n".join(lines) + "\n"


def table2_document(sweep: dict[int, ModulusSets], output_format: str = "csv") -> str:
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
    if target == "conj2":
        table = sieve_primes(N)
        for case in partitions.MOD4_CASES:
            got = partitions.verify_conjecture_mod4(case, N, table=table)
            expected = CONJ2_EXPECTED[case]
            passed = got == expected
            ok &= passed
            lines.append(
                f"mod-4 case ({case}): violations {list(got)} "
                f"expected {list(expected)} -> {'PASS' if passed else 'FAIL'}"
            )
    elif target == "conj3":
        table = sieve_primes(N)
        for item in partitions.SAMPLE_ITEMS:
            kwargs = {"a": a} if item == "vii" else {}
            reps = partitions.verify_conjecture_samples(item, N, table=table, **kwargs)
            got = tuple(r.violations for r in reps)
            expected = CONJ3_EXPECTED[item]
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
                   help="worker processes for sweeps (0 = auto)")


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
    pair = AdmissiblePair(args.a, args.b, args.m)
    config = _config_from(args)
    es = partitions.exceptional_set(pair, config.N, M=config.stage1_bound(args.m))
    body = " ".join(str(n) for n in es.elements) if es.elements else "(empty)"
    print(body)
    print(f"stage-1 bound M = {es.stage1_bound}, "
          f"survivors resolved in stage 2 = {es.stage1_survivors}, "
          f"confirmed = {es.confirmed}")
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
