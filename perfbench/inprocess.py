"""Run apgoldbach CLI commands in one process, optionally with layer spans.

    python3 perfbench/inprocess.py SPEC RESULT

SPEC is a JSON file {"commands": [[argv...], ...], "trace": bool}.  Each argv
goes through apgoldbach.cli.main with stdout captured.  RESULT receives
{"outputs": [{"rc": int, "stdout": str}, ...], "layers": {...}, "task_s": float}.

With "trace" set, timing spans wrap each layer's public functions where their
callers look them up, so the spans survive refactors that keep those names:

    primes      cli.sieve_primes, partitions.sieve_primes, PrimeTable.primes/.mask
    partitions  partitions.exceptional_set, partitions.find_witness,
                cli.exceptional_sets_for_modulus, the three verify_* functions
    summaries   every public function of apgoldbach.summaries
    heuristics  every public function of apgoldbach.heuristics
    cli         cli.load_cache_entry, cli.save_cache_entry

A name that no longer exists is skipped, and its metrics read 0.  The wrappers
stay installed for the rest of the process, so this runs in a process of its
own.
"""

import contextlib
import functools
import inspect
import io
import json
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional


class Span:
    __slots__ = ("name", "outer", "dur", "child", "info")

    def __init__(self, name: str, outer: bool):
        self.name = name
        self.outer = outer  # no enclosing span of the same name
        self.dur = 0.0
        self.child = 0.0  # time covered by direct child spans
        self.info: Any = 0  # set from the result; 0 if the call raised

    @property
    def self_s(self) -> float:
        return self.dur - self.child


class Tracer:
    """In-memory spans around patched callables."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def wrap(self, name: str, fn: Callable,
             info: Optional[Callable[[Any, inspect.BoundArguments], Any]] = None) -> Callable:
        sig = inspect.signature(fn) if info is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(name, all(s.name != name for s in self._open))
            self.spans.append(span)
            self._open.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.dur = perf_counter() - start
                self._open.pop()
                if parent is not None:
                    parent.child += span.dur
            if info is not None:
                span.info = info(result, sig.bind(*args, **kwargs))
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, info=None) -> None:
        fn = getattr(owner, attr, None)
        if callable(fn):
            setattr(owner, attr, self.wrap(name, fn, info))

    def outer(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name and s.outer]


def _unpacked_entries(table, bound: inspect.BoundArguments) -> int:
    hi = bound.arguments.get("hi")
    return (bound.arguments["self"].limit if hi is None else hi) + 1


def install(tracer: Tracer) -> None:
    from apgoldbach import cli, heuristics, partitions, primes, summaries

    table_bytes = lambda table, bound: int(getattr(getattr(table, "bits", None), "nbytes", 0))
    for module in (cli, partitions):
        tracer.patch(module, "sieve_primes", "primes.sieve", table_bytes)
    for method in ("primes", "mask"):
        tracer.patch(primes.PrimeTable, method, "primes.unpack", _unpacked_entries)
    tracer.patch(partitions, "exceptional_set", "partitions.engine")
    tracer.patch(partitions, "find_witness", "partitions.stage2",
                 lambda witness, bound: witness is None)
    tracer.patch(cli, "exceptional_sets_for_modulus", "partitions.modulus")
    for fn in ("verify_conjecture_mod4", "verify_conjecture_samples", "verify_ternary"):
        tracer.patch(partitions, fn, "partitions.verify")
    for module, layer in ((summaries, "summaries"), (heuristics, "heuristics")):
        for attr, fn in list(vars(module).items()):
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not attr.startswith("_")):
                tracer.patch(module, attr, layer)
    tracer.patch(cli, "load_cache_entry", "cli.cache_read",
                 lambda entry, bound: entry is not None)
    tracer.patch(cli, "save_cache_entry", "cli.cache_write")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics that the spans alone determine."""
    sieve = tracer.outer("primes.sieve")
    unpack = tracer.outer("primes.unpack")
    engine = tracer.outer("partitions.engine")
    modulus = tracer.outer("partitions.modulus")
    stage2 = tracer.outer("partitions.stage2")
    verify = tracer.outer("partitions.verify")
    summ = tracer.outer("summaries")
    heur = tracer.outer("heuristics")
    reads = tracer.outer("cli.cache_read")
    writes = tracer.outer("cli.cache_write")

    def wall(spans):
        return sum(s.dur for s in spans)

    def self_time(spans):
        return sum(s.self_s for s in spans)

    return {
        "primes.sieve_s": wall(sieve),
        "primes.sieve_calls": len(sieve),
        "primes.unpack_s": wall(unpack),
        "primes.unpack_calls": len(unpack),
        "primes.unpack_bytes": sum(s.info for s in unpack),
        "primes.table_bytes": max((s.info for s in sieve), default=0),
        "partitions.engine_s": wall(engine),
        "partitions.engine_calls": len(engine),
        "partitions.stage1_s": self_time(engine),
        "partitions.reverse_stage1_s": self_time(modulus),
        "partitions.stage2_s": wall(stage2),
        "partitions.stage2_calls": len(stage2),
        "partitions.stage2_yield": sum(s.info for s in stage2) / len(stage2) if stage2 else 0.0,
        "partitions.verify_s": self_time(verify),
        "partitions.verify_calls": len(verify),
        "summaries.s": wall(summ),
        "summaries.calls": len(summ),
        "heuristics.s": wall(heur),
        "heuristics.calls": len(heur),
        "cli.modulus_tasks": len(modulus),
        "cli.max_task_s": max((s.dur for s in modulus), default=0.0),
        "cli.cache_lookups": len(reads),
        "cli.cache_hit_ratio": sum(s.info for s in reads) / len(reads) if reads else 0.0,
        "cli.cache_read_s": wall(reads),
        "cli.cache_write_s": wall(writes),
    }


def run(commands: list[list[str]], tracer: Optional[Tracer]) -> list[dict]:
    from apgoldbach import cli

    if tracer is not None:
        install(tracer)
    outputs = []
    for argv in commands:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = -1
        outputs.append({"rc": rc, "stdout": buf.getvalue()})
    return outputs


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    tracer = Tracer() if spec["trace"] else None
    outputs = run(spec["commands"], tracer)
    result = {"outputs": outputs, "layers": {}, "task_s": 0.0}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        result["task_s"] = sum(s.dur for s in tracer.outer("partitions.modulus"))
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
