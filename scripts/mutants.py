#!/usr/bin/env python3
"""A standing mutation check: each mutant of scripts/mutants.json, applied
to a copy of the tree, must fail one of its tests.

A mutant names a file, an exact snippet of it (which must occur there
exactly once), the snippet's replacement and the few test ids that should
kill it.  Each is applied as plain text to a fresh copy of src/, tests/,
scripts/, pyproject.toml and README.md in a temporary directory, and its
tests run there with `python -m pytest -x`, in a child that inherits this
process's environment unchanged, so that PYTHONDONTWRITEBYTECODE, where it
is set, still holds.  Run it from the repository root as

    PYTHONPATH=src python3 scripts/mutants.py [NAME ...]

with the path relative, so that each child, started in its copy, imports
the mutated package; the script checks that first.

It prints one line per mutant: killed, naming the first test that failed
(or a timeout), survived, or equivalent, with the one-line argument of
its "equivalent" field, which is not run.  A mutant with a "survives"
field is expected to survive, and the field says what would kill it.
The last line is the score and the run time.  Exit status 1 if a mutant
survives unexpectedly or its tests cannot run, else 0.
"""

import argparse
import json
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "scripts" / "mutants.json"
COPIED = ("src", "tests", "scripts", "pyproject.toml", "README.md")
TIMEOUT_S = 600


def load(path: Path = MUTANTS) -> list[dict]:
    """The mutants, each checked to have one place in its file."""
    mutants = json.loads(path.read_text())
    for mutant in mutants:
        found = (ROOT / mutant["file"]).read_text().count(mutant["snippet"])
        if found != 1:
            raise ValueError(f"{mutant['name']}: its snippet occurs {found} times "
                             f"in {mutant['file']}")
    return mutants


def _copy(root: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, root / name, ignore=skip)
        else:
            shutil.copy2(ROOT / name, root / name)


def _imports_the_copy() -> bool:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        _copy(Path(tmp))
        out = subprocess.run([sys.executable, "-c", "import apgoldbach; print(apgoldbach.__file__)"],
                             cwd=tmp, capture_output=True, text=True).stdout
        return Path(out.strip()).resolve().is_relative_to(Path(tmp).resolve())


def run(mutant: dict) -> tuple[str, str]:
    """(verdict, detail) of one mutant: killed and the first failing test,
    survived, or error and the end of pytest's output."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        _copy(Path(tmp))
        path = Path(tmp) / mutant["file"]
        path.write_text(path.read_text().replace(mutant["snippet"], mutant["replacement"]))
        try:
            done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-rfE",
                                   "-p", "no:cacheprovider", *mutant["tests"]],
                                  cwd=tmp, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed", f"a timeout after {TIMEOUT_S} s"
    if done.returncode == 0:
        return "survived", ""
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    if done.returncode in (1, 2) and failed:
        return "killed", failed.group(1)
    return "error", " ".join(done.stdout.split()[-12:])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("names", nargs="*", help="run only these mutants")
    args = parser.parse_args()
    mutants = [m for m in load() if not args.names or m["name"] in args.names]
    if not _imports_the_copy():
        print("error: a child in a copy of the tree does not import the copy's src/; "
              "run with PYTHONPATH=src, relative", file=sys.stderr)
        return 2
    start, tally, bad = time.monotonic(), {}, 0
    for mutant in mutants:
        if "equivalent" in mutant:
            verdict, detail = "equivalent", mutant["equivalent"]
        else:
            verdict, detail = run(mutant)
            if verdict == "survived" and "survives" in mutant:
                verdict, detail = "survived", f"as expected: {mutant['survives']}"
            elif verdict != "killed":
                bad += 1
        tally[verdict] = tally.get(verdict, 0) + 1
        print(f"{verdict:10} {mutant['name']}" + (f": {detail}" if detail else ""), flush=True)
    counts = ", ".join(f"{n} {verdict}" for verdict, n in sorted(tally.items()))
    print(f"{len(mutants)} mutants: {counts}, in {time.monotonic() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
