import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "apgoldbach"
MODULES = ("cli", "partitions", "primes", "summaries", "heuristics")

# a private constant such as _MARK_BLOCK, and a name qualified by one of the
# modules such as partitions.default_stage1_bound (not a file, cli.py)
CONSTANT = re.compile(r"(?<![\w.])_[A-Z][A-Z0-9_]*\b")
QUALIFIED = re.compile(r"\b(%s)\.(?!py\b)(\w+(?:\.\w+)*)" % "|".join(MODULES))


def _prose() -> list[tuple[str, str]]:
    """README.md and every docstring and comment of the package, each
    with the file it is in."""
    texts = [("README.md", (ROOT / "README.md").read_text())]
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                texts.append((path.name, ast.get_docstring(node) or ""))
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                texts.append((path.name, token.string))
    return texts


def _resolves(obj, dotted: str) -> bool:
    for name in dotted.split("."):
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_docs_name_only_what_exists():
    # a constant or function renamed or deleted must leave no stale name
    # in the README or in the package's docstrings and comments
    modules = {name: importlib.import_module(f"apgoldbach.{name}") for name in MODULES}
    missing = []
    for where, text in _prose():
        for match in CONSTANT.finditer(text):
            if not any(_resolves(mod, match.group()) for mod in modules.values()):
                missing.append((where, match.group()))
        for match in QUALIFIED.finditer(text):
            if not _resolves(modules[match.group(1)], match.group(2)):
                missing.append((where, match.group()))
    assert missing == []


@pytest.mark.parametrize(
    "text,found",
    [("see _MARK_BLOCK", ["_MARK_BLOCK"]), ("see E_{a,b,m} and __init__", []),
     ("(primes.sieve_progression) in `primes.py`", ["primes.sieve_progression"])],
)
def test_docs_patterns(text, found):
    assert [m.group() for p in (CONSTANT, QUALIFIED) for m in p.finditer(text)] == found
