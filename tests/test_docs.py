import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

import pytest

from apgoldbach import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "apgoldbach"
SCRIPTS = ROOT / "scripts"
MODULES = ("cli", "partitions", "primes", "summaries", "heuristics")

# a private constant such as _MARK_BLOCK, a private function such as
# _window, a name qualified by one of the modules such as
# partitions.default_stage1_bound (not a file, cli.py), and one qualified
# by the package such as apgoldbach.cli.main
CONSTANT = re.compile(r"(?<![\w.])_[A-Z][A-Z0-9_]*\b")
PRIVATE = re.compile(r"(?<![\w.])_[a-z]\w*")
QUALIFIED = re.compile(r"\b(%s)\.(?!py\b)(\w+(?:\.\w+)*)" % "|".join(MODULES))
PACKAGED = re.compile(r"\bapgoldbach\.(?!py\b)(\w+(?:\.\w+)*)")


def _prose() -> list[tuple[str, str]]:
    """README.md and every docstring and comment of the package and of
    the scripts, each with the file it is in."""
    texts = [("README.md", (ROOT / "README.md").read_text())]
    for path in sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py")):
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


def _stale_names(text: str) -> list[str]:
    """The names in text that the package does not define.  A name
    qualified by the package is looked up on it once every submodule is
    imported, so apgoldbach.cli.main resolves and a name that only a
    submodule defines, such as apgoldbach.is_prime, does not."""
    modules = {name: importlib.import_module(f"apgoldbach.{name}") for name in MODULES}
    package = importlib.import_module("apgoldbach")
    missing = []
    for match in [*CONSTANT.finditer(text), *PRIVATE.finditer(text)]:
        if not any(_resolves(mod, match.group()) for mod in modules.values()):
            missing.append(match.group())
    for match in QUALIFIED.finditer(text):
        if not _resolves(modules[match.group(1)], match.group(2)):
            missing.append(match.group())
    for match in PACKAGED.finditer(text):
        if not _resolves(package, match.group(1)):
            missing.append(match.group())
    return missing


def test_readme_cli_examples_parse():
    # every command of README's CLI code block, its comment cut, is one the
    # parser takes, so an example that names a refused flag fails here
    sections = re.split(r"^## ", (ROOT / "README.md").read_text(), flags=re.M)
    block = next(s for s in sections if s.startswith("CLI\n")).split("```")[1]
    examples = [line.split("#")[0].split()[1:] for line in block.splitlines()
                if line.startswith("apgoldbach ")]
    assert examples
    for argv in examples:
        cli.build_parser().parse_args(argv)


def test_docs_name_only_what_exists():
    # a constant or function renamed or deleted must leave no stale name
    # in the README or in the docstrings and comments of the package and
    # the scripts
    missing = [(where, name) for where, text in _prose() for name in _stale_names(text)]
    assert missing == []


def _imports_numpy(fn: ast.FunctionDef) -> bool:
    """Whether fn's own body, at any depth of its statements but not in a
    nested function or class, imports numpy."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import) and any(alias.name == "numpy" for alias in node.names):
            return True
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))
    return False


def _numpy_importers() -> set[str]:
    """The package functions, qualified by their class if any, whose own
    body (not a nested function's) imports numpy, also under an `if`."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.FunctionDef) and _imports_numpy(child):
                found.add(prefix + child.name)

    for path in PACKAGE.glob("*.py"):
        visit(ast.parse(path.read_text()), "")
    return found


def test_readme_names_every_numpy_importer():
    # README's list of the functions that use numpy, its module
    # qualifiers cut, is exactly the functions whose body imports it
    readme = " ".join((ROOT / "README.md").read_text().split())
    listed = re.search(r"the functions that use it \((.*?)\) import it when they run", readme)
    names = {re.sub(r"^(%s)\." % "|".join(MODULES), "", name)
             for name in re.findall(r"`([\w.]+)`", listed.group(1))}
    assert names == _numpy_importers()


def _exit_codes(text: str) -> set[int]:
    """The codes that the sentence "Exit codes: ..." of text lists."""
    sentence = re.search(r"Exit codes: (.*?)\.(?: |$)", " ".join(text.split())).group(1)
    return {int(code) for code in re.findall(r"(?:^|, )(\d+) ", sentence)}


def test_exit_codes_match_cli():
    # README and the cli docstring list exactly the cli.EXIT_* codes, and
    # README's exit-code paragraph states the rule of a run stopped by a
    # signal
    readme = (ROOT / "README.md").read_text()
    codes = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert _exit_codes(readme) == codes == _exit_codes(cli.__doc__)
    paragraph = re.search(r"^Exit codes:.*?(?:\n\n|\Z)", readme, re.M | re.S).group()
    assert "128 + signal" in " ".join(paragraph.split())


@pytest.mark.parametrize("text,stale", [
    ("`python -m apgoldbach.cli`, `apgoldbach.cli.main_and_exit`", []),
    # the package root defines no engine names
    ("`apgoldbach.sieve_primes`", ["apgoldbach.sieve_primes"]),
    ("`apgoldbach.cli.sieve_primes`", ["cli.sieve_primes", "apgoldbach.cli.sieve_primes"]),
])
def test_package_qualified_names_resolve(text, stale):
    assert _stale_names(text) == stale


@pytest.mark.parametrize(
    "text,found",
    [("see _MARK_BLOCK", ["_MARK_BLOCK"]), ("see E_{a,b,m} and __init__", []),
     ("(primes.sieve_progression) in `primes.py`", ["primes.sieve_progression"]),
     ("`apgoldbach.is_prime` in `src/apgoldbach/primes.py`", ["apgoldbach.is_prime"])],
)
def test_docs_patterns(text, found):
    patterns = (CONSTANT, QUALIFIED, PACKAGED)
    assert [m.group() for p in patterns for m in p.finditer(text)] == found


@pytest.mark.parametrize("text,stale", [
    ("stage 1 of one window (_window), then _resolved", []),
    ("the tail of _deleted_kernel", ["_deleted_kernel"]),
    ("partitions._deleted_kernel, E_{a,b,m}, __init__, wall_s", ["partitions._deleted_kernel"]),
])
def test_private_names_resolve(text, stale):
    # an unqualified private name must be defined by one of the modules
    assert _stale_names(text) == stale



def _callers(name: str, calls: bool = True) -> list[str]:
    """Each call of `name`, or with `calls` false each read of it, bare or
    as an attribute, in the package and the scripts, as its file and
    innermost enclosing function."""
    callers = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py")):
        def visit(node, function):
            for child in ast.iter_child_nodes(node):
                if calls:
                    used = child.func if isinstance(child, ast.Call) else None
                else:
                    used = child if isinstance(getattr(child, "ctx", None), ast.Load) else None
                if name in (getattr(used, "id", None), getattr(used, "attr", None)):
                    callers.append(f"{path.name}:{function}")
                visit(child, child.name if isinstance(child, ast.FunctionDef) else function)

        visit(ast.parse(path.read_text()), "<module>")
    return callers


def test_one_runner_deals_and_forks():
    # every plan, a sweep's or a batch's, runs through one runner: it alone
    # deals the jobs to shares and forks them, and the pair route is
    # picked in at most one place
    assert _callers("fork_map") == ["partitions.py:run_plan"]
    assert _callers("deal") == ["partitions.py:run_plan"]
    assert len(_callers("_bitset_route")) <= 1


def test_one_kernel_rule_and_one_sweep_sieve():
    # a sweep's kernel is picked once, by the size rule of its plan, and
    # only the executor that runs the plan sieves its table; the cross
    # check sieves its own two, one of each kind
    for name in ("_BITSET_SWEEP_ROW", "_BITSET_SWEEP_WORK"):
        assert _callers(name, calls=False) == ["partitions.py:sweep_plan"]
    assert sorted(_callers("sieve_primes")) == ["cli.py:run_sweep"] + 2 * ["cross_check.py:main"]
    assert _callers("run_sweep") == _callers("plan_sweep") == ["cli.py:compute_sweep"]


def test_one_home_per_count():
    # each kernel's storage is counted in one function, which both of its
    # sources, the sweep and the batch, call where their jobs are built,
    # never the kernel; only the packed kernel and its count read the size
    # of a gather block
    assert sorted(_callers("_window_count")) == ["partitions.py:_check_sweep_budget",
                                                 "partitions.py:_group_jobs"]
    assert sorted(_callers("_bitset_count")) == sorted(_callers("_window_count"))
    assert set(_callers("_GATHER_BLOCK_ELEMENTS", calls=False)) == {
        "partitions.py:_window", "partitions.py:_window_count"}


def test_one_budget_check_words_every_refusal():
    # each count returns its named parts as a dict, and every budget check
    # hands a dict of parts to primes.check_budget, which alone sums them
    # and words the refusal: no other function raises MemoryBudgetError or
    # formats a text that counts bytes
    assert _callers("MemoryBudgetError") == ["primes.py:check_budget"]
    worded, parts = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.JoinedStr) and re.search(r"\bbytes\b", "".join(
                        v.value for v in node.values if isinstance(v, ast.Constant))):
                    worded.append(f"{path.name}:{fn.name}")
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check_budget":
                    parts.append(type(node.args[1]).__name__)
                if fn.name in ("_window_count", "_bitset_count") and isinstance(node, ast.Return):
                    parts.append(type(node.value).__name__)
    assert worded == ["primes.py:check_budget"]
    # sieve_primes names its parts first, as `parts`; the other counts are literals
    assert sorted(parts) == ["Dict"] * 5 + ["Name"]
    assert sorted(_callers("check_budget")) == [
        "partitions.py:_check_sweep_budget", "partitions.py:_group_jobs",
        "partitions.py:_group_jobs", "primes.py:sieve_primes"]


def test_the_engine_alone_picks_the_stage1_bound():
    # no public function of partitions takes a stage-1 bound M, and the
    # entries that run stage 1 get it only from default_stage1_bound: every
    # M they assign, and every argument they pass where a partitions
    # function takes M, is a call of it or the M so assigned
    tree = ast.parse((PACKAGE / "partitions.py").read_text())
    functions = {fn.name: fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
    takes_M = {}
    for name, fn in functions.items():
        params = [arg.arg for arg in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs]
        if "M" in params:
            takes_M[name] = params.index("M")
    assert [name for name in takes_M if not name.startswith("_")] == []

    def derived(node) -> bool:
        return getattr(getattr(node, "func", None), "id", None) == "default_stage1_bound"

    for name in ("batch_plan", "sweep_plan", "exceptional_sets_for_modulus"):
        fn, passed = functions[name], []
        assert any(derived(node) for node in ast.walk(fn)), name
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in takes_M:
                at = takes_M[node.func.id]
                passed += node.args[at:at + 1] + [k.value for k in node.keywords if k.arg == "M"]
        assert passed, name
        assigned = [node.value for node in ast.walk(fn) if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "M" for t in node.targets)]
        stores = [node for node in ast.walk(fn) if isinstance(node, ast.Name)
                  and node.id == "M" and isinstance(node.ctx, ast.Store)]
        assert len(stores) == len(assigned) and all(map(derived, assigned)), name
        assert all(derived(arg) or getattr(arg, "id", None) == "M" for arg in passed), name
