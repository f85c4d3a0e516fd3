import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # makes oracles importable

# every warning fails a test (pyproject.toml's filterwarnings) also in the
# CLI, script and perfbench interpreters that the tests start, which
# inherit this; pytest loads this file before it collects perfbench/
os.environ.setdefault("PYTHONWARNINGS", "error")

from apgoldbach.primes import sieve_primes


@pytest.fixture(scope="session")
def table_1e5():
    return sieve_primes(10**5)


@pytest.fixture(scope="session")
def table_1e6():
    return sieve_primes(10**6)


@pytest.fixture(scope="session")
def flags_1e5():
    return sieve_primes(10**5, packed=False)


@pytest.fixture(scope="session")
def flags_1e6():
    return sieve_primes(10**6, packed=False)
