"""Goldbach representations with both primes in arithmetic progressions:
exceptional sets, reproducible tables, and a coupon-collector growth
model.

Importing the package defaults OPENBLAS_NUM_THREADS to 1 for this process
and its children; a value the caller set wins.  The setting acts only if
numpy has not been imported yet, since OpenBLAS reads it when numpy loads.

The public names below are loaded on first access, so `import apgoldbach`
and `import apgoldbach.cli` load no numpy: only the processes that compute
pay for the engine's import.
"""

import os

# Nothing here calls BLAS, but numpy's OpenBLAS starts a helper thread at
# import that spins before it sleeps.  On 2 vCPUs (medians of 11
# interleaved runs) `import numpy` took 0.212 s wall and 0.343 s CPU with
# the thread, and 0.203 s wall and 0.201 s CPU without it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# public name -> the submodule that defines it
_EXPORTS = {
    "AdmissiblePair": "partitions",
    "ExceptionalSet": "partitions",
    "PartitionWitness": "partitions",
    "exceptional_set": "partitions",
    "exceptional_sets_for_modulus": "partitions",
    "find_witness": "partitions",
    "PrimeTable": "primes",
    "is_prime": "primes",
    "sieve_primes": "primes",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
