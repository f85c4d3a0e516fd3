"""The names that perfbench/inprocess.py wraps to time each layer.

Its tracer skips a name it cannot find without an error, so a rename in
the package would read that layer's metrics as 0.  This pins every name
it patches.
"""

import functools
import inspect

import pytest

from apgoldbach import cli, heuristics, partitions, primes

MODULES = {"cli": cli, "heuristics": heuristics, "partitions": partitions, "primes": primes}


@pytest.mark.parametrize("name", [
    "partitions.sieve_primes",
    "primes.PrimeTable.mask",
    "partitions.exceptional_set",
    "partitions.find_witness",
    "cli.exceptional_sets_for_modulus",
    "partitions.verify_conjecture_mod4",
    "partitions.verify_conjecture_samples",
    "partitions.verify_ternary",
    "cli.load_cache_entry",
    "cli.save_cache_entry",
    # every public function of heuristics is wrapped; these are the ones
    # `heuristic` calls
    "heuristics.g2_estimate",
    "heuristics.coupon_tail",
    "heuristics.predict_bounds",
    "heuristics.expected_exception_length",
])
def test_traced_name_is_callable(name):
    module, *attrs = name.split(".")
    target = functools.reduce(lambda owner, attr: getattr(owner, attr, None), attrs,
                              MODULES[module])
    assert callable(target)


def test_mask_keeps_its_hi_parameter():
    # perfbench's _unpacked_entries reads the bound argument `hi` of
    # PrimeTable.mask, and without it counts the table's whole limit
    assert "hi" in inspect.signature(primes.PrimeTable.mask).parameters
