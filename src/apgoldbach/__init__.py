"""Goldbach representations with both primes in arithmetic progressions:
exceptional sets, reproducible tables, and a coupon-collector growth
model.

Importing the package defaults OPENBLAS_NUM_THREADS to 1 for this process
and its children; a value the caller set wins.  The setting acts only if
numpy has not been imported yet, since OpenBLAS reads it when numpy loads.

The package root names nothing else: import from the submodules, so that
`import apgoldbach` and `import apgoldbach.cli` load no numpy and only the
processes that compute pay for the engine's import.
"""

import os

# Nothing here calls BLAS, but numpy's OpenBLAS starts a helper thread at
# import that spins before it sleeps.  On 2 vCPUs (medians of 11
# interleaved runs) `import numpy` took 0.212 s wall and 0.343 s CPU with
# the thread, and 0.203 s wall and 0.201 s CPU without it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
