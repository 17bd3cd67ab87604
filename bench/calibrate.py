"""Reference kernel for host-speed calibration.

Other tenants of a shared host slow all CPU-bound work, by up to about
1.8x, for stretches of seconds to minutes, so raw times of the same code
spread by a quarter between runs.  The kernel does what a Hill slice does,
a 65 x 65 nonsymmetric eigensolve and Python-level arithmetic, but runs
none of the program's code, so a change to the program cannot move it.
A timing divided by kernel timings made next to it cancels most of the
slowdown common to both.

Import it only after the BLAS thread count is pinned.
"""

from __future__ import annotations

import time

import numpy as np

_M = np.random.default_rng(0).standard_normal((65, 65))
_D = np.diag(np.arange(65.0))


def kernel_s() -> float:
    """Time one run of the kernel, in seconds."""
    t0 = time.perf_counter()
    for j in range(40):
        np.linalg.eigvals(_M + j * _D)
        sum([i * 0.5 for i in range(1500)])
    return time.perf_counter() - t0
