"""Host-speed reference kernel.

On a shared host the speed of one core drifts by tens of percent within
minutes, as other tenants load the core's siblings and the caches. A unit
takes about a second, so a run sees only a slice of that drift. The
benchmark therefore times this fixed kernel around every unit and every
set-up, and reports work at reference speed: the measured rate scaled by
the kernel's time over REF_KERNEL_S. The kernel uses NumPy and the
interpreter only, never reedsim, so no change to reedsim can move it. Its
mix follows the workloads' hot paths: Philox generator construction,
small-vector arithmetic in a Python loop, long complex-exponential and
Gaussian vectors, and plain bytecode.
"""

from __future__ import annotations

import time

# Duration of kernel_seconds() on an unloaded core of the 2-core x86
# sandbox the benchmark was tuned on (Python 3.11, NumPy 2.4).  It only
# scales the reported values; ratios between runs do not depend on it.
REF_KERNEL_S = 0.03


def kernel_seconds() -> float:
    """Wall seconds of one pass of the fixed reference kernel."""
    # imported here so that importing this module does not load NumPy
    # before run.py has fixed the BLAS thread count
    import numpy as np

    rng = np.random.Generator(np.random.Philox(12345))
    t0 = time.perf_counter()
    for i in range(300):
        ss = np.random.SeedSequence(7, spawn_key=(i, 1, 2))
        np.random.Generator(np.random.Philox(ss)).standard_normal(20)
    x = np.zeros(20)
    for _ in range(1000):
        x = 0.5 * x + rng.standard_normal(20)
    phase = rng.uniform(0.0, 2.0 * np.pi, 100_000)
    for _ in range(2):
        np.abs(np.exp(1j * phase) + rng.standard_normal(100_000)) ** 2
    total = 0
    for i in range(30_000):
        total += i * i
    return time.perf_counter() - t0
