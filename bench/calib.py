"""Host-speed calibration for a shared machine.

On a host shared with other tenants the same code runs 20-35% slower for
spells of seconds to minutes, which would swamp any change worth measuring.
A kernel is a fixed piece of work that no change to covertfade can affect;
it is timed right next to each timed operation, and a timing scaled by
``REF_S / kernel time`` is the time the operation would take on a host where
the kernel takes ``REF_S``.  Each workload uses the kernel whose work is
like its own: slow spells slow interpreter-bound and memory-bound code by
different amounts.  Raw times are recorded beside every scaled one.
"""

import math
import time

REF_S = 0.02  # nominal kernel time; scaled timings are seconds at this host speed


def _interp():
    """Interpreter-bound: a scalar float loop like the special-function series."""
    acc = 0.0
    for i in range(1, 100_000):
        acc += math.exp(-1.0 / i) * (i % 7)
    return acc


def _numpy():
    """Memory-bound: Philox normals and their mean square, like the simulator."""
    import numpy as np  # imported here so the set-up probe does not preload numpy

    x = np.random.Generator(np.random.Philox(key=7)).normal(0.0, 1.0, 655_360)
    return float(np.mean(x * x))


KERNELS = {"interp": _interp, "numpy": _numpy}


def kernel_s(kind):
    """Seconds one run of the ``kind`` calibration kernel takes now."""
    start = time.perf_counter()
    acc = KERNELS[kind]()
    elapsed = time.perf_counter() - start
    if not acc > 0.0:
        raise ArithmeticError("calibration kernel lost its result")
    return elapsed


def scaled(seconds, kernel):
    """``seconds`` measured while the kernel took ``kernel``, at the nominal speed."""
    return seconds * REF_S / kernel
