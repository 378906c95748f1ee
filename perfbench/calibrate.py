"""Host-speed probe: a fixed kernel timed beside the program's work.

On a shared host the virtual CPU runs faster or slower from one minute to the
next, and everything in a process slows together: identical passes of
``theta-consensus`` took 2.0 s in one run and 3.0 s in the next.  The
benchmark therefore times this kernel before every task and reports time
metrics scaled to the host's reference speed::

    reported = measured * REFERENCE_S / probe

``probe`` is the kernel's time measured in the same pass (or just before the
same set-up process), so a slow minute lengthens both and cancels.  The
kernel mixes the two kinds of work chronoq does: interpreter loops and dense
complex matrix products on one BLAS thread.  It does not touch chronoq, so a
change to the program cannot move it.

``REFERENCE_S`` is the kernel's median time on the machine the baseline was
measured on (a 2-vCPU KVM guest on an Intel Xeon host, Python 3.11.7,
numpy 2.4.6, one OpenBLAS thread); on that host the scaled values read as
seconds.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.0075
_LOOPS = 20_000
_PRODUCTS = 2
_MATRIX = np.random.default_rng(0).normal(size=(256, 256)) + 0j


def probe() -> float:
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    acc = 0
    for i in range(_LOOPS):
        acc += i * i
    for _ in range(_PRODUCTS):
        _MATRIX @ _MATRIX
    return time.perf_counter() - start


def scale(seconds: float, probe_s: float, probes: int = 1) -> float:
    """``seconds`` at reference speed, given ``probes`` runs that took ``probe_s``."""
    return seconds * REFERENCE_S * probes / probe_s
