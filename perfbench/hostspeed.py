"""Host-speed probe that puts item times on a fixed scale.

On a shared host the speed of this process's CPU can change by close to 2x
within seconds, for reasons outside the process.  The probe times three
small fixed kernels that stand for the kinds of work the library does:
3x3 complex matrix-vector steps through numpy, a pure-Python loop, and
17-digit float formatting.  Their geometric mean is compared with
REFERENCE_S, and item times are scaled by REFERENCE_S / probe, so they read
as times on a host where the probe takes REFERENCE_S.  The kernels never
call the library, so a change to the library leaves the probe unchanged.
"""

from __future__ import annotations

import math
import time

import numpy as np

# About the probe time of a 2-vCPU Xeon virtual machine in its fast state;
# any fixed value works, this one keeps scaled times close to wall-clock
# times there.
REFERENCE_S = 5.0e-4

_MATRIX = np.random.default_rng(0).standard_normal((3, 3)) + 0j


def _numpy_steps():
    x = np.ones(3, dtype=complex)
    for _ in range(60):
        x = _MATRIX @ x
        x = x / np.linalg.norm(x)


def _python_loop():
    total = 0
    for i in range(6000):
        total += i * i % 7


def _formatting():
    for i in range(800):
        format(i * 0.1234567, ".17g")


KERNELS = (_numpy_steps, _python_loop, _formatting)


def probe():
    """Geometric mean of the kernel times, in seconds."""
    clock = time.perf_counter
    logs = 0.0
    for kernel in KERNELS:
        start = clock()
        kernel()
        logs += math.log(clock() - start)
    return math.exp(logs / len(KERNELS))
