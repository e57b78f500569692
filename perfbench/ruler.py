"""Host-speed ruler: a fixed calibration kernel and the normalization it feeds.

The core speed of a small shared host drifts by tens of percent within a
minute, so raw seconds do not repeat from run to run. The ruler is a fixed
piece of work timed in the same process immediately before and after every
measured operation. A timed quantity t is reported as

    t / factor,   speed(reading) = sum_k weights[k] * reading[k] / R_REF_S[k],

so t * R_ref / r for a one-component ruler, where the factor r is taken
from the readings around t.

Every time, of the ruler and of what it normalizes, is read on ``clock()``:
the CPU seconds of this process and of the children it has waited for. For
the single-threaded, CPU-bound operations measured here that equals wall
time on an idle host, but it leaves out the time the process waits for the
CPU while something else on the host runs on it. The ruler corrects for how
fast the CPU runs, but not for a competitor that takes the CPU for part of
one operation and not during the readings around it; this clock leaves
that time out.

On a host that runs the ruler in exactly R_REF_S the reported value equals
the raw one; on a host running 20 % slow both the operation and the ruler
stretch, and the ratio stays put.

A sequence of operations is timed between readings r_0 .. r_N, so
operation i sits between r_i and r_(i+1). Its factor is the median speed of
the six readings r_(i-2) .. r_(i+3): the two that bracket it and two more
on each side (fewer at the ends; with two readings it is their mean). The
host's speed also jumps by up to 70 % for a fraction of a second, so a
single 17-ms reading is a noisy sample of the speed an operation saw; the
median of six ignores a reading caught in such a burst and still follows
the slower drift.

The ruler has three components, one per resource profile the workloads use:

- ``py``: interpreter-bound Python (arithmetic, dict and attribute access,
  calls), the profile of the optimizer loop, argument parsing and imports;
- ``la``: 8x8 and 16x16 complex Hermitian ``eigvalsh`` and small ``kron``,
  the profile of the joint-state algebra;
- ``np``: two 1e6-element numpy uniform draws, each compared and counted,
  into preallocated buffers: the profile of the vectorized protocol
  simulator.

Each workload weighs the components by its own profile (see
``workloads.py``). The kernel, its sizes and R_REF_S are frozen: changing
any of them changes every reported figure, so it is a benchmark change and
never part of a claimed gain.
"""

from __future__ import annotations

import resource
import statistics
import time

import numpy as np

COMPONENTS = ("py", "la", "np")

# Seconds each component took on the reference host (2 vCPU, Python 3.11,
# numpy 2.4, single-threaded BLAS); frozen.
R_REF_S = {"py": 4.0e-3, "la": 5.0e-3, "np": 6.6e-3}

_PY_ITERATIONS = 20_000
_LA_REPEATS = 60
_NP_SIZE = 1_000_000


def clock() -> float:
    """CPU seconds of this process and of its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


def _py_kernel() -> float:
    acc = 0.0
    table: dict[int, float] = {}
    point = _Point(0.5, 1.5)
    for i in range(_PY_ITERATIONS):
        point.x = (point.x * 1.0001 + i) % 97.0
        table[i & 127] = point.x + point.y
        acc += table.get((i * 7) & 127, 0.0)
    return acc


class Ruler:
    """The calibration kernel; ``read()`` returns seconds per component.

    Only the components that ``weights`` gives a nonzero weight are read:
    the others would not change any factor and would only lengthen the
    time between operations.
    """

    def __init__(self, weights: dict[str, float]) -> None:
        self.parts = [k for k in COMPONENTS if weights.get(k, 0.0) > 0.0]
        rng = np.random.default_rng(20111101)
        h8 = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h16 = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        self._h8 = h8 + h8.conj().T
        self._h16 = h16 + h16.conj().T
        self._a2 = rng.standard_normal((2, 2)) + 0j
        self._b4 = rng.standard_normal((4, 4)) + 0j
        self._uniform = np.empty(_NP_SIZE)
        self._mask = np.empty(_NP_SIZE, dtype=bool)

    def _la_kernel(self) -> float:
        total = 0.0
        for _ in range(_LA_REPEATS):
            total += float(np.linalg.eigvalsh(self._h8)[0])
            total += float(np.linalg.eigvalsh(self._h16)[0])
            total += float(np.kron(self._a2, self._b4)[0, 0].real)
            total += float(np.kron(self._a2, np.kron(self._a2, self._b4))[0, 0].real)
        return total

    def _np_kernel(self) -> int:
        # fixed buffers: a fresh 8 MB array would page-fault, and its cost
        # would then depend on what the previous operation left in the allocator
        rng = np.random.default_rng(7)
        hits = 0
        for threshold in (0.3, 0.7):
            rng.random(out=self._uniform)
            np.less(self._uniform, threshold, out=self._mask)
            hits += int(np.count_nonzero(self._mask))
        return hits

    def read(self) -> dict[str, float]:
        kernels = {"py": _py_kernel, "la": self._la_kernel, "np": self._np_kernel}
        out = {}
        for name in self.parts:
            t0 = clock()
            kernels[name]()
            out[name] = clock() - t0
        return out


def speed(reading: dict[str, float], weights: dict[str, float]) -> float:
    """How much slower than the reference host one reading says this host is."""
    return sum(w * reading[k] / R_REF_S[k] for k, w in weights.items() if w)


def factors(readings: list[dict[str, float]], weights: dict[str, float]) -> list[float]:
    """Host-speed factor of each interval between consecutive readings."""
    speeds = [speed(r, weights) for r in readings]
    return [statistics.median(speeds[max(0, i - 2) : i + 4]) for i in range(len(speeds) - 1)]


def reading_ms(reading: dict[str, float]) -> float:
    """Total ruler time of one reading, in ms (a diagnostic)."""
    return 1e3 * sum(reading.values())
