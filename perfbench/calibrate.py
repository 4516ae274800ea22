"""Reference kernel that gauges how fast the machine runs at the moment.

A shared host changes speed by up to a factor of two over tens of seconds,
and the benchmark's process is slowed as much in CPU time as in wall time,
so neither clock alone gives throughputs that repeat between runs. The
worker runs this fixed kernel before each CLI command and once after the
last. Its three parts, of about equal time, do the kinds of work the
package's hot paths do: small numpy calls from a Python loop (as in
golden-section refinement and the Kraus loop), vectorised work on a 360x360
grid (as in the dense sweep) and formatting floats into text (as in writing
rows). It never calls the package, so a change to the program leaves its
time unchanged.

``run.py`` multiplies a run's throughput by :func:`slowdown`, the factor by
which the machine ran the kernel slower than ``NOMINAL_S`` while the run's
commands ran. That gives the throughput on a machine that runs the kernel
in ``NOMINAL_S``, whatever the host was doing during the run. No single
part tracks every workload's slowdown best; the sum of the three tracked
each workload about as well as the best single part.
"""

from __future__ import annotations

import operator
import time

import numpy as np

# Time of one ``reference()`` call on a quiet 2-vCPU x86-64 VM (Intel Xeon):
# the reference machine whose speed the scaled throughputs are given at.
NOMINAL_S = 0.25

_RNG = np.random.default_rng(20081118)
_A = _RNG.standard_normal((8, 8)) + 1j * _RNG.standard_normal((8, 8))
_H4 = (_A @ _A.conj().T)[:4, :4]
_GRID = np.linspace(0.0, 2.0 * np.pi, 360)
_VALUES = _RNG.standard_normal(1200).tolist()


def _small_calls(n: int) -> float:
    acc = 0.0
    for k in range(n):
        w = np.linalg.eigvalsh(_H4)
        m = _A @ _A[:, ::-1]
        acc += float(w[k % 4]) + float(np.abs(m[k % 8]).sum())
        acc += float(np.cos(0.01 * k) ** 2)
    return acc


def _grid_sweep(n: int) -> float:
    acc = 0.0
    for k in range(n):
        phase = np.exp(1j * (_GRID[:, None] + (k + 1) * _GRID[None, :]))
        acc += float(np.abs(phase + _A[k % 8, k % 8]).sum())
    return acc


def _format_rows(n: int) -> int:
    size = 0
    for k in range(n):
        size += len(",".join(f"{v * (k + 1):.17g}" for v in _VALUES))
    return size


def reference() -> float:
    """Run the kernel once, its three parts taking about equal time; return
    its wall time in seconds."""
    t0 = time.perf_counter()
    _small_calls(3300)
    _grid_sweep(12)
    _format_rows(72)
    return time.perf_counter() - t0


def slowdown(seconds: list, samples: list) -> float:
    """Factor by which the machine ran slower than the reference machine
    over a run of commands that took ``seconds``, with ``samples`` the
    kernel times measured before each command and after the last: the mean
    of the samples at each command's two ends, weighted by its time, over
    ``NOMINAL_S``."""
    ends = [(a + b) / 2 for a, b in zip(samples, samples[1:])]
    return sum(map(operator.mul, seconds, ends)) / sum(seconds) / NOMINAL_S
