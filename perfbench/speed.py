"""A fixed reference kernel that measures the machine's momentary speed.

On the shared 2-core host this benchmark was tuned on, the same code ran up
to twice as slow for minutes at a time while other tenants were busy, and
CPU time followed wall time. The median design-sweep latency of 20 s
windows of one 5-minute loop spread by 0.16 to 0.28 (quartile distance over
median) whether outputs went to disk or to memory.

So every timed metric is reported at reference speed. This kernel runs
between invocations; a wall time ``t`` measured between kernel runs that
took ``k`` on average is reported as ``t * REFERENCE_S / k``, the time it
would take on a machine where the kernel takes ``REFERENCE_S``. Over 25 s
windows of 2- to 3-minute loops that cut the spread of the median latency
from 0.19 to 0.03 (analyze-mc), 0.06 to 0.01 (design-sweep) and 0.07 to
0.02 (simulate-tomo). Different code slows by different amounts, so the
kernel mixes the kinds of work the three CLI jobs do. It is fixed code that
never calls the package, so a change to the package moves the reported
times as it moves the wall times at any fixed machine speed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

REFERENCE_S = 0.02
_X = np.linspace(0.0, 1.0, 17)
_Y = _X * _X
_MEANS = np.array([70.0, 5000.0, 6700.0, 270.0])


@dataclass(frozen=True)
class _Row:
    label: str
    counts: tuple

    def __post_init__(self):
        if min(self.counts) < 0:
            raise ValueError("negative count")


def _correlation(c) -> float:
    return (c[0] - c[1] - c[2] + c[3]) / (c[0] + c[1] + c[2] + c[3])


def kernel() -> float:
    """About 20 ms of dict building, JSON encoding, small numpy calls and
    small validated dataclasses, the work of the three CLI jobs."""
    acc = 0.0
    for _ in range(9):
        rows = [{"a": i * 0.5, "b": i, "c": math.sqrt(i), "d": [i * 1.5, i * 2.5]} for i in range(100)]
        acc += len(json.dumps(rows, indent=2, sort_keys=True))
    for i in range(450):
        acc += float(np.interp(i / 450, _X, _Y))
    rng = np.random.default_rng(0)
    for _ in range(350):
        draw = rng.poisson(_MEANS)
        acc += sum(_correlation(_Row(str(j), tuple(int(v) for v in draw)).counts) for j in range(2))
    return acc


def kernel_seconds() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def at_reference(wall_s: float, kernel_s: float) -> float:
    """A wall time rescaled to the speed at which the kernel takes REFERENCE_S."""
    return wall_s * REFERENCE_S / kernel_s
