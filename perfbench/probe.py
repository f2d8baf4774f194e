"""Host-speed probe: a fixed computation timed in between the benchmark's work.

The benchmark's host is shared.  Other tenants slow it by up to half for
stretches of tens of seconds to minutes, with little steal to show for it,
so raw wall times of the same code drift by more than any bound between
two sets of runs.  The probe runs the same fixed work throughout a pass, in
short samples interleaved with the timed chunks.  The mean of its sample
times over the pass, relative to :data:`REFERENCE_S` and raised to
:data:`SENSITIVITY`, is the pass's host factor; dividing a time measured in
the pass by it gives the time on a host at reference speed.

The probe uses only the interpreter and numpy, never the program, so a
change to the program cannot move it.  Its mix mirrors the program's hot
loop (the scalar planner): float arithmetic and ``math`` calls in a pure
Python loop, small-array numpy operations, and dict updates.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import List, Sequence

import numpy as np

#: Mean probe time of the reference host (a shared 2-vCPU VM, CPython
#: 3.11.7, numpy 2.4.6) in a quiet stretch.  It only sets the scale of the
#: normalised figures.
REFERENCE_S = 0.0017
#: Share of each timed chunk's wall spent probing after it.
SHARE = 0.02
#: How strongly the in-process workloads' walls follow the probe: the
#: slope of log pass wall on log probe time, fitted over ten runs of two
#: passes each on the reference host, was 0.81 for ``single_drive`` and
#: 0.65 for ``batched_corridors``.  The probe's tight interpreter loop
#: gains more from a quiet host than the program does.
SENSITIVITY = 0.75


def probe() -> float:
    """The fixed work (about 2 ms)."""
    x = y = heading = total = 0.0
    for i in range(1500):
        heading += 0.01 * math.sin(i * 0.001)
        x += math.cos(heading) * 0.05
        y += math.sin(heading) * 0.05
        total += math.hypot(x - 1.0, y - 2.0)
    a = np.arange(64.0)
    for i in range(100):
        b = np.sqrt(a * a + i)
        a = b - b.mean() + 1.0
    counts: dict = {}
    for i in range(1000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return total + float(a[0]) + counts[0]


def sample_for(seconds: float) -> List[float]:
    """Time probe runs back to back for about *seconds* (at least one)."""
    times: List[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        probe()
        ended = time.perf_counter()
        times.append(ended - started)
        if ended >= deadline:
            return times


def host_factor(times: Sequence[float]) -> float:
    """How much slower than on the reference host the program ran, going
    by the probe's *times*; 1 when there are none."""
    if not times:
        return 1.0
    return (statistics.fmean(times) / REFERENCE_S) ** SENSITIVITY
