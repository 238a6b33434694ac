"""Host-speed reference: a fixed piece of work timed next to the program.

The shared VMs this benchmark runs on change speed by up to 2x within
minutes, and process CPU time tracks wall time through it (the CPU runs
slower; the time is not stolen), so every host time moves with the host
as much as with the code.  The benchmark therefore times this reference
between the program's calls and, on workloads that make many short
calls (``Workload.adjusted``), reports each call's time *at nominal host
speed*:

    adjusted = measured * NOMINAL_S / (mean of the references around it)

The reference is a pure-Python integer loop plus a numpy sort and
cumulative sum, like the program's mix of interpreted and vectorised
work.  It never calls the program, so a change to the program moves the
adjusted time exactly as it moves the measured one; only the host's
speed divides out.  Raw times stay in every record.
"""

from __future__ import annotations

import time

import numpy as np

#: Time of one reference at the usual speed of the 2-vCPU x86 VM the
#: benchmark was written on; it only sets the scale of adjusted times.
NOMINAL_S = 0.007

_ARRAY = np.random.default_rng(20081).random(60_000)
# Work buffers allocated once, so the reference never touches the heap
# and cannot be slowed by whatever state the program left it in.
_BUF = np.empty_like(_ARRAY)
_SUMS = np.empty_like(_ARRAY)


def _once() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i
    _BUF[:] = _ARRAY
    _BUF.sort()
    np.cumsum(_BUF, out=_SUMS)
    return time.perf_counter() - t0


def reference_s() -> float:
    """Median of three timings of the reference, in seconds."""
    return sorted(_once() for _ in range(3))[1]


def adjust(times: list[float], refs: list[float]) -> list[float]:
    """``times[i]`` at nominal speed; ``refs[i]`` and ``refs[i + 1]``
    were timed just before and just after the work of ``times[i]``."""
    return [t * 2 * NOMINAL_S / (a + b) for t, a, b in zip(times, refs, refs[1:])]
