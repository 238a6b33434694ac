"""Opt-in performance instrumentation: phase timers and counters.

The simulation kernel and the experiment runners are sprinkled with
*cheap* hooks (one ``if perf.enabled`` branch per phase or per round,
never per message) that record wall-clock timers and event counters into
a process-global registry.  Disabled by default, the hooks cost a single
attribute check; enabled, they feed ``benchmarks/bench_kernel_hotpath.py``
and any ad-hoc profiling session:

>>> from repro.perf import perf
>>> perf.enable()
>>> ...  # run a simulation
>>> print(perf.report())

The registry is deliberately process-local (no locks): parallel sweep
workers each accumulate into their own registry, and
:mod:`repro.experiments.parallel` ships each worker's :meth:`snapshot`
back with the results and folds it in with :meth:`PerfRegistry.merge`,
so ``--perf`` on a parallel sweep reports the whole sweep.
"""

from __future__ import annotations

import os
import resource
import sys
import time
from contextlib import contextmanager
from typing import Any, Iterator

#: Counter holding the high-water-mark resident set size in bytes.
#: It is a *level*, not an event count: :meth:`PerfRegistry.sample_rss`
#: and :meth:`PerfRegistry.merge` combine it with ``max``, never ``+``.
PEAK_RSS_COUNTER = "mem.peak_rss_bytes"

#: ``ru_maxrss`` unit: kilobytes on Linux, bytes on macOS.
_RU_MAXRSS_SCALE = 1 if sys.platform == "darwin" else 1024

#: ``/proc/self/statm`` unit: pages.
_PAGE_SIZE = resource.getpagesize()


def peak_rss_bytes() -> int:
    """The process's peak resident set size, in bytes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * _RU_MAXRSS_SCALE


def current_rss_bytes() -> int:
    """The process's resident set size now (VmRSS), in bytes.

    Read from ``/proc/self/statm``; where that file is absent, falls
    back to the process-lifetime peak :func:`peak_rss_bytes`.
    """
    try:
        fd = os.open("/proc/self/statm", os.O_RDONLY)
    except OSError:
        return peak_rss_bytes()
    try:
        statm = os.read(fd, 128)
    finally:
        os.close(fd)
    return int(statm.split()[1]) * _PAGE_SIZE


class _Timed:
    """Context manager accumulating one timer entry (re-entrant-safe)."""

    __slots__ = ("_registry", "_name", "_t0")

    def __init__(self, registry: "PerfRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> "_Timed":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._registry._record(self._name, time.perf_counter() - self._t0)


class _NullTimed:
    """No-op context manager returned while instrumentation is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimed":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_TIMED = _NullTimed()


class Capture:
    """The data one :meth:`Isolated.isolated` block recorded (set on exit)."""

    __slots__ = ("data",)

    def __init__(self) -> None:
        self.data: Any = None


class Isolated:
    """``isolated()`` for a registry with the ``enabled`` / ``enable`` /
    ``disable`` / ``reset`` / ``snapshot`` / ``merge`` lifecycle."""

    __slots__ = ()

    @contextmanager
    def isolated(self) -> Iterator[Capture]:
        """Record the ``with`` body alone into this registry.

        The body starts from an empty, enabled registry.  On exit, also
        when the body raises, its snapshot lands in the yielded
        :class:`Capture` and the ambient state (enabled flag and data
        recorded so far) is restored exactly, so an isolated run inside
        a larger instrumented session never clobbers the session.
        """
        was_on, saved = self.enabled, self.snapshot()
        self.reset()
        self.enable()
        cap = Capture()
        try:
            yield cap
        finally:
            cap.data = self.snapshot()
            self.disable()
            self.reset()
            self.merge(saved)
            if was_on:
                self.enable()


class PerfRegistry(Isolated):
    """Process-global accumulator of named timers and counters.

    Attributes
    ----------
    enabled:
        Master switch.  Call sites guard with ``if perf.enabled`` so the
        disabled cost is one attribute read.
    timers:
        ``name -> [total_seconds, calls]``.
    counters:
        ``name -> count``.
    """

    __slots__ = ("enabled", "timers", "counters")

    def __init__(self) -> None:
        self.enabled = False
        self.timers: dict[str, list] = {}
        self.counters: dict[str, int] = {}

    # -- switches -----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded data (the enabled flag is untouched)."""
        self.timers.clear()
        self.counters.clear()

    # -- recording ----------------------------------------------------------

    def timed(self, name: str) -> _Timed | _NullTimed:
        """``with perf.timed("phase"):`` — accumulate elapsed wall-clock."""
        if not self.enabled:
            return _NULL_TIMED
        return _Timed(self, name)

    def _record(self, name: str, elapsed: float) -> None:
        cell = self.timers.get(name)
        if cell is None:
            self.timers[name] = [elapsed, 1]
        else:
            cell[0] += elapsed
            cell[1] += 1

    def add(self, name: str, value: int = 1) -> None:
        """Bump counter ``name`` by ``value`` (no-op while disabled).

        Call sites still guard with ``if perf.enabled`` for speed; the
        internal check is a backstop so an unguarded call site cannot
        leak counts into a disabled registry.
        """
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + value

    def sample_rss(self) -> None:
        """Record the current RSS under :data:`PEAK_RSS_COUNTER`.

        Sampled at round boundaries by the kernels (one
        :func:`current_rss_bytes` read per round, behind the same ``if
        perf.enabled`` guard as the round counters — the zero-cost-when-off
        contract holds).  The counter keeps the maximum seen since the
        last :meth:`reset`, so sampling is idempotent and order-free, and
        a run's peak does not include what earlier runs in the process
        held.
        """
        if not self.enabled:
            return
        rss = current_rss_bytes()
        if rss > self.counters.get(PEAK_RSS_COUNTER, 0):
            self.counters[PEAK_RSS_COUNTER] = rss

    def merge(self, snapshot: dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` from elsewhere (a worker process) into
        this registry.

        Addition is unconditional — the snapshot was recorded under the
        worker's own enabled flag, and merging is bookkeeping, not a new
        measurement.  Merging N disjoint worker snapshots equals having
        recorded all N workloads in one process.
        """
        for name, cell in snapshot.get("timers", {}).items():
            mine = self.timers.get(name)
            if mine is None:
                self.timers[name] = [cell["total_s"], cell["calls"]]
            else:
                mine[0] += cell["total_s"]
                mine[1] += cell["calls"]
        for name, count in snapshot.get("counters", {}).items():
            if name == PEAK_RSS_COUNTER:
                # A high-water mark, not an event count: the merged peak
                # is the max across processes, not their sum.
                if count > self.counters.get(name, 0):
                    self.counters[name] = count
                continue
            self.counters[name] = self.counters.get(name, 0) + count

    # -- reading ------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Machine-readable copy: ``{"timers": {...}, "counters": {...}}``."""
        return {
            "timers": {
                name: {"total_s": total, "calls": calls}
                for name, (total, calls) in sorted(self.timers.items())
            },
            "counters": dict(sorted(self.counters.items())),
        }

    def report(self) -> str:
        """Human-readable table of everything recorded so far."""
        return format_snapshot(self.snapshot())


def format_snapshot(snapshot: dict[str, Any]) -> str:
    """Render a :meth:`PerfRegistry.snapshot` as the ``report()`` table.

    Works on any snapshot dict — the live registry's, one shipped back
    from a worker, or one reloaded from a serialized
    :class:`~repro.runspec.report.RunReport`.
    """
    lines = []
    timers = snapshot.get("timers", {})
    counters = snapshot.get("counters", {})
    if timers:
        lines.append("timers:")
        for name, cell in sorted(timers.items()):
            lines.append(
                f"  {name:<32} {cell['total_s'] * 1e3:10.2f} ms  x{cell['calls']}"
            )
    if counters:
        lines.append("counters:")
        for name, count in sorted(counters.items()):
            lines.append(f"  {name:<32} {count}")
    return "\n".join(lines) if lines else "(no perf data recorded)"


#: The process-global registry every hook writes to.
perf = PerfRegistry()
