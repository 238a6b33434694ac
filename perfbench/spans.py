"""Span recorder and small statistics helpers (standard library only).

A span is one timed call the benchmark makes into a layer of the
program: a name, a start and end on ``time.perf_counter``, the id of the
span that caused it and a request id.  Spans are kept in memory and
written out once, when the run ends.  A span's *self time* is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Spans:
    """In-memory span log of one process."""

    def __init__(self, proc: str) -> None:
        self.proc = proc
        self.rows: list[dict] = []

    def add(self, name: str, start: float, end: float, *, parent=None, rid=None) -> int:
        sid = len(self.rows)
        self.rows.append(
            {"id": sid, "proc": self.proc, "name": name, "start": start,
             "end": end, "parent": parent, "rid": rid}
        )
        return sid

    @contextmanager
    def span(self, name: str, *, parent=None, rid=None):
        """Time the body; yields the span id (usable as a child's parent)."""
        sid = self.add(name, time.perf_counter(), float("nan"), parent=parent, rid=rid)
        try:
            yield sid
        finally:
            self.rows[sid]["end"] = time.perf_counter()


def with_self_times(rows: list[dict]) -> list[dict]:
    """Copy of ``rows`` (one process's spans) with ``self_s`` filled in."""
    children: dict[int, list[dict]] = {}
    for r in rows:
        if r["parent"] is not None:
            children.setdefault(r["parent"], []).append(r)
    out = []
    for r in rows:
        covered, reach = 0.0, r["start"]
        for c in sorted(children.get(r["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], r["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append({**r, "dur_s": r["end"] - r["start"],
                    "self_s": r["end"] - r["start"] - covered})
    return out


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)
