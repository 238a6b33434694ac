"""Opt-in structured run tracing: phase/round/fragment event streams.

Where :mod:`repro.perf` answers "where did the time go", ``repro.trace``
answers "what did the run *do*": an ordered stream of structured events
recorded at phase/round/fragment granularity — phase boundaries with
fragment-count/size histograms, per-round message/energy deltas by kind,
fault-plane outcomes, retry/settle repair activity.  The paper's central
claim is a *trajectory* property (Thm 5.2: EOPT's step 1 leaves one
giant fragment plus only small ones, which is why step 2 is cheap), and
a trace makes that trajectory first-class, diffable data instead of an
end-of-run scalar.

The cost contract is shared with :mod:`repro.perf`: disabled (the
default) every hook is one ``if trace.enabled`` attribute check per
phase or round — never per message — and recorded runs stay bit-identical
in every headline stat (``tests/test_trace.py`` pins this).  Enabled,
events accumulate in a process-global registry:

>>> from repro.trace import trace
>>> trace.enable()
>>> ...  # run a simulation
>>> trace.export_jsonl("run.jsonl")

Because every event a run emits is a deterministic function of the run's
inputs, two runs that should be equivalent (legacy vs fast kernel,
whole-round engine vs per-message phase loop, before vs after a
refactor) produce *identical* event
streams; :mod:`repro.trace.diff` compares two streams and reports the
first divergent event with context — the triage tool the hot-path
equivalence tests and the ``bench_*`` golden gates reuse.

Events are plain dicts with JSON-scalar fields only (``to_jsonl`` /
``load_jsonl`` round-trip exactly): ``{"i": <index>, "ev": <type>,
...fields}``.  See ``docs/observability.md`` for the full schema.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from repro.perf import Isolated

__all__ = [
    "TraceRegistry",
    "trace",
    "load_jsonl",
    "events_to_jsonl",
    "export_events_jsonl",
]


def _copy_event(event: dict) -> dict:
    """Deep-copy one event (fields are JSON scalars, dicts and lists)."""
    out = {}
    for k, v in event.items():
        if isinstance(v, dict):
            v = dict(v)
        elif isinstance(v, list):
            v = list(v)
        out[k] = v
    return out


class TraceRegistry(Isolated):
    """Process-global, append-only event stream.

    Attributes
    ----------
    enabled:
        Master switch.  Call sites guard with ``if trace.enabled`` so the
        disabled cost is one attribute read; :meth:`emit` checks again as
        a backstop, so an unguarded call site cannot leak events into a
        disabled registry.
    events:
        The recorded event dicts, in emission order.  Each carries its
        index ``i`` and type ``ev`` plus event-specific fields.
    """

    __slots__ = ("enabled", "events")

    def __init__(self) -> None:
        self.enabled = False
        self.events: list[dict] = []

    # -- switches -----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded events (the enabled flag is untouched)."""
        self.events.clear()

    # -- recording ----------------------------------------------------------

    def emit(self, ev: str, **fields: Any) -> None:
        """Append one event (no-op while disabled — backstop guard).

        ``fields`` must be JSON-representable scalars, lists or dicts so
        the stream survives a JSONL round trip unchanged.
        """
        if not self.enabled:
            return
        event = {"i": len(self.events), "ev": ev}
        event.update(fields)
        self.events.append(event)

    def merge(self, events: Iterable[dict], *, source: str | None = None) -> None:
        """Fold events recorded elsewhere (another process) into this stream.

        Events are appended in the given order and re-indexed to this
        registry's sequence; ``source`` (e.g. a sweep-cell key) is stamped
        on each as ``src`` so a merged sweep trace stays attributable.
        Merging a snapshot never mutates the input and is additive, so
        merging N disjoint worker snapshots equals one in-process run of
        the same N cells in the same order.
        """
        for event in events:
            copy = _copy_event(event)
            copy["i"] = len(self.events)
            if source is not None:
                copy["src"] = source
            self.events.append(copy)

    # -- reading / export ----------------------------------------------------

    def snapshot(self) -> list[dict]:
        """An independent copy of the event stream (safe to merge/mutate)."""
        return [_copy_event(e) for e in self.events]

    def to_jsonl(self) -> str:
        """The event stream as JSON Lines (one event object per line)."""
        return events_to_jsonl(self.events)

    def export_jsonl(self, path: str | Path) -> Path:
        """Write the stream to ``path`` as JSONL; returns the path."""
        return export_events_jsonl(self.events, path)


def events_to_jsonl(events: Iterable[dict]) -> str:
    """Any event list (a registry's, or one carried by a
    :class:`~repro.runspec.report.RunReport`) as JSON Lines."""
    return "".join(
        json.dumps(e, sort_keys=True, allow_nan=False) + "\n" for e in events
    )


def export_events_jsonl(events: Iterable[dict], path: str | Path) -> Path:
    """Write ``events`` to ``path`` as JSONL; returns the path."""
    p = Path(path)
    p.write_text(events_to_jsonl(events))
    return p


def load_jsonl(path: str | Path) -> list[dict]:
    """Load a trace exported by :meth:`TraceRegistry.export_jsonl`."""
    events = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            events.append(json.loads(line))
    return events


#: The process-global registry every hook writes to.
trace = TraceRegistry()
