"""Trace comparison: find the first divergent event between two runs.

Two runs that should be equivalent — legacy vs fast kernel, engine vs
per-message phase loop, before vs after a refactor — emit identical
event streams, so the
interesting question is never "are they equal" (that's one ``==``) but
"*where* do they first disagree".  :func:`diff_traces` answers it with
the index of the first divergent event, both sides' versions of it, and
a window of the preceding agreed-upon events for context, which usually
pins the failure to a specific phase and round before any debugger is
opened.  The hot-path equivalence tests and the ``bench_*`` golden gates
reuse this as their triage path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.trace import load_jsonl

__all__ = ["Divergence", "diff_traces", "diff_files", "format_divergence"]


def _canon(event: dict | None) -> str | None:
    """A canonical string form of one event (key order removed).

    Serializing through JSON also collapses the tuple/list distinction,
    so an in-memory trace compares equal to its own JSONL round trip.
    """
    if event is None:
        return None
    return json.dumps(event, sort_keys=True, allow_nan=False)


@dataclass(frozen=True)
class Divergence:
    """The first point where two traces disagree.

    ``left`` / ``right`` are the two versions of the divergent event
    (``None`` when that side's trace ended early); ``context`` is the
    tail of events both sides agreed on just before the split.
    """

    index: int
    left: dict | None
    right: dict | None
    context: tuple[dict, ...] = field(default=())

    def to_dict(self) -> dict:
        """Plain JSON-serializable payload (fuzz counterexample exports)."""
        return {
            "kind": "trace_divergence",
            "index": self.index,
            "left": self.left,
            "right": self.right,
            "context": list(self.context),
        }


def diff_traces(
    a: Sequence[dict], b: Sequence[dict], *, context: int = 3
) -> Divergence | None:
    """First divergence between two event streams, or None if identical.

    Events are compared structurally after JSON canonicalization, so
    key order and list-vs-tuple payloads never produce false positives.
    A strictly shorter trace diverges at its end (the missing side is
    reported as ``None``).
    """
    n = max(len(a), len(b))
    for i in range(n):
        ea = a[i] if i < len(a) else None
        eb = b[i] if i < len(b) else None
        if _canon(ea) != _canon(eb):
            lo = max(0, i - context)
            return Divergence(
                index=i, left=ea, right=eb, context=tuple(a[lo:i])
            )
    return None


def diff_files(
    path_a: str | Path, path_b: str | Path, *, context: int = 3
) -> Divergence | None:
    """:func:`diff_traces` over two JSONL exports."""
    return diff_traces(load_jsonl(path_a), load_jsonl(path_b), context=context)


def format_divergence(
    d: Divergence | None, label_a: str = "left", label_b: str = "right"
) -> str:
    """Human-readable report (multi-line) for a divergence, or agreement."""
    if d is None:
        return "traces identical"
    lines = [f"traces diverge at event {d.index}:"]
    for event in d.context:
        lines.append(f"    = {_canon(event)}")
    lines.append(f"  {label_a:>7}: {_canon(d.left) or '<trace ended>'}")
    lines.append(f"  {label_b:>7}: {_canon(d.right) or '<trace ended>'}")
    return "\n".join(lines)
