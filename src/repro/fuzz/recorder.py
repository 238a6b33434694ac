"""Recording proxy over a compiled fault plane.

The fault model's central promise is *counter-free determinism*: the
scalar :meth:`~repro.sim.faults.FaultPlane.fate` and the vectorized
:meth:`~repro.sim.faults.FaultPlane.times` are the same pure function of
``(seed, src, dst, kind, round)``, bit for bit.  The unit tests pin that
on synthetic batches; the fuzzer pins it on the *exact* batches a real
run produced: :class:`RecordingFaultPlane` wraps the kernel's plane and
records both directions — every vectorized ``times()`` batch (emitted by
broadcast-carrying rounds) *and* every scalar ``fate()`` call (emitted
by unicast-only rounds and the per-message kernels) — and
:func:`verify_fate_determinism` replays each recorded element through
the *other* path afterwards.

The proxy delegates everything else via ``__getattr__``, so kernels,
recovery loops and audits see the inner plane unchanged.  Mutating code
(the fuzz worlds' mid-run crash windows) must write through ``.inner``
— writing an attribute on the proxy itself would shadow the delegation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ProtocolError

__all__ = ["RecordingFaultPlane", "verify_fate_determinism"]


class RecordingFaultPlane:
    """Delegating wrapper that captures every vectorized fate batch."""

    def __init__(self, inner, *, max_rows: int = 250_000) -> None:
        self.inner = inner
        #: Recorded ``(src, dst, kindh, rnd, times)`` tuples (arrays copied).
        self.batches: list[tuple] = []
        #: Recorded scalar ``(src, dst, kind, rnd, fate)`` calls.
        self.scalar_calls: list[tuple] = []
        self.total_batches = 0
        self.total_rows = 0
        self.recorded_rows = 0
        self.max_rows = max_rows

    def times(self, src, dst, kindh, rnd):
        out = self.inner.times(src, dst, kindh, rnd)
        k = len(out[0])
        self.total_batches += 1
        self.total_rows += k
        if self.recorded_rows < self.max_rows:
            kh = (
                kindh.astype(np.uint64, copy=True)
                if isinstance(kindh, np.ndarray)
                else int(kindh)
            )
            self.batches.append(
                (
                    np.array(src, dtype=np.int64, copy=True),
                    np.array(dst, dtype=np.int64, copy=True),
                    kh,
                    int(rnd),
                    out[0].copy(),
                )
            )
            self.recorded_rows += k
        return out

    def fate(self, src, dst, kind, rnd):
        f = self.inner.fate(src, dst, kind, rnd)
        self.total_rows += 1
        if self.recorded_rows < self.max_rows:
            self.scalar_calls.append((int(src), int(dst), kind, int(rnd), int(f)))
            self.recorded_rows += 1
        return f

    def __getattr__(self, name):
        return getattr(self.inner, name)


def verify_fate_determinism(plane: RecordingFaultPlane) -> int:
    """Replay every recorded element through the *other* fate path.

    Vectorized batches replay through scalar :meth:`fate`; scalar calls
    replay through one-element :meth:`times` batches.  Returns the number
    of elements checked; raises :class:`~repro.errors.ProtocolError` on
    the first mismatch.  Valid as a *post-run* check as long as crash
    windows were only ever opened at or after the round current when they
    were written (no retroactive fates) — the invariant the fuzz worlds
    maintain.
    """
    inner = plane.inner
    rev = {h: k for k, h in inner._kind_hashes.items()}
    checked = 0
    for src, dst, kind, rnd, f in plane.scalar_calls:
        times, cm, dm, um = inner.times(
            np.array([src], dtype=np.int64),
            np.array([dst], dtype=np.int64),
            np.full(1, inner.kind_hash(kind), dtype=np.uint64),
            rnd,
        )
        expect_times = {-1: 0, 0: 0, 1: 1, 2: 2}[f]
        vec = (int(times[0]), bool(cm[0]), bool(dm[0]), bool(um[0]))
        want = (expect_times, f == -1, f == 0, f == 2)
        if vec != want:
            raise ProtocolError(
                f"fate determinism violation: scalar fate {f} but the "
                f"vectorized path gives (times, crash, drop, dup)={vec} "
                f"for ({src} -> {dst}, kind {kind!r}, round {rnd})"
            )
        checked += 1
    for src, dst, kindh, rnd, times in plane.batches:
        if isinstance(kindh, np.ndarray):
            kh = kindh
        else:
            kh = np.full(len(src), np.uint64(kindh), dtype=np.uint64)
        for i in range(len(src)):
            kind = rev.get(int(kh[i]))
            if kind is None:
                raise ProtocolError(
                    f"recorded kind hash {int(kh[i])} unknown to the plane"
                )
            f = inner.fate(int(src[i]), int(dst[i]), kind, rnd)
            expect = {-1: 0, 0: 0, 1: 1, 2: 2}[f]
            if int(times[i]) != expect:
                raise ProtocolError(
                    "fate determinism violation: scalar fate gives "
                    f"{expect} copies but the vectorized batch delivered "
                    f"{int(times[i])} for ({int(src[i])} -> {int(dst[i])}, "
                    f"kind {kind!r}, round {rnd})"
                )
            checked += 1
    return checked
