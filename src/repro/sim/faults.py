"""Deterministic fault injection for the simulation kernel.

The paper's model assumes perfectly reliable, collision-free rounds; its
Sec. VIII discussion is about what survives when the radio layer does
not cooperate.  This module supplies the *adversary* side of that
question: a seeded :class:`FaultPlan` describing message loss, duplicate
delivery and node crash/restart epochs, compiled by the kernel into a
:class:`FaultPlane` that decides the fate of every delivery.

Design constraints (all load-bearing):

* **Counter-free determinism.**  A fate is a pure hash of
  ``(fault seed, stream, src, dst, kind, round)`` — a splitmix64-style
  finalizer over a linear combination of the coordinates — never a
  sequential RNG draw.  Two runs that deliver the same message in the
  same round therefore agree on its fate *regardless of evaluation
  order*, which is what makes the flood-plane fast path bit-identical
  to per-message delivery under faults,
  and what makes the scalar Python path agree with the vectorized
  numpy path bit-for-bit.
* **The sender still paid.**  TX energy is charged at send time; a
  dropped delivery refunds nothing (the radio transmitted — the ether
  ate it).  Reception-side costs (``rx_cost``) are only charged for
  copies actually delivered: zero for drops, twice for duplicates.
* **Crashes are radio-off windows.**  A node crashed during
  ``[start, end)`` neither receives (deliveries are counted as crash
  drops) nor acts on driver wakes; its protocol state survives the
  window (pause semantics, not reboot).  ``end=None`` means the node
  never comes back.
* **Zero cost when off.**  A ``None`` or null plan leaves every kernel
  hot path untouched (one ``is None`` branch per round).

:class:`RetryBuffer` is the matching *protocol* side: a small
per-node reliable-unicast layer (sequence numbers, ACKs, receiver
dedup, capped exponential backoff) that the GHS family and Co-NNT use
to recover; see ``docs/protocols.md``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.errors import ProtocolError, SimulationError
from repro.trace import trace

__all__ = ["FaultPlan", "FaultPlane", "RetryBuffer", "drain_reliable"]

_M64 = (1 << 64) - 1
#: Round index standing in for "never" in crash-window arrays (far above
#: any reachable round count, far below int64 overflow under +rnd math).
_NEVER = 1 << 62

# Independent odd 64-bit constants mixing each fate coordinate.
_C_SRC = 0x9E3779B97F4A7C15
_C_DST = 0xC2B2AE3D27D4EB4F
_C_RND = 0x165667B19E3779F9
_C_STREAM = 0x27D4EB2F165667C5
_C_KIND = 0xD6E8FEB86659FD93

_STREAM_DROP = 0
_STREAM_DUP = 1


def _mix64(z: int) -> int:
    """splitmix64 finalizer on a Python int (mod 2^64)."""
    z &= _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _mix64_np(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a uint64 array (wrapping semantics)."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _threshold(p: float) -> int:
    """Map a probability to a 64-bit compare threshold (draw < thr)."""
    if p <= 0.0:
        return 0
    if p >= 1.0:
        # Quantized to all-but-one draw; a 2^-64 sliver is below any
        # observable resolution and keeps thresholds inside uint64.
        return _M64
    return int(p * 2.0**64)


def _check_prob(label: str, p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise SimulationError(f"{label} must be in [0, 1], got {p}")
    return p


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, declarative description of the injected faults.

    Parameters
    ----------
    seed:
        Fault seed.  Together with ``(src, dst, kind, round)`` it fully
        determines every drop/duplicate decision — the instance seed and
        the fault seed are independent axes.
    drop_rate:
        Global per-delivery loss probability ``p``.
    dup_rate:
        Per-delivery probability that a successfully delivered copy is
        delivered twice (duplicate-delivery fault, exercising receiver
        idempotence/dedup).
    link_loss:
        Extra per-link loss: a mapping (or iterable of pairs)
        ``(u, v) -> p_link`` applied to *both* directions of the link
        and composed independently with ``drop_rate``:
        ``p_eff = 1 - (1 - drop_rate) (1 - p_link)``.
    crashes:
        ``(node, start, end)`` round windows (``end=None`` = forever;
        at most one window per node).  During ``[start, end)`` the node
        is radio-off: it receives nothing and ignores driver wakes.
    """

    seed: int = 0
    drop_rate: float = 0.0
    dup_rate: float = 0.0
    link_loss: tuple = ()
    crashes: tuple = ()

    def __post_init__(self) -> None:
        _check_prob("drop_rate", self.drop_rate)
        _check_prob("dup_rate", self.dup_rate)
        raw = self.link_loss
        if isinstance(raw, Mapping):
            raw = tuple(raw.items())
        norm = []
        for (u, v), p in raw:
            norm.append(((int(u), int(v)), _check_prob(f"link_loss[{u},{v}]", p)))
        object.__setattr__(self, "link_loss", tuple(norm))
        windows = []
        seen: set[int] = set()
        for spec in self.crashes:
            node, start = int(spec[0]), int(spec[1])
            end = spec[2] if len(spec) > 2 else None
            if start < 0:
                raise SimulationError(f"crash start must be >= 0, got {start}")
            if end is not None:
                end = int(end)
                if end <= start:
                    raise SimulationError(
                        f"crash window for node {node} is empty: [{start}, {end})"
                    )
            if node in seen:
                raise SimulationError(f"node {node} has more than one crash window")
            seen.add(node)
            windows.append((node, start, end))
        object.__setattr__(self, "crashes", tuple(windows))

    @property
    def is_null(self) -> bool:
        """True when the plan injects nothing (kernel skips it entirely)."""
        return (
            self.drop_rate == 0.0
            and self.dup_rate == 0.0
            and not self.link_loss
            and not self.crashes
        )

    def build(self, n: int) -> "FaultPlane":
        """Compile the plan for an ``n``-node kernel."""
        return FaultPlane(self, n)


class FaultPlane:
    """Compiled fault plan: per-delivery fate decisions for one kernel.

    The fate of a delivery ``(src, dst, kind)`` attempted in round
    ``rnd`` is decided in a fixed order:

    1. ``dst`` crashed in ``rnd``  -> crash drop (0 copies);
    2. drop draw < effective loss threshold -> drop (0 copies);
    3. dup draw < dup threshold -> duplicate (2 copies); else 1 copy.

    :meth:`fate` (scalar) and :meth:`times` (vectorized) implement the
    identical arithmetic; ``tests/test_faults.py`` pins the bit-match.
    """

    __slots__ = (
        "plan",
        "n",
        "_base",
        "_drop_thr",
        "_dup_thr",
        "_link_thr",
        "_cstart",
        "_cend",
        "has_crashes",
        "_kind_hashes",
    )

    def __init__(self, plan: FaultPlan, n: int) -> None:
        self.plan = plan
        self.n = int(n)
        self._base = _mix64(int(plan.seed) ^ 0x5DEECE66D1A2F9E3)
        self._drop_thr = _threshold(plan.drop_rate)
        self._dup_thr = _threshold(plan.dup_rate)
        # Directed (src, dst) -> effective threshold; link entries apply
        # to both directions and compose with the global drop rate.
        keep = 1.0 - plan.drop_rate
        self._link_thr: dict[tuple[int, int], int] = {}
        for (u, v), p in plan.link_loss:
            for a, b in ((u, v), (v, u)):
                if not (0 <= a < n and 0 <= b < n):
                    raise SimulationError(
                        f"link_loss entry ({u}, {v}) outside node range [0, {n})"
                    )
                p_eff = 1.0 - keep * (1.0 - p)
                self._link_thr[(a, b)] = _threshold(p_eff)
        self._cstart = np.full(n, _NEVER, dtype=np.int64)
        self._cend = np.full(n, _NEVER, dtype=np.int64)
        for node, start, end in plan.crashes:
            if not 0 <= node < n:
                raise SimulationError(
                    f"crash window names node {node} outside range [0, {n})"
                )
            self._cstart[node] = start
            self._cend[node] = _NEVER if end is None else end
        self.has_crashes = bool(plan.crashes)
        self._kind_hashes: dict[str, int] = {}

    # -- crash schedule ------------------------------------------------------

    def crashed(self, node: int, rnd: int) -> bool:
        """Is ``node`` radio-off in round ``rnd``?"""
        return bool(self._cstart[node] <= rnd < self._cend[node])

    def crashed_mask(self, node_ids: np.ndarray, rnd: int) -> np.ndarray:
        """Vectorized :meth:`crashed` over an id array."""
        s = self._cstart[node_ids]
        return (s <= rnd) & (rnd < self._cend[node_ids])

    def gone_forever(self, node: int, rnd: int) -> bool:
        """Crashed in ``rnd`` with no scheduled restart."""
        # The whole conjunction is wrapped: ``a and b`` short-circuits, and
        # returning the raw numpy comparison would leak ``np.bool_`` into
        # callers that pin on the builtin (JSON writers, identity checks).
        return bool((self._cstart[node] <= rnd) and (self._cend[node] >= _NEVER))

    def gone_mask(self, node_ids: np.ndarray, rnd: int) -> np.ndarray:
        """Vectorized :meth:`gone_forever`."""
        return (self._cstart[node_ids] <= rnd) & (self._cend[node_ids] >= _NEVER)

    def crash_start(self, node: int) -> int:
        """First crashed round for ``node`` (a huge sentinel if never)."""
        return int(self._cstart[node])

    # -- fate draws ----------------------------------------------------------

    def kind_hash(self, kind: str) -> int:
        """Stable 64-bit hash of a message kind (cached)."""
        h = self._kind_hashes.get(kind)
        if h is None:
            h = _mix64(zlib.crc32(kind.encode()) * _C_KIND)
            self._kind_hashes[kind] = h
        return h

    def _draw(self, src: int, dst: int, kindh: int, rnd: int, stream: int) -> int:
        z = (
            self._base
            + src * _C_SRC
            + dst * _C_DST
            + rnd * _C_RND
            + stream * _C_STREAM
            + kindh
        )
        return _mix64(z)

    def fate(self, src: int, dst: int, kind: str, rnd: int) -> int:
        """Fate code for one delivery: -1 crash drop, 0 drop, 1 deliver,
        2 deliver twice."""
        if self.has_crashes and self._cstart[dst] <= rnd < self._cend[dst]:
            return -1
        kindh = self.kind_hash(kind)
        thr = self._link_thr.get((src, dst), self._drop_thr) if self._link_thr \
            else self._drop_thr
        if thr and self._draw(src, dst, kindh, rnd, _STREAM_DROP) < thr:
            return 0
        if self._dup_thr and self._draw(src, dst, kindh, rnd, _STREAM_DUP) < self._dup_thr:
            return 2
        return 1

    def times(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        kindh: "int | np.ndarray",
        rnd: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized fates: per-delivery copy counts plus outcome masks.

        ``kindh`` is one :meth:`kind_hash` value (homogeneous batch, e.g.
        a flood plane) or a per-delivery uint64 array (mixed rounds).
        Returns ``(times, crash_mask, drop_mask, dup_mask)``; ``times``
        is 0/1/2 copies.  Bit-identical to calling :meth:`fate` per
        delivery.
        """
        dst_i = np.asarray(dst)
        src_u = np.asarray(src).astype(np.uint64, copy=False)
        dst_u = dst_i.astype(np.uint64, copy=False)
        k = len(dst_u)
        base = (self._base + rnd * _C_RND) & _M64
        if isinstance(kindh, np.ndarray):
            kh = kindh.astype(np.uint64, copy=False)
        else:
            kh = np.uint64(int(kindh) & _M64)
        with np.errstate(over="ignore"):
            z = (
                np.uint64(base)
                + src_u * np.uint64(_C_SRC)
                + dst_u * np.uint64(_C_DST)
                + kh
            )
        if self.has_crashes:
            crash = self.crashed_mask(dst_i.astype(np.intp, copy=False), rnd)
        else:
            crash = np.zeros(k, dtype=bool)
        if self._drop_thr or self._link_thr:
            with np.errstate(over="ignore"):
                draw = _mix64_np(z + np.uint64(_STREAM_DROP * _C_STREAM))
            if self._link_thr:
                thr = np.full(k, self._drop_thr, dtype=np.uint64)
                src_i = np.asarray(src)
                for (a, b), t in self._link_thr.items():
                    thr[(src_i == a) & (dst_i == b)] = t
                drop = draw < thr
            else:
                drop = draw < np.uint64(self._drop_thr)
            drop &= ~crash
        else:
            drop = np.zeros(k, dtype=bool)
        if self._dup_thr:
            with np.errstate(over="ignore"):
                draw = _mix64_np(z + np.uint64(_STREAM_DUP * _C_STREAM))
            dup = (draw < np.uint64(self._dup_thr)) & ~crash & ~drop
        else:
            dup = np.zeros(k, dtype=bool)
        times = np.ones(k, dtype=np.intp)
        times[crash | drop] = 0
        times[dup] = 2
        return times, crash, drop, dup


class RetryBuffer:
    """Per-node reliable-unicast layer: seq numbers, ACKs, dedup, backoff.

    A reliable node sends protocol unicasts through :meth:`send`, which
    prepends a fresh per-destination sequence number.  The receiver ACKs
    every reliable message (ACKs themselves are unreliable — a lost ACK
    just causes a retransmission that the receiver's per-sender dedup
    state absorbs) and processes only first deliveries.  Unacknowledged
    messages are retransmitted when the driver issues a ``retry_tick``
    wake, after a capped exponential backoff counted in ticks (the
    synchronous stand-in for a node-local timeout).

    Sequence numbers form one independent stream per destination, so the
    receiver side can compact its dedup state: for each sender it keeps
    only the first sequence number not yet seen (``_seen_lo``) plus the
    finite set of out-of-order arrivals beyond it (``seen``).  Under
    in-order delivery the set stays empty no matter how long the run is;
    a reordered or duplicated burst grows it only by the width of the
    reorder window.
    """

    __slots__ = ("ctx", "max_retries", "backoff_cap", "next_seq", "pending", "seen", "_seen_lo")

    def __init__(self, ctx, *, max_retries: int = 400, backoff_cap: int = 4) -> None:
        self.ctx = ctx
        self.max_retries = max_retries
        self.backoff_cap = backoff_cap
        #: dst -> next sequence number on the stream to that destination.
        self.next_seq: dict[int, int] = {}
        #: (dst, seq) -> [dst, kind, payload, attempts, ticks-until-retry]
        self.pending: dict[tuple[int, int], list] = {}
        #: src -> out-of-order seqs received beyond the compacted prefix.
        self.seen: dict[int, set[int]] = {}
        #: src -> lowest seq not yet covered by the contiguous prefix.
        self._seen_lo: dict[int, int] = {}

    def send(self, dst: int, kind: str, payload: tuple) -> None:
        """Transmit ``kind(seq, *payload)`` and arm the retry timer."""
        seq = self.next_seq.get(dst, 0)
        self.next_seq[dst] = seq + 1
        self.pending[(dst, seq)] = [dst, kind, payload, 0, 1]
        self.ctx.unicast(dst, kind, seq, *payload)

    def on_ack(self, src: int, seq: int) -> None:
        """Retire a delivered message (idempotent for duplicate ACKs)."""
        self.pending.pop((src, seq), None)

    def accept(self, src: int, seq: int) -> bool:
        """First delivery of ``(src, seq)``?  Duplicates return False."""
        lo = self._seen_lo.get(src, 0)
        if seq < lo:
            return False  # inside the compacted prefix: definitely a dup
        extra = self.seen.get(src)
        if extra is None:
            extra = self.seen[src] = set()
        if seq in extra:
            return False
        extra.add(seq)
        # Fold the contiguous prefix into the watermark.
        while lo in extra:
            extra.remove(lo)
            lo += 1
        self._seen_lo[src] = lo
        return True

    def tick(self) -> None:
        """One timeout tick: retransmit everything whose backoff expired."""
        # Snapshot: retransmitting can deliver synchronously on some
        # delivery paths, and the resulting ACK retires entries from
        # ``pending`` mid-iteration.
        for (dst, seq), ent in list(self.pending.items()):
            if (dst, seq) not in self.pending:
                continue  # retired by an ACK triggered earlier in this tick
            ent[4] -= 1
            if ent[4] > 0:
                continue
            ent[3] += 1
            if ent[3] > self.max_retries:
                raise ProtocolError(
                    f"reliable {ent[1]} to node {ent[0]} undeliverable after "
                    f"{self.max_retries} retries (peer permanently down?)"
                )
            ent[4] = min(1 << ent[3], self.backoff_cap)
            self.ctx.unicast(dst, ent[1], seq, *ent[2])


def drain_reliable(kernel, nodes, *, max_iters: int = 20000) -> None:
    """Run the kernel until quiescent with no unacknowledged traffic left.

    The minimal settle loop for protocols whose only recovery mechanism
    is the :class:`RetryBuffer` (Co-NNT): alternate quiescence with
    ``retry_tick`` wakes, idling the clock (``kernel.tick``) through
    rounds where backoff or a transient crash window prevents any
    transmission.  Holders that are gone forever (crashed with no
    scheduled restart) are excluded from the drain condition: their
    unacknowledged traffic can never move again, and the recovery audit
    (:func:`repro.algorithms.ghs.audit.audit_pending_retry`) explicitly
    tolerates it — without the exclusion the loop idles ``max_iters``
    ticks waiting for a restart that never comes, then raises.
    """
    fp = kernel.faults
    for _ in range(max_iters):
        kernel.run_until_quiescent()
        if fp is None:
            return
        rnd = kernel.rounds
        holders = [
            nd.id
            for nd in nodes
            if getattr(nd, "retry", None) is not None and nd.retry.pending
        ]
        if not holders:
            return
        live = [i for i in holders if not fp.gone_forever(i, rnd)]
        if not live:
            return  # only permanently dead nodes hold traffic: drained
        alive = [i for i in live if not fp.crashed(i, rnd)]
        if alive:
            if trace.enabled:
                trace.emit("retry", round=rnd, nodes=len(alive))
            kernel.wake(alive, "retry_tick")
            if not kernel.in_flight:
                kernel.tick()  # backoff armed: let a round pass
        else:
            kernel.tick()  # every live holder is down: wait out the window
    raise ProtocolError(f"reliable traffic did not drain in {max_iters} settle iterations")
