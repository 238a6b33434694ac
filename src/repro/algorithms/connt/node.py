"""The nearest-neighbour-tree node protocol shared by Co-NNT and Rand-NNT.

Every node ``u`` knows (an estimate of) ``n`` and a *rank key*; it must
find its nearest node of higher rank.  The algorithm fixes the rank rule
(:func:`diagonal_rank`, :func:`id_rank`), which also fixes the *cutoff*:
the radius beyond which no higher-ranked node can live.

* in probe phase ``i = 1, 2, ...`` the still-searching node broadcasts
  ``REQUEST(key)`` to radius ``r_i = min(sqrt(2^i / n), sqrt(2))``;
* every listener with a larger key unicasts ``REPLY()`` back (the
  requester reads the distance off the delivery — physically, off the
  radio);
* if any replies arrived, the node picks the nearest replier, unicasts
  ``CONNECTION`` to it (both endpoints record the tree edge), and stops;
* a node whose probe radius has reached its cutoff without an answer is
  the highest-ranked node and terminates unconnected.

Co-NNT (paper Thm 6.2) ranks by the diagonal key ``(x+y, y, id)`` and
stops at the potential distance ``L_u``: the nearest higher-ranked node
lies within ``L_u`` by definition, so the protocol reproduces the
centralized diagonal-rank NNT exactly (ties in distance are measure-zero
under random coordinates).  Rand-NNT (the paper's refs [14, 15]) ranks
by node id and never reads coordinates, so it cannot bound where its
higher-ranked nodes live and searches out to the square's diameter.
"""

from __future__ import annotations

import math

from repro.errors import ProtocolError
from repro.geometry.potential import potential_distance
from repro.sim.faults import RetryBuffer
from repro.sim.message import Message
from repro.sim.node import NodeProcess

#: Kinds that bypass the reliable layer.  REQUEST is a discovery flood
#: (losing a copy costs a candidate, never safety — the runner re-probes
#: stranded nodes); ACKs are the reliable layer's own control traffic.
_UNRELIABLE_KINDS = frozenset(("REQUEST", "ACK"))


def diagonal_key(x: float, y: float, node_id: int) -> tuple[float, float, int]:
    """The diagonal-rank comparison key: ``(x+y, y, id)`` lexicographic."""
    return (x + y, y, node_id)


def diagonal_rank(ctx, node_id: int) -> tuple[tuple[float, float, int], float]:
    """Co-NNT's ``(key, cutoff)``: the diagonal key and ``L_u``.

    ``L_u`` is locally computable from the node's own coordinates
    (closed form), which the kernel must expose.
    """
    x, y = ctx.coords
    return diagonal_key(x, y, node_id), float(potential_distance([[x, y]])[0])


def id_rank(ctx, node_id: int) -> tuple[int, float]:
    """Rand-NNT's ``(key, cutoff)``: the node id and the square's diameter.

    Ids are assigned independently of geometry, so they are exchangeable
    with the random ranks of [15].
    """
    return node_id, math.sqrt(2.0)


class NNTNode(NodeProcess):
    """One processor running the doubling-radius NNT search.

    ``rank`` is :func:`diagonal_rank` (Co-NNT) or :func:`id_rank`
    (Rand-NNT).  With ``reliable=True`` (set by the runner when a fault
    plan is active) the two unicast kinds that carry safety — REPLY (a
    missed one can strand a requester) and CONNECTION (a missed one
    leaves an asymmetric tree edge) — travel through a
    :class:`RetryBuffer` ACK/retry layer, so under message loss the
    recorded tree stays symmetric and every heard candidate is
    eventually counted.
    """

    __slots__ = (
        "rank",
        "key",
        "cutoff",
        "done",
        "connected_to",
        "tree_edges",
        "last_radius",
        "_replies",
        "_phase",
        "reliable",
        "retry",
    )

    def __init__(
        self, node_id: int, ctx, *, rank=diagonal_rank, reliable: bool = False
    ) -> None:
        super().__init__(node_id, ctx)
        self.rank = rank
        self.reliable = reliable
        self.retry: RetryBuffer | None = None

    def on_start(self) -> None:
        self.retry = RetryBuffer(self.ctx) if self.reliable else None
        self.key, self.cutoff = self.rank(self.ctx, self.id)
        self.done = False
        self.connected_to: int | None = None
        self.tree_edges: set[int] = set()
        self.last_radius = 0.0
        self._replies: list[tuple[float, int]] = []
        self._phase = 0

    # -- driver signals -------------------------------------------------------

    def on_wake(self, signal: str, payload: tuple = ()) -> None:
        if signal == "probe":
            if self.done:
                return
            (i,) = payload
            if int(i) != self._phase:
                # Reset candidates only on a genuinely new phase: a
                # retransmitted REPLY that lands between a duplicate
                # probe wake and the decide still counts.
                self._replies = []
            self._phase = int(i)
            radius = min(math.sqrt(2.0**i / max(self.ctx.n_nodes, 1)), math.sqrt(2.0))
            self.last_radius = radius
            self.ctx.local_broadcast(radius, "REQUEST", self.key)
        elif signal == "retry_tick":
            if self.retry is not None:
                self.retry.tick()
        elif signal == "decide":
            if self.done:
                return
            self._decide()
        else:
            raise ProtocolError(f"unknown wake signal {signal!r}")

    def _decide(self) -> None:
        if self._replies:
            # Nearest replier; ties broken by id for determinism.
            _, target = min(self._replies)
            self.connected_to = target
            self.tree_edges.add(target)
            self._send(target, "CONNECTION")
            self.done = True
        elif self.last_radius >= self.cutoff:
            # Probed out to the cutoff and heard nothing: this is the
            # highest-ranked node (paper: "it terminates anyway").
            self.done = True

    def _send(self, dst: int, kind: str, *payload) -> None:
        """Unicast, through the retry layer when it applies (see class doc)."""
        if self.retry is not None and kind not in _UNRELIABLE_KINDS:
            self.retry.send(dst, kind, payload)
        else:
            self.ctx.unicast(dst, kind, *payload)

    # -- messages ---------------------------------------------------------------

    def on_message(self, msg: Message, distance: float) -> None:
        kind = msg.kind
        payload = msg.payload
        if self.retry is not None and kind not in _UNRELIABLE_KINDS:
            seq = payload[0]
            # ACK every copy: a duplicate means our previous ACK was lost.
            self.ctx.unicast(msg.src, "ACK", seq)
            if not self.retry.accept(msg.src, seq):
                return
            payload = payload[1:]
        elif kind == "ACK":
            if self.retry is None:
                raise ProtocolError(
                    f"node {self.id}: ACK received but reliable mode is off"
                )
            self.retry.on_ack(msg.src, payload[0])
            return
        self._dispatch(kind, msg.src, payload, distance)

    def _dispatch(
        self, kind: str, src: int, payload: tuple, distance: float
    ) -> None:
        if kind == "REQUEST":
            (key,) = payload
            if self.key > key:
                self._send(src, "REPLY")
        elif kind == "REPLY":
            self._replies.append((distance, src))
        elif kind == "CONNECTION":
            self.tree_edges.add(src)
        else:
            raise ProtocolError(f"node {self.id}: unknown message kind {kind!r}")
