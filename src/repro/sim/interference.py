"""Radio-interference modelling (paper Sec. VIII).

The main results assume collision-free rounds; the paper notes that
combining its algorithms with a contention-resolution protocol in the
Radio Broadcast Network (RBN) model costs *constant-factor energy* and a
*larger running time*.  :class:`ContentionKernel` makes that concrete:

* In the RBN model a transmission from ``u`` is received by ``v`` iff no
  other node whose signal reaches ``v`` transmits in the same slot.
* The kernel takes each synchronous round's transmissions, builds their
  conflict graph (two transmissions conflict when one's signal footprint
  covers any *intended* receiver of the other), greedy-colors it, and
  plays the color classes in consecutive interference-free slots.

This models an idealised TDMA contention-resolution layer: every message
is still transmitted exactly once (energy identical to the collision-free
kernel — the paper's "constant factor" is 1 for perfect scheduling), but
the round count inflates by the local contention — which is what the
paper's time-complexity caveat is about.  The slot count per round is at
most (max conflict degree + 1).
"""

from __future__ import annotations

import numpy as np

from repro.sim.kernel import SynchronousKernel


class ContentionKernel(SynchronousKernel):
    """Synchronous kernel with RBN contention resolution.

    Drop-in replacement for :class:`SynchronousKernel`: protocols and
    drivers run unchanged, trees and energies are identical, but
    ``rounds`` reflects the serialisation into interference-free slots.

    Round/slot accounting: this kernel's :meth:`step` fully replaces the
    base implementation (it never calls ``super().step()``), and it
    advances ``rounds`` by exactly one per interference-free slot — so
    over a run ``rounds == slots`` plus any idle :meth:`tick` rounds.
    There is no separate "logical round" counter and no double count:
    one base-kernel round that serialises into ``k`` slots costs ``k``
    rounds here, which is precisely the RBN time-inflation the paper's
    Sec. VIII caveat describes.

    Attributes
    ----------
    slots:
        Total interference-free slots used (>= rounds of the base kernel).
    max_slot_factor:
        Worst per-round inflation observed (slots used in one round);
        0 until the first non-empty round is stepped.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Conflict grouping needs the flat, send-ordered delivery list
        # (greedy coloring is defined over transmission arrival order).
        self._flat_pending = True
        self.slots = 0
        # 0, not 1: a run that never steps a non-empty round has observed
        # no inflation, and must not report a factor of 1.
        self.max_slot_factor = 0

    def step(self) -> int:
        """Play one base round's transmissions in interference-free slots.

        Advances ``rounds`` once per slot (see the class docstring).
        With a fault plane active, fates are drawn at delivery time with
        the slot's round number: contention reshuffles *when* a message
        arrives, so its loss draw legitimately differs from the
        collision-free kernel's — determinism holds per kernel class.
        """
        if not self._pending:
            return 0
        deliveries = self._pending
        self._pending = []

        # Group deliveries by physical transmission (same Message object).
        by_msg: dict[int, list[tuple[int, object, float]]] = {}
        order: list = []
        for item in deliveries:
            key = id(item[1])
            if key not in by_msg:
                by_msg[key] = []
                order.append(item[1])
            by_msg[key].append(item)

        # Conflict graph over transmissions.  Footprint of a transmission =
        # every node within its radius of the sender (not just intended
        # receivers): a unicast still radiates.
        senders = np.array([m.src for m in order])
        radii = np.array([m.radius for m in order])
        receivers = [
            np.array([dst for dst, _, _ in by_msg[id(m)]], dtype=np.int64)
            for m in order
        ]
        k = len(order)
        conflicts: list[set[int]] = [set() for _ in range(k)]
        pts = self.points
        for i in range(k):
            for j in range(i + 1, k):
                if self._interferes(pts, senders, radii, receivers, i, j) or (
                    self._interferes(pts, senders, radii, receivers, j, i)
                ):
                    conflicts[i].add(j)
                    conflicts[j].add(i)

        # Greedy coloring in arrival order: slot = smallest free color.
        color = [-1] * k
        for i in range(k):
            used = {color[j] for j in conflicts[i] if color[j] >= 0}
            c = 0
            while c in used:
                c += 1
            color[i] = c
        n_slots = max(color) + 1 if k else 0
        self.slots += n_slots
        self.max_slot_factor = max(self.max_slot_factor, n_slots)

        # Deliver slot by slot (deterministic recipient order within a slot).
        nodes = self.nodes
        rx = self.rx_cost
        ledger = self._ledger
        fp = self.faults
        for slot in range(n_slots):
            batch: list[tuple[int, object, float]] = []
            for i in range(k):
                if color[i] == slot:
                    batch.extend(by_msg[id(order[i])])
            batch.sort(key=lambda t: t[0])
            if fp is not None:
                batch = self._apply_faults_list(batch)
            for dst, msg, dist in batch:
                if rx:
                    ledger.charge_rx(dst, rx)
                nodes[dst].on_message(msg, dist)
            self._advance_round(len(batch))
        return len(deliveries)

    @staticmethod
    def _interferes(pts, senders, radii, receivers, i: int, j: int) -> bool:
        """Does transmission ``j``'s signal cover any intended receiver of
        ``i`` (other than when j == i's own sender, excluded by caller)?"""
        rec = receivers[i]
        if len(rec) == 0:
            return False
        d = pts[rec] - pts[senders[j]]
        dist2 = np.sum(d * d, axis=1)
        return bool((dist2 <= radii[j] * radii[j] * (1 + 1e-12)).any())
