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

import operator

import numpy as np

from repro.sim.kernel import SynchronousKernel

#: Sort key restoring send order (a broadcast's recipients share one seq).
_BY_SEQ = operator.itemgetter(3)

#: (receiver, sender) pairs per block of the conflict-matrix pass.
_PAIR_BLOCK = 1 << 20


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

    planes = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
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
        uni, bc = self._uni, self._bcasts
        if not uni and not bc:
            return 0
        self._uni = []
        self._bcasts = []
        self._n_pending = 0
        # Conflict grouping and greedy coloring are defined over
        # transmission order: expand the broadcast descriptors and order
        # every (dst, msg, dist, seq) delivery by send sequence.  One
        # send's deliveries share a seq and sit in one queue, so the
        # stable sort keeps each broadcast's recipients in table order.
        deliveries = uni
        for msg, ids, dists, seq in bc:
            deliveries.extend(
                (dst, msg, dist, seq) for dst, dist in zip(ids.tolist(), dists.tolist())
            )
        deliveries.sort(key=_BY_SEQ)

        # Group deliveries by physical transmission (same Message object).
        by_msg: dict[int, list[tuple[int, object, float, int]]] = {}
        order: list = []
        for item in deliveries:
            key = id(item[1])
            if key not in by_msg:
                by_msg[key] = []
                order.append(item[1])
            by_msg[key].append(item)
        groups = [by_msg[id(m)] for m in order]
        color = self._color(order, groups)
        k = len(order)
        n_slots = int(color.max()) + 1 if k else 0
        self.slots += n_slots
        self.max_slot_factor = max(self.max_slot_factor, n_slots)

        # Deliver slot by slot (deterministic recipient order within a slot).
        nodes = self.nodes
        rx = self.rx_cost
        ledger = self._ledger
        fp = self.faults
        for slot in range(n_slots):
            batch: list[tuple[int, object, float, int]] = []
            for i in np.flatnonzero(color == slot).tolist():
                batch.extend(groups[i])
            batch.sort(key=lambda t: t[0])
            if fp is not None:
                batch = self._apply_faults_list(batch)
            for dst, msg, dist, _ in batch:
                if rx:
                    ledger.charge_rx(dst, rx)
                nodes[dst].on_message(msg, dist)
            self._advance_round(len(batch))
        return len(deliveries)

    def _color(self, order: list, groups: list) -> np.ndarray:
        """Greedy slot colouring of one round's transmissions.

        Two transmissions conflict when either one's signal covers an
        intended receiver of the other.  The footprint of a transmission
        is every node within its radius of the sender (not just its
        intended receivers): a unicast still radiates.  The conflict
        matrix comes from one array pass over (receiver, sender) pairs,
        in blocks of senders so its scratch stays bounded; colours are
        then given in arrival order, each transmission taking the
        smallest colour none of its earlier neighbours holds.
        """
        k = len(order)
        pts = self.points
        px, py = pts[:, 0], pts[:, 1]
        senders = np.array([m.src for m in order], dtype=np.int64)
        radii = np.array([m.radius for m in order], dtype=float)
        counts = np.array([len(g) for g in groups], dtype=np.int64)
        rec = np.fromiter(
            (t[0] for g in groups for t in g), dtype=np.int64, count=int(counts.sum())
        )
        rx, ry = px[rec], py[rec]
        sx, sy = px[senders], py[senders]
        lim = radii * radii * (1 + 1e-12)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        # covers[i, j]: transmission j's signal reaches a receiver of i.
        covers = np.empty((k, k), dtype=bool)
        block = max(1, _PAIR_BLOCK // max(len(rec), 1))
        for j0 in range(0, k, block):
            j1 = min(j0 + block, k)
            dx = rx[:, None] - sx[j0:j1]
            dy = ry[:, None] - sy[j0:j1]
            dist2 = dx * dx + dy * dy
            covers[:, j0:j1] = np.logical_or.reduceat(
                dist2 <= lim[j0:j1], starts, axis=0
            )
        conflict = covers | covers.T
        color = np.full(k, -1, dtype=np.int64)
        for i in range(k):
            used = set(color[:i][conflict[i, :i]].tolist())
            c = 0
            while c in used:
                c += 1
            color[i] = c
        return color
