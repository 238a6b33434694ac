"""Index-aligned flood cache for the GHS family's plane fast path.

The kernel's flood planes (see ``repro.sim.kernel`` — "Flood planes")
deliver HELLO/ANNOUNCE floods as arrays of CSR edge indices instead of
per-recipient :class:`~repro.sim.message.Message` dispatch.  This module
holds the receiving side: one :class:`FloodCache` shared by every node,
aligned slot-for-slot with the kernel's neighbor table.

Layout: the neighbor table's CSR row for node ``i`` lists ``i``'s
neighbors sorted by distance; slot ``j`` in that row is the edge
``(i, ids[j])``.  The cache keeps, per slot,

* ``fid[j]``   — the fragment id ``i`` last heard from ``ids[j]``
  (``-1`` = never heard, the numpy stand-in for "absent from the dict"),
  in the table's slot dtype (a fragment id is a node id);
* ``known[j]`` — whether ``i`` has heard from ``ids[j]`` at all (the
  dict-membership bit: a HELLO at radius ``r < max_radius`` only reaches
  a prefix of each row);
* ``lo[j]`` / ``hi[j]`` — ``min``/``max`` of the edge's endpoint ids,
  so the globally consistent edge key ``(distance, lo, hi)`` is a
  gather away.  Built on first read: only the per-message path
  (:meth:`FloodCache.attach`, :meth:`FloodCache.moe_batch`) reads them,
  and the engine derives the key of the few slots it picks from
  ``ids``.

Delivery (:meth:`FloodCache.on_plane`) maps the plane's sender-major edge
indices through the table's reverse permutation to recipient-side slots
and overwrites ``fid``/``known`` in bulk — planes are order-free because
that overwrite is all a HELLO/ANNOUNCE receiver ever does.  Modified-mode
MOE search (:meth:`FloodCache.moe_batch`) becomes one masked segment-min
over the participants' rows instead of a per-node Python scan.

The whole-round phase engine (``repro.algorithms.ghs.turbo``) owns the
cache of an engine run outright — no node object exists to hold a view
(:meth:`FloodCache.attach` serves the per-message path only).  Its HELLO
is the one delivery the cache receives; in modified mode the engine
checks at entry that the cache holds every sender's current fragment id
over the announce radius, counts its ANNOUNCEs instead of writing them,
finds MOEs with its own cursor, and derives ``fid`` from the final
fragment ids on exit (original-mode GHS announces nothing and leaves
the cache as its HELLO flood wrote it).  Per-message deliveries and
``moe_batch`` serve the per-message phase loop, where faults can leave
the cache stale.

This module deliberately does not import ``repro.algorithms.ghs.node``
(nodes hold cache views by duck-typing), so either side can be loaded
without the other.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.sim.kernel import concat_ranges

#: Plane kinds this cache accepts — the pure cache-refresh floods.
PLANE_KINDS = ("HELLO", "ANNOUNCE")


class FloodCache:
    """Shared, table-aligned neighbour/fragment cache for all nodes."""

    __slots__ = ("table", "indptr", "ids", "dists", "fid", "known", "_lohi")

    def __init__(self, table) -> None:
        self.table = table
        self.indptr = table.indptr_arr
        self.ids = table.ids
        self.dists = table.dists
        self.fid = np.full(len(self.ids), -1, dtype=self.ids.dtype)
        self.known = np.zeros(len(self.ids), dtype=bool)
        self._lohi: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def lo(self) -> np.ndarray:
        """``min`` of each slot's endpoint ids (built on first read)."""
        return self._edge_keys()[0]

    @property
    def hi(self) -> np.ndarray:
        """``max`` of each slot's endpoint ids (built on first read)."""
        return self._edge_keys()[1]

    def _edge_keys(self) -> tuple[np.ndarray, np.ndarray]:
        if self._lohi is None:
            src = np.repeat(
                np.arange(len(self.indptr) - 1, dtype=self.ids.dtype),
                np.diff(self.indptr),
            )
            self._lohi = (np.minimum(src, self.ids), np.maximum(src, self.ids))
        return self._lohi

    @classmethod
    def ensure(cls, kernel) -> "FloodCache | None":
        """A fresh cache over ``kernel``'s current table, or ``None``.

        ``None`` means the plane fast path is unavailable: kernels
        without planes (legacy reference, contention) must keep the
        bit-exact per-message order, and the density gate may have
        rejected the table outright.  Callers fall back to per-message
        HELLOs.
        """
        if not kernel.planes or kernel.n == 0:
            return None
        tbl = kernel.neighbor_table()
        if tbl is None:
            return None
        return cls(tbl)

    def attach(self, node) -> None:
        """Bind ``node``'s cache views to its CSR row (zero-copy slices)."""
        s = int(self.indptr[node.id])
        e = int(self.indptr[node.id + 1])
        node.cache = self
        node.nb_ids = self.ids[s:e]
        node.nb_dist = self.dists[s:e]
        node.nb_fid = self.fid[s:e]
        node.nb_known = self.known[s:e]
        node.nb_lo = self.lo[s:e]
        node.nb_hi = self.hi[s:e]

    # -- plane delivery ---------------------------------------------------------

    def on_plane(self, kind, table, senders, payloads, counts, edge_idx) -> None:
        """Kernel plane handler: bulk-apply one round's HELLO/ANNOUNCE flood.

        ``edge_idx`` indexes sender-major (sender, recipient) edges; the
        recipient's cache slot for the sender is the reverse permutation
        of the same edge.  Fancy assignment applies in registration
        order, so a slot written twice in one round keeps the last
        sender's value — exactly the dict-overwrite semantics.
        """
        if table is not self.table:
            raise SimulationError(
                "flood plane delivered against a stale neighbor table; "
                "rebuild the cache (hello round) after raising the power cap"
            )
        if kind not in PLANE_KINDS:
            raise SimulationError(f"flood cache cannot apply plane kind {kind!r}")
        slots = table.rev[edge_idx]
        sent = payloads.astype(self.fid.dtype, copy=False)
        self.fid[slots] = np.repeat(sent, counts)
        self.known[slots] = True

    # -- modified-mode MOE search ----------------------------------------------

    def moe_batch(
        self, node_ids: np.ndarray, fids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Minimum outgoing edge for many nodes in one masked segment-min.

        For each ``node_ids[i]`` (current fragment id ``fids[i]``), finds
        the cache entry minimizing the edge key ``(distance, lo, hi)``
        among known neighbours in a *different* fragment — the modified
        GHS local MOE rule.  Returns parallel arrays
        ``(cand, dist, lo, hi)`` where ``cand[i] = -1`` (and
        ``dist[i] = inf``) means no outgoing edge.

        Distances are compared first and tie-broken by ``(lo, hi)``;
        distance ties are measure-zero for random instances but the
        tie-break keeps the key globally consistent regardless.
        """
        node_ids = np.asarray(node_ids, dtype=np.intp)
        fids = np.asarray(fids, dtype=np.int64)
        k = len(node_ids)
        cand = np.full(k, -1, dtype=np.int64)
        kdist = np.full(k, np.inf)
        klo = np.full(k, -1, dtype=np.int64)
        khi = np.full(k, -1, dtype=np.int64)
        if k == 0:
            return cand, kdist, klo, khi
        starts = self.indptr[node_ids]
        ends = self.indptr[node_ids + 1]
        counts = ends - starts
        total = int(counts.sum())
        if total == 0:
            return cand, kdist, klo, khi
        edge_idx = concat_ranges(starts, ends)
        seg = np.repeat(np.arange(k, dtype=np.intp), counts)
        mask = self.known[edge_idx] & (self.fid[edge_idx] != fids[seg])
        d = np.where(mask, self.dists[edge_idx], np.inf)
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        # reduceat treats repeated/trailing offsets as 1-element segments;
        # clamp into range and overwrite empty segments with inf after.
        minima = np.minimum.reduceat(d, np.minimum(offsets, total - 1))
        minima[counts == 0] = np.inf
        hit = mask & (d == minima[seg])
        pos = np.flatnonzero(hit)
        if len(pos) == 0:
            return cand, kdist, klo, khi
        seg_hits = seg[pos]
        uniq, first = np.unique(seg_hits, return_index=True)
        chosen = pos[first]
        if len(pos) > len(uniq):
            # Distance tie inside some segment: re-pick by (lo, hi).
            left = np.searchsorted(seg_hits, uniq, side="left")
            right = np.searchsorted(seg_hits, uniq, side="right")
            for ui in np.flatnonzero(right - left > 1):
                tied = pos[left[ui] : right[ui]]
                ei = edge_idx[tied]
                best = int(np.lexsort((self.hi[ei], self.lo[ei]))[0])
                chosen[ui] = tied[best]
        ce = edge_idx[chosen]
        cand[uniq] = self.ids[ce]
        kdist[uniq] = d[chosen]
        klo[uniq] = self.lo[ce]
        khi[uniq] = self.hi[ce]
        return cand, kdist, klo, khi
