"""Index-aligned flood cache: every per-message GHS node's neighbour store.

Each HELLO round of the per-message phase loop builds one
:class:`FloodCache`, shared by every node and aligned slot-for-slot
with a neighbor table at the kernel's power cap: the kernel's own
table, or, where the density gate declined one, a table built here.
:func:`flood_table` is the one place that decides whether a kernel's
table can also carry flood planes.

Layout: the neighbor table's CSR row for node ``i`` lists ``i``'s
neighbors sorted by distance; slot ``j`` in that row is the edge
``(i, ids[j])``.  The cache keeps, per slot,

* ``fid[j]``   — the fragment id ``i`` last heard from ``ids[j]``
  (``-1`` = never heard), in the table's slot dtype (a fragment id is
  a node id);
* ``known[j]`` — whether ``i`` has heard from ``ids[j]`` at all (a
  HELLO at radius ``r`` below the cap only reaches a prefix of each
  row).

The globally consistent edge key ``(distance, lo, hi)`` of slot ``j``
is ``dists[j]`` with the min/max of ``i`` and ``ids[j]``.

HELLO and ANNOUNCE floods fill the cache two ways.  Where
:func:`flood_table` allows planes, the kernel delivers a round's floods
as arrays of CSR edge indices (see ``repro.sim.kernel`` — "Flood
planes") and :meth:`FloodCache.on_plane` maps them through the table's
reverse permutation to recipient-side slots, overwriting ``fid``/``known``
in bulk — planes are order-free because that overwrite is all a
HELLO/ANNOUNCE receiver ever does.  Elsewhere (the legacy reference,
contention, density-gated tables) each flood arrives as a message and
the node writes its own slot.  Modified-mode MOE search
(:meth:`FloodCache.moe_batch`) is one masked segment-min over the
participants' rows, on every kernel.

A cache serves the per-message phase loop (fault plans, reception
costs, kernels without flood planes), where every node holds views of
it (:meth:`FloodCache.attach`).  The whole-round phase engine
(``repro.algorithms.ghs.turbo``) keeps no cache: it counts its HELLO
and ANNOUNCE deliveries and reads fragment membership off its own
``fid`` array and the kernel's table.

This module deliberately does not import ``repro.algorithms.ghs.node``
(nodes hold cache views by duck-typing), so either side can be loaded
without the other.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.sim.kernel import NeighborTable, concat_ranges, neighbor_csr_arrays

#: Plane kinds this cache accepts — the pure cache-refresh floods.
PLANE_KINDS = ("HELLO", "ANNOUNCE")


def flood_table(kernel):
    """``kernel``'s neighbour table if it can carry flood planes, else ``None``.

    ``None`` means no plane path: kernels without planes (the legacy
    reference, contention) keep the bit-exact per-message order, an
    empty instance has nothing to flood, and the density gate may have
    rejected the table outright.  The per-message HELLO round (whether
    its floods go out as planes) and the whole-round engine's
    eligibility both ask this one function.
    """
    if not kernel.planes or kernel.n == 0:
        return None
    return kernel.neighbor_table()


class FloodCache:
    """Shared, table-aligned neighbour/fragment cache for all nodes."""

    __slots__ = ("table", "indptr", "ids", "dists", "fid", "known")

    def __init__(self, table) -> None:
        self.table = table
        self.indptr = table.indptr_arr
        self.ids = ids = table.ids
        self.dists = table.dists
        self.fid = np.full(len(ids), -1, dtype=ids.dtype)
        self.known = np.zeros(len(ids), dtype=bool)

    @classmethod
    def ensure(cls, kernel) -> "FloodCache":
        """A fresh cache over ``kernel``'s neighbor table at its cap.

        Where the density gate declined the kernel a table, one is built
        here at the cap: it holds the entries the nodes' HELLOs fill
        anyway.
        """
        tbl = kernel.neighbor_table()
        if tbl is None:
            r = kernel.max_radius
            tbl = NeighborTable(r, *neighbor_csr_arrays(kernel.points, r))
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
        node.nb_slot = None

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
        tie-break keeps the key globally consistent regardless.  This is
        the per-message MOE search on every kernel, and the reference
        the whole-round engine's cursor is checked against.
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
                u, v = node_ids[uniq[ui]], self.ids[edge_idx[tied]]
                best = int(np.lexsort((np.maximum(u, v), np.minimum(u, v)))[0])
                chosen[ui] = tied[best]
        u = node_ids[uniq]
        v = self.ids[edge_idx[chosen]]
        cand[uniq] = v
        kdist[uniq] = d[chosen]
        klo[uniq] = np.minimum(u, v)
        khi[uniq] = np.maximum(u, v)
        return cand, kdist, klo, khi
