"""Whole-round array programs for the GHS family's Borůvka phases.

This is the optimized kernel's phase path for both GHS modes of the
paper: *modified* GHS (Sec. V-A: cached neighbour fragment ids,
per-phase ANNOUNCE; MGHS and both EOPT steps) and *original* GHS
(TEST/ACCEPT/REJECT probes, the Sec. V baseline).  When a run is
*eligible* — flood planes live, no fault plan, no reliable transport,
no reception cost — the driver's per-message phase loop is replaced by
:class:`TurboPhaseEngine`, which executes every round as a handful of
numpy array operations instead of thousands of per-node handler calls.
The flat-delivery kernels (``legacy``,
:class:`~repro.sim.interference.ContentionKernel`) never get flood
planes, so they always run the per-message loop.

The engine is an *observational clone* of the per-message path, not an
approximation of it.  The contract (checked by the hot-path equivalence
suite and ``trace/diff.py`` triage) is:

* ``energy_total`` is bit-identical: every transmission is charged in
  the exact order the per-message kernel would charge it — deliveries
  ascending by ``(recipient, seq)``, each handler's sends in code
  order — through one ``np.add.accumulate`` chain seeded with the
  running total (sequential, not pairwise, summation);
* ``rounds``, ``messages_total``, per-kind/per-stage message counts and
  per-round trace events (``round``/``dm``/``de``/``kinds``) are exact;
* per-kind/per-stage energy breakdowns reassociate float sums (the
  ledger contract already allows that); ``energy_by_node`` likewise;
* node objects are synced back on exit, so census/giant-declaration
  stages and result collection see the same state the per-message loop
  would have left (original mode: each node's ``rejected`` set too).

To make send order a pure function of protocol state,
:mod:`repro.algorithms.ghs.node` iterates tree edges in sorted order —
the engine reproduces those loops with sorted CSR rows.

Design notes
------------

Stage A (the INITIATE flood) is a vectorized BFS over the fragment-tree
CSR: one frontier array per round, announce + child-INITIATE emissions
interleaved per node by construction.  Stage B vectorizes the bulk
kinds — the ``find_moe`` wake, the TEST/ACCEPT/REJECT probes (the MOE
cursor below) and the REPORT converge-cast (segment counts and
lexicographic segment-min per recipient).  CONNECT / CHANGEROOT /
ABSORB are low-volume (O(fragments) per phase) and deliberately stay
scalar, processed in ``(recipient, seq)`` order, which sidesteps the
same-round state interleavings a vectorized merge would have to prove
commutative.  Every emission carries its trigger key ``(recipient id,
trigger seq, intra-handler index)``; one lexsort per round recovers the
global charge order.

In modified mode the engine never writes the flood cache while it
runs.  At entry it checks the *cache invariant*: every slot within the
announce radius is known and holds its sender's current fragment id,
and no slot beyond it is known (:meth:`TurboPhaseEngine.cache_in_sync`;
a run that fails it takes the per-message path).  Every fragment-id
change is announced, so the invariant holds again at every stage-B
wake.  An ANNOUNCE is therefore charged like any other send and
*counted* as delivered at the next round boundary (planes deliver
before unicasts), and the cache is derived from ``fid`` once, on exit.
Original mode never reads cached fragment ids (membership is what the
TEST probes ask), so it only needs every in-radius slot known, and it
leaves the cache exactly as the HELLO flood wrote it.

The MOE cursor: ``cur[i]`` is a position in node ``i``'s *walk* — its
CSR row in ``(d, lo, hi)`` edge-key order, which is the table's
distance order with each run of exact ties reordered by ascending
neighbour id.  Every position before the cursor is known to be internal
for good (fragments only merge).  Modified mode moves the cursor past
slots whose neighbour shares the node's fragment and reads the MOE
under it.  Original mode moves it, at no charge, past the phase-start
tree slots and the slots of a ``rejected`` mask over the CSR, then
sends one TEST at the slot under it; the recipient answers from its
fragment id, and a REJECT marks the edge on both sides (the recipient's
slot through the table's ``rev`` permutation), exactly as the TEST
handler does.  A REJECT recipient's next step sees only the marks of
TESTs delivered to it earlier — at a lower seq — in the same round.
Either way each cursor step is a fixed-width window over the nodes
still scanning, and the phases cost O(table entries) per run, not
O(entries × phases).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import ProtocolError
from repro.algorithms.ghs.node import GHSNode
from repro.perf import perf
from repro.sim._jit import HAVE_NUMBA, njit
from repro.sim.kernel import concat_ranges as _concat_ranges
from repro.trace import trace

__all__ = [
    "turbo_phase_engine",
    "run_phases_turbo",
    "TurboPhaseEngine",
    "seq_energy_accumulate",
]

# Emission kind codes (column values in the per-round emission table).
(
    _INITIATE, _ANNOUNCE, _REPORT, _CHANGEROOT, _CONNECT, _ABSORB,
    _TEST, _ACCEPT, _REJECT,
) = range(9)
_KIND_NAMES = (
    "INITIATE", "ANNOUNCE", "REPORT", "CHANGEROOT", "CONNECT", "ABSORB",
    "TEST", "ACCEPT", "REJECT",
)

_INF = math.inf


@njit(cache=True)
def _seq_sum_jit(total: float, energies: np.ndarray) -> float:
    total = float(total)
    for i in range(energies.shape[0]):
        total += energies[i]
    return total


def seq_energy_accumulate(total: float, energies: np.ndarray) -> float:
    """``total`` advanced by every element of ``energies``, *in order*.

    The ledger total must move through the exact left-to-right partial
    sums the per-message kernel's ``+=`` loop produces, so
    pairwise/compensated summation is off the table.  Under Numba this
    is the jitted scalar loop itself; without it, a seeded
    ``np.add.accumulate`` chain — ufunc accumulation is defined as
    sequential application, so the two paths are bit-identical (pinned
    by ``tests/test_turbo.py`` with and without ``REPRO_NO_NUMBA=1``).
    """
    if HAVE_NUMBA:
        return float(_seq_sum_jit(float(total), np.ascontiguousarray(energies)))
    return float(np.add.accumulate(np.concatenate(([total], energies)))[-1])


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` for a 1-d array, by one sort and a neighbour mask.

    Plain ``np.unique`` may take a hash-based path that is far slower
    than sorting for int64 keys.
    """
    keys = np.sort(keys)
    if len(keys) > 1:
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return keys


def walk_order(
    indptr: np.ndarray, ids: np.ndarray, dists: np.ndarray
) -> np.ndarray | None:
    """Each CSR row in edge-key ``(d, lo, hi)`` order, as a slot permutation.

    Rows are distance-sorted, so only runs of exact distance ties move:
    within one row ``(d, lo, hi)`` orders a tie run by ascending
    neighbour id.  ``None`` when no row holds a tie run out of that
    order (uniform random instances).
    """
    m = len(ids)
    if m < 2:
        return None
    tie = dists[1:] == dists[:-1]
    bounds = indptr[1:-1]
    tie[bounds[(bounds > 0) & (bounds < m)] - 1] = False  # runs never span rows
    if not (tie & (ids[1:] < ids[:-1])).any():
        return None
    row = np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr))
    return np.lexsort((ids, dists, row))


def turbo_phase_engine(kernel, nodes: Sequence[GHSNode]) -> "TurboPhaseEngine | None":
    """Engine for this run, or ``None`` when ineligible.

    Eligibility is deliberately conservative — anything the array
    programs do not model bit-exactly falls back to the per-message
    path:

    * no fault plan, no reception cost, nothing in flight;
    * flood planes live: neighbor table built (density gate passed),
      every node bound to one :class:`FloodCache` over that table, and
      the cache registered as the kernel's plane handler (flat-delivery
      kernels never get one — ``FloodCache.ensure`` returns ``None``);
    * plain :class:`GHSNode` instances without reliable-transport
      envelopes, all in one protocol mode: modified (no TEST probes,
      ANNOUNCE on) or original (TEST probes, no ANNOUNCE);
    * one uniform radio radius within the table's power cap;
    * modified mode: the flood cache holds exactly the nodes' current
      fragment ids over the announce radius
      (:meth:`TurboPhaseEngine.cache_in_sync`);
    * original mode: every slot within the radius is known and none
      beyond it, every node is a singleton fragment with nothing
      rejected (the state ``run_ghs`` starts from), and none is passive,
      so no ABSORB can change a fragment id while TESTs are in flight
      (:meth:`TurboPhaseEngine.probes_ready`).
    """
    if kernel.faults is not None or kernel.rx_cost:
        return None
    if not nodes or kernel.in_flight:
        return None
    tbl = kernel.neighbor_table()
    if tbl is None:
        return None
    nd0 = nodes[0]
    cache = getattr(nd0, "cache", None)
    if cache is None or cache.table is not tbl:
        return None
    # The registered plane handler must be *this* cache's on_plane
    # (bound methods are recreated per access, so compare the receiver).
    handler = kernel._plane_handler
    if getattr(handler, "__self__", None) is not cache or getattr(
        handler, "__func__", None
    ) is not type(cache).on_plane:
        return None
    r = nd0.radio_radius
    if not (0.0 < r <= tbl.max_radius):
        return None
    tests = nd0.use_tests
    for nd in nodes:
        if type(nd) is not GHSNode:
            return None
        if nd.reliable or nd.retry is not None:
            return None
        if nd.use_tests != tests or nd.announce == tests:
            return None
        if nd.cache is not cache or nd.radio_radius != r:
            return None
    eng = TurboPhaseEngine(kernel, nodes, cache, tbl)
    ok = eng.probes_ready() if tests else eng.cache_in_sync()
    return eng if ok else None


class _Emits:
    """One round's emission table, accumulated then lexsorted once.

    Columns: trigger key ``(k1, k2, k3)`` = (recipient id / wake rank,
    trigger seq, intra-handler index), sender ``node``, ``kind`` code,
    transmission distance ``dist`` (the announce radius for ANNOUNCE),
    recipient ``dst`` (-1 for ANNOUNCE), and payload columns ``pf``
    (REPORT distance), ``p1`` (REPORT lo), ``p2`` (REPORT hi / fragment
    id for CONNECT and ABSORB).
    """

    __slots__ = ("chunks", "k1", "k2", "k3", "node", "kind", "dist", "dst", "pf", "p1", "p2")

    def __init__(self) -> None:
        self.chunks: list[tuple] = []
        self.k1: list[int] = []
        self.k2: list[int] = []
        self.k3: list[int] = []
        self.node: list[int] = []
        self.kind: list[int] = []
        self.dist: list[float] = []
        self.dst: list[int] = []
        self.pf: list[float] = []
        self.p1: list[int] = []
        self.p2: list[int] = []

    def add_chunk(self, k1, k2, k3, node, kind, dist, dst, pf=None, p1=None, p2=None) -> None:
        """Append parallel emission arrays (already per-column numpy)."""
        k = len(node)
        if k == 0:
            return
        zf = np.zeros(k)
        zi = np.zeros(k, dtype=np.int64)
        self.chunks.append(
            (
                np.asarray(k1, dtype=np.int64),
                np.asarray(k2, dtype=np.int64),
                np.asarray(k3, dtype=np.int64),
                np.asarray(node, dtype=np.int64),
                np.asarray(kind, dtype=np.int64),
                np.asarray(dist, dtype=np.float64),
                np.asarray(dst, dtype=np.int64),
                zf if pf is None else np.asarray(pf, dtype=np.float64),
                zi if p1 is None else np.asarray(p1, dtype=np.int64),
                zi if p2 is None else np.asarray(p2, dtype=np.int64),
            )
        )

    def add(self, k1, k2, k3, node, kind, dist, dst, pf=0.0, p1=0, p2=0) -> None:
        """Append one scalar emission row."""
        self.k1.append(k1)
        self.k2.append(k2)
        self.k3.append(k3)
        self.node.append(node)
        self.kind.append(kind)
        self.dist.append(dist)
        self.dst.append(dst)
        self.pf.append(pf)
        self.p1.append(p1)
        self.p2.append(p2)

    def __len__(self) -> int:
        return len(self.node) + sum(len(c[3]) for c in self.chunks)

    def fold_chunks(self) -> None:
        """Move the chunks into the scalar row lists, ahead of the rows
        added one by one — the order :meth:`columns` concatenates in."""
        if not self.chunks:
            return
        cols = (self.k1, self.k2, self.k3, self.node, self.kind,
                self.dist, self.dst, self.pf, self.p1, self.p2)
        for i, col in enumerate(cols):
            col[:0] = [x for c in self.chunks for x in c[i].tolist()]
        self.chunks = []

    def columns(self) -> tuple | None:
        """All emissions in global trigger order, or ``None`` if empty."""
        chunks = self.chunks
        if self.node:
            self.add_chunk(
                self.k1, self.k2, self.k3, self.node, self.kind,
                self.dist, self.dst, self.pf, self.p1, self.p2,
            )
        if not chunks:
            return None
        if len(chunks) == 1:
            cols = chunks[0]
        else:
            cols = tuple(np.concatenate([c[i] for c in chunks]) for i in range(10))
        order = np.lexsort(cols[2::-1])  # (k3, k2, k1) -> sort by k1, k2, k3
        return tuple(col[order] for col in cols)


class TurboPhaseEngine:
    """Array-program replacement for ``run_ghs_phases`` (one run)."""

    def __init__(self, kernel, nodes: Sequence[GHSNode], cache, tbl) -> None:
        self.k = kernel
        self.nodes = nodes
        self.cache = cache
        self.tbl = tbl
        self.n = n = kernel.n
        self.pw = kernel.power
        self.r = r = nodes[0].radio_radius
        self.acost = self.pw.energy(r)
        pts = kernel.points
        self.px = np.ascontiguousarray(pts[:, 0])
        self.py = np.ascontiguousarray(pts[:, 1])
        # Announce rows: per-sender cache-slot prefix covered by radius r
        # (== the full row when r is the table's power cap).  Same closed
        # ball the kernel's searchsorted(..., side="right") cutoff keeps.
        ip = cache.indptr
        #: Recipient-side announce slots (``None`` = every slot); the
        #: same set as the senders' announce rows, distances being symmetric.
        self.ann_mask = None if r >= tbl.max_radius else cache.dists <= r
        if self.ann_mask is None:
            self.ann_ends = ip[1:]
        else:
            within = np.concatenate(([0], np.cumsum(self.ann_mask)))
            self.ann_ends = ip[:-1] + (within[ip[1:]] - within[ip[:-1]])
        self.ann_cnt = self.ann_ends - ip[:-1]
        #: Original (TEST-probing) mode; only modified mode announces.
        self.tests = bool(nodes[0].use_tests)
        #: Walk position -> CSR slot (``None``: the table order already is
        #: the edge-key order).
        self.walk = walk_order(ip, cache.ids, cache.dists)
        #: MOE cursor: first walk position of each row not yet known internal.
        self.cur = ip[:-1].copy()
        #: Slots the cursors examined, and cursor wakes (participants
        #: summed over phases): ``cursor_steps <= entries + cursor_wakes``.
        self.cursor_steps = 0
        self.cursor_wakes = 0
        #: Original mode (built by :meth:`probes_ready`): ``rejected`` marks
        #: same-fragment slots found by probes, ``dead`` adds the
        #: phase-start tree slots — the slots a cursor skips for free.
        self.rejected: np.ndarray | None = None
        self.dead: np.ndarray | None = None
        #: Slots (both directions) of this phase's CONNECT edges; they
        #: join ``dead`` at the next phase start.
        self.tree_new: list[int] = []
        # -- protocol state, synced in from the node objects ----------------
        self.fid = np.fromiter((nd.fid for nd in nodes), dtype=np.int64, count=n)
        self.leader = np.fromiter((nd.leader for nd in nodes), dtype=bool, count=n)
        self.halted = np.fromiter((nd.halted for nd in nodes), dtype=bool, count=n)
        self.passive = np.fromiter((nd.passive for nd in nodes), dtype=bool, count=n)
        self.cur_phase = np.fromiter((nd.cur_phase for nd in nodes), dtype=np.int64, count=n)
        self.parent = np.fromiter(
            (-1 if nd.parent is None else nd.parent for nd in nodes),
            dtype=np.int64,
            count=n,
        )
        eu: list[int] = []
        ev: list[int] = []
        for nd in nodes:
            for e in nd.tree_edges:
                eu.append(nd.id)
                ev.append(e)
        #: Directed tree-edge chunks (deduped at each CSR build).
        self.edge_chunks: list[np.ndarray] = []
        if eu:
            self.edge_chunks.append(
                np.stack([np.array(eu, dtype=np.int64), np.array(ev, dtype=np.int64)])
            )
        self.edge_u: list[int] = []
        self.edge_v: list[int] = []
        # -- per-phase scratch ---------------------------------------------
        self.n_children = np.zeros(n, dtype=np.int64)
        self.parent_dist = np.zeros(n)
        self.reports_recv = np.zeros(n, dtype=np.int64)
        self.reported = np.zeros(n, dtype=bool)
        self.best_d = np.full(n, _INF)
        self.best_lo = np.full(n, -1, dtype=np.int64)
        self.best_hi = np.full(n, -1, dtype=np.int64)
        self.best_child = np.full(n, -1, dtype=np.int64)
        self.cand_nb = np.full(n, -1, dtype=np.int64)
        self.cand_d = np.full(n, _INF)
        self.cand_lo = np.full(n, -1, dtype=np.int64)
        self.cand_hi = np.full(n, -1, dtype=np.int64)
        self.final_d = np.full(n, _INF)
        self.final_lo = np.full(n, -1, dtype=np.int64)
        self.final_hi = np.full(n, -1, dtype=np.int64)
        self.final_from = np.full(n, -1, dtype=np.int64)
        self.sent_connect_to = np.full(n, -1, dtype=np.int64)
        self.connects_in: dict[int, set[int]] = {}
        self.search_done = np.zeros(n, dtype=bool)
        #: Seq of the REPORT that completed each node's count while its
        #: search was still running.  Seqs only grow, so a value left from
        #: an earlier round is below every seq delivered now.
        self.rep_seq = np.full(n, -1, dtype=np.int64)
        #: Seq of each node's REJECT in the round being processed.
        self.rej_at = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        #: This-phase tree adds per node, maintained only while a passive
        #: node exists (= an ABSORB flood is possible; EOPT step 2).
        self.extras: dict[int, list[int]] | None = None
        # -- per-phase fragment-tree CSR -----------------------------------
        self.t_indptr: np.ndarray | None = None
        self.t_adj: np.ndarray | None = None
        # -- pending deliveries for the next round ---------------------------
        self.pend_report: tuple | None = None
        self.pend_misc: tuple | None = None
        self.pend_probe: tuple | None = None
        #: ANNOUNCE senders (array or list), delivered as a count.
        self.pend_ann = None
        self._seq = 0

    # -- the flood cache ---------------------------------------------------

    def cache_in_sync(self) -> bool:
        """Whether the cache invariant holds (checked once per run, O(entries)).

        Every slot within the announce radius is known and holds its
        sender's current fragment id, and no slot beyond it is known.  A
        HELLO at the radius leaves the cache so; a stale cache fails
        the check and keeps the run on the per-message path.
        """
        c = self.cache
        m = self.ann_mask
        if m is None:
            return bool(c.known.all()) and np.array_equal(c.fid, self.fid[c.ids])
        return np.array_equal(c.known, m) and np.array_equal(
            c.fid[m], self.fid[c.ids[m]]
        )

    def probes_ready(self) -> bool:
        """Original-mode entry check; builds the ``rejected``/``dead`` masks.

        The probe walk covers exactly the known slots, so every slot
        within the radius must be known and none beyond it (a HELLO at
        the radius leaves the cache so).  The run must start from
        singleton fragments with nothing rejected, as ``run_ghs`` does;
        anything else keeps the per-message path.
        """
        c = self.cache
        m = self.ann_mask
        if not (c.known.all() if m is None else np.array_equal(c.known, m)):
            return False
        if self.passive.any():
            return False
        if any(nd.rejected or nd.tree_edges for nd in self.nodes):
            return False
        self.rejected = np.zeros(len(c.ids), dtype=bool)
        self.dead = np.zeros(len(c.ids), dtype=bool)
        return True

    def _write_cache(self) -> None:
        """Derive ``cache.fid`` from ``fid``: each sender's last ANNOUNCE."""
        c = self.cache
        m = self.ann_mask
        if m is None:
            np.take(self.fid, c.ids, out=c.fid)
        else:
            c.fid[m] = self.fid[c.ids[m]]

    #: Walk positions one cursor step examines per still-scanning node.
    _WINDOW = 8

    def _walk(
        self, us: np.ndarray, pos: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance the cursors of ``us`` from walk positions ``pos``.

        Stops each cursor at the first position whose slot is live —
        an outgoing neighbour (modified mode), or not ``dead`` (original
        mode) — or at its row's announce end.  Returns the new positions
        (also stored in ``cur``) and whether each stopped on a live slot.
        A position is examined at most once per call, and each cursor
        only moves forward.
        """
        c = self.cache
        ids, walk, dead = c.ids, self.walk, self.dead
        fid, ends = self.fid, self.ann_ends
        out = pos.copy()
        last = len(ids) - 1
        if last >= 0:
            step = np.arange(self._WINDOW)
            act = np.arange(len(us))
            while len(act):
                p = out[act]
                u = us[act]
                win = p[:, None] + step
                stop = win >= ends[u][:, None]
                np.minimum(win, last, out=win)
                if walk is not None:
                    win = walk[win]
                if dead is None:
                    stop |= fid[ids[win]] != fid[u][:, None]
                else:
                    stop |= ~dead[win]
                hit = stop.any(axis=1)
                out[act] = p + np.where(hit, stop.argmax(axis=1), self._WINDOW)
                act = act[~hit]
        self.cur[us] = out
        found = out < ends[us]
        self.cursor_steps += int((out - pos).sum()) + int(np.count_nonzero(found))
        return out, found

    def _slot(self, pos):
        """CSR slot(s) at walk position(s) ``pos``."""
        return pos if self.walk is None else self.walk[pos]

    def _cursor_moe(
        self, parts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``FloodCache.moe_batch`` for the participants, by the MOE cursor.

        Walks each cursor past the slots whose neighbour shares the
        node's fragment; the MOE is the slot under it (the walk follows
        the edge key, so in a run of exact distance ties that is the
        outgoing slot of least ``(lo, hi)``).  Returns ``(cand, dist,
        lo, hi)``, ``cand = -1`` and ``dist = inf`` where no outgoing
        edge is in range.
        """
        c = self.cache
        k = len(parts)
        cand = np.full(k, -1, dtype=np.int64)
        kdist = np.full(k, _INF)
        klo = np.full(k, -1, dtype=np.int64)
        khi = np.full(k, -1, dtype=np.int64)
        self.cursor_wakes += k
        pos, found = self._walk(parts, self.cur[parts])
        has = np.flatnonzero(found)
        j = self._slot(pos[has])
        cand[has] = c.ids[j]
        kdist[has] = c.dists[j]
        klo[has] = c.lo[j]
        khi[has] = c.hi[j]
        return cand, kdist, klo, khi

    # -- geometry ----------------------------------------------------------

    def _dist(self, u, v) -> np.ndarray:
        """Pairwise distances, bit-identical to the kernel's expression."""
        dx = self.px[u] - self.px[v]
        dy = self.py[u] - self.py[v]
        return np.sqrt(dx * dx + dy * dy)

    def _dist1(self, u: int, v: int) -> float:
        dx = self.px[u] - self.px[v]
        dy = self.py[u] - self.py[v]
        return math.sqrt(dx * dx + dy * dy)

    # -- fragment-tree CSR -------------------------------------------------

    def _flush_edges(self) -> None:
        if self.edge_u:
            self.edge_chunks.append(
                np.stack(
                    [
                        np.array(self.edge_u, dtype=np.int64),
                        np.array(self.edge_v, dtype=np.int64),
                    ]
                )
            )
            self.edge_u = []
            self.edge_v = []

    def _build_tree_csr(self) -> None:
        """(Re)build the sorted fragment-tree adjacency for this phase."""
        self._flush_edges()
        n = self.n
        if not self.edge_chunks:
            self.t_indptr = np.zeros(n + 1, dtype=np.int64)
            self.t_adj = np.empty(0, dtype=np.int64)
            return
        if len(self.edge_chunks) > 1:
            allc = np.concatenate(self.edge_chunks, axis=1)
            self.edge_chunks = [allc]
        else:
            allc = self.edge_chunks[0]
        # Dedup (protocol adds each direction at its own endpoint; the
        # reciprocal-CONNECT core adds one direction twice) and sort so
        # each row enumerates neighbours ascending.
        keys = sorted_unique(allc[0] * n + allc[1])
        u = keys // n
        self.t_adj = keys % n
        self.t_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(u, minlength=n), out=self.t_indptr[1:])

    def _tree_row(self, u: int) -> list[int]:
        """Node ``u``'s current tree neighbours, ascending (CSR + this-phase adds)."""
        s, e = self.t_indptr[u], self.t_indptr[u + 1]
        row = self.t_adj[s:e].tolist()
        extra = self.extras.get(u) if self.extras is not None else None
        if extra:
            row = sorted(set(row).union(extra))
        return row

    def _add_edge(self, u: int, v: int) -> None:
        self.edge_u.append(u)
        self.edge_v.append(v)
        if self.extras is not None:
            self.extras.setdefault(u, []).append(v)

    # -- charging / round boundary -----------------------------------------

    def _finalize(self, em: _Emits) -> int:
        """Charge this block's emissions in trigger order; queue deliveries.

        Returns the number of messages charged.  Mirrors what the
        per-message handlers would have done: ``energy_total`` advances
        through the exact per-message partial sums, per-kind/per-stage
        counters take the same integer counts, and each send lands in
        next round's pending set keyed ``(recipient, seq)``.
        """
        if len(em) <= 64:
            em.fold_chunks()
            return self._finalize_scalar(em)
        cols = em.columns()
        led = self.k._ledger
        if cols is None:
            self.pend_report = None
            self.pend_misc = None
            self.pend_probe = None
            self.pend_ann = None
            return 0
        _, _, _, node, kind, dist, dst, pf, p1, p2 = cols
        k = len(node)
        energies = self.pw.energy_array(dist)
        led.energy_total = seq_energy_accumulate(led.energy_total, energies)
        led.messages_total += k
        np.add.at(led.energy_by_node, node, energies)
        counts = np.bincount(kind, minlength=len(_KIND_NAMES))
        esums = np.bincount(kind, weights=energies, minlength=len(_KIND_NAMES))
        stage = self.k.stage
        led.energy_by_stage[stage] += float(energies.sum())
        led.messages_by_stage[stage] += k
        for code in np.flatnonzero(counts).tolist():
            name = _KIND_NAMES[code]
            led.energy_by_kind[name] += float(esums[code])
            led.messages_by_kind[name] += int(counts[code])
        seqs = np.arange(self._seq, self._seq + k, dtype=np.int64)
        self._seq += k
        # Split into next round's pending sets.
        m = kind == _ANNOUNCE
        self.pend_ann = node[m] if counts[_ANNOUNCE] else None
        # Deliveries are processed ascending (recipient, seq), exactly
        # like the per-message kernel's delivery sort.  Seqs ascend with
        # emission order, so a stable sort by recipient suffices.
        m = kind == _REPORT
        if counts[_REPORT]:
            o = np.argsort(dst[m], kind="stable")
            self.pend_report = (
                dst[m][o], seqs[m][o], node[m][o], pf[m][o], p1[m][o], p2[m][o]
            )
        else:
            self.pend_report = None
        m = (kind == _CONNECT) | (kind == _CHANGEROOT) | (kind == _ABSORB)
        if m.any():
            o = np.argsort(dst[m], kind="stable")
            self.pend_misc = (
                dst[m][o], seqs[m][o], node[m][o], kind[m][o], p2[m][o]
            )
        else:
            self.pend_misc = None
        if counts[_TEST:].any():
            m = kind >= _TEST
            o = np.argsort(dst[m], kind="stable")
            self.pend_probe = (
                dst[m][o], seqs[m][o], node[m][o], kind[m][o], p1[m][o], p2[m][o]
            )
        else:
            self.pend_probe = None
        if perf.enabled and counts[_ANNOUNCE]:
            perf.add("kernel.plane_sends", int(counts[_ANNOUNCE]))
        return k

    def _finalize_scalar(self, em: _Emits) -> int:
        """Plain-Python ``_finalize`` for small rounds (most of stage B).

        Bit-identical to the array path: Python's stable sort applies
        the same (k1, k2, k3) order as the lexsort, ``energy`` matches
        ``energy_array`` per element, and sequential ``+=`` is exactly
        the seeded ``np.add.accumulate`` chain.  Pending sets are kept
        as plain column tuples; the consumers dispatch on the type.
        """
        self.pend_report = None
        self.pend_misc = None
        self.pend_probe = None
        self.pend_ann = None
        k = len(em.node)
        if k == 0:
            return 0
        order = sorted(range(k), key=lambda i: (em.k1[i], em.k2[i], em.k3[i]))
        led = self.k._ledger
        energy = self.pw.energy
        by_node = led.energy_by_node
        e_kind = led.energy_by_kind
        m_kind = led.messages_by_kind
        total = led.energy_total
        stage_e = 0.0
        base = self._seq
        self._seq += k
        rep_rows: list[tuple] = []
        misc_rows: list[tuple] = []
        probe_rows: list[tuple] = []
        ann_w: list[int] = []
        for j, i in enumerate(order):
            kd = em.kind[i]
            u = em.node[i]
            e = energy(em.dist[i])
            total += e
            stage_e += e
            by_node[u] += e
            name = _KIND_NAMES[kd]
            e_kind[name] += e
            m_kind[name] += 1
            if kd == _ANNOUNCE:
                ann_w.append(u)
            elif kd == _REPORT:
                rep_rows.append((em.dst[i], base + j, u, em.pf[i], em.p1[i], em.p2[i]))
            elif kd >= _TEST:
                probe_rows.append((em.dst[i], base + j, u, kd, em.p1[i], em.p2[i]))
            elif kd != _INITIATE:
                misc_rows.append((em.dst[i], base + j, u, kd, em.p2[i]))
        led.energy_total = total
        led.messages_total += k
        stage = self.k.stage
        led.energy_by_stage[stage] += stage_e
        led.messages_by_stage[stage] += k
        if ann_w:
            self.pend_ann = ann_w
            if perf.enabled:
                perf.add("kernel.plane_sends", len(ann_w))
        if rep_rows:
            rep_rows.sort(key=lambda t: t[0])  # stable: seq ascends per dst
            self.pend_report = tuple(zip(*rep_rows))
        if misc_rows:
            misc_rows.sort(key=lambda t: t[0])
            self.pend_misc = tuple(zip(*misc_rows))
        if probe_rows:
            probe_rows.sort(key=lambda t: t[0])
            self.pend_probe = tuple(zip(*probe_rows))
        return k

    def _apply_announces(self) -> int:
        """Plane delivery of the pending ANNOUNCEs: counted, not written.

        Nothing in the engine reads the cache, and under the cache
        invariant (module notes) ``_write_cache`` rebuilds on exit what
        the writes would have left, so only the delivery count moves:
        each sender's announce-row length.
        """
        writers = self.pend_ann
        if writers is None:
            return 0
        self.pend_ann = None
        delivered = int(self.ann_cnt[writers].sum())
        if perf.enabled:
            perf.add("kernel.plane_batches")
            perf.add("kernel.plane_deliveries", delivered)
        return delivered

    def _end_round(self, delivered: int) -> None:
        if perf.enabled:
            perf.add("kernel.turbo_engine_rounds")
        self.k._advance_round(delivered)

    @property
    def _pending(self) -> bool:
        return (
            self.pend_report is not None
            or self.pend_misc is not None
            or self.pend_probe is not None
            or self.pend_ann is not None
        )

    # -- stage A: the INITIATE/ANNOUNCE flood ------------------------------

    def _initiate_block(
        self, em: _Emits, ids: np.ndarray, srcs: np.ndarray | None, fids: np.ndarray, phase: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Process one flood front (``srcs is None`` = the leader wake).

        Applies ``_wake_initiate``/``_on_initiate`` state transitions for
        every node in ``ids`` (ascending, each visited once per phase),
        emits its ANNOUNCE (on fragment-id change) followed by one
        INITIATE per child in ascending order, and returns the next
        front ``(child ids, their parents, propagated fids)``.
        """
        changed = self.fid[ids] != fids
        self.fid[ids] = fids
        self.cur_phase[ids] = phase
        if srcs is None:
            self.parent[ids] = -1
        else:
            self.leader[ids] = False
            self.parent[ids] = srcs
            self.parent_dist[ids] = self._dist(ids, srcs)
        # Children: the sorted tree row minus the parent edge.
        starts = self.t_indptr[ids]
        ends = self.t_indptr[ids + 1]
        cnt = ends - starts
        idx = _concat_ranges(starts, ends)
        nbr = self.t_adj[idx]
        seg = np.repeat(np.arange(len(ids), dtype=np.int64), cnt)
        if srcs is None:
            childmask = np.ones(len(nbr), dtype=bool)
            self.n_children[ids] = cnt
        else:
            childmask = nbr != srcs[seg]
            self.n_children[ids] = cnt - 1
        ch = nbr[childmask]
        chseg = seg[childmask]
        # Emissions: per node, ANNOUNCE (intra 0) then INITIATEs in row
        # order (intra 1 + position in row — gaps where the parent sat
        # do not disturb the ordering).
        aids = ids[:0] if self.tests else ids[changed]
        em.add_chunk(
            aids,
            np.zeros(len(aids), dtype=np.int64),
            np.zeros(len(aids), dtype=np.int64),
            aids,
            np.full(len(aids), _ANNOUNCE, dtype=np.int64),
            np.full(len(aids), self.r),
            np.full(len(aids), -1, dtype=np.int64),
        )
        pos = idx - np.repeat(starts, cnt)  # position within the CSR row
        snd = ids[chseg]
        em.add_chunk(
            snd,
            np.zeros(len(snd), dtype=np.int64),
            1 + pos[childmask],
            snd,
            np.full(len(snd), _INITIATE, dtype=np.int64),
            self._dist(snd, ch),
            ch,
        )
        return ch, snd, fids[chseg]

    def _stage_a(self, phase: int, leaders: np.ndarray) -> np.ndarray:
        """Wake the leaders, run the flood to quiescence; returns participants."""
        em = _Emits()
        front = self._initiate_block(em, leaders, None, leaders, phase)
        self._finalize(em)  # wake block: charged now, delivered next round
        parts = [leaders]
        while True:
            dsts, srcs, fids = front
            if len(dsts) == 0 and self.pend_ann is None:
                break
            delivered = self._apply_announces()
            em = _Emits()
            if len(dsts):
                delivered += len(dsts)
                order = np.argsort(dsts)
                dsts, srcs, fids = dsts[order], srcs[order], fids[order]
                parts.append(dsts)
                front = self._initiate_block(em, dsts, srcs, fids, phase)
            else:
                front = dsts, srcs, fids
            self._finalize(em)
            self._end_round(delivered)
        if len(parts) == 1:
            return leaders
        return np.sort(np.concatenate(parts))

    # -- stage B: MOE search, converge-cast, merging -----------------------

    def _complete(self, em: _Emits, ids: np.ndarray, k1, k2) -> None:
        """``_try_report`` firing for ``ids``: decide final key, report or act.

        ``k1``/``k2`` are the trigger-key columns (wake rank / recipient
        and triggering seq) for any emissions.  Leaders are handled
        scalar (they route CONNECT/CHANGEROOT and may halt).
        """
        if len(ids) <= 16:
            k1a = np.asarray(k1)
            k2a = np.asarray(k2)
            for i, u in enumerate(np.asarray(ids).tolist()):
                self._complete_one(em, u, int(k1a[i]), int(k2a[i]))
            return
        self.reported[ids] = True
        cd, bd = self.cand_d[ids], self.best_d[ids]
        clo, blo = self.cand_lo[ids], self.best_lo[ids]
        chi, bhi = self.cand_hi[ids], self.best_hi[ids]
        le = (cd < bd) | (
            (cd == bd) & ((clo < blo) | ((clo == blo) & (chi <= bhi)))
        )
        self.final_d[ids] = np.where(le, cd, bd)
        self.final_lo[ids] = np.where(le, clo, blo)
        self.final_hi[ids] = np.where(le, chi, bhi)
        self.final_from[ids] = np.where(le, -1, self.best_child[ids])
        pmask = self.parent[ids] >= 0
        rep = ids[pmask]
        em.add_chunk(
            np.asarray(k1)[pmask],
            np.asarray(k2)[pmask],
            np.zeros(len(rep), dtype=np.int64),
            rep,
            np.full(len(rep), _REPORT, dtype=np.int64),
            self.parent_dist[rep],
            self.parent[rep],
            pf=self.final_d[rep],
            p1=self.final_lo[rep],
            p2=self.final_hi[rep],
        )
        lead = ids[~pmask]
        if len(lead):
            lk1 = np.asarray(k1)[~pmask].tolist()
            lk2 = np.asarray(k2)[~pmask].tolist()
            for i, u in enumerate(lead.tolist()):
                if self.final_d[u] == _INF:
                    self.halted[u] = True  # no outgoing edge: fragment final
                    continue
                self.leader[u] = False  # re-established at the core
                self._route(em, u, lk1[i], lk2[i])

    def _complete_one(self, em: _Emits, u: int, k1: int, k2: int) -> None:
        """Scalar ``_complete`` for one node — same decision, no arrays."""
        self.reported[u] = True
        cd, bd = float(self.cand_d[u]), float(self.best_d[u])
        clo, blo = int(self.cand_lo[u]), int(self.best_lo[u])
        chi, bhi = int(self.cand_hi[u]), int(self.best_hi[u])
        if cd < bd or (cd == bd and (clo < blo or (clo == blo and chi <= bhi))):
            fd, flo, fhi, ffrom = cd, clo, chi, -1
        else:
            fd, flo, fhi, ffrom = bd, blo, bhi, int(self.best_child[u])
        self.final_d[u] = fd
        self.final_lo[u] = flo
        self.final_hi[u] = fhi
        self.final_from[u] = ffrom
        p = int(self.parent[u])
        if p >= 0:
            em.add(
                k1, k2, 0, u, _REPORT, float(self.parent_dist[u]), p,
                pf=fd, p1=flo, p2=fhi,
            )
        elif fd == _INF:
            self.halted[u] = True  # no outgoing edge: fragment final
        else:
            self.leader[u] = False  # re-established at the core
            self._route(em, u, k1, k2)

    def _route(self, em: _Emits, u: int, k1: int, k2: int) -> None:
        """``_route_connect``: connect over the candidate or pass the baton."""
        fr = int(self.final_from[u])
        if fr < 0:
            nb = int(self.cand_nb[u])
            if nb < 0:
                raise ProtocolError(f"node {u}: CHANGEROOT with no candidate")
            self.sent_connect_to[u] = nb
            self._add_edge(u, nb)
            if self.dead is not None:
                j = int(self._slot(self.cur[u]))
                self.tree_new += (j, int(self.tbl.rev[j]))
            em.add(k1, k2, 0, u, _CONNECT, float(self.cand_d[u]), nb, p2=int(self.fid[u]))
            # The reciprocal CONNECT may already have arrived this phase.
            if u > nb and nb in self.connects_in.get(u, ()):
                self.leader[u] = True
        else:
            em.add(k1, k2, 0, u, _CHANGEROOT, self._dist1(u, fr), fr)

    def _stage_b_wake(self, phase: int, parts: np.ndarray) -> None:
        """Batched MOE search + ``apply_moe`` for every participant."""
        cand, kdist, klo, khi = self._cursor_moe(parts)
        self.search_done[parts] = True
        self.cand_nb[parts] = cand
        self.cand_d[parts] = kdist
        self.cand_lo[parts] = klo
        self.cand_hi[parts] = khi
        em = _Emits()
        # Childless participants complete immediately, in wake order
        # (ascending ids — the same order the driver applies MOEs).
        ready = parts[self.n_children[parts] == 0]
        self._complete(em, ready, ready, np.zeros(len(ready), dtype=np.int64))
        self._finalize(em)

    def _emit_tests(
        self, em: _Emits, us: np.ndarray, k2: np.ndarray, pos: np.ndarray
    ) -> None:
        """One TEST per node of ``us``, at the slot under its cursor ``pos``."""
        c = self.cache
        j = self._slot(pos)
        em.add_chunk(
            us, k2, np.zeros(len(us), dtype=np.int64), us,
            np.full(len(us), _TEST, dtype=np.int64), c.dists[j], c.ids[j],
            p1=j, p2=self.fid[us],
        )

    def _probe_wake(self, parts: np.ndarray) -> None:
        """Original-mode ``find_moe`` wake: each participant's first TEST.

        A participant whose walk finds no live slot has searched; a
        childless one of those reports (or, as a leader, acts) at once.
        Original-mode runs have no passive node (only EOPT's step 2
        declares a giant, in modified mode), so no ABSORB re-labels a
        fragment while TESTs are in flight; checked, not assumed.
        """
        if self.passive.any():
            raise ProtocolError(
                "passive node in original-mode GHS: fragment ids could "
                "change while TESTs are in flight"
            )
        self.cursor_wakes += len(parts)
        pos, found = self._walk(parts, self.cur[parts])
        zeros = np.zeros(len(parts), dtype=np.int64)
        em = _Emits()
        self._emit_tests(em, parts[found], zeros[found], pos[found])
        done = parts[~found]
        self.search_done[done] = True
        ready = done[self.n_children[done] == 0]
        self._complete(em, ready, ready, zeros[: len(ready)])
        self._finalize(em)

    def _mark(self, slots: np.ndarray) -> None:
        self.rejected[slots] = True
        self.dead[slots] = True

    def _proc_probes(self, em: _Emits, pend: tuple) -> int:
        """One round's TEST/ACCEPT/REJECT deliveries (original mode).

        TEST: the recipient answers from its fragment id (ACCEPT when it
        differs from the probe's), and a same-fragment probe marks the
        edge at the recipient, whose slot is ``rev`` of the sender's.
        REJECT: the recipient marks the slot under its cursor and walks
        on, sending its next TEST or ending its search; its walk sees a
        same-round mark only if that TEST reached it first (lower seq).
        ACCEPT: the slot under the cursor is the node's candidate.
        A search that ends here reports at the later of this delivery
        and the node's last REPORT (``_try_report``).
        """
        dst, seq, src, kind, slot, pfid = (
            np.asarray(col, dtype=np.int64) for col in pend
        )
        c = self.cache
        t = kind == _TEST
        tv = dst[t]
        marks = marks_at = marks_seq = None
        if len(tv):
            tq, ts = seq[t], slot[t]
            same = pfid[t] == self.fid[tv]
            em.add_chunk(
                tv, tq, np.zeros(len(tv), dtype=np.int64), tv,
                np.where(same, _REJECT, _ACCEPT), c.dists[ts], src[t],
            )
            if same.any():
                marks = self.tbl.rev[ts[same]]
                marks_at, marks_seq = tv[same], tq[same]
        r = kind == _REJECT
        ru, rq = dst[r], seq[r]
        end_u, end_q = ru[:0], rq[:0]
        if len(ru):
            self._mark(self._slot(self.cur[ru]))
            if marks is not None:
                self.rej_at[ru] = rq
                early = marks_seq < self.rej_at[marks_at]
                self.rej_at[ru] = np.iinfo(np.int64).max
                self._mark(marks[early])
                marks = marks[~early]
            pos, found = self._walk(ru, self.cur[ru] + 1)
            self._emit_tests(em, ru[found], rq[found], pos[found])
            end_u, end_q = ru[~found], rq[~found]
        if marks is not None:
            self._mark(marks)
        a = kind == _ACCEPT
        au = dst[a]
        if len(au):
            j = self._slot(self.cur[au])
            self.cand_nb[au] = c.ids[j]
            self.cand_d[au] = c.dists[j]
            self.cand_lo[au] = c.lo[j]
            self.cand_hi[au] = c.hi[j]
            end_u = np.concatenate((end_u, au))
            end_q = np.concatenate((end_q, seq[a]))
        if len(end_u):
            self.search_done[end_u] = True
            ready = (~self.reported[end_u]) & (
                self.reports_recv[end_u] >= self.n_children[end_u]
            )
            ids = end_u[ready]
            self._complete(em, ids, ids, np.maximum(end_q[ready], self.rep_seq[ids]))
        return len(dst)

    def _proc_reports(self, em: _Emits, pend: tuple) -> int:
        """One round's REPORT deliveries: segment counts + segment-min."""
        dst, seq, src, d, lo, hi = pend
        if not isinstance(dst, np.ndarray) or len(dst) <= 16:
            return self._proc_reports_scalar(em, pend)
        uds, first = np.unique(dst, return_index=True)
        cnt = np.diff(np.append(first, len(dst)))
        self.reports_recv[uds] += cnt
        # Per-recipient lexicographic min over (d, lo, hi): sort by
        # (dst, d, lo, hi) and take each group's first row.
        ord3 = np.lexsort((hi, lo, d, dst))
        ds = dst[ord3]
        lead_row = np.empty(len(ds), dtype=bool)
        lead_row[0] = True
        lead_row[1:] = ds[1:] != ds[:-1]
        mi = ord3[lead_row]  # one per unique dst, ascending
        nd_d, nd_lo, nd_hi = d[mi], lo[mi], hi[mi]
        bd, blo, bhi = self.best_d[uds], self.best_lo[uds], self.best_hi[uds]
        lt = (nd_d < bd) | (
            (nd_d == bd) & ((nd_lo < blo) | ((nd_lo == blo) & (nd_hi < bhi)))
        )
        upd = uds[lt]
        self.best_d[upd] = nd_d[lt]
        self.best_lo[upd] = nd_lo[lt]
        self.best_hi[upd] = nd_hi[lt]
        self.best_child[upd] = src[mi[lt]]
        # Completions fire on the last report (children report exactly
        # once per phase, so the count reaches len(children) on this
        # round's final delivery — deliveries are (dst, seq)-sorted) if
        # the search is done.  Probes are processed after reports, so a
        # search done by now ended in an earlier round; one still running
        # fires at its end, at the later of its seq and ``rep_seq``.
        last_seq = seq[first + cnt - 1]
        self.rep_seq[uds] = last_seq
        comp = (
            (~self.reported[uds])
            & self.search_done[uds]
            & (self.reports_recv[uds] >= self.n_children[uds])
        )
        ids = uds[comp]
        self._complete(em, ids, ids, last_seq[comp])
        return len(dst)

    def _proc_reports_scalar(self, em: _Emits, pend: tuple) -> int:
        """Per-delivery REPORT processing, already (recipient, seq)-sorted.

        Sequential strict-less-than updates pick the same best as the
        array path's stable segment-min (first row among equal keys),
        and a node's count fills exactly at its last delivery — children
        report once per phase — so the completion trigger seq matches
        the array path's ``last_seq``.
        """
        dst, seq, src, d, lo, hi = pend
        recv = self.reports_recv
        for i in range(len(dst)):
            u = int(dst[i])
            recv[u] += 1
            nd_d, nd_lo, nd_hi = float(d[i]), int(lo[i]), int(hi[i])
            bd, blo = float(self.best_d[u]), int(self.best_lo[u])
            bhi = int(self.best_hi[u])
            if nd_d < bd or (
                nd_d == bd and (nd_lo < blo or (nd_lo == blo and nd_hi < bhi))
            ):
                self.best_d[u] = nd_d
                self.best_lo[u] = nd_lo
                self.best_hi[u] = nd_hi
                self.best_child[u] = int(src[i])
            if not self.reported[u] and recv[u] >= self.n_children[u]:
                if self.search_done[u]:
                    self._complete_one(em, u, u, int(seq[i]))
                else:
                    self.rep_seq[u] = int(seq[i])
        return len(dst)

    def _proc_misc(self, em: _Emits, pend: tuple) -> int:
        """One round's CONNECT/CHANGEROOT/ABSORB deliveries, scalar.

        These kinds are O(fragments) per phase; processing them one by
        one in ``(recipient, seq)`` order reproduces the per-message
        kernel's same-round interleavings (a CONNECT and an ABSORB
        reaching one node in the same round are order-sensitive: the
        ABSORB's forward set depends on whether the CONNECT's tree edge
        landed first).
        """
        dst, seq, src, kind, p2 = pend
        fid = self.fid
        for i in range(len(dst)):
            u, s, kd = int(dst[i]), int(src[i]), int(kind[i])
            q = int(seq[i])
            if kd == _CONNECT:
                self._add_edge(u, s)
                if self.passive[u]:
                    # Giant (or already-absorbed) side: accept and absorb.
                    em.add(u, q, 0, u, _ABSORB, self._dist1(u, s), s, p2=int(fid[u]))
                    continue
                self.connects_in.setdefault(u, set()).add(s)
                if self.sent_connect_to[u] == s and u > s:
                    self.leader[u] = True  # core edge; higher id leads
            elif kd == _CHANGEROOT:
                self._route(em, u, u, q)
            else:  # ABSORB
                pfid = int(p2[i])
                if self.passive[u] and fid[u] == pfid:
                    continue  # already absorbed into this giant
                fid[u] = pfid
                self.passive[u] = True
                self.leader[u] = False
                self.halted[u] = True
                if not self.tests:
                    em.add(u, q, 0, u, _ANNOUNCE, self.r, -1)
                row = self._tree_row(u)
                for j, e in enumerate(row):
                    if e != s:
                        em.add(u, q, 1 + j, u, _ABSORB, self._dist1(u, e), e, p2=pfid)
        return len(dst)

    def _stage_b_rounds(self) -> None:
        while self._pending:
            rep, misc, probe = self.pend_report, self.pend_misc, self.pend_probe
            self.pend_report = self.pend_misc = self.pend_probe = None
            delivered = self._apply_announces()
            em = _Emits()
            # Reports before probes (see _proc_reports).  Completions
            # route before the round's CONNECTs land: whichever comes
            # first, the core endpoint with the higher id leads (_route).
            if rep is not None:
                delivered += self._proc_reports(em, rep)
            if probe is not None:
                delivered += self._proc_probes(em, probe)
            if misc is not None:
                delivered += self._proc_misc(em, misc)
            self._finalize(em)
            self._end_round(delivered)

    # -- the phase loop ----------------------------------------------------

    def _reset_phase_arrays(self) -> None:
        self.reports_recv.fill(0)
        self.reported.fill(False)
        self.best_d.fill(_INF)
        self.best_lo.fill(-1)
        self.best_hi.fill(-1)
        self.best_child.fill(-1)
        self.cand_nb.fill(-1)
        self.cand_d.fill(_INF)
        self.cand_lo.fill(-1)
        self.cand_hi.fill(-1)
        self.final_d.fill(_INF)
        self.final_lo.fill(-1)
        self.final_hi.fill(-1)
        self.final_from.fill(-1)
        self.sent_connect_to.fill(-1)
        self.connects_in = {}
        self.search_done.fill(False)
        if self.tree_new:
            self.dead[self.tree_new] = True  # now phase-start tree slots
            self.tree_new = []
        self.extras = {} if bool(self.passive.any()) else None

    def run(self, start_phase: int, max_phases: int) -> int:
        """The ``run_ghs_phases`` loop as array programs; returns phases run."""
        self.k._flush_charges()
        phase = start_phase - 1
        executed = 0
        try:
            while True:
                leaders = np.flatnonzero(self.leader & ~self.halted & ~self.passive)
                if len(leaders) == 0:
                    return executed
                phase += 1
                executed += 1
                if executed > max_phases:
                    raise ProtocolError(
                        f"GHS did not terminate within {max_phases} phases "
                        f"({len(leaders)} active fragments remain)"
                    )
                if trace.enabled:
                    trace.emit(
                        "phase_start",
                        phase=phase,
                        round=self.k.rounds,
                        active=len(leaders),
                    )
                self._build_tree_csr()
                self._reset_phase_arrays()
                parts = self._stage_a(phase, leaders)
                if self.tests:
                    self._probe_wake(parts)
                else:
                    self._stage_b_wake(phase, parts)
                self._stage_b_rounds()
                if trace.enabled:
                    uniq, sizes = np.unique(self.fid, return_counts=True)
                    hist: dict[int, int] = {}
                    for s in sizes.tolist():
                        hist[s] = hist.get(s, 0) + 1
                    trace.emit(
                        "phase_end",
                        phase=phase,
                        round=self.k.rounds,
                        fragments=len(uniq),
                        sizes=[[s, c] for s, c in sorted(hist.items())],
                    )
        finally:
            self._sync_out()

    def _sync_out(self) -> None:
        """Write protocol state back to the node objects.

        ``children`` comes from the final tree: a fragment halts in a
        phase whose INITIATE flood covered its whole (final) tree, so
        each non-passive node's last-set children are exactly its sorted
        tree row minus its parent.  Passive nodes keep their pre-engine
        ``children`` — nothing downstream reads them (the EOPT census
        runs between steps, when no node is passive yet).  Original mode
        leaves the flood cache as the HELLO flood wrote it (its
        per-message path never writes it) and writes each node's
        ``rejected`` set.
        """
        if not self.tests:
            self._write_cache()
        self._build_tree_csr()
        fid = self.fid.tolist()
        leader = self.leader.tolist()
        halted = self.halted.tolist()
        passive = self.passive.tolist()
        parent = self.parent.tolist()
        cur_phase = self.cur_phase.tolist()
        indptr = self.t_indptr.tolist()
        adj = self.t_adj.tolist()
        for i, nd in enumerate(self.nodes):
            nd.fid = fid[i]
            nd.leader = leader[i]
            nd.halted = halted[i]
            nd.passive = passive[i]
            nd.cur_phase = cur_phase[i]
            p = parent[i]
            nd.parent = None if p < 0 else p
            row = adj[indptr[i] : indptr[i + 1]]
            nd.tree_edges = set(row)
            if not passive[i]:
                nd.children = tuple(e for e in row if e != p)
        if self.rejected is not None:
            sl = np.flatnonzero(self.rejected)
            bounds = np.searchsorted(sl, self.cache.indptr).tolist()
            nbrs = self.cache.ids[sl].tolist()
            for i, nd in enumerate(self.nodes):
                nd.rejected = set(nbrs[bounds[i] : bounds[i + 1]])


def run_phases_turbo(
    kernel,
    nodes: Sequence[GHSNode],
    *,
    start_phase: int,
    max_phases: int,
) -> int | None:
    """Run the phase loop on the whole-round engine if eligible, else ``None``."""
    eng = turbo_phase_engine(kernel, nodes)
    if eng is None:
        return None
    return eng.run(start_phase, max_phases)
