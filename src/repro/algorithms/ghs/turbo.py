"""Whole-round array programs for the GHS family's Borůvka phases.

This is the optimized kernel's path for both GHS modes of the paper:
*modified* GHS (Sec. V-A: cached neighbour fragment ids, per-phase
ANNOUNCE; MGHS, both EOPT steps and MAINT's repair cycles) and
*original* GHS (TEST/ACCEPT/REJECT probes, the Sec. V baseline).  A run
is *eligible* when :func:`engine_eligible` says so — no fault plan, no
reception cost, and a flood table (:func:`~repro.algorithms.ghs.plane.flood_table`:
the flat-delivery kernels, ``legacy`` and
:class:`~repro.sim.interference.ContentionKernel`, never have one;
neither does a density-gated table).  The runners decide this before
any node exists: an eligible run keeps its protocol state in one
:class:`TurboPhaseEngine`'s arrays from the HELLO flood to the result
and builds no :class:`~repro.algorithms.ghs.node.GHSNode`; every other
run builds the nodes and drains the per-message driver loop.  Every
round of an eligible run, its HELLOs included, runs in the engine.

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
* the result — tree edges, fragment count, census sizes, the giant —
  is read off the arrays and equals what the per-message loop leaves
  in its node objects.

EOPT's interlude runs on the same engine: after step 1,
:meth:`TurboPhaseEngine.census` (SIZE_REQ/SIZE_RESP) and
:meth:`TurboPhaseEngine.declare_giant` (GIANT) replace the per-message
census and giant declaration under the same contract, and step 2 binds
the same engine to its raised radius with a second :meth:`hello`.

The engine keeps no flood cache.  :meth:`TurboPhaseEngine.hello` is a
one-round wave of every node's HELLO at the radius, and an ANNOUNCE is
charged like any other send; both are *counted* as delivered (each
sender's announce-row length) and never written anywhere.  Modified
mode reads a neighbour's fragment off ``fid`` itself: every
fragment-id change is announced, so what a per-message receiver would
hold for an in-radius neighbour at a stage-B wake is that neighbour's
current ``fid``.  Original mode never reads neighbours' fragment ids
(membership is what the TEST probes ask).

To make send order a pure function of protocol state,
:mod:`repro.algorithms.ghs.node` iterates tree edges in sorted order —
the engine reproduces those loops with sorted CSR rows.

Design notes
------------

Stage A (the INITIATE flood), modified-mode stage B in every phase
without a passive node (all of MGHS, EOPT's step 1 and MAINT's repair
cycles), the census and the giant declaration are *tree waves*: the
only traffic in flight, each node's sends fixed by its depth and its
subtree height (stage B: REPORT at the height, then the CHANGEROOT
baton and the CONNECT at the leader's height plus the sender's depth).
Each wave is one array pass: one C-level BFS over the fragment-tree CSR
from a virtual root wired to the wave's roots, pointer jumping for
depths and roots, one emission table sorted once by ``(round, sender,
intra)`` and charged through the sequential energy chain; the kernel
then advances the wave's rounds one by one with their exact delivery
counts (with tracing on, the ledger is set to each round's partial sums
before its event).

Two kinds of stage B still run round by round: original mode, whose
search ends when a probe is answered, not at a depth; and phases with a
passive node (EOPT's step 2), whose ABSORB floods depend on the order in
which a CONNECT and an ABSORB reach a node.  That loop vectorizes the
bulk kinds — the ``find_moe`` wake, the TEST/ACCEPT/REJECT probes (the
MOE cursor below) and the REPORT converge-cast (segment counts and
lexicographic segment-min per recipient) — while CONNECT / CHANGEROOT /
ABSORB (O(fragments) per phase) stay scalar in ``(recipient, seq)``
order, which sidesteps the same-round interleavings a vectorized merge
would have to prove commutative.  Every emission carries its trigger
key ``(recipient id, trigger seq, intra-handler index)``; one lexsort
per round of that loop recovers the global charge order, and rounds of
at most 64 emissions (16 REPORT rows or completions) run as plain
Python loops with the same result.

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

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import breadth_first_order

from repro.errors import ProtocolError
from repro.algorithms.ghs.driver import fragment_histogram, phase_budget
from repro.algorithms.ghs import plane
from repro.perf import perf
from repro.sim._jit import HAVE_NUMBA, njit
from repro.trace import trace

__all__ = [
    "engine_eligible",
    "TurboPhaseEngine",
    "seq_energy_accumulate",
]

# Emission kind codes (column values in the emission tables).  The
# probe kinds come last: ``_finalize`` splits them off as ``kind >= _TEST``.
(
    _INITIATE, _ANNOUNCE, _REPORT, _CHANGEROOT, _CONNECT, _ABSORB,
    _SIZE_REQ, _SIZE_RESP, _GIANT, _HELLO, _TEST, _ACCEPT, _REJECT,
) = range(13)
_KIND_NAMES = (
    "INITIATE", "ANNOUNCE", "REPORT", "CHANGEROOT", "CONNECT", "ABSORB",
    "SIZE_REQ", "SIZE_RESP", "GIANT", "HELLO", "TEST", "ACCEPT", "REJECT",
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


def engine_eligible(kernel) -> bool:
    """Whether a GHS-family run over ``kernel`` may run on the engine.

    Not under a fault plan or a reception cost (the array programs model
    neither), and only with a flood table
    (:func:`~repro.algorithms.ghs.plane.flood_table`: not on a
    flat-delivery kernel, ``legacy`` or
    :class:`~repro.sim.interference.ContentionKernel`, nor over a
    density-gated table).  A pure function of the kernel, decided before
    any node object exists: an eligible run never builds one.
    """
    if kernel.faults is not None or kernel.rx_cost:
        return False
    return plane.flood_table(kernel) is not None


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
    """A run's protocol state as arrays, from its first HELLO to its result.

    The array counterpart of :class:`~repro.algorithms.ghs.driver.NodeRun`,
    with its interface.  It starts from fresh singleton fragments or the
    forest ``fid``/``leader``/``edges`` of
    :func:`~repro.algorithms.ghs.driver.seeded_forest`, over a kernel
    that :func:`engine_eligible` accepts.
    """

    def __init__(
        self,
        kernel,
        *,
        tests: bool,
        fid: np.ndarray | None = None,
        leader: np.ndarray | None = None,
        edges: np.ndarray | None = None,
    ) -> None:
        self.k = kernel
        #: The HELLO radius (``None`` before the first HELLO).
        self.r: float | None = None
        self.n = n = kernel.n
        self.pw = kernel.power
        pts = kernel.points
        self.px = np.ascontiguousarray(pts[:, 0])
        self.py = np.ascontiguousarray(pts[:, 1])
        #: Original (TEST-probing) mode; only modified mode announces.
        self.tests = tests
        # -- protocol state ------------------------------------------------
        self.fid = np.array(np.arange(n) if fid is None else fid, dtype=np.int64)
        self.leader = np.ones(n, dtype=bool) if leader is None else np.array(leader, dtype=bool)
        self.halted = np.zeros(n, dtype=bool)
        self.passive = np.zeros(n, dtype=bool)
        self.cur_phase = np.zeros(n, dtype=np.int64)
        self.parent = np.full(n, -1, dtype=np.int64)
        #: Directed tree-edge chunks (deduped at each CSR build).
        self.edge_chunks: list[np.ndarray] = []
        if edges is not None and len(edges):
            e = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
            self.edge_chunks.append(np.concatenate((e, e[::-1]), axis=1))
        self.edge_u: list[int] = []
        self.edge_v: list[int] = []
        #: Original mode: ``rejected`` marks same-fragment slots found by
        #: probes, ``dead`` adds the phase-start tree slots — the slots a
        #: cursor skips for free (both built by :meth:`hello`).
        self.rejected: np.ndarray | None = None
        self.dead: np.ndarray | None = None
        #: Slots (both directions) of this phase's CONNECT edges; they
        #: join ``dead`` at the next phase start.
        self.tree_new: list[int] = []
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

    # -- HELLO ---------------------------------------------------------------

    def hello(self, r: float) -> None:
        """Every node floods HELLO(fid) at radius ``r``, as one wave.

        The same round as the per-message ``hello_round``: every HELLO
        charged in node-id order, each delivered to its sender's
        announce row (the neighbours within ``r``), and no round at all
        when nobody is in range.  Later phases announce within ``r`` and
        walk the kernel's neighbour table, which a later HELLO (EOPT's
        step 2, at its raised radius) takes afresh.
        """
        kern = self.k
        tbl = plane.flood_table(kern)
        r = float(r)
        if tbl is None or r > tbl.max_radius:
            raise ProtocolError(
                f"no flood table for the engine's HELLO at radius {r}; "
                "a run without one must start on the per-message path"
            )
        kern._check_power(0, r)
        self.tbl = tbl
        self.r = r
        if trace.enabled:
            trace.emit("hello", round=kern.rounds, radius=r)
        # Announce rows: per-sender slot prefix covered by radius r (==
        # the full row when r is the table's power cap).  Same closed
        # ball the kernel's searchsorted(..., side="right") cutoff keeps.
        ip = tbl.indptr_arr
        if r >= tbl.max_radius:
            self.ann_ends = ip[1:]
        else:
            within = np.concatenate(([0], np.cumsum(tbl.dists <= r)))
            self.ann_ends = ip[:-1] + (within[ip[1:]] - within[ip[:-1]])
        self.ann_cnt = self.ann_ends - ip[:-1]
        n = self.n
        self._wave(
            rnd=np.zeros(n, dtype=np.int64),
            snd=np.arange(n, dtype=np.int64),
            intra=np.zeros(n, dtype=np.int64),
            kind=np.full(n, _HELLO),
            dist=np.full(n, r),
            weight=self.ann_cnt,
        )
        #: Walk position -> CSR slot (``None``: the table order already is
        #: the edge-key order).
        self.walk = walk_order(ip, tbl.ids, tbl.dists)
        #: MOE cursor: first walk position of each row not yet known internal.
        self.cur = ip[:-1].copy()
        #: Slots the cursors examined, and cursor wakes (participants
        #: summed over phases): ``cursor_steps <= entries + cursor_wakes``.
        self.cursor_steps = 0
        self.cursor_wakes = 0
        if self.tests:
            self.rejected = np.zeros(len(tbl.ids), dtype=bool)
            self.dead = np.zeros(len(tbl.ids), dtype=bool)

    def probes_ready(self) -> bool:
        """The original-mode entry check: the run starts from singleton
        fragments with nothing rejected and no passive node, as
        ``run_ghs`` does."""
        if self.passive.any() or self.edge_chunks or self.edge_u:
            return False
        return not self.rejected.any()

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
        ids, walk, dead = self.tbl.ids, self.walk, self.dead
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
        """Each participant's modified-mode MOE, by the MOE cursor (what
        ``FloodCache.moe_batch`` finds over a per-message cache).

        Walks each cursor past the slots whose neighbour shares the
        node's fragment; the MOE is the slot under it (the walk follows
        the edge key, so in a run of exact distance ties that is the
        outgoing slot of least ``(lo, hi)``).  Returns ``(cand, dist,
        lo, hi)``, ``cand = -1`` and ``dist = inf`` where no outgoing
        edge is in range.
        """
        tbl = self.tbl
        k = len(parts)
        cand = np.full(k, -1, dtype=np.int64)
        kdist = np.full(k, _INF)
        klo = np.full(k, -1, dtype=np.int64)
        khi = np.full(k, -1, dtype=np.int64)
        self.cursor_wakes += k
        pos, found = self._walk(parts, self.cur[parts])
        has = np.flatnonzero(found)
        j = self._slot(pos[has])
        u, nb = parts[has], tbl.ids[j]
        cand[has] = nb
        kdist[has] = tbl.dists[j]
        klo[has] = np.minimum(u, nb)
        khi[has] = np.maximum(u, nb)
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
        # each row enumerates neighbours ascending.  The keys need int64
        # (u * n wraps int32 from n = 46,341), whatever the slot dtype.
        keys = sorted_unique(allc[0].astype(np.int64, copy=False) * n + allc[1])
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
        if cols is None:
            self.pend_report = None
            self.pend_misc = None
            self.pend_probe = None
            self.pend_ann = None
            return 0
        _, _, _, node, kind, dist, dst, pf, p1, p2 = cols
        k = len(node)
        counts = self._charge(node, kind, self.pw.energy_array(dist))
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

    def _charge(self, node: np.ndarray, kind: np.ndarray, energies: np.ndarray) -> np.ndarray:
        """Charge emissions, given in charge order, to the ledger.

        ``energy_total`` moves through the sequential chain; the
        breakdowns take per-kind sums.  Returns the per-kind counts.
        """
        led = self.k._ledger
        k = len(node)
        led.energy_total = seq_energy_accumulate(led.energy_total, energies)
        led.messages_total += k
        np.add.at(led.energy_by_node, node, energies)
        counts = np.bincount(kind, minlength=len(_KIND_NAMES))
        esums = np.bincount(kind, weights=energies, minlength=len(_KIND_NAMES))
        stage = self.k.stage
        # A HELLO wave (one kind, never mixed) takes its sequential kind
        # sum, as the per-message kernel's batched accumulator does;
        # other waves reassociate (the ledger contract allows it).
        led.energy_by_stage[stage] += float(
            esums[_HELLO] if counts[_HELLO] else energies.sum()
        )
        led.messages_by_stage[stage] += k
        for code in np.flatnonzero(counts).tolist():
            name = _KIND_NAMES[code]
            led.energy_by_kind[name] += float(esums[code])
            led.messages_by_kind[name] += int(counts[code])
        return counts

    def _finalize_scalar(self, em: _Emits) -> int:
        """Plain-Python ``_finalize`` for small rounds (most rounds of
        the stage-B loop).

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

        The engine reads fragment membership off ``fid`` (module notes),
        so only the delivery count moves: each sender's announce-row
        length.
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

    # -- tree waves: one array pass each ------------------------------------

    def _forest(self, roots: np.ndarray, subtree: bool = False) -> tuple:
        """The fragment-tree forest hanging from ``roots``, by one BFS.

        One C-level breadth-first search over the tree CSR from a
        virtual root wired to ``roots``, then pointer jumping.  Returns
        ``(order, par, dep, top)``: the reached nodes in BFS order and,
        per node (length ``n``), its parent (-1 at a root and off the
        forest), depth and root.  With ``subtree`` a fifth array follows:
        each node's deepest descendant depth (its own depth at a leaf).
        """
        n = self.n
        ip, adj = self.t_indptr, self.t_adj
        k = len(roots)
        graph = csr_array(
            (
                np.ones(len(adj) + k),
                np.concatenate((adj, roots)),
                np.append(ip, ip[-1] + k),
            ),
            shape=(n + 1, n + 1),
        )
        order, pred = breadth_first_order(
            graph, n, directed=True, return_predecessors=True
        )
        order = order[1:].astype(np.int64)
        par = np.full(n, -1, dtype=np.int64)
        p = pred[order]
        par[order] = np.where(p == n, -1, p)
        # Pointer jumping: after step k, ``up`` is each node's 2^k-th
        # ancestor (clamped at its root) and ``dep`` counts the hops.
        up = np.where(par >= 0, par, np.arange(n))
        dep = (par >= 0).astype(np.int64)
        jumps = []
        while True:
            jumps.append(up)
            nxt = up[up]
            if np.array_equal(nxt, up):
                break
            dep += dep[up]
            up = nxt
        if not subtree:
            return order, par, dep, up
        # Deepest descendant, pushed up along the same jumps: after the
        # push to 2^k-th ancestors a node holds the maximum over its
        # descendants fewer than 2^(k+1) levels below it.
        deep = dep.copy()
        for anc in jumps:
            np.maximum.at(deep, anc, deep.copy())
        return order, par, dep, up, deep

    def _wave(self, rnd, snd, intra, kind, dist, weight) -> None:
        """Charge one wave and run its rounds.

        The wave is the only traffic in flight.  Emission ``i`` is sent
        by ``snd[i]`` at round ``rnd[i]`` (0 = the wake that starts it) and
        delivered one round later; ``weight[i]`` is its delivery count
        (1 for a unicast, the announce-row length for a HELLO or an
        ANNOUNCE).  A wave that delivers nothing (a HELLO with nobody in
        range) is charged and advances no round, as the kernel's
        ``step`` does not.
        Each sender runs at most one handler per round, so the
        per-message charge order is ``(round, sender, intra)``: one
        lexsort orders the whole wave, charged through the sequential
        energy chain.  Rounds then advance one at a time with their
        exact delivery counts; with tracing on, the ledger holds each
        round's partial sums when its event is emitted.
        """
        if len(snd) == 0:
            return
        o = np.lexsort((intra, snd, rnd))
        rnd, snd, kind, dist, weight = rnd[o], snd[o], kind[o], dist[o], weight[o]
        kern = self.k
        kern._flush_charges()
        led = kern._ledger
        energies = self.pw.energy_array(dist)
        rounds = int(rnd[-1]) + 1
        delivered = np.bincount(rnd, weights=weight, minlength=rounds)
        delivered = delivered.astype(np.int64).tolist()
        if not any(delivered):
            rounds, delivered = 0, []
        e0, m0 = led.energy_total, led.messages_total
        counts = self._charge(snd, kind, energies)
        self._seq += len(snd)
        if perf.enabled:
            if rounds:
                perf.add("kernel.turbo_engine_rounds", rounds)
            if counts[_ANNOUNCE] or counts[_HELLO]:
                a = (kind == _ANNOUNCE) | (kind == _HELLO)
                perf.add("kernel.plane_sends", int(np.count_nonzero(a)))
                a &= weight > 0  # a plane batch holds its non-empty rows
                if a.any():
                    perf.add("kernel.plane_batches", len(sorted_unique(rnd[a])))
                    perf.add("kernel.plane_deliveries", int(weight[a].sum()))
        if not trace.enabled:
            for d in delivered:
                kern._advance_round(d)
            return
        # Round t's event sees every emission charged at rounds <= t: the
        # ledger steps through those partial sums up to its final values.
        partial = np.add.accumulate(np.concatenate(([e0], energies)))
        ends = np.searchsorted(rnd, np.arange(1, rounds + 1), side="right")
        mbk = led.messages_by_kind
        codes = np.flatnonzero(counts).tolist()
        kind0 = [mbk[_KIND_NAMES[c]] - int(counts[c]) for c in codes]
        cums = [np.concatenate(([0], np.cumsum(kind == c)))[ends].tolist() for c in codes]
        for t, j in enumerate(ends.tolist()):
            led.energy_total = float(partial[j])
            led.messages_total = m0 + j
            for c, base, cum in zip(codes, kind0, cums):
                mbk[_KIND_NAMES[c]] = base + cum[t]
            kern._advance_round(delivered[t])

    def _stage_a(self, phase: int, forest: tuple) -> np.ndarray:
        """The INITIATE flood of every active fragment, as one wave.

        Applies ``_wake_initiate``/``_on_initiate`` to every node of the
        leaders' ``forest`` (from :meth:`_forest`).  At round ``depth``
        each of them sends its ANNOUNCE (modified mode, when its fragment
        id changed), then one INITIATE per child in ascending order;
        round ``t`` delivers the INITIATEs to depth ``t`` and the
        ANNOUNCEs from depth ``t - 1``.  Returns the participants,
        ascending.
        """
        order, par, dep, top = forest[:4]
        ids = np.sort(order)
        p = par[ids]
        nonroot = p >= 0
        child = ids[nonroot]
        above = p[nonroot]
        changed = self.fid[ids] != top[ids]
        self.fid[ids] = top[ids]
        self.cur_phase[ids] = phase
        self.leader[child] = False
        self.parent[ids] = p
        d = self._dist(child, above)
        self.parent_dist[child] = d
        self.n_children[ids] = np.diff(self.t_indptr)[ids] - nonroot
        ann = ids[:0] if self.tests else ids[changed]
        na = len(ann)
        self._wave(
            rnd=np.concatenate((dep[above], dep[ann])),
            snd=np.concatenate((above, ann)),
            intra=np.concatenate((child, np.full(na, -1, dtype=np.int64))),
            kind=np.concatenate((np.full(len(child), _INITIATE), np.full(na, _ANNOUNCE))),
            dist=np.concatenate((d, np.full(na, self.r))),
            weight=np.concatenate((np.ones(len(child), dtype=np.int64), self.ann_cnt[ann])),
        )
        return ids

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

    def _stage_b_wake(self, parts: np.ndarray) -> None:
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

    def _stage_b_wave(self, parts: np.ndarray, forest: tuple) -> None:
        """Stage B of a phase with no passive node, as one wave.

        The MOE search reads fragment ids, which only stage A changes
        here (no ABSORB re-labels a fragment), so every send is fixed by
        the forest at the wake: node ``u`` sends its REPORT at round ``h(u)``, its subtree height; the leader
        ``L`` of a fragment with an outgoing edge decides at ``h(L)``,
        and CHANGEROOT passes down the path to the fragment's MOE
        endpoint ``m``, each node ``a`` on it sending at ``h(L) +
        dep(a)``, until ``m`` sends its CONNECT at ``h(L) + dep(m)``.
        ``m`` is the participant of least candidate key: an outgoing
        edge has one endpoint inside the fragment, so the keys are
        unique there and the REPORT minima lead to it.  Each node sends
        at most once a round, so ``(round, sender)`` is the charge order.
        No CONNECT meets an ABSORB, so the merge is order-free: both
        directions of every CONNECT edge join the tree, and the higher
        id of each reciprocal pair leads.
        """
        _, par, dep, top, deep = forest
        cand, kdist, klo, khi = self._cursor_moe(parts)
        # Each fragment's least candidate key (roots ascending).
        ptop = top[parts]
        o = np.lexsort((khi, klo, kdist, ptop))
        first = np.ones(len(o), dtype=bool)
        first[1:] = ptop[o[1:]] != ptop[o[:-1]]
        best = o[first]
        roots = ptop[best]
        go = kdist[best] < _INF
        self.halted[roots[~go]] = True  # no outgoing edge: fragment final
        self.leader[roots[go]] = False  # re-established at the core
        best = best[go]
        m, nb, cdist = parts[best], cand[best], kdist[best]
        # CHANGEROOT baton: every ancestor of ``m`` passes it to its child
        # on the path down.
        below = [m[par[m] >= 0]]
        while len(below[-1]):
            up = par[below[-1]]
            below.append(up[par[up] >= 0])
        b = np.concatenate(below)
        a = par[b]
        rep = parts[par[parts] >= 0]
        snd = np.concatenate((rep, a, m))
        self._wave(
            rnd=np.concatenate(
                (deep[rep] - dep[rep], deep[top[a]] + dep[a], deep[top[m]] + dep[m])
            ),
            snd=snd,
            intra=np.zeros(len(snd), dtype=np.int64),
            kind=np.repeat([_REPORT, _CHANGEROOT, _CONNECT], (len(rep), len(a), len(m))),
            dist=np.concatenate((self.parent_dist[rep], self._dist(a, b), cdist)),
            weight=np.ones(len(snd), dtype=np.int64),
        )
        ends = np.stack((np.concatenate((m, nb)), np.concatenate((nb, m))))
        self.edge_chunks.append(ends)
        to = np.full(self.n, -1, dtype=np.int64)
        to[m] = nb
        self.leader[m[(to[nb] == m) & (m > nb)]] = True  # core: higher id leads

    def _emit_tests(
        self, em: _Emits, us: np.ndarray, k2: np.ndarray, pos: np.ndarray
    ) -> None:
        """One TEST per node of ``us``, at the slot under its cursor ``pos``."""
        j = self._slot(pos)
        em.add_chunk(
            us, k2, np.zeros(len(us), dtype=np.int64), us,
            np.full(len(us), _TEST, dtype=np.int64), self.tbl.dists[j], self.tbl.ids[j],
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
        tbl = self.tbl
        t = kind == _TEST
        tv = dst[t]
        marks = marks_at = marks_seq = None
        if len(tv):
            tq, ts = seq[t], slot[t]
            same = pfid[t] == self.fid[tv]
            em.add_chunk(
                tv, tq, np.zeros(len(tv), dtype=np.int64), tv,
                np.where(same, _REJECT, _ACCEPT), tbl.dists[ts], src[t],
            )
            if same.any():
                marks = tbl.rev[ts[same]]
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
            nb = tbl.ids[j]
            self.cand_nb[au] = nb
            self.cand_d[au] = tbl.dists[j]
            self.cand_lo[au] = np.minimum(au, nb)
            self.cand_hi[au] = np.maximum(au, nb)
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

    def run(self, start_phase: int = 1, max_phases: int | None = None) -> int:
        """The ``run_ghs_phases`` loop as array programs; returns phases run.

        Raises :class:`ProtocolError` before the first :meth:`hello`, or
        when original mode's entry check (:meth:`probes_ready`) fails:
        there is no per-message state to fall back to.  On return the
        tree CSR is final.
        """
        if self.r is None or (self.tests and not self.probes_ready()):
            raise ProtocolError(
                "whole-round engine entry check failed: no HELLO yet, or "
                "original-mode GHS not starting fresh"
            )
        if max_phases is None:
            max_phases = phase_budget(self.n)
        self.k._flush_charges()
        phase = start_phase - 1
        executed = 0
        while True:
            leaders = self.active_leaders()
            if len(leaders) == 0:
                break
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
            # Without a passive node, modified-mode stage B is a tree wave.
            wave = not (self.tests or self.passive.any())
            forest = self._forest(leaders, subtree=wave)
            parts = self._stage_a(phase, forest)
            if wave:
                self._stage_b_wave(parts, forest)
            else:
                if self.tests:
                    self._probe_wake(parts)
                else:
                    self._stage_b_wake(parts)
                self._stage_b_rounds()
            if trace.enabled:
                fragments, sizes = fragment_histogram(self.fid)
                trace.emit(
                    "phase_end",
                    phase=phase,
                    round=self.k.rounds,
                    fragments=fragments,
                    sizes=sizes,
                )
        self._build_tree_csr()
        return executed

    def active_leaders(self) -> np.ndarray:
        """Leaders of fragments that still participate in phases."""
        return np.flatnonzero(self.leader & ~self.halted & ~self.passive)

    def tree_edges(self) -> np.ndarray:
        """The tree built so far: ``(k, 2)`` edges ``u < v``, sorted."""
        self._build_tree_csr()
        n = self.n
        u = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.t_indptr))
        v = self.t_adj
        keys = sorted_unique(np.minimum(u, v) * n + np.maximum(u, v))
        return np.stack((keys // n, keys % n), axis=1)

    # -- EOPT's interlude: size census and giant declaration ---------------

    def census(self) -> tuple[np.ndarray, np.ndarray]:
        """EOPT's size census as one wave; returns ``(leaders, sizes)``.

        Each leader's ``size`` wake sends SIZE_REQ down its tree and each
        node answers SIZE_RESP once its whole subtree has: a node at
        depth ``d`` whose subtree is ``h`` levels high sends its
        SIZE_REQs at round ``d`` and its SIZE_RESP at round ``d + 2h``.
        Runs after :meth:`run`, whose exit leaves the final tree CSR, on
        the fragments step 1 left (no node is passive yet).  ``leaders``
        ascend; ``sizes`` are their fragments' node counts.
        """
        leaders = np.flatnonzero(self.leader)
        order, par, dep, top, deep = self._forest(leaders, subtree=True)
        child = order[par[order] >= 0]
        above = par[child]
        d = self._dist(child, above)
        m = len(child)
        self._wave(
            rnd=np.concatenate((dep[above], 2 * deep[child] - dep[child])),
            snd=np.concatenate((above, child)),
            intra=np.concatenate((child, np.zeros(m, dtype=np.int64))),
            kind=np.concatenate((np.full(m, _SIZE_REQ), np.full(m, _SIZE_RESP))),
            dist=np.concatenate((d, d)),
            weight=np.ones(2 * m, dtype=np.int64),
        )
        return leaders, np.bincount(top[order], minlength=self.n)[leaders]

    def declare_giant(self, g: int) -> None:
        """EOPT's giant declaration from leader ``g``, as one wave.

        The ``declare_giant`` wake floods GIANT over ``g``'s tree: at
        round ``depth`` each member sends one GIANT per child in
        ascending order.  Every member goes passive and joins the giant,
        ``g`` halts and the others stop leading.
        """
        order, par, dep, _ = self._forest(np.array([g], dtype=np.int64))
        child = order[par[order] >= 0]
        above = par[child]
        self._wave(
            rnd=dep[above],
            snd=above,
            intra=child,
            kind=np.full(len(child), _GIANT),
            dist=self._dist(above, child),
            weight=np.ones(len(child), dtype=np.int64),
        )
        self.passive[order] = True
        self.leader[child] = False
        self.halted[g] = True

    def activate(self) -> None:
        """The ``activate`` wake: every small fragment's leader resumes."""
        self.halted[self.leader & ~self.passive] = False
