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

Every stage is a *wave*: the only traffic in flight, each send fixed by
its sender's place in the fragment forest.  A wave is one array pass:
one C-level BFS over the fragment-tree CSR from a virtual root wired to
the wave's roots, pointer jumping for depths, roots and subtree maxima,
one emission table sorted once and charged through the sequential energy
chain; the kernel then advances the wave's rounds one by one with their
exact delivery counts (with tracing on, the ledger is set to each round's
partial sums before its event).  Stage A (the INITIATE flood), the census
and the giant declaration send at fixed depths.  Stage B is one wave per
phase in both modes: participant ``u`` reports at ``t(u) = max(s(u),
max over children c of t(c) + 1)``, where ``s(u)`` is the round its MOE
search ends — 0 in modified mode, where the cursor reads the MOE at the
wake, and in original mode the round its last TEST is answered, found by
walking every participant's probes in lockstep; the CHANGEROOT baton and
the CONNECT follow at the leader's decision round plus the sender's
depth.  With a passive giant (EOPT's step 2) the ABSORB floods join the
same wave: the fragments whose CONNECTs lead to the giant form a forest
under it, so their absorption rounds follow from their CONNECT rounds
and depths, one short loop step per fragment level.

The charge order is ``(round, sender, intra)``: a round's deliveries
run ascending by recipient, so its sends group by sender.  When one
sender runs several handlers in a round (a probe answer beside its own
TEST or REPORT, ABSORB replies), its sends follow the seqs of their
triggering deliveries; those come from distinct senders, so their seq
order is their senders' id order and the trigger's sender is a sort key
(:func:`trigger_keys`).

The MOE cursor: ``cur[i]`` is a position in node ``i``'s *walk* — its
CSR row in ``(d, lo, hi)`` edge-key order, which is the table's
distance order with each run of exact ties reordered by ascending
neighbour id.  Every position before the cursor is known to be internal
for good (fragments only merge).  Modified mode moves the cursor past
slots whose neighbour shares the node's fragment and reads the MOE
under it.  Original mode moves it, at no charge, past the tree slots
and the slots of a ``rejected`` mask over the CSR, then sends one TEST
at the slot under it; the recipient answers from its fragment id, and a
REJECT marks the edge on both sides (the recipient's slot through the
table's ``rev`` permutation), exactly as the TEST handler does.  TESTs
land at odd stage-B rounds and answers at even ones, so a walk sees the
marks of every earlier TEST and of none in its own round.  Either way
each cursor step is a fixed-width window over the nodes still scanning,
and the phases cost O(table entries) per run, not O(entries × phases).
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
from repro.trace import trace

__all__ = [
    "engine_eligible",
    "TurboPhaseEngine",
    "seq_energy_accumulate",
]

# Emission kind codes (column values in the emission tables).
(
    _INITIATE, _ANNOUNCE, _REPORT, _CHANGEROOT, _CONNECT, _ABSORB,
    _SIZE_REQ, _SIZE_RESP, _GIANT, _HELLO, _TEST, _ACCEPT, _REJECT,
) = range(13)
_KIND_NAMES = (
    "INITIATE", "ANNOUNCE", "REPORT", "CHANGEROOT", "CONNECT", "ABSORB",
    "SIZE_REQ", "SIZE_RESP", "GIANT", "HELLO", "TEST", "ACCEPT", "REJECT",
)

_INF = math.inf


def seq_energy_accumulate(total: float, energies: np.ndarray) -> float:
    """``total`` advanced by every element of ``energies``, *in order*.

    The ledger total must move through the exact left-to-right partial
    sums the per-message kernel's ``+=`` loop produces, so
    pairwise/compensated summation is off the table.  A seeded
    ``np.add.accumulate`` chain is exactly that: ufunc accumulation is
    defined as sequential application (pinned bit for bit against the
    scalar loop by ``tests/test_turbo.py``).
    """
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


def trigger_keys(rnd, snd, intra, trig, dst, done, n: int) -> np.ndarray:
    """Keys ``k`` under which ``(rnd, snd, k)`` is a wave's per-message
    charge order, when a sender may run several handlers in one round.

    One sender's sends in a round follow the seqs of the deliveries
    that trigger them, then code order ``intra`` (>= 0).  ``trig[i]``
    is the index of the emission whose delivery triggers emission ``i``,
    -1 for the wake that starts the wave, or -2 for a completion (a
    REPORT or a leader's decision), which fires at the last of its
    sender's deliveries flagged ``done`` that round (its children's
    REPORTs, the answer that ends its search).  In a stage-B wave no
    node gets two such deliveries from one sender in one round: REPORTs
    and CHANGEROOTs cross tree edges and probes do not; TESTs land at
    odd rounds and answers at even ones; a CONNECT makes its recipient
    send only when that is passive, in modified mode, where nothing
    probes; and a fragment's first ABSORB comes after its whole wave
    (``TurboPhaseEngine._absorb_rows``).  So the deliveries that
    trigger one sender's sends come from distinct senders, and since a
    round's sends are charged sender by sender, their seq order is
    their senders' id order: the trigger's sender is the key, with no
    per-round work.
    """
    by = np.where(trig >= 0, snd[np.maximum(trig, 0)], -1)
    fire = np.flatnonzero(trig == -2)
    if len(fire):
        d = np.flatnonzero(done)
        at = (rnd[d] + 1) * n + dst[d]  # (round delivered, recipient)
        o = np.lexsort((snd[d], at))
        at, last = at[o], snd[d][o]
        tail = np.append(at[1:] != at[:-1], True)
        at, last = at[tail], last[tail]
        by[fire] = last[np.searchsorted(at, rnd[fire] * n + snd[fire])]
    return (by + 1) * (int(intra.max(initial=0)) + 1) + intra


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
        self.parent = np.full(n, -1, dtype=np.int64)
        self.parent_dist = np.zeros(n)
        #: Directed tree-edge chunks (deduped at each CSR build).
        self.edge_chunks: list[np.ndarray] = []
        if edges is not None and len(edges):
            e = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
            self.edge_chunks.append(np.concatenate((e, e[::-1]), axis=1))
        #: Original mode: ``rejected`` marks same-fragment slots found by
        #: probes, ``dead`` adds the tree slots — the slots a cursor
        #: skips for free (both built by :meth:`hello`).
        self.rejected: np.ndarray | None = None
        self.dead: np.ndarray | None = None
        # -- per-phase fragment-tree CSR -----------------------------------
        self.t_indptr: np.ndarray | None = None
        self.t_adj: np.ndarray | None = None

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
        if self.passive.any() or self.edge_chunks:
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
        self.cursor_wakes += len(parts)
        pos, found = self._walk(parts, self.cur[parts])
        return self._moe_keys(parts, found, self._slot(pos[found]))

    def _moe_keys(
        self, parts: np.ndarray, has: np.ndarray, slots: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(cand, dist, lo, hi)`` of participants whose MOE is a slot
        (``slots``, one per ``has``), and ``(-1, inf, -1, -1)`` for the rest."""
        tbl = self.tbl
        cand = np.full(len(parts), -1, dtype=np.int64)
        kdist = np.full(len(parts), _INF)
        cand[has] = tbl.ids[slots]
        kdist[has] = tbl.dists[slots]
        klo = np.where(has, np.minimum(parts, cand), -1)
        khi = np.where(has, np.maximum(parts, cand), -1)
        return cand, kdist, klo, khi

    # -- geometry ----------------------------------------------------------

    def _dist(self, u, v) -> np.ndarray:
        """Pairwise distances, bit-identical to the kernel's expression."""
        dx = self.px[u] - self.px[v]
        dy = self.py[u] - self.py[v]
        return np.sqrt(dx * dx + dy * dy)

    # -- fragment-tree CSR -------------------------------------------------

    def _build_tree_csr(self) -> None:
        """(Re)build the sorted fragment-tree adjacency for this phase."""
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

    # -- charging ------------------------------------------------------------

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

    # -- waves: one array pass each ------------------------------------------

    def _forest(self, roots: np.ndarray) -> tuple:
        """The fragment-tree forest hanging from ``roots``, by one BFS.

        One C-level breadth-first search over the tree CSR from a
        virtual root wired to ``roots``, then pointer jumping.  Returns
        ``(order, par, dep, top, jumps)``: the reached nodes in BFS order
        and, per node (length ``n``), its parent (-1 at a root and off the
        forest), depth and root, and the jump tables (``jumps[k]`` is each
        node's ``2^k``-th ancestor, clamped at its root) that
        :meth:`_subtree_max` pushes values up along.
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
        return order, par, dep, up, jumps

    @staticmethod
    def _subtree_max(vals: np.ndarray, jumps: list) -> np.ndarray:
        """Each node's maximum of ``vals`` over its subtree in a forest.

        Pushed up along :meth:`_forest`'s jumps: after the push to
        ``2^k``-th ancestors a node holds the maximum over its
        descendants fewer than ``2^(k+1)`` levels below it.
        """
        out = vals.copy()
        for anc in jumps:
            np.maximum.at(out, anc, out.copy())
        return out

    def _wave(self, rnd, snd, intra, kind, dist, weight) -> None:
        """Charge one wave and run its rounds.

        The wave is the only traffic in flight.  Emission ``i`` is sent
        by ``snd[i]`` at round ``rnd[i]`` (0 = the wake that starts it) and
        delivered one round later; ``weight[i]`` is its delivery count
        (1 for a unicast, the announce-row length for a HELLO or an
        ANNOUNCE).  A wave that delivers nothing (a HELLO with nobody in
        range) is charged and advances no round, as the kernel's
        ``step`` does not.
        The per-message charge order is ``(round, sender, intra)``: a
        round's deliveries run ascending by recipient, so its sends group
        by sender, and ``intra`` orders one sender's sends — code order
        within one handler, and across the handlers a sender runs in one
        round the order of their triggering deliveries (the caller's
        :func:`trigger_keys`).  One lexsort orders the whole wave,
        charged through the sequential energy chain.  Rounds then advance
        one at a time with their exact delivery counts; with tracing on,
        the ledger holds each round's partial sums when its event is
        emitted.
        """
        if len(snd) == 0:
            return
        o = np.lexsort((intra, rnd * self.n + snd))
        kern = self.k
        kern._flush_charges()
        led = kern._ledger
        rounds = int(rnd.max()) + 1
        delivered = np.bincount(rnd, weights=weight, minlength=rounds)
        delivered = delivered.astype(np.int64).tolist()
        if not any(delivered):
            rounds, delivered = 0, []
        if perf.enabled:
            if rounds:
                perf.add("kernel.turbo_engine_rounds", rounds)
            a = (kind == _ANNOUNCE) | (kind == _HELLO)
            if a.any():
                perf.add("kernel.plane_sends", int(np.count_nonzero(a)))
                a &= weight > 0  # a plane batch holds its non-empty rows
                if a.any():
                    perf.add("kernel.plane_batches", len(sorted_unique(rnd[a])))
                    perf.add("kernel.plane_deliveries", int(weight[a].sum()))
        # Only the charge needs the order (and the trace, the rounds).
        energies = self.pw.energy_array(dist[o])
        snd, kind = snd[o], kind[o]
        e0, m0 = led.energy_total, led.messages_total
        counts = self._charge(snd, kind, energies)
        if not trace.enabled:
            for d in delivered:
                kern._advance_round(d)
            return
        # Round t's event sees every emission charged at rounds <= t: the
        # ledger steps through those partial sums up to its final values.
        partial = np.add.accumulate(np.concatenate(([e0], energies)))
        ends = np.searchsorted(rnd[o], np.arange(1, rounds + 1), side="right")
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
        self.leader[child] = False
        self.parent[ids] = p
        d = self._dist(child, above)
        self.parent_dist[child] = d
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

    def _probe_walks(self, parts: np.ndarray, out: list) -> tuple:
        """Original mode's MOE search: every participant's TEST walk, in
        lockstep.

        Round 0 is the ``find_moe`` wake.  A walk sends its TESTs at
        even rounds and each answer lands two rounds later, so TESTs land
        only at odd rounds and ACCEPT/REJECT only at even ones: no node
        holds a TEST and a REJECT in one round.  Fragment ids are fixed
        in stage B (no passive node, so no ABSORB), so a probe's answer
        is known when it is sent — REJECT within the fragment, which
        marks the edge on both sides (the recipient's slot through the
        table's ``rev``).  A walk at round ``t`` therefore sees the marks
        of exactly the TESTs sent before ``t``: one :meth:`_walk` step
        for all walkers per TEST round.

        Returns the round each participant's search ends and its MOE
        keys (:meth:`_moe_keys`, from the ACCEPTed slot).  Appends the
        TESTs, then their answers, to ``out`` as one block of emission
        rows (see :meth:`_stage_b_wave`): a TEST's trigger is the REJECT
        of its sender's previous TEST, an answer's its TEST, and an
        answer flagged ``done`` ends its recipient's search.
        """
        if self.passive.any():
            raise ProtocolError(
                "passive node in original-mode GHS: fragment ids could "
                "change while TESTs are in flight"
            )
        tbl, fid = self.tbl, self.fid
        k = len(parts)
        s = np.zeros(k, dtype=np.int64)
        hit = np.full(k, -1, dtype=np.int64)
        self.cursor_wakes += k
        none = np.zeros(0, dtype=np.int64)
        steps = [(none, none, none, none, none.astype(bool))]
        ends = [none]  # TESTs whose answer ends their sender's search
        idx = np.arange(k)  # the walkers, as positions in parts
        prev = np.full(k, -1, dtype=np.int64)
        pos = self.cur[parts]
        t = sent = 0
        while len(idx):
            pos, found = self._walk(parts[idx], pos)
            s[idx[~found]] = t
            ends.append(prev[~found])
            idx, prev, j = idx[found], prev[found], self._slot(pos[found])
            same = fid[tbl.ids[j]] == fid[parts[idx]]
            steps.append((np.full(len(idx), t), idx, j, prev, same))
            gi = np.arange(sent, sent + len(idx))
            sent += len(idx)
            acc = ~same
            s[idx[acc]] = t + 2
            hit[idx[acc]] = j[acc]
            ends.append(gi[acc])
            rj = j[same]
            for slots in (rj, tbl.rev[rj]):
                self.rejected[slots] = True
                self.dead[slots] = True
            idx, prev = idx[same], gi[same]
            pos = self.cur[parts[idx]] + 1
            t += 2
        tt, ti, tj, tprev, rejected = (np.concatenate(c) for c in zip(*steps))
        e = np.concatenate(ends)
        done = np.zeros(2 * sent, dtype=bool)
        done[sent + e[e >= 0]] = True
        tu, tv = parts[ti], tbl.ids[tj].astype(np.int64)
        out.append((
            np.concatenate((tt, tt + 1)),
            np.concatenate((tu, tv)),
            np.concatenate((tv, tu)),
            np.concatenate((np.full(sent, _TEST), np.where(rejected, _REJECT, _ACCEPT))),
            np.concatenate((tbl.dists[tj], tbl.dists[tj])),
            np.ones(2 * sent, dtype=np.int64),
            np.concatenate((np.where(tprev >= 0, sent + tprev, -1), np.arange(sent))),
            done,
        ))
        return s, self._moe_keys(parts, hit >= 0, hit[hit >= 0])

    def _absorb_rows(self, m, nb, land, conn, base: int) -> tuple | None:
        """The ABSORB floods of a phase with a passive giant, as a block
        of emission rows (see :meth:`_stage_b_wave`).

        Fragment ``f``'s CONNECT, emission ``conn[f]``, goes from ``m[f]``
        to ``nb[f]`` and lands at round ``land[f]``; the rows are numbered
        from ``base`` on.  ``None`` when no CONNECT lands on a passive
        node.

        A fragment has one CONNECT and the giant none, so the fragments
        whose CONNECTs lead to the giant form a forest under it, and an
        ABSORB reaches such a fragment first at ``m`` (from its children
        only after it is absorbed itself): after the fragment's whole
        stage-B wave.  ``nb`` sends it at the later of the CONNECT's
        landing (``nb`` passive by then: a reply) and ``nb``'s own
        absorption (a flood over the landed edge).  From ``m`` the flood
        follows the phase-start tree, so a node ``d`` levels below ``m``
        is absorbed ``d`` rounds later: one short loop step per fragment
        level.  A child's CONNECT that lands in the round its endpoint is
        absorbed lands first, and so joins the flood, iff its sender's id
        is lower than the ABSORB's (a round's sends are charged sender by
        sender); otherwise the endpoint replies.  Absorbed nodes take the
        giant's id, go passive and halt.
        """
        passive = self.passive
        gnb = passive[nb]
        if not gnb.any():
            return None
        n = self.n
        nf = len(m)
        order, par, dep, top, _ = self._forest(m)
        frag = np.full(n, -1, dtype=np.int64)
        frag[m] = np.arange(nf)
        tgt = np.where(gnb, -1, frag[top[nb]])  # the fragment ``nb`` is in
        at = np.full(nf, -1, dtype=np.int64)  # round m's ABSORB lands
        gfid = np.full(nf, -1, dtype=np.int64)
        at[gnb] = land[gnb] + 1
        gfid[gnb] = self.fid[nb[gnb]]
        lvl = gnb
        on = tgt >= 0
        while lvl.any():
            nxt = np.zeros(nf, dtype=bool)
            nxt[on] = lvl[tgt[on]]
            f = np.flatnonzero(nxt)
            at[f] = np.maximum(land[f], at[tgt[f]] + dep[nb[f]]) + 1
            gfid[f] = gfid[tgt[f]]
            lvl = nxt
        ys = order[at[frag[top[order]]] >= 0]
        fy = frag[top[ys]]
        ay = np.full(n, -1, dtype=np.int64)  # each node's absorption round
        ay[ys] = at[fy] + dep[ys]
        src = par.copy()  # where each absorbed node's ABSORB comes from
        src[m] = nb
        # ABSORB rows: floods down the trees, then over or back along the
        # CONNECT edges of absorbed fragments.
        kids = ys[par[ys] >= 0]
        f = np.flatnonzero(on & (at >= 0))
        y = nb[f]
        joins = (land[f] < ay[y]) | ((land[f] == ay[y]) & (m[f] < src[y]))
        g = np.flatnonzero(gnb)
        snd = np.concatenate((par[kids], y, nb[g]))
        dst = np.concatenate((kids, m[f], m[g]))
        rnd = np.concatenate((ay[kids] - 1, np.where(joins, ay[y], land[f]), land[g]))
        flood = np.concatenate(
            (np.ones(len(kids), dtype=bool), joins, np.zeros(len(g), dtype=bool))
        )
        into = np.full(n, -1, dtype=np.int64)  # the ABSORB each node takes
        into[dst] = base + np.arange(len(dst))
        reply = np.concatenate((np.full(len(kids), -1, dtype=np.int64), conn[f], conn[g]))
        trig = np.where(flood, into[snd], reply)
        self.fid[ys] = gfid[fy]
        self.passive[ys] = True
        self.leader[ys] = False
        self.halted[ys] = True
        na = len(ys)
        return (
            np.concatenate((rnd, ay[ys])),
            np.concatenate((snd, ys)),
            np.concatenate((dst, np.full(na, -1, dtype=np.int64))),
            np.concatenate((np.full(len(dst), _ABSORB), np.full(na, _ANNOUNCE))),
            np.concatenate((self._dist(snd, dst), np.full(na, self.r))),
            np.concatenate((np.ones(len(dst), dtype=np.int64), self.ann_cnt[ys])),
            np.concatenate((trig, into[ys])),
            np.zeros(len(dst) + na, dtype=bool),
        )

    def _stage_b_wave(self, parts: np.ndarray, forest: tuple) -> None:
        """Stage B of one phase, as one wave: the MOE search, the REPORT
        converge-cast, the CHANGEROOT baton, the CONNECTs and, with a
        passive giant, the ABSORB floods.

        Participant ``u``'s search ends at round ``s(u)``: 0 in modified
        mode (the cursor reads the MOE at the wake), the round its last
        probe is answered in original mode (:meth:`_probe_walks`).  It
        reports once its search is over and every child has reported,
        at ``t(u) = max(s(u), max over children c of t(c) + 1)`` — the
        maximum of ``s(w) + dep(w)`` over its subtree minus ``dep(u)``,
        one :meth:`_subtree_max` pass.  The leader ``L`` of a fragment
        with an outgoing edge decides at ``t(L)``, and CHANGEROOT passes
        down the path to the fragment's MOE endpoint ``m``, each node
        ``a`` on it sending at ``t(L) + dep(a)``, until ``m`` sends its
        CONNECT at ``t(L) + dep(m)``.  ``m`` is the participant of least
        candidate key: an outgoing edge has one endpoint inside the
        fragment, so the keys are unique there and the REPORT minima
        lead to it.  No ABSORB changes any of these sends
        (:meth:`_absorb_rows`), so the merge is order-free: both
        directions of every CONNECT edge join the tree, and the higher
        id of each reciprocal pair leads.

        In modified mode without a passive node every sender runs at
        most one handler a round and ``(round, sender)`` is the charge
        order; probe answers and ABSORBs can meet another handler's sends
        at one sender, and :func:`trigger_keys` orders those by trigger.
        The emission table is then built from blocks of rows, columns
        ``(rnd, snd, dst, kind, dist, weight, trig, done)`` as
        :func:`trigger_keys` reads them, ``trig`` indexing the whole
        table: the probes' block (:meth:`_probe_walks`), the REPORTs,
        batons and CONNECTs, and the ABSORBs' (:meth:`_absorb_rows`).
        """
        _, par, dep, top, jumps = forest
        tbl = self.tbl
        blocks: list[tuple] = []
        if self.tests:
            s, (cand, kdist, klo, khi) = self._probe_walks(parts, blocks)
            reach = dep.copy()
            reach[parts] += s
        else:
            cand, kdist, klo, khi = self._cursor_moe(parts)
            reach = dep
        reach = self._subtree_max(reach, jumps)  # t(u) + dep(u)
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
        rnd = np.concatenate(
            (reach[rep] - dep[rep], reach[top[a]] + dep[a], reach[top[m]] + dep[m])
        )
        kind = np.repeat([_REPORT, _CHANGEROOT, _CONNECT], (len(rep), len(a), len(m)))
        dist = np.concatenate((self.parent_dist[rep], self._dist(a, b), cdist))
        k = len(snd)
        off = len(blocks[0][0]) if blocks else 0  # index of the first REPORT
        post = None
        if not self.tests:  # no probe block: the CONNECTs end the table
            conn = np.arange(k - len(m), k)
            post = self._absorb_rows(m, nb, rnd[conn] + 1, conn, k)
        if blocks or post is not None:
            # Triggers: a REPORT or a leader's decision fires at the last
            # of its sender's ``done`` deliveries that round (-2; at the
            # wake, round 0: -1); below the leader the baton and the
            # CONNECT go at the CHANGEROOT taken.
            into = np.full(self.n, -1, dtype=np.int64)
            into[b] = off + len(rep) + np.arange(len(b))
            fires = np.concatenate((np.ones(len(rep), dtype=bool), par[a] < 0, par[m] < 0))
            blocks.append((
                rnd, snd, np.concatenate((par[rep], b, nb)), kind, dist,
                np.ones(k, dtype=np.int64),
                np.where(fires, np.where(rnd == 0, -1, -2), into[snd]),
                np.arange(k) < len(rep),  # the REPORTs are done deliveries
            ))
            if post is not None:
                blocks.append(post)
            rnd, snd, dst, kind, dist, weight, trig, done = (
                np.concatenate(c) for c in zip(*blocks)
            )
            blocks.clear()
            # An ABSORB flood goes out in tree-row order after its ANNOUNCE.
            intra = np.where(kind == _ABSORB, 1 + dst, 0)
            intra = trigger_keys(rnd, snd, intra, trig, dst, done, self.n)
        else:
            weight = np.ones(k, dtype=np.int64)
            intra = np.zeros(k, dtype=np.int64)
        self._wave(rnd=rnd, snd=snd, intra=intra, kind=kind, dist=dist, weight=weight)
        self.edge_chunks.append(np.stack((np.append(m, nb), np.append(nb, m))))
        to = np.full(self.n, -1, dtype=np.int64)
        to[m] = nb
        self.leader[m[(to[nb] == m) & (m > nb)]] = True  # core: higher id leads
        if self.dead is not None:
            # The CONNECT edges are tree slots from the next phase on.
            j = self._slot(self.cur[m])
            self.dead[j] = True
            self.dead[tbl.rev[j]] = True

    # -- the phase loop ----------------------------------------------------

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
            forest = self._forest(leaders)
            self._stage_b_wave(self._stage_a(phase, forest), forest)
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
        order, par, dep, top, jumps = self._forest(leaders)
        deep = self._subtree_max(dep, jumps)
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
        order, par, dep, _, _ = self._forest(np.array([g], dtype=np.int64))
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
