"""The synchronous simulation kernel.

Semantics (paper Sec. II):

* Time advances in discrete rounds.  Messages sent in round ``t`` are
  delivered at the start of round ``t+1``; handlers run sequentially in a
  deterministic order (by recipient id, then send order), which is sound
  because nodes cannot observe intra-round ordering in a synchronous
  system.
* ``unicast(dst, ...)`` models a directed transmission at exactly the
  power needed to reach ``dst``: it costs ``a d(src,dst)^alpha`` and is
  delivered to ``dst`` only (other nodes in range ignore it).
* ``local_broadcast(R, ...)`` costs ``a R^alpha`` and is delivered to every
  node within distance ``R`` of the sender.
* Transmissions are capped by the kernel's ``max_radius`` (the maximum
  power level); drivers may raise it between algorithm steps, modelling
  the adaptive power control EOPT relies on.
* No collisions/losses: every transmission succeeds (the paper defers
  physical-interference modelling to future work; see DESIGN.md).

Hot-path layout (see docs/performance.md for the full story):

* **Neighbor table** — a CSR array of (neighbor id, distance) per node,
  sorted by distance, plus the reverse-edge permutation ``rev`` that
  flood planes use.  Built lazily from one ``cKDTree.query_pairs`` call:
  one argsort ranks the pair distances, a stable radix bucket by source
  places the directed entries (listed in that rank order) into their
  rows, and ``rev`` falls out of that permutation's inverse.  Neighbor
  ids and ``rev`` are int32 whenever the node and entry counts fit
  (:func:`slot_dtype`), so a table costs 16 bytes per directed entry
  (int32 id and reverse index, float64 distance).  Invalidated only when
  ``set_max_radius`` *raises* the power cap.
  ``local_broadcast`` becomes a cached-slice lookup plus one
  ``searchsorted`` cutoff; ``unicast`` reads a cached distance.  Kernels
  whose power cap covers nearly the whole square (Co-NNT, flooding) would
  need an O(n^2) table, so a density gate falls back to per-call KD-tree
  queries there — the pre-table behaviour.
* **Broadcast descriptors** — ``local_broadcast`` enqueues a single
  ``(message, recipients-view, distances-view, seq)`` descriptor (O(1)
  per send, no per-recipient Python loop); unicasts go to a small flat
  list.  ``step`` expands the descriptors with numpy and orders all
  deliveries by one ``lexsort`` over (recipient id, send sequence) — the
  same stable order as sorting the send-ordered flat list by recipient.
* **Batched charges** — the headline ``energy_total``/``messages_total``
  stay exact running sums, but the per-kind / per-stage / per-node
  breakdowns accumulate in plain dict/list accumulators flushed into the
  :class:`~repro.sim.energy.EnergyLedger` when ``stats()`` (or the
  ``ledger`` property) is read.
* **Flood planes** — some protocol stages are pure cache refreshes with
  no control flow: every sender broadcasts one integer (the GHS family's
  HELLO and ANNOUNCE floods), every receiver only overwrites a cache
  entry.  :meth:`Context.plane_broadcast` charges its sender exactly
  like ``local_broadcast`` but skips :class:`~repro.sim.message.Message`
  construction and per-recipient dispatch entirely: ``step`` expands
  each kind's (sender, recipient) edges straight from the CSR table and
  hands the whole batch to one registered ``plane handler``
  (:meth:`set_plane_handler`) that applies the updates with numpy.
  Planes are *order-free by construction* — receivers only overwrite
  per-sender cache slots — so the one documented relaxation versus the
  legacy kernel is that deliveries **within** a plane round are not
  interleaved per-message with that round's unicasts.  Energy totals,
  message counts, round counts and recipient sets stay bit-identical.
  The slots are the same either way: the GHS family keeps one
  table-aligned flood cache on every kernel
  (:class:`~repro.algorithms.ghs.plane.FloodCache`), which planes fill
  in bulk and per-message HELLO/ANNOUNCE deliveries fill slot by slot.
* **Whole-round phase engine** — with a flood table and no faults, the
  GHS family's runs skip per-message dispatch altogether, HELLOs
  included: :mod:`repro.algorithms.ghs.turbo` runs each round as array
  programs over the same table and closes it through
  :meth:`_advance_round`, the one place every delivery path advances the
  clock.  This kernel (``"fast"``, alias ``"turbo"``) is the one
  optimized kernel; subclasses with per-message semantics set
  :attr:`SynchronousKernel.planes` to ``False`` and never engage the
  planes or the engine, and a density-gated table leaves this kernel on
  per-message floods too.  Outside the engine, the phase driver
  (:mod:`repro.algorithms.ghs.driver`) steps every stage round by round
  through :meth:`quiescence_steps`.

Delivery order (outside plane rounds), energy totals, message counts and
round counts are bit-identical to the pre-optimization kernel (kept
verbatim as :class:`~repro.sim.legacy.LegacyKernel`);
``tests/test_hotpath_equivalence.py`` pins that down.

**Fault plane** — an optional, seeded :class:`~repro.sim.faults.FaultPlan`
(message loss, duplicate delivery, node crash windows) is applied at
*delivery* time on every path (unicast-only, merged, flood plane):
the sender's TX charge stands, the lost/extra copies are tallied per kind
in the ledger, and ``rx_cost`` is charged only for copies actually
delivered.  Fates are counter-free hashes of ``(seed, src, dst, kind,
round)``, so runs are deterministic and identical across flood-plane,
per-message and legacy delivery.  With ``faults=None`` (the default)
every hot path is untouched — see ``docs/model.md``, "Fault model".
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from scipy.spatial import cKDTree

from repro.errors import GeometryError, PowerLimitError, SimulationError
from repro.perf import perf
from repro.trace import trace
from repro.sim.energy import EnergyLedger, SimStats
from repro.sim.faults import FaultPlan, FaultPlane
from repro.sim.message import Message
from repro.sim.node import NodeProcess
from repro.sim.power import PathLossModel

#: Relative slack on the max-power check, to absorb float rounding when a
#: protocol transmits at exactly its discovered neighbour distance.
_POWER_EPS = 1e-9

#: Density gate for the neighbor table: skip building it when the expected
#: number of directed (src, dst) entries exceeds ``max(_TABLE_MIN_BUDGET,
#: _TABLE_DEGREE_BUDGET * n)`` — a cap of sqrt(2) over thousands of nodes
#: is an O(n^2) table nobody ever slices.
_TABLE_DEGREE_BUDGET = 128
_TABLE_MIN_BUDGET = 65536

#: Sentinel cached when the density gate rejected a table at the current
#: ``max_radius`` (distinct from "not built yet").
_NO_TABLE = object()

#: Sort key for unicast-only rounds (stable sort by recipient id).
_BY_DST = operator.itemgetter(0)


def _dict_delta(cur: dict, prev: dict) -> dict:
    """Nonzero per-key differences ``cur - prev`` (trace round events)."""
    out = {}
    for key, val in cur.items():
        d = val - prev.get(key, 0)
        if d:
            out[key] = d
    return out


def table_within_budget(n: int, radius: float) -> bool:
    """Whether the density gate admits a CSR table for ``(n, radius)``.

    The same budget :meth:`SynchronousKernel._build_neighbor_table`
    applies; exposed so a runner can tell up front whether a kernel at
    ``radius`` will have a table.
    """
    est_entries = n * (n - 1) * min(1.0, math.pi * radius * radius)
    return est_entries <= max(_TABLE_MIN_BUDGET, _TABLE_DEGREE_BUDGET * n)


def slot_dtype(n: int, entries: int) -> np.dtype:
    """The dtype of a table's ``ids`` and ``rev`` and of slot-aligned arrays.

    int32 when both ``n`` and ``entries`` are below ``2**31``, so every
    node id and every entry index fits; int64 otherwise.  The density
    gate caps ``entries`` at about ``128 n``, so int32 covers every
    table up to n ~ 1.6 * 10^7.
    """
    return np.dtype(np.int32 if max(n, entries) < 2**31 else np.int64)


def radix_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in ``[0, bound)``.

    numpy's stable argsort is a radix sort only for keys of 16 bits or
    fewer (timsort above that), so wider keys take one stable 16-bit
    pass per digit, least significant first.
    """
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    shift = 16
    while bound > 1 << shift:
        digit = (keys >> shift).astype(np.uint16)[order]
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def neighbor_csr_arrays(
    points: np.ndarray, radius: float, *, tree: "cKDTree | None" = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The neighbor-table CSR payload ``(indptr, ids, dists, rev)`` at ``radius``.

    Each row lists a node's neighbors by distance; equal distances keep
    ``query_pairs`` order, every ``i -> j`` entry of a pair ``(i, j)``
    ahead of every ``j -> i`` one (a stable ``(src, dist)`` sort of the
    ``[i->j | j->i]`` concatenation).  ``rev[e]`` is the index of the
    reverse entry of ``e``.  ``indptr`` is int64 and ``dists`` float64;
    ``ids`` and ``rev`` take :func:`slot_dtype`.

    The build lists the ``2P`` directed entries in global rank order
    (pair by pair in distance order, both directions of a pair adjacent,
    tie runs fixed up by :func:`_rank_ties`) and places them with one
    stable bucket by source (:func:`radix_argsort`); ``rev`` falls out
    of that permutation's inverse.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if tree is None:
        tree = cKDTree(pts)
    pairs = tree.query_pairs(radius, output_type="ndarray")
    p = len(pairs)
    m = 2 * p
    dt = slot_dtype(n, m)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(pairs.ravel(), minlength=n), out=indptr[1:])
    # Entry 2k + h of the flat pair list is pairs[k, h] -> pairs[k, 1 - h].
    flat = pairs.astype(dt).ravel()
    del pairs
    # Same float expression as the scalar unicast path, so the cached
    # distances are bit-identical to recomputation (in both directions:
    # fl(a - b) == -fl(b - a)).
    i, j = flat[0::2], flat[1::2]
    d = pts[i, 0] - pts[j, 0]
    d *= d
    dy = pts[i, 1] - pts[j, 1]
    dy *= dy
    d += dy
    del dy, i, j
    np.sqrt(d, out=d)
    # Need not be stable: _rank_ties orders each run of ties by pair index.
    by_d = np.argsort(d)
    # ranked[r] = the entry of rank r: 2 by_d[q] + h at rank 2q + h.
    ranked = np.repeat(by_d.astype(dt) * 2, 2)
    ranked[1::2] += 1
    d_sorted = d[by_d]
    eq = d_sorted[1:] == d_sorted[:-1]
    del d_sorted
    if eq.any():
        _rank_ties(ranked, by_d, eq)
    del by_d, eq
    # A stable bucket by source keeps rank order within each row.
    place = radix_argsort(flat[ranked], n)
    order = ranked[place]
    del ranked, place
    inv = np.empty(m, dtype=dt)
    inv[order] = np.arange(m, dtype=dt)
    dists = d[order >> 1]
    del d
    order ^= 1  # each slot's reverse entry
    ids = flat[order]
    rev = inv[order]
    return indptr, ids, dists, rev


def _rank_ties(ranked: np.ndarray, by_d: np.ndarray, eq: np.ndarray) -> None:
    """Re-rank, in place, the pairs whose distance ties with another pair's.

    ``eq[q]`` says ``by_d`` positions ``q`` and ``q + 1`` hold equal
    distances.  A run at positions ``s..s+g-1`` ranks by pair index, all
    ``i -> j`` entries first: the ``t``-th pair ``k`` of the run puts
    entry ``2k + h`` at rank ``2s + h*g + t``.
    """
    tied = np.flatnonzero(eq)
    q = np.union1d(tied, tied + 1)
    first = np.ones(len(q), dtype=bool)
    first[1:] = ~eq[q[1:] - 1]
    run = np.cumsum(first) - 1
    start = q[first][run]
    size = np.diff(np.append(np.flatnonzero(first), len(q)))[run]
    k = by_d[q]
    k = 2 * k[np.lexsort((k, run))]
    at = q + start
    ranked[at] = k
    ranked[at + size] = k + 1


def concat_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate the half-open index ranges ``[starts[i], ends[i])``.

    Vectorized multi-``arange``: the result lists every index of every
    range, in range order.  Zero-length ranges are skipped naturally.
    The output is the only allocation of its size: ones, with the jump
    to each range's start written at that range's head, cumulatively
    summed in place.
    """
    counts = ends - starts
    nz = counts > 0
    starts, ends, counts = starts[nz], ends[nz], counts[nz]
    if len(counts) == 0:
        return np.empty(0, dtype=np.intp)
    heads = np.cumsum(counts)
    out = np.ones(int(heads[-1]), dtype=np.intp)
    out[0] = starts[0]
    out[heads[:-1]] = starts[1:] - ends[:-1] + 1
    np.cumsum(out, out=out)
    return out


class NeighborTable:
    """CSR adjacency of every pair within ``max_radius``, sorted by distance.

    ``ids``/``dists`` are the CSR payload arrays (``searchsorted`` radius
    cutoffs need the float64 array; broadcast descriptors keep views into
    both); ``rev`` maps every entry ``(src, dst)`` to the index of its
    reverse ``(dst, src)`` — an involution that flood-plane delivery uses
    to map a sender's CSR row onto the recipients' cache slots.  The
    per-source ``{neighbor: distance}`` dicts (``dist_of``, built lazily
    on a node's first unicast) hold native ints and floats.
    """

    __slots__ = (
        "max_radius",
        "indptr",
        "indptr_arr",
        "ids",
        "dists",
        "rev",
        "dist_of",
    )

    def __init__(
        self,
        max_radius: float,
        indptr: np.ndarray,
        ids: np.ndarray,
        dists: np.ndarray,
        rev: np.ndarray,
    ) -> None:
        self.max_radius = max_radius
        self.indptr_arr = np.asarray(indptr, dtype=np.intp)
        self.indptr = self.indptr_arr.tolist()
        self.ids = ids
        self.dists = dists
        self.rev = rev
        self.dist_of: list[dict[int, float] | None] = [None] * (len(self.indptr) - 1)

    def neighbors_of(self, src: int) -> dict[int, float]:
        """The (lazily built) ``{neighbor: distance}`` map for ``src``."""
        m = self.dist_of[src]
        if m is None:
            s, e = self.indptr[src], self.indptr[src + 1]
            m = dict(zip(self.ids[s:e].tolist(), self.dists[s:e].tolist()))
            self.dist_of[src] = m
        return m


class Context:
    """Per-node facade over the kernel: the only API a node may use."""

    __slots__ = ("_kernel", "_id")

    def __init__(self, kernel: "SynchronousKernel", node_id: int) -> None:
        self._kernel = kernel
        self._id = node_id

    # -- information a node legitimately has --------------------------------

    @property
    def n_nodes(self) -> int:
        """Network size ``n`` (the paper lets nodes know a Theta(n) estimate)."""
        return self._kernel.n

    @property
    def max_radius(self) -> float:
        """Current maximum transmission radius (max power level)."""
        return self._kernel.max_radius

    @property
    def coords(self) -> tuple[float, float]:
        """Own coordinates — only for coordinate-aware algorithms (Sec. VI)."""
        if not self._kernel.expose_coordinates:
            raise SimulationError(
                "this kernel was built without coordinate knowledge "
                "(pass expose_coordinates=True for Sec. VI algorithms)"
            )
        x, y = self._kernel.points[self._id]
        return float(x), float(y)

    # -- communication -------------------------------------------------------

    def unicast(self, dst: int, kind: str, *payload) -> None:
        """Send a message to a specific node, at exactly the needed power."""
        self._kernel._send_unicast(self._id, dst, kind, payload)

    def local_broadcast(self, radius: float, kind: str, *payload) -> None:
        """Transmit to every node within ``radius`` (one message, one charge)."""
        self._kernel._send_broadcast(self._id, radius, kind, payload)

    def plane_broadcast(self, radius: float, kind: str, payload: int) -> bool:
        """Fast-path local broadcast of one integer via the flood plane.

        Semantically identical to ``local_broadcast(radius, kind, payload)``
        — same charge, same recipient set, delivered next round — but the
        payload reaches receivers through the kernel's registered plane
        handler instead of per-recipient ``on_message`` calls.  Returns
        ``False`` (sending nothing, charging nothing) when the kernel has
        no plane fast path; the caller must then fall back to
        ``local_broadcast``.
        """
        return self._kernel._send_plane(self._id, radius, kind, payload)


class SynchronousKernel:
    """Optimized synchronous, collision-free kernel (flood planes, phase engine)."""

    #: Whether flood planes (and so the whole-round phase engine) may run.
    #: Subclasses with per-message delivery semantics set it False:
    #: ``set_plane_handler`` refuses a handler, plane sends return False,
    #: and :func:`~repro.algorithms.ghs.plane.flood_table` declines.
    planes = True

    def __init__(
        self,
        points: np.ndarray,
        max_radius: float,
        power: PathLossModel | None = None,
        *,
        expose_coordinates: bool = False,
        rx_cost: float = 0.0,
        faults: FaultPlan | None = None,
    ) -> None:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise GeometryError(f"points must have shape (n, 2), got {pts.shape}")
        if max_radius <= 0:
            raise GeometryError(f"max_radius must be positive, got {max_radius}")
        if rx_cost < 0:
            raise GeometryError(f"rx_cost must be non-negative, got {rx_cost}")
        self.points = pts
        self.n = len(pts)
        self.max_radius = float(max_radius)
        self.power = power or PathLossModel()
        self.expose_coordinates = expose_coordinates
        #: Constant energy a radio pays to receive one message (paper
        #: Sec. VIII extension; 0 recovers the paper's TX-only model).
        self.rx_cost = float(rx_cost)
        #: Compiled fault plane (None = fault-free; a null plan is
        #: normalized to None so the hot paths stay branchless-on-off).
        self.fault_plan = faults
        self.faults: FaultPlane | None = (
            faults.build(len(pts)) if faults is not None and not faults.is_null else None
        )
        self.nodes: list[NodeProcess] = []
        self._ledger = EnergyLedger(self.n)
        self.rounds = 0
        self.stage = "main"
        self._tree = cKDTree(pts) if self.n else None
        #: Cached neighbor table: None = not built, _NO_TABLE = too dense.
        self._nbr_table: NeighborTable | None | object = None
        #: Pending unicasts for the next round: (dst, msg, dist, seq).
        self._uni: list[tuple[int, Message, float, int]] = []
        #: Pending broadcast descriptors: (msg, ids view, dists view, seq).
        self._bcasts: list[tuple[Message, np.ndarray, np.ndarray, int]] = []
        #: Send-call sequence number (ties delivery order to send order).
        self._seq = 0
        self._n_pending = 0
        #: Flood-plane state: the vectorized delivery callback (None =
        #: planes unavailable), buffered single-sender registrations per
        #: kind, the table all of this round's plane slices index into,
        #: and the pending recipient count.
        self._plane_handler: Callable | None = None
        self._plane_singles: dict[str, list[tuple[int, int, int, int]]] = {}
        self._plane_tbl: NeighborTable | None = None
        self._n_plane_pending = 0
        #: Batched ledger accumulators: (kind, stage) -> [energy, count],
        #: plus per-node energy partial sums; flushed by _flush_charges.
        self._acc_kinds: dict[tuple[str, str], list] = {}
        self._acc_node: list[float] = [0.0] * self.n
        #: Ledger snapshot at the last traced round boundary (None until
        #: the first traced round); read only when ``trace.enabled``.
        self._trace_prev: dict | None = None
        #: Round-boundary observer (scenario plane): called with the new
        #: round count after every round advance, on every kernel path.
        self._round_hook: Callable[[int], None] | None = None
        self._started = False

    # -- setup ----------------------------------------------------------------

    def add_nodes(self, factory: Callable[[int, Context], NodeProcess]) -> None:
        """Instantiate one process per point via ``factory(node_id, ctx)``."""
        if self.nodes:
            raise SimulationError("nodes already added")
        self.nodes = [factory(i, Context(self, i)) for i in range(self.n)]

    def set_max_radius(self, radius: float) -> None:
        """Raise/lower the maximum power level (EOPT step transition).

        Raising the cap invalidates the cached neighbor table (it no
        longer covers every reachable pair); lowering keeps it — a
        superset table stays correct because every delivery filters by
        the requested radius.
        """
        if radius <= 0:
            raise GeometryError(f"max_radius must be positive, got {radius}")
        self.max_radius = float(radius)
        tbl = self._nbr_table
        if tbl is not None and (
            tbl is _NO_TABLE or self.max_radius > tbl.max_radius
        ):
            self._nbr_table = None
        if trace.enabled:
            trace.emit("power", round=self.rounds, radius=self.max_radius)

    def set_stage(self, label: str) -> None:
        """Tag subsequent charges with ``label`` in the per-stage breakdown."""
        self.stage = label
        if trace.enabled:
            trace.emit("stage", round=self.rounds, stage=label)

    # -- neighbor table --------------------------------------------------------

    def _build_neighbor_table(self) -> "NeighborTable | object":
        """Build the CSR neighbor table at the current ``max_radius``.

        Returns :data:`_NO_TABLE` when the expected table size blows the
        density budget (near-global power caps), in which case broadcasts
        keep using per-call KD-tree queries.
        """
        n = self.n
        r = self.max_radius
        if not table_within_budget(n, r):
            if perf.enabled:
                perf.add("kernel.nbr_table_fallbacks")
            return _NO_TABLE
        with perf.timed("kernel.nbr_table_build"):
            table = NeighborTable(
                r, *neighbor_csr_arrays(self.points, r, tree=self._tree)
            )
        if perf.enabled:
            perf.add("kernel.nbr_table_builds")
            perf.add("kernel.nbr_table_entries", len(table.ids))
        return table

    def _table(self) -> "NeighborTable | None":
        """The cached neighbor table, building it on first use (or None)."""
        tbl = self._nbr_table
        if tbl is None:
            tbl = self._build_neighbor_table()
            self._nbr_table = tbl
        return None if tbl is _NO_TABLE else tbl

    def neighbor_table(self) -> "NeighborTable | None":
        """The CSR neighbor table at the current cap (``None`` = too dense).

        Public accessor for plane clients (e.g. the GHS flood cache)
        whose index-aligned arrays must share the table's CSR layout.
        """
        if self._tree is None:
            return None
        return self._table()

    # -- flood planes ----------------------------------------------------------

    def set_plane_handler(self, handler: Callable | None) -> None:
        """Register the vectorized plane delivery callback (or clear it).

        ``handler(kind, table, senders, payloads, counts, edge_idx)`` is
        called once per (kind, round) batch at delivery time: ``senders``
        and ``payloads`` are parallel arrays, ``counts[i]`` recipients
        belong to ``senders[i]``, and ``edge_idx`` indexes the delivered
        (sender, recipient) edges into ``table.ids`` / ``table.dists``
        (recipient-side cache slots are ``table.rev[edge_idx]``).

        Kernels without planes (:attr:`planes` False: the legacy
        reference, contention) have strict per-message semantics;
        registering a handler on one is a caller bug and raises
        immediately rather than silently never delivering.
        ``plane_broadcast`` on such kernels returns ``False`` (the
        documented per-message fallback) instead.
        """
        if handler is not None and not self.planes:
            raise SimulationError(
                "per-message kernel (planes = False) cannot take a "
                "plane handler; use the per-message fallback (honor "
                "plane_broadcast() returning False)"
            )
        self._plane_handler = handler

    def _plane_table(self) -> "NeighborTable | None":
        """The table plane sends may slice, or ``None`` if planes are off.

        Planes need a kernel that allows them (:attr:`planes`), a
        registered handler, and the CSR table at the current cap.
        """
        if not self.planes or self._plane_handler is None or self._tree is None:
            return None
        return self._table()

    def _send_plane(self, src: int, radius: float, kind: str, payload: int) -> bool:
        """Single-sender plane registration (buffered per kind per round)."""
        radius = float(radius)
        if radius < 0:
            raise GeometryError(
                f"broadcast radius must be non-negative, got {radius}"
            )
        # Hot path: reuse the table this round's pending slices index into
        # (many nodes flood in one round; only the first pays the lookup
        # chain).  With nothing pending, look it up again: the cap may
        # have been raised since a send that reached nobody.
        tbl = self._plane_tbl
        if tbl is None or not self._n_plane_pending:
            tbl = self._plane_table()
            if tbl is None:
                return False
            self._plane_tbl = tbl
        if radius > tbl.max_radius:
            return False
        self._check_power(src, radius)
        self._charge_tx(src, kind, self.power.energy(radius))
        s, e = tbl.indptr[src], tbl.indptr[src + 1]
        if radius < tbl.max_radius:
            e = s + int(np.searchsorted(tbl.dists[s:e], radius, side="right"))
        if e > s:
            self._plane_singles.setdefault(kind, []).append((src, payload, s, e))
            self._n_plane_pending += e - s
        if perf.enabled:
            perf.add("kernel.plane_sends")
        return True

    def _deliver_planes(self) -> int:
        """Expand and deliver all pending planes (one handler call per kind)."""
        singles = self._plane_singles
        tbl = self._plane_tbl
        delivered = self._n_plane_pending
        self._plane_singles = {}
        self._plane_tbl = None
        self._n_plane_pending = 0
        handler = self._plane_handler
        rx = self.rx_cost
        led = self._ledger
        fp = self.faults
        for kind, entries in singles.items():
            k = len(entries)
            senders = np.fromiter((t[0] for t in entries), dtype=np.intp, count=k)
            payloads = np.fromiter((t[1] for t in entries), dtype=np.int64, count=k)
            starts = np.fromiter((t[2] for t in entries), dtype=np.intp, count=k)
            ends = np.fromiter((t[3] for t in entries), dtype=np.intp, count=k)
            counts = ends - starts
            edge_idx = concat_ranges(starts, ends)
            if fp is not None and len(edge_idx):
                # Per-edge fates: drop/dup the delivered copies while the
                # senders' charges (already taken) stand.
                src_e = np.repeat(senders.astype(np.int64, copy=False), counts)
                times, cm, dm, um = fp.times(
                    src_e, tbl.ids[edge_idx], fp.kind_hash(kind), self.rounds
                )
                ncr, ndr, ndu = int(cm.sum()), int(dm.sum()), int(um.sum())
                if ncr:
                    led.crash_drops_by_kind[kind] += ncr
                if ndr:
                    led.drops_by_kind[kind] += ndr
                if ndu:
                    led.dup_deliveries_by_kind[kind] += ndu
                if ncr or ndr or ndu:
                    seg = np.repeat(np.arange(len(senders), dtype=np.intp), counts)
                    counts = np.bincount(
                        seg, weights=times, minlength=len(senders)
                    ).astype(np.intp)
                    edge_idx = np.repeat(edge_idx, times)
            handler(kind, tbl, senders, payloads, counts, edge_idx)
            if rx:
                # Scalar loop keeps rx totals bit-identical to the
                # per-message path (same left-to-right summation).
                for dst in tbl.ids[edge_idx].tolist():
                    led.charge_rx(dst, rx)
        if perf.enabled:
            perf.add("kernel.plane_batches", len(singles))
            perf.add("kernel.plane_deliveries", delivered)
        return delivered

    # -- energy accounting -----------------------------------------------------

    @property
    def ledger(self) -> EnergyLedger:
        """The energy ledger, with any batched charges flushed."""
        self._flush_charges()
        return self._ledger

    def _charge_tx(self, node: int, kind: str, energy: float) -> None:
        """Record one transmission: exact totals now, breakdowns batched."""
        led = self._ledger
        led.energy_total += energy
        led.messages_total += 1
        self._acc_node[node] += energy
        acc = self._acc_kinds
        key = (kind, self.stage)
        cell = acc.get(key)
        if cell is None:
            acc[key] = [energy, 1]
        else:
            cell[0] += energy
            cell[1] += 1

    def _flush_charges(self) -> None:
        """Fold the batched accumulators into the ledger's breakdowns."""
        acc = self._acc_kinds
        if not acc:
            return
        led = self._ledger
        for (kind, stage), (e, c) in acc.items():
            led.energy_by_kind[kind] += e
            led.messages_by_kind[kind] += c
            led.energy_by_stage[stage] += e
            led.messages_by_stage[stage] += c
        acc.clear()
        led.energy_by_node += self._acc_node
        self._acc_node = [0.0] * self.n

    def _trace_round(self) -> None:
        """Emit one per-round trace event (deltas since the last round).

        Runs once per round, only while tracing is enabled.  Every field
        is invariant across delivery paths: per-kind message counts are
        exact integers, ``de`` is a difference of the *exact* running
        ``energy_total`` (bit-identical across kernels), and fault
        tallies come from path-independent fate hashes.  Per-kind energy
        *breakdowns* are deliberately absent — they are batched float
        sums that may differ in the last ulp between kernels and would
        make equivalent runs diff as divergent.
        """
        self._flush_charges()
        led = self._ledger
        prev = self._trace_prev
        if prev is None:
            prev = {"m": 0, "e": 0.0, "kinds": {}, "drop": {}, "dup": {}, "crash": {}}
        fields = {
            "round": self.rounds,
            "dm": led.messages_total - prev["m"],
            "de": led.energy_total - prev["e"],
            "kinds": _dict_delta(led.messages_by_kind, prev["kinds"]),
        }
        # Fault outcomes appear only when they happened this round, so a
        # fault-free run's trace carries no fault fields at all.
        for field, tally in (
            ("drop", led.drops_by_kind),
            ("dup", led.dup_deliveries_by_kind),
            ("crash", led.crash_drops_by_kind),
        ):
            delta = _dict_delta(tally, prev[field])
            if delta:
                fields[field] = delta
        trace.emit("round", **fields)
        self._trace_prev = {
            "m": led.messages_total,
            "e": led.energy_total,
            "kinds": dict(led.messages_by_kind),
            "drop": dict(led.drops_by_kind),
            "dup": dict(led.dup_deliveries_by_kind),
            "crash": dict(led.crash_drops_by_kind),
        }

    # -- sending (called through Context) --------------------------------------

    def _check_power(self, src: int, radius: float) -> None:
        if radius > self.max_radius * (1.0 + _POWER_EPS):
            raise PowerLimitError(
                f"node {src} attempted to transmit to distance {radius:.6g} "
                f"beyond max radius {self.max_radius:.6g}"
            )

    def _send_unicast(self, src: int, dst: int, kind: str, payload: tuple) -> None:
        if not (0 <= dst < self.n):
            raise SimulationError(f"unicast to unknown node {dst}")
        if dst == src:
            raise SimulationError(f"node {src} attempted to unicast to itself")
        tbl = self._nbr_table
        dist = None
        if tbl is not None and tbl is not _NO_TABLE:
            m = tbl.dist_of[src]
            if m is None:
                m = tbl.neighbors_of(src)
            dist = m.get(dst)
        if dist is None:
            d = self.points[src] - self.points[dst]
            dist = math.sqrt(d[0] * d[0] + d[1] * d[1])
        self._check_power(src, dist)
        self._charge_tx(src, kind, self.power.energy(dist))
        self._uni.append((dst, Message(kind, src, dst, payload, dist), dist, self._seq))
        self._seq += 1
        self._n_pending += 1

    def _send_broadcast(self, src: int, radius: float, kind: str, payload: tuple) -> None:
        if radius < 0:
            raise GeometryError(f"broadcast radius must be non-negative, got {radius}")
        radius = float(radius)
        self._check_power(src, radius)
        self._charge_tx(src, kind, self.power.energy(radius))
        if self._tree is None:
            return
        msg = Message(kind, src, None, payload, radius)
        tbl = self._table()
        if tbl is None or radius > tbl.max_radius:
            # Dense fallback (or the eps-slack corner where the requested
            # radius exceeds the table's build cutoff): per-call query.
            # All recipients of one broadcast share one sequence number —
            # legal, because a broadcast reaches each recipient at most
            # once, so (dst, seq) pairs stay unique.
            seq = self._seq
            self._seq += 1
            src_pt = self.points[src]
            for r in self._tree.query_ball_point(src_pt, radius):
                if r == src:
                    continue
                d = src_pt - self.points[r]
                dist = math.sqrt(d[0] * d[0] + d[1] * d[1])
                self._uni.append((r, msg, dist, seq))
                self._n_pending += 1
            return
        s, e = tbl.indptr[src], tbl.indptr[src + 1]
        if radius < tbl.max_radius:
            # Distances are sorted per source: binary-search the cutoff
            # (side="right" keeps the closed ball, dist <= radius).
            e = s + int(np.searchsorted(tbl.dists[s:e], radius, side="right"))
        if e > s:
            # O(1) enqueue: views into the table arrays keep the table
            # alive even if set_max_radius invalidates it before step().
            self._bcasts.append((msg, tbl.ids[s:e], tbl.dists[s:e], self._seq))
            self._n_pending += e - s
        self._seq += 1

    # -- running -----------------------------------------------------------------

    def start(self) -> None:
        """Call ``on_start`` on every node (once)."""
        if not self.nodes:
            raise SimulationError("no nodes added; call add_nodes() first")
        if self._started:
            raise SimulationError("kernel already started")
        self._started = True
        for node in self.nodes:
            node.on_start()

    def wake(self, node_ids: Iterable[int] | Sequence[int], signal: str, payload: tuple = ()) -> None:
        """Deliver a local driver signal to ``node_ids`` (no energy cost).

        Nodes inside a fault-plane crash window are skipped: a crashed
        node cannot act on a timer/phase signal any more than on a
        message.
        """
        fp = self.faults
        if fp is not None and fp.has_crashes:
            rnd = self.rounds
            for nid in node_ids:
                if not fp.crashed(nid, rnd):
                    self.nodes[nid].on_wake(signal, payload)
            return
        for nid in node_ids:
            self.nodes[nid].on_wake(signal, payload)

    def set_round_hook(self, hook: Callable[[int], None] | None) -> None:
        """Install an observer called with ``self.rounds`` after every
        round advance (``None`` detaches it).

        This is the scenario plane's round-boundary anchor: every kernel
        path — scalar step, legacy step, plane-only rounds, idle
        ticks, contention slots and the whole-round phase engine —
        advances through :meth:`_advance_round`, so a global clock driven
        by it is backend-invariant.  The hook must not send messages or
        mutate kernel state.
        """
        self._round_hook = hook

    def _advance_round(self, delivered: int) -> None:
        """Close one round: the single place the round clock moves.

        Bumps ``rounds``, the ``kernel.rounds``/``kernel.deliveries``
        perf counters and the RSS sample, emits the per-round trace
        event, then fires the round hook — in that order, on every
        delivery path.
        """
        self.rounds += 1
        if perf.enabled:
            perf.add("kernel.rounds")
            perf.add("kernel.deliveries", delivered)
            perf.sample_rss()
        if trace.enabled:
            self._trace_round()
        if self._round_hook is not None:
            self._round_hook(self.rounds)

    def tick(self) -> None:
        """Advance the round clock by one round, even with nothing in flight.

        ``step`` only advances time when it delivers; fault-recovery
        drivers call this to let a crash window expire (wall-clock rounds
        pass whether or not anyone transmits).
        """
        if self.in_flight:
            self.step()
        else:
            self._advance_round(0)

    def step(self) -> int:
        """Deliver one round of messages; returns the number delivered.

        With a fault plane active the return value counts *attempted*
        deliveries (the ledger's drop tallies hold the difference); a
        round whose deliveries are all dropped still advances the clock.
        """
        uni = self._uni
        bc = self._bcasts
        if not uni and not bc and not self._n_plane_pending:
            return 0
        # Swap the pending structures out *before* delivering, so handler
        # sends go to the next round.
        self._uni = []
        self._bcasts = []
        delivered = self._n_pending
        self._n_pending = 0
        if self._n_plane_pending:
            # Planes land before per-message dispatch: within a round the
            # relative order is unobservable to well-formed plane handlers
            # (they only overwrite cache slots), and front-loading them
            # keeps the message loop below branch-free.
            delivered += self._deliver_planes()
        if not uni and not bc:
            self._advance_round(delivered)
            return delivered
        nodes = self.nodes
        rx = self.rx_cost
        led = self._ledger
        if not bc:
            # Unicast-only round: a stable sort by recipient id over the
            # send-ordered list is exactly the legacy delivery order.
            uni.sort(key=_BY_DST)
            if self.faults is not None:
                uni = self._apply_faults_list(uni)
            if rx:
                for dst, msg, dist, _ in uni:
                    led.charge_rx(dst, rx)
                    nodes[dst].on_message(msg, dist)
            else:
                for dst, msg, dist, _ in uni:
                    nodes[dst].on_message(msg, dist)
        else:
            # Expand broadcast descriptors and merge with unicasts in one
            # vectorized pass.  lexsort by (recipient id, send seq) is the
            # same total order as the legacy stable sort by recipient of
            # the send-ordered flat list: (dst, seq) pairs are unique
            # because one send reaches a given recipient at most once.
            k = len(bc)
            msgs = [b[0] for b in bc]
            counts = np.fromiter((len(b[1]) for b in bc), dtype=np.intp, count=k)
            dst_all = np.concatenate([b[1] for b in bc])
            dist_all = np.concatenate([b[2] for b in bc])
            seqs = np.fromiter((b[3] for b in bc), dtype=np.intp, count=k)
            seq_all = np.repeat(seqs, counts)
            midx = np.repeat(np.arange(k, dtype=np.intp), counts)
            if uni:
                u = len(uni)
                msgs.extend(t[1] for t in uni)
                dst_all = np.concatenate(
                    [dst_all, np.fromiter((t[0] for t in uni), dtype=np.intp, count=u)]
                )
                dist_all = np.concatenate(
                    [dist_all, np.fromiter((t[2] for t in uni), dtype=float, count=u)]
                )
                seq_all = np.concatenate(
                    [seq_all, np.fromiter((t[3] for t in uni), dtype=np.intp, count=u)]
                )
                midx = np.concatenate([midx, np.arange(k, k + u, dtype=np.intp)])
            order = np.lexsort((seq_all, dst_all))
            fp = self.faults
            if fp is not None:
                m = len(msgs)
                src_by_msg = np.fromiter(
                    (mm.src for mm in msgs), dtype=np.int64, count=m
                )
                kh_by_msg = np.fromiter(
                    (fp.kind_hash(mm.kind) for mm in msgs), dtype=np.uint64, count=m
                )
                times, cm, dm, um = fp.times(
                    src_by_msg[midx], dst_all, kh_by_msg[midx], self.rounds
                )
                for mask, tally in (
                    (cm, led.crash_drops_by_kind),
                    (dm, led.drops_by_kind),
                    (um, led.dup_deliveries_by_kind),
                ):
                    if mask.any():
                        for i in np.flatnonzero(mask).tolist():
                            tally[msgs[midx[i]].kind] += 1
                if (times != 1).any():
                    # Duplicates stay adjacent (same (dst, seq) slot).
                    order = np.repeat(order, times[order])
            dsts = dst_all[order].tolist()
            dists = dist_all[order].tolist()
            mids = midx[order].tolist()
            last = -1
            on_message = None
            if rx:
                for dst, mi, dist in zip(dsts, mids, dists):
                    led.charge_rx(dst, rx)
                    if dst != last:
                        on_message = nodes[dst].on_message
                        last = dst
                    on_message(msgs[mi], dist)
            else:
                for dst, mi, dist in zip(dsts, mids, dists):
                    if dst != last:
                        on_message = nodes[dst].on_message
                        last = dst
                    on_message(msgs[mi], dist)
        self._advance_round(delivered)
        return delivered

    def _apply_faults_list(self, deliveries: list) -> list:
        """Filter a delivery list through the fault plane (scalar path).

        Accepts the legacy kernel's ``(dst, msg, dist)`` tuples and the
        queued ``(dst, msg, dist, seq)`` tuples alike (only ``t[0]``/``t[1]``
        are read; surviving tuples pass through unchanged, duplicates
        are delivered back to back).
        """
        fp = self.faults
        led = self._ledger
        rnd = self.rounds
        out = []
        for t in deliveries:
            msg = t[1]
            f = fp.fate(msg.src, t[0], msg.kind, rnd)
            if f >= 1:
                out.append(t)
                if f == 2:
                    led.dup_deliveries_by_kind[msg.kind] += 1
                    out.append(t)
            elif f == 0:
                led.drops_by_kind[msg.kind] += 1
            else:
                led.crash_drops_by_kind[msg.kind] += 1
        return out

    def quiescence_steps(self, max_rounds: int = 1_000_000) -> Iterator[None]:
        """Step rounds until no messages are in flight, yielding after each.

        The stepped form of :meth:`run_until_quiescent` (same livelock
        guard) for drivers that hand control back between rounds.
        """
        ran = 0
        while self.in_flight:
            self.step()
            yield
            ran += 1
            if ran > max_rounds:
                raise SimulationError(
                    f"no quiescence after {max_rounds} rounds — "
                    "protocol is probably livelocked"
                )

    def run_until_quiescent(self, max_rounds: int = 1_000_000) -> int:
        """Run rounds until no messages are in flight; returns rounds run."""
        ran = 0
        for _ in self.quiescence_steps(max_rounds):
            ran += 1
        return ran

    @property
    def in_flight(self) -> int:
        """Number of deliveries scheduled for the next round."""
        return self._n_pending + self._n_plane_pending

    def stats(self) -> SimStats:
        """Snapshot of the energy ledger and round count."""
        self._flush_charges()
        return self._ledger.snapshot(self.rounds)
