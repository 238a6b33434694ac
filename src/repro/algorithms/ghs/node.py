"""The GHS-family node state machine.

One phase of the (synchronous, Borůvka-style) algorithm, as described in
Sec. V-A of the paper:

1. **INITIATE** — the fragment leader floods ``INITIATE(fid, phase)`` down
   the fragment tree; every member (re)learns the fragment id, its parent
   and children.  In modified mode, a member whose id changed broadcasts
   ``ANNOUNCE(fid)`` so neighbours refresh their caches.
2. **MOE search** — each member finds its minimum outgoing edge:
   *original* mode probes incident edges in increasing weight order with
   ``TEST``/``ACCEPT``/``REJECT`` (a rejected edge — same fragment — is
   marked dead on both sides forever); *modified* mode just scans its
   neighbour cache (the driver scans every participant's at once).
3. **REPORT** — candidates converge up the tree; each node forwards the
   minimum of its own candidate and its children's reports.
4. **CHANGEROOT / CONNECT** — the leader routes authority to the node
   adjacent to the fragment MOE, which sends ``CONNECT`` over it.  Both
   endpoints add the edge to their tree.
5. **Merge** — fragments linked by CONNECTs merge.  With distinct edge
   weights every merge cluster contains exactly one reciprocal CONNECT
   pair (the *core*); the core endpoint with the larger id becomes the new
   leader and starts the next phase.

EOPT's step 2 adds the **passive giant** (Sec. V): a passive node answers a
``CONNECT`` with ``ABSORB(fid)``, and the absorbed fragment floods the
giant's id through its tree (its members change ids and, in modified mode,
announce — "small fragments change their ids" so the giant never does).

Edge weights are compared by the globally consistent key
``(distance, min_id, max_id)``, so every fragment has a *unique* MOE and
Borůvka merging is well-defined even under (measure-zero) distance ties.

A node's neighbour knowledge lives in one store on every kernel: its row
of the run's :class:`~repro.algorithms.ghs.plane.FloodCache`, which each
HELLO round builds afresh and attaches.  HELLO and ANNOUNCE floods write
it — in bulk through the kernel's flood planes where they run, otherwise
one delivered message at a time through the node's own id→slot map.
"""

from __future__ import annotations

import math

from repro.errors import ProtocolError
from repro.sim.faults import RetryBuffer
from repro.sim.message import Message
from repro.sim.node import NodeProcess

#: Sentinel edge key meaning "no outgoing edge".
NO_EDGE: tuple[float, int, int] = (math.inf, -1, -1)

#: Kinds that bypass the reliable layer: floods are repaired by
#: re-flooding (driver ``rehello``), and ACKs acknowledging ACKs would
#: never terminate.
_UNRELIABLE_KINDS = frozenset(("HELLO", "ANNOUNCE", "ACK"))


class GHSNode(NodeProcess):
    """One processor running the GHS-family protocol."""

    __slots__ = (
        # configuration
        "use_tests",
        "announce",
        "radio_radius",
        "reliable",
        "retry",
        # durable knowledge: views of the shared flood cache (None
        # until the first HELLO round attaches one)
        "cache",          # shared FloodCache
        "nb_ids",         # this node's CSR row: neighbor ids (by distance)
        "nb_dist",        # ... their distances
        "nb_fid",         # ... last-heard fragment ids (-1 = never)
        "nb_known",       # ... heard-from bits
        "nb_slot",        # neighbor id -> slot in the row (built on first use)
        "fid",
        "leader",
        "halted",
        "passive",
        "is_giant",
        "parent",
        "children",
        "tree_edges",
        "rejected",
        "cur_phase",
        "fragment_size",
        # per-phase scratch
        "_reports_recv",
        "_search_done",
        "_reported",
        "_cand_nb",
        "_cand_key",
        "_best_key",
        "_best_child",
        "_final_key",
        "_final_from",
        "_test_queue",
        "_test_idx",
        "_sent_connect_to",
        "_connects_in",
        "_phase_tree",
        # size census scratch
        "_size_pending",
        "_size_acc",
    )

    def __init__(
        self, node_id, ctx, *, use_tests: bool, announce: bool, reliable: bool = False
    ) -> None:
        super().__init__(node_id, ctx)
        self.use_tests = use_tests
        self.announce = announce
        # Reliable mode wraps every protocol unicast in the RetryBuffer's
        # seq/ACK/dedup envelope (fault recovery); off by default so the
        # fault-free message trace stays bit-identical to the paper model.
        self.reliable = reliable
        self.retry = RetryBuffer(ctx) if reliable else None
        self.radio_radius = 0.0
        self.cache = None
        self.nb_ids = self.nb_dist = self.nb_fid = None
        self.nb_known = self.nb_slot = None
        self.fid = node_id
        self.leader = True
        self.halted = False
        self.passive = False
        self.is_giant = False
        self.parent: int | None = None
        self.children: tuple[int, ...] = ()
        self.tree_edges: set[int] = set()
        self.rejected: set[int] = set()
        self.cur_phase = 0
        self.fragment_size: int | None = None
        self._reset_phase(0)
        self._size_pending = 0
        self._size_acc = 0

    # ------------------------------------------------------------------ utils

    def _edge_key(self, nb: int, dist: float) -> tuple[float, int, int]:
        """Globally consistent comparison key for the edge (self, nb)."""
        if self.id < nb:
            return (dist, self.id, nb)
        return (dist, nb, self.id)

    def _reset_phase(self, phase: int) -> None:
        self.cur_phase = phase
        self._reports_recv = 0
        self._search_done = False
        self._reported = False
        self._cand_nb: int | None = None
        self._cand_key = NO_EDGE
        self._best_key = NO_EDGE
        self._best_child: int | None = None
        self._final_key = NO_EDGE
        self._final_from: int | None = None
        self._test_queue: list[int] = []
        self._test_idx = 0
        self._sent_connect_to: int | None = None
        self._connects_in: set[int] = set()
        # Snapshot of the fragment tree at phase start.  Edge probing must
        # exclude *these* (known intra-fragment) edges, not the live
        # ``tree_edges``: a CONNECT arriving mid-phase adds an edge that is
        # still outgoing w.r.t. the phase-start partition, and skipping it
        # would make this node under-report its minimum outgoing edge
        # (two fragments could then join over two different edges — a cycle).
        self._phase_tree: frozenset[int] = frozenset(self.tree_edges)

    def _cache_slot(self, nb: int) -> int:
        slot_of = self.nb_slot
        if slot_of is None:
            slot_of = self.nb_slot = {v: j for j, v in enumerate(self.nb_ids.tolist())}
        try:
            return slot_of[nb]
        except KeyError:
            raise ProtocolError(
                f"node {self.id}: flood cache has no slot for neighbor {nb} "
                "(stale cache after a power-cap change?)"
            ) from None

    def _cache_learn(self, src: int, fid: int) -> None:
        """A HELLO/ANNOUNCE delivered as a message: write ``src``'s slot."""
        j = self._cache_slot(src)
        self.nb_fid[j] = fid
        self.nb_known[j] = True

    def _dist_to(self, nb: int) -> float:
        """Distance to a heard-from neighbour."""
        return float(self.nb_dist[self._cache_slot(nb)])

    def fragment_cache_items(self):
        """(neighbor id, cached fragment id) pairs of heard-from neighbours (audit)."""
        k = self.nb_known
        return zip(self.nb_ids[k].tolist(), self.nb_fid[k].tolist())

    def _flood(self, kind: str) -> None:
        """Broadcast ``kind(fid)`` at the radio radius: as a plane where
        the kernel runs them, else as one message."""
        r = self.radio_radius
        if not self.ctx.plane_broadcast(r, kind, self.fid):
            self.ctx.local_broadcast(r, kind, self.fid)

    def _maybe_announce(self, changed: bool) -> None:
        if changed and self.announce:
            self._flood("ANNOUNCE")

    def _send(self, dst: int, kind: str, *payload) -> None:
        """Protocol unicast, routed through the reliable layer if enabled."""
        if self.reliable and kind not in _UNRELIABLE_KINDS:
            self.retry.send(dst, kind, payload)
        else:
            self.ctx.unicast(dst, kind, *payload)

    # ------------------------------------------------------------- wake hooks

    def on_wake(self, signal: str, payload: tuple = ()) -> None:
        if signal == "hello":
            (radius,) = payload
            self.radio_radius = float(radius)
            self._flood("HELLO")
        elif signal == "initiate":
            (phase,) = payload
            self._wake_initiate(int(phase))
        elif signal == "find_moe":
            (phase,) = payload
            if self.cur_phase == phase and not self.passive:
                self._start_search()
        elif signal == "size":
            self._wake_size()
        elif signal == "declare_giant":
            self._wake_declare_giant()
        elif signal == "activate":
            self.halted = False
        elif signal == "retry_tick":
            if self.retry is not None:
                self.retry.tick()
        elif signal == "rehello":
            # Recovery re-flood: same HELLO the node would send on "hello",
            # at the radius the driver already assigned.
            self._flood("HELLO")
        else:
            raise ProtocolError(f"unknown wake signal {signal!r}")

    def _wake_initiate(self, phase: int) -> None:
        if not self.leader or self.halted or self.passive:
            raise ProtocolError(f"node {self.id} woken to initiate but not an active leader")
        changed = self.fid != self.id
        self.fid = self.id  # a fragment is identified by its leader's id
        self._reset_phase(phase)
        self.parent = None
        # Sorted, not set order: the send sequence must be a pure function
        # of protocol state so the whole-round engine's array programs can
        # reproduce it (set iteration order is an implementation detail).
        self.children = tuple(sorted(self.tree_edges))
        self._maybe_announce(changed)
        for c in self.children:
            self._send(c, "INITIATE", self.fid, phase)

    def _wake_size(self) -> None:
        if not self.leader:
            raise ProtocolError(f"node {self.id} woken for size census but not a leader")
        self._size_pending = len(self.children)
        self._size_acc = 1
        if self._size_pending == 0:
            self.fragment_size = 1
        else:
            for c in self.children:
                self._send(c, "SIZE_REQ")

    def _wake_declare_giant(self) -> None:
        self.passive = True
        self.is_giant = True
        self.halted = True
        for e in sorted(self.tree_edges):
            self._send(e, "GIANT")

    # --------------------------------------------------------- message hooks

    def on_message(self, msg: Message, distance: float) -> None:
        kind = msg.kind
        src = msg.src
        payload = msg.payload
        if self.reliable and kind not in _UNRELIABLE_KINDS:
            # Reliable envelope: payload[0] is the sender's sequence
            # number.  ACK every copy (the sender may be retransmitting
            # because our previous ACK was lost), process only the first.
            seq = payload[0]
            self.ctx.unicast(src, "ACK", seq)
            if not self.retry.accept(src, seq):
                return
            payload = payload[1:]
        elif kind == "ACK":
            if self.retry is None:
                raise ProtocolError(f"node {self.id}: ACK received in unreliable mode")
            self.retry.on_ack(src, payload[0])
            return
        self._dispatch(kind, src, payload)

    def _dispatch(self, kind: str, src: int, payload: tuple) -> None:
        if kind == "HELLO" or kind == "ANNOUNCE":
            self._cache_learn(src, payload[0])
        elif kind == "INITIATE":
            fid, phase = payload
            self._on_initiate(src, fid, phase)
        elif kind == "TEST":
            (fid,) = payload
            if fid != self.fid:
                self._send(src, "ACCEPT")
            else:
                self.rejected.add(src)  # same fragment forever
                self._send(src, "REJECT")
        elif kind == "ACCEPT":
            self._cand_nb = src
            self._cand_key = self._edge_key(src, self._dist_to(src))
            self._search_done = True
            self._try_report()
        elif kind == "REJECT":
            self.rejected.add(src)
            self._continue_tests()
        elif kind == "REPORT":
            d, lo, hi = payload
            self._reports_recv += 1
            key = (d, lo, hi)
            if key < self._best_key:
                self._best_key = key
                self._best_child = src
            self._try_report()
        elif kind == "CHANGEROOT":
            self._route_connect()
        elif kind == "CONNECT":
            self._on_connect(src)
        elif kind == "ABSORB":
            (fid,) = payload
            self._on_absorb(src, fid)
        elif kind == "SIZE_REQ":
            self._on_size_req(src)
        elif kind == "SIZE_RESP":
            (count,) = payload
            self._on_size_resp(count)
        elif kind == "GIANT":
            self._on_giant(src)
        else:
            raise ProtocolError(f"node {self.id}: unknown message kind {kind!r}")

    # -- phase stage A: initiate flood ---------------------------------------

    def _on_initiate(self, src: int, fid: int, phase: int) -> None:
        self.leader = False
        changed = fid != self.fid
        self.fid = fid
        self._reset_phase(phase)
        self.parent = src
        # Sorted for the same reason as _wake_initiate: deterministic
        # send order independent of set iteration order.
        self.children = tuple(sorted(e for e in self.tree_edges if e != src))
        self._maybe_announce(changed)
        for c in self.children:
            self._send(c, "INITIATE", fid, phase)

    # -- phase stage B: MOE search -------------------------------------------

    def _start_search(self) -> None:
        if not self.use_tests:
            raise ProtocolError(
                f"node {self.id}: find_moe wake in modified mode; the driver "
                "searches every participant in one batch (driver.search_moe)"
            )
        k = self.nb_known
        pairs = zip(self.nb_ids[k].tolist(), self.nb_dist[k].tolist())
        # Edge keys are unique, so sorting (key, nb) pairs fixes the order.
        keyed = [
            (self._edge_key(nb, d), nb)
            for nb, d in pairs
            if nb not in self._phase_tree and nb not in self.rejected
        ]
        keyed.sort()
        self._test_queue = [nb for _, nb in keyed]
        self._test_idx = 0
        self._continue_tests()

    def apply_moe(self, nb: int, dist: float, lo: int, hi: int) -> None:
        """Accept a driver-computed MOE (batched modified-mode search).

        ``nb < 0`` means no outgoing edge.  Applied in the driver's wake
        order, so report traffic is what per-node scans would send.
        """
        if nb < 0:
            self._cand_nb, self._cand_key = None, NO_EDGE
        else:
            self._cand_nb, self._cand_key = int(nb), (dist, int(lo), int(hi))
        self._search_done = True
        self._try_report()

    def _continue_tests(self) -> None:
        while self._test_idx < len(self._test_queue):
            nb = self._test_queue[self._test_idx]
            self._test_idx += 1
            if nb in self.rejected or nb in self._phase_tree:
                continue
            self._send(nb, "TEST", self.fid)
            return
        self._search_done = True
        self._try_report()

    # -- phase stage B: report convergecast ------------------------------------

    def _try_report(self) -> None:
        if self._reported or not self._search_done:
            return
        if self._reports_recv < len(self.children):
            return
        self._reported = True
        if self._cand_key <= self._best_key:
            self._final_key, self._final_from = self._cand_key, None
        else:
            self._final_key, self._final_from = self._best_key, self._best_child
        if self.parent is not None:
            d, lo, hi = self._final_key
            self._send(self.parent, "REPORT", d, lo, hi)
        else:
            # Leader decides for the fragment.
            if self._final_key == NO_EDGE:
                self.halted = True  # no outgoing edge: fragment is final
                return
            self.leader = False  # leadership is re-established at the core
            self._route_connect()

    def _route_connect(self) -> None:
        if self._final_from is None:
            nb = self._cand_nb
            if nb is None:
                raise ProtocolError(f"node {self.id}: CHANGEROOT with no candidate")
            self._sent_connect_to = nb
            self.tree_edges.add(nb)
            self._send(nb, "CONNECT", self.fid)
            # The reciprocal CONNECT may already have arrived this phase.
            if nb in self._connects_in and self.id > nb:
                self.leader = True
        else:
            self._send(self._final_from, "CHANGEROOT")

    # -- phase stage B: merging -------------------------------------------------

    def _on_connect(self, src: int) -> None:
        self.tree_edges.add(src)
        if self.passive:
            # Giant (or already-absorbed) side: accept and absorb (Sec. V).
            self._send(src, "ABSORB", self.fid)
            return
        self._connects_in.add(src)
        if self._sent_connect_to == src and self.id > src:
            self.leader = True  # this edge is the core; higher id leads

    def _on_absorb(self, src: int, fid: int) -> None:
        if self.passive and self.fid == fid:
            return  # already absorbed into this giant
        self.fid = fid
        self.passive = True
        self.leader = False
        self.halted = True
        self._maybe_announce(True)  # "small fragments change their ids"
        for e in sorted(self.tree_edges):
            if e != src:
                self._send(e, "ABSORB", fid)

    # -- size census (EOPT step 2 preamble) ---------------------------------------

    def _on_size_req(self, src: int) -> None:
        if not self.children:
            self._send(src, "SIZE_RESP", 1)
            return
        self._size_pending = len(self.children)
        self._size_acc = 1
        for c in self.children:
            self._send(c, "SIZE_REQ")

    def _on_size_resp(self, count: int) -> None:
        self._size_acc += count
        self._size_pending -= 1
        if self._size_pending == 0:
            if self.parent is None:
                self.fragment_size = self._size_acc
            else:
                self._send(self.parent, "SIZE_RESP", self._size_acc)

    def _on_giant(self, src: int) -> None:
        if self.passive:
            return
        self.passive = True
        self.is_giant = True
        self.leader = False
        for e in sorted(self.tree_edges):
            if e != src:
                self._send(e, "GIANT")
