"""The synchronous Borůvka phase driver for the GHS family.

A phase has two quiescence-separated stages (see DESIGN.md —
"Substitutions" — for why the barriers are accounting-neutral):

* **stage A** — active fragment leaders are woken with ``initiate``; the
  INITIATE floods (and, in modified mode, the ANNOUNCE refreshes) run to
  quiescence, so every node holds its current fragment id before anyone
  evaluates an edge;
* **stage B** — every node that joined this phase is woken with
  ``find_moe``; tests, reports, changeroot, connects and (step 2) absorb
  floods run to quiescence.

The loop ends when no active leader remains: every fragment either halted
(no outgoing edge — it spans its whole component) or was absorbed into the
passive giant.

**Fault recovery.**  Under an injected fault plane (``repro.sim.faults``)
the same barriers become *recovery* points: :class:`GHSRecovery` replaces
each ``run_until_quiescent`` with a settle loop that (1) drives the
nodes' reliable-unicast retransmissions (``retry_tick`` wakes, capped
exponential backoff), (2) re-floods HELLO/ANNOUNCE slots that a receiver
is missing or holds stale (``rehello`` wakes — floods carry no sequence
numbers, so re-flooding *is* their retransmission), (3) re-wakes
``find_moe`` for participants whose wake was swallowed by a crash
window, and (4) idles the round clock (``kernel.tick``) while every
remaining repair waits on a crash window to expire.  Transient crashes
(pause/restart) and never-started nodes (crashed from round 0, forever)
recover to the exact MST of the surviving topology; a node that
participates and *then* crashes forever is reported as a
:class:`~repro.errors.ProtocolError` (by retry exhaustion, settle
non-convergence, or the explicit leader check) — never as a silently
wrong tree.

**Stepping.**  Every per-message stage is a generator that yields once
per advanced round (``kernel.step`` or ``kernel.tick``) and yields
:data:`BARRIER` when a stage barrier settles: :func:`hello_round_steps`,
:func:`ghs_phase_steps` and :meth:`GHSRecovery.settle_steps`.  The
runners drain them (:func:`hello_round`, :func:`run_ghs_phases`,
:meth:`GHSRecovery.settle`); the fuzz harness
(:class:`repro.fuzz.harness.StepHarness`) advances the same generators
round by round and interleaves fault mutations between rounds.
"""

from __future__ import annotations

import math
from typing import Generator, Iterator, Sequence

import numpy as np

from repro.errors import ProtocolError
from repro.algorithms.base import collect_tree_edges
from repro.algorithms.ghs.node import GHSNode
from repro.algorithms.ghs import plane
from repro.sim.kernel import SynchronousKernel
from repro.trace import trace


#: Yielded by the stepping generators when a stage barrier has settled;
#: every other yield marks one advanced round.
BARRIER = object()


def _drain(steps: Iterator):
    """Run a stepping generator to its end; returns its return value."""
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value


def active_leaders(nodes: Sequence[GHSNode]) -> list[int]:
    """Ids of leaders of fragments that still participate in phases."""
    return [nd.id for nd in nodes if nd.leader and not nd.halted and not nd.passive]


def node_fids(nodes: Sequence[GHSNode]) -> np.ndarray:
    """Every node's fragment id, as one array."""
    return np.fromiter((nd.fid for nd in nodes), dtype=np.int64, count=len(nodes))


def fragment_histogram(fid: np.ndarray) -> tuple[int, list[list[int]]]:
    """``(fragment count, [[size, fragments of that size], ...])`` of a
    per-node fragment-id array.

    The size histogram is sorted ascending by size — the per-phase series
    the paper's Thm 5.2 argument reasons about (after EOPT's step 1 it
    must show one giant entry plus only small ones).  Lists of Python
    ints, not tuples, so a recorded event is bit-equal to its own JSONL
    round trip.
    """
    _, sizes = np.unique(fid, return_counts=True)
    size, count = np.unique(sizes, return_counts=True)
    return len(sizes), np.stack((size, count), axis=1).tolist()


def seeded_forest(
    m: int, edges: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fragment state of a pre-existing forest over ``m`` nodes.

    Returns ``(fid, leader, edges)``: each tree of ``edges`` is one
    fragment led by its maximum id (locally electable by a fragment-wide
    max-convergecast; nothing is charged for it), ``fid`` is that
    leader's id per node, and ``edges`` is the forest as an ``(k, 2)``
    int64 array.  Incremental MST maintenance resumes the GHS phases
    from this state.
    """
    # Imported on use: a process that never repairs (the serve front
    # end) does not load scipy's graph routines.
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    graph = csr_array(
        (np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(m, m)
    )
    k, label = connected_components(graph, directed=False)
    top = np.full(k, -1, dtype=np.int64)
    np.maximum.at(top, label, np.arange(m, dtype=np.int64))
    fid = top[label]
    return fid, fid == np.arange(m), edges


class GHSRecovery:
    """Driver-side settle/repair loop for GHS-family runs under faults.

    One instance is shared by :func:`hello_round` and
    :func:`run_ghs_phases` for a run; it owns no protocol state, only
    repair bookkeeping (the current flood radius).  Flood repair scans
    the run's one neighbour store, the HELLO round's flood cache, on
    every kernel.

    ``verify_fids`` selects the staleness criterion for flood repair:
    modified-mode runs (no TEST probes) require every in-range cache
    entry to hold the sender's *current* fragment id — a stale id could
    invent an outgoing edge inside a fragment, and two fragments joining
    over two different edges is a cycle.  Original GHS only needs
    *existence* (id + distance); fragment membership is established by
    TEST/ACCEPT at probe time.
    """

    __slots__ = ("kernel", "nodes", "verify_fids", "audit_every", "max_iters", "_radius")

    def __init__(
        self,
        kernel: SynchronousKernel,
        nodes: Sequence[GHSNode],
        *,
        verify_fids: bool,
        audit: bool = False,
        max_iters: int = 200_000,
    ) -> None:
        self.kernel = kernel
        self.nodes = nodes
        self.verify_fids = verify_fids
        self.audit_every = audit
        self.max_iters = max_iters
        self._radius = 0.0

    # -- repair primitives -------------------------------------------------

    def _stale_floods(self, rnd: int) -> tuple[list[int], bool]:
        """Senders whose HELLO/ANNOUNCE some receiver is missing.

        Returns ``(ready, blocked)``: ``ready`` are alive senders to
        re-wake with ``rehello`` now; ``blocked`` is True when at least
        one stale pair waits on a transient crash window (sender or
        receiver down) and the caller should idle a round.  Pairs with a
        permanently dead endpoint are unrepairable by design and are
        excluded: a never-heard dead neighbour simply isn't part of the
        surviving topology.
        """
        radius = self._radius
        if radius <= 0.0 or not self.nodes:
            return [], False
        kernel = self.kernel
        fp = kernel.faults
        nodes = self.nodes
        n = len(nodes)
        cache = nodes[0].cache
        # One vectorized scan over the cache's CSR slots.
        senders_all = cache.ids
        recv_all = np.repeat(np.arange(n, dtype=np.intp), np.diff(cache.indptr))
        bad = ~cache.known
        if self.verify_fids:
            bad |= cache.fid != node_fids(nodes)[senders_all]
        bad &= cache.dists <= radius * (1.0 + 1e-12)
        idx = np.flatnonzero(bad)
        if len(idx) == 0:
            return [], False
        s_ids = senders_all[idx].astype(np.intp, copy=False)
        r_ids = recv_all[idx]
        keep = ~(fp.gone_mask(s_ids, rnd) | fp.gone_mask(r_ids, rnd))
        s_ids, r_ids = s_ids[keep], r_ids[keep]
        if len(s_ids) == 0:
            return [], False
        waiting = fp.crashed_mask(s_ids, rnd) | fp.crashed_mask(r_ids, rnd)
        ready = np.unique(s_ids[~waiting])
        return ready.tolist(), bool(waiting.any())

    def _unsearched(self, phase: int, rnd: int) -> tuple[list[int], bool]:
        """Phase participants whose ``find_moe`` wake a crash swallowed.

        Safe to re-wake only because the settle loop calls this with no
        reliable traffic pending anywhere: a node mid-TEST has either an
        unacked TEST in flight or a probe outstanding with
        ``_test_idx > 0``, so ``_test_idx == 0`` + ``not _search_done``
        means the search genuinely never started.
        """
        fp = self.kernel.faults
        todo: list[int] = []
        waiting = False
        for nd in self.nodes:
            if (
                nd.cur_phase == phase
                and not nd.passive
                and not nd._search_done
                and nd._test_idx == 0
            ):
                if fp.gone_forever(nd.id, rnd):
                    continue
                if fp.crashed(nd.id, rnd):
                    waiting = True
                else:
                    todo.append(nd.id)
        return todo, waiting

    # -- the settle loop ---------------------------------------------------

    def settle_steps(self, phase: int | None = None) -> Iterator[None]:
        """Run to quiescence *and* repaired: retries drained, floods
        fresh, (stage B) every participant searched.  Yields once per
        advanced round.

        ``phase`` enables the stage-B straggler re-wake; ``None`` (hello
        rounds, stage A) skips it.
        """
        kernel = self.kernel
        nodes = self.nodes
        fp = kernel.faults
        if fp is None:
            yield from kernel.quiescence_steps()
        else:
            for _ in range(self.max_iters):
                yield from kernel.quiescence_steps()
                rnd = kernel.rounds
                holders = [
                    nd.id
                    for nd in nodes
                    if nd.retry is not None and nd.retry.pending
                ]
                if holders:
                    live = [i for i in holders if not fp.gone_forever(i, rnd)]
                    if not live:
                        # Waiting on a restart that never comes would idle
                        # the clock for max_iters rounds before failing;
                        # a participant that died forever mid-protocol is
                        # out of recovery scope, so fail promptly instead.
                        raise ProtocolError(
                            f"nodes {holders} hold unacknowledged reliable "
                            "traffic but crashed permanently; recovery only "
                            "covers transient crashes and never-started nodes"
                        )
                    alive = [i for i in live if not fp.crashed(i, rnd)]
                    if alive:
                        if trace.enabled:
                            trace.emit("retry", round=rnd, nodes=len(alive))
                        kernel.wake(alive, "retry_tick")
                        if not kernel.in_flight:
                            kernel.tick()  # backoff armed: let a round pass
                            yield
                    else:
                        kernel.tick()  # every live holder is down: wait
                        yield
                    continue
                ready, blocked = self._stale_floods(rnd)
                if ready:
                    if trace.enabled:
                        trace.emit("rehello", round=rnd, nodes=len(ready))
                    kernel.wake(ready, "rehello")
                    if not kernel.in_flight:
                        blocked = True  # crashed between check and wake
                    else:
                        continue
                if blocked:
                    kernel.tick()
                    yield
                    continue
                if phase is not None:
                    todo, waiting = self._unsearched(phase, rnd)
                    if todo:
                        if trace.enabled:
                            trace.emit(
                                "rewake", round=rnd, phase=phase, nodes=len(todo)
                            )
                        search_moe(kernel, nodes, todo, phase)
                        continue
                    if waiting:
                        kernel.tick()
                        yield
                        continue
                break
            else:
                raise ProtocolError(
                    f"fault recovery did not settle in {self.max_iters} "
                    "iterations (permanently crashed peer mid-protocol?)"
                )
            if trace.enabled:
                trace.emit("settle", round=kernel.rounds)
        if self.audit_every:
            from repro.algorithms.ghs.audit import audit_recovery

            audit_recovery(nodes, kernel=kernel)

    def settle(self, phase: int | None = None) -> None:
        """:meth:`settle_steps` run to its end."""
        _drain(self.settle_steps(phase))


def _barrier_steps(
    kernel: SynchronousKernel,
    recovery: GHSRecovery | None,
    phase: int | None = None,
) -> Iterator:
    """One stage barrier: quiescence (or the recovery settle), then
    :data:`BARRIER`."""
    if recovery is None:
        yield from kernel.quiescence_steps()
    else:
        yield from recovery.settle_steps(phase)
    yield BARRIER


def _live_leaders(
    kernel: SynchronousKernel, nodes: Sequence[GHSNode]
) -> Generator[None, None, list[int]]:
    """Active leaders, fault-aware: waits out transient crash windows,
    drops never-started nodes, rejects mid-run permanent leader deaths.

    A node crashed from round 0 forever is still in its initial
    ``leader=True`` state but can never act — its (singleton) fragment
    simply isn't part of the surviving topology, so it is dropped from
    the phase loop.  A leader that *participated* and then died forever
    would leave its whole fragment silently orphaned; that is out of
    recovery scope and raised as an error instead.  Transiently crashed
    leaders gate the phase barrier: the clock idles (one yield per idle
    round) until every surviving leader can hear its ``initiate`` wake.
    The leader list is the generator's return value.
    """
    leaders = active_leaders(nodes)
    fp = kernel.faults
    if fp is None or not fp.has_crashes or not leaders:
        return leaders
    rnd = kernel.rounds
    alive = []
    for i in leaders:
        if fp.gone_forever(i, rnd):
            if fp.crash_start(i) > 0:
                raise ProtocolError(
                    f"fragment leader {i} crashed permanently at round "
                    f"{fp.crash_start(i)} after participating; recovery "
                    "only covers transient crashes and never-started nodes"
                )
            continue  # crashed from round 0: never part of the run
        alive.append(i)
    waited = 0
    while any(fp.crashed(i, kernel.rounds) for i in alive):
        kernel.tick()
        yield
        waited += 1
        if waited > 1_000_000:
            raise ProtocolError(
                "a fragment leader's crash window did not expire within "
                "1000000 rounds"
            )
    return alive


def phase_budget(n: int) -> int:
    """Phase cap for ``n`` nodes: fragments at least halve every phase;
    the slack covers step-2 restarts and absorb-only phases."""
    return 2 * int(math.log2(max(n, 2))) + 20


def search_moe(
    kernel: SynchronousKernel,
    nodes: Sequence[GHSNode],
    participants: Sequence[int],
    phase: int,
) -> None:
    """Start the MOE search of ``participants`` (alive, woken in order).

    Modified-mode runs search their flood cache in one masked
    segment-min for all of them (:meth:`FloodCache.moe_batch`), applied
    in the order ``wake`` would visit them so report traffic is what
    per-node scans would send; original-mode runs wake them with
    ``find_moe`` to start their TEST probes.  Stage B's search and the
    settle loop's straggler re-wake both start here.
    """
    if not participants:
        return
    if nodes[0].use_tests:
        kernel.wake(participants, "find_moe", (phase,))
        return
    pids = np.asarray(participants, dtype=np.intp)
    cand, kdist, klo, khi = nodes[0].cache.moe_batch(pids, node_fids(nodes)[pids])
    cand_l = cand.tolist()
    kd_l = kdist.tolist()
    klo_l = klo.tolist()
    khi_l = khi.tolist()
    for idx, i in enumerate(participants):
        nd = nodes[i]
        if nd.cur_phase == phase and not nd.passive:
            nd.apply_moe(cand_l[idx], kd_l[idx], klo_l[idx], khi_l[idx])


def ghs_phase_steps(
    kernel: SynchronousKernel,
    nodes: Sequence[GHSNode],
    *,
    start_phase: int = 1,
    max_phases: int | None = None,
    recovery: GHSRecovery | None = None,
) -> Generator[object, None, int]:
    """The per-message Borůvka phase loop, stepped (see the module
    docstring); the number of phases executed is its return value."""
    if max_phases is None:
        max_phases = phase_budget(len(nodes))
    phase = start_phase - 1
    executed = 0
    fp = kernel.faults
    while True:
        leaders = yield from _live_leaders(kernel, nodes)
        if not leaders:
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
                round=kernel.rounds,
                active=len(leaders),
            )
        kernel.wake(leaders, "initiate", (phase,))
        yield from _barrier_steps(kernel, recovery)
        participants = [
            nd.id for nd in nodes if nd.cur_phase == phase and not nd.passive
        ]
        if fp is not None and fp.has_crashes:
            # A crashed participant can't be woken (and must not be fed a
            # driver-computed MOE — it is radio-off); the stage-B settle
            # re-wakes it once its window expires.
            rnd = kernel.rounds
            participants = [i for i in participants if not fp.crashed(i, rnd)]
        search_moe(kernel, nodes, participants, phase)
        yield from _barrier_steps(kernel, recovery, phase)
        if trace.enabled:
            fragments, sizes = fragment_histogram(node_fids(nodes))
            trace.emit(
                "phase_end",
                phase=phase,
                round=kernel.rounds,
                fragments=fragments,
                sizes=sizes,
            )


def run_ghs_phases(
    kernel: SynchronousKernel,
    nodes: Sequence[GHSNode],
    *,
    start_phase: int = 1,
    max_phases: int | None = None,
    recovery: GHSRecovery | None = None,
) -> int:
    """Run Borůvka phases until no active fragment remains.

    Returns the number of phases executed.  ``start_phase`` offsets the
    phase counter so EOPT's step 2 continues the numbering of step 1
    (phase numbers only need to be fresh, never dense).  ``recovery``
    (fault runs) replaces each stage barrier with a settle/repair loop.
    This is the per-message loop; engine-eligible runs never build the
    nodes it steps (see ``ghs/turbo.py``).
    """
    return _drain(
        ghs_phase_steps(
            kernel,
            nodes,
            start_phase=start_phase,
            max_phases=max_phases,
            recovery=recovery,
        )
    )


class NodeRun:
    """A run's protocol state in per-node :class:`GHSNode` objects.

    The per-message counterpart of the whole-round engine
    (:class:`repro.algorithms.ghs.turbo.TurboPhaseEngine`), with the same
    interface, so the runners drive either one: :meth:`hello`,
    :meth:`run`, EOPT's :meth:`census`, :meth:`declare_giant` and
    :meth:`activate`, and the result reads ``fid``, :meth:`tree_edges`
    and :meth:`active_leaders`.  Under a fault plan (and ``recover``) the
    nodes use reliable unicasts and every barrier is a
    :class:`GHSRecovery` settle.
    """

    def __init__(
        self,
        kernel: SynchronousKernel,
        *,
        tests: bool,
        fid: np.ndarray | None = None,
        leader: np.ndarray | None = None,
        edges: np.ndarray | None = None,
        recover: bool = True,
        audit: bool = False,
    ) -> None:
        # Recovery (reliable unicasts + settle/repair barriers) engages
        # only when faults are actually injected: the fault-free message
        # trace must stay bit-identical to the paper model.
        reliable = kernel.faults is not None and recover
        kernel.add_nodes(
            lambda i, ctx: GHSNode(
                i, ctx, use_tests=tests, announce=not tests, reliable=reliable
            )
        )
        self.kernel = kernel
        self.nodes = nodes = kernel.nodes
        if edges is not None:  # a seeded forest
            for u, v in edges.tolist():
                nodes[u].tree_edges.add(v)
                nodes[v].tree_edges.add(u)
            for nd, f, lead in zip(nodes, fid.tolist(), leader.tolist()):
                nd.fid = f
                nd.leader = lead
        self.recovery = (
            GHSRecovery(kernel, nodes, verify_fids=not tests, audit=audit)
            if reliable
            else None
        )
        kernel.start()

    @property
    def fid(self) -> np.ndarray:
        return node_fids(self.nodes)

    def hello(self, r: float) -> None:
        hello_round(self.kernel, r, recovery=self.recovery)

    def run(self, start_phase: int = 1, max_phases: int | None = None) -> int:
        return run_ghs_phases(
            self.kernel,
            self.nodes,
            start_phase=start_phase,
            max_phases=max_phases,
            recovery=self.recovery,
        )

    def tree_edges(self) -> np.ndarray:
        return collect_tree_edges((nd.id, nd.tree_edges) for nd in self.nodes)

    def active_leaders(self) -> list[int]:
        """Active leaders, less those of nodes crashed for good."""
        leaders = active_leaders(self.nodes)
        fp = self.kernel.faults
        if leaders and fp is not None and fp.has_crashes:
            rnd = self.kernel.rounds
            leaders = [i for i in leaders if not fp.gone_forever(i, rnd)]
        return leaders

    # -- EOPT's interlude ---------------------------------------------------

    def census(self) -> tuple[np.ndarray, np.ndarray]:
        """The per-message size census: ``(leaders, sizes)``, leaders ascending.

        Under faults, SIZE traffic is reliable, so one settled wake per
        leader suffices — but a leader inside a crash window can't hear
        the wake yet.  The loop runs until every surviving leader has a
        size (never-started nodes and permanently dead leaders are not
        counted; their fragments aren't part of the surviving topology).
        """
        kernel, nodes, recovery = self.kernel, self.nodes, self.recovery
        if recovery is None:
            kernel.wake([nd.id for nd in nodes if nd.leader], "size")
            kernel.run_until_quiescent()
        else:
            fp = kernel.faults
            for _ in range(recovery.max_iters):
                rnd = kernel.rounds
                todo = [
                    nd.id
                    for nd in nodes
                    if nd.leader
                    and nd.fragment_size is None
                    and not fp.gone_forever(nd.id, rnd)
                ]
                if not todo:
                    break
                alive = [i for i in todo if not fp.crashed(i, rnd)]
                if alive:
                    kernel.wake(alive, "size")
                    recovery.settle()
                else:
                    kernel.tick()
            else:
                raise ProtocolError("EOPT census did not complete under fault recovery")
        counted = [nd for nd in nodes if nd.leader and nd.fragment_size is not None]
        return (
            np.array([nd.id for nd in counted], dtype=np.int64),
            np.array([nd.fragment_size for nd in counted], dtype=np.int64),
        )

    def declare_giant(self, g: int) -> None:
        """The per-message giant declaration from leader ``g``."""
        kernel, recovery = self.kernel, self.recovery
        if recovery is None:
            kernel.wake([g], "declare_giant")
            kernel.run_until_quiescent()
            return
        waited = 0
        while kernel.faults.crashed(g, kernel.rounds):
            kernel.tick()
            waited += 1
            if waited > recovery.max_iters:
                raise ProtocolError("giant leader's crash window did not expire")
        kernel.wake([g], "declare_giant")
        recovery.settle()

    def activate(self) -> None:
        """The ``activate`` wake of every small fragment's leader."""
        kernel, nodes, recovery = self.kernel, self.nodes, self.recovery
        if recovery is None:
            kernel.wake([nd.id for nd in nodes if nd.leader and not nd.passive], "activate")
            return
        # ``activate`` is a local flag flip; just outlast crash windows.
        fp = kernel.faults
        for _ in range(recovery.max_iters):
            rnd = kernel.rounds
            todo = [
                nd.id
                for nd in nodes
                if nd.leader
                and not nd.passive
                and nd.halted
                and not fp.gone_forever(nd.id, rnd)
            ]
            if not todo:
                return
            alive = [i for i in todo if not fp.crashed(i, rnd)]
            if alive:
                kernel.wake(alive, "activate")
            else:
                kernel.tick()
        raise ProtocolError("EOPT step-2 activation did not complete under fault recovery")


def start_run(
    kernel: SynchronousKernel,
    *,
    tests: bool,
    fid: np.ndarray | None = None,
    leader: np.ndarray | None = None,
    edges: np.ndarray | None = None,
    recover: bool = True,
    audit: bool = False,
    engine: bool = True,
):
    """The protocol state a GHS-family run over ``kernel`` starts from.

    A :class:`~repro.algorithms.ghs.turbo.TurboPhaseEngine` when the run
    is engine-eligible (:func:`~repro.algorithms.ghs.turbo.engine_eligible`,
    decided here, before any node exists) and ``engine`` allows it;
    otherwise a :class:`NodeRun`.  Both start from fresh singleton
    fragments, or from the forest ``fid``/``leader``/``edges`` of
    :func:`seeded_forest`.
    """
    # Imported on use: a process that never runs phases (the serve front
    # end) does not load the engine.
    from repro.algorithms.ghs import turbo

    if engine and turbo.engine_eligible(kernel):
        return turbo.TurboPhaseEngine(
            kernel, tests=tests, fid=fid, leader=leader, edges=edges
        )
    return NodeRun(
        kernel,
        tests=tests,
        fid=fid,
        leader=leader,
        edges=edges,
        recover=recover,
        audit=audit,
    )


def hello_round_steps(
    kernel: SynchronousKernel,
    radius: float,
    *,
    recovery: GHSRecovery | None = None,
) -> Iterator:
    """Make every node broadcast HELLO(fid) at ``radius`` and settle,
    stepped (see the module docstring).

    This is the neighbour-discovery step: receivers learn (id, distance,
    fragment id) for everyone in range.  One local broadcast per node,
    each from its own ``hello`` wake (a crashed node's wake is skipped;
    recovery re-floods it on restart).

    Every round attaches a fresh flood cache (:meth:`FloodCache.ensure`)
    to every node: the run's one neighbour store, on every kernel.
    Where :func:`~repro.algorithms.ghs.plane.flood_table` allows it, each
    HELLO goes out as a single-sender plane (``ctx.plane_broadcast``),
    all of them delivered as one vectorized cache update; otherwise —
    legacy/contention kernels or density-gated tables — nodes broadcast
    per message and each receiver writes its own slot.
    """
    nodes = kernel.nodes
    r = float(radius)
    # No plane field here: whether the flood plane engages depends on
    # the kernel flavor, and equivalent legacy/fast runs must emit
    # identical traces.
    if trace.enabled:
        trace.emit("hello", round=kernel.rounds, radius=r)
    cache = plane.FloodCache.ensure(kernel)
    planes = plane.flood_table(kernel) is not None
    kernel.set_plane_handler(cache.on_plane if planes else None)
    for nd in nodes:
        cache.attach(nd)
        # Pre-assign the radius: a node crashed through this wake still
        # needs it for recovery re-floods.
        nd.radio_radius = r
    kernel.wake(range(kernel.n), "hello", (radius,))
    if recovery is not None:
        recovery._radius = r
    yield from _barrier_steps(kernel, recovery)


def hello_round(
    kernel: SynchronousKernel,
    radius: float,
    *,
    recovery: GHSRecovery | None = None,
) -> None:
    """:func:`hello_round_steps` run to its end."""
    _drain(hello_round_steps(kernel, radius, recovery=recovery))
