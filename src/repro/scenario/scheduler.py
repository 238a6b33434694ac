"""Interpreter for :class:`~repro.scenario.plan.ScenarioPlan` schedules.

The scheduler owns the *world state* of a dynamic run — node positions
over the unit square, an alive mask, the current spanning structure and
a global round clock — and turns a declarative event schedule into a
sequence of **maintenance cycles**.  Between checkpoints events mutate
the world (crash/join/leave/move); at each ``repair``/``rebuild``
checkpoint a kernel is built over the compacted alive set and the GHS
machinery reconnects the surviving forest incrementally (``repair``) or
recomputes it from scratch (``rebuild``).

Determinism contract (what the scenario tests pin):

* World ids are **global**: the j-th join is node ``n0 + j`` forever;
  every cycle compacts the alive set densely and maps results back, so
  reports are invariant to backend choice and process placement.
* The global clock advances in lockstep with kernel rounds through the
  kernel's round hook (``set_round_hook``) — one global round per kernel
  round on every backend (fast/legacy), which is what makes event
  application a *round-boundary* notion on all kernel paths.
* Checkpoint rounds are minimums: the kernel idles (``tick``) until the
  clock reaches the scheduled round, so transient crash windows land at
  deterministic global rounds.
* Transient crashes become per-cycle :class:`~repro.sim.faults.
  FaultPlan` windows with *finite* ends — the node is radio-off when
  the cycle starts and recovers mid-cycle, engaging the reliable-retry
  layer + :class:`~repro.algorithms.ghs.driver.GHSRecovery` exactly as
  the fault plane does for one-shot runs.
* Per-cycle stats merge in cycle order (float sums included), so the
  merged :class:`~repro.sim.energy.SimStats` is bit-identical whenever
  every cycle is.

Fault-free cycles on the fast kernel satisfy the whole-round phase
engine's eligibility (the engine syncs pre-seeded fragment state in),
so clean repair cycles run vectorized and still trace-diff clean
against the legacy kernel's per-message path.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import AlgorithmResult, collect_tree_edges
from repro.algorithms.ghs.driver import GHSRecovery, hello_round, run_ghs_phases
from repro.algorithms.ghs.node import GHSNode
from repro.ds.unionfind import UnionFind
from repro.errors import ExperimentError
from repro.geometry.radius import PAPER_GHS_RADIUS_CONST, connectivity_radius
from repro.scenario.plan import CHECKPOINT_KINDS, ScenarioEvent, ScenarioPlan
from repro.sim.energy import SimStats
from repro.sim.faults import FaultPlan
from repro.sim.kernel import SynchronousKernel
from repro.sim.power import PathLossModel
from repro.trace import trace

__all__ = ["ScenarioScheduler"]

#: Odd 64-bit constant decorrelating per-cycle fault seeds.
_SEED_MIX = 0x9E3779B97F4A7C15
_M63 = (1 << 63) - 1


def _canonical_edges(edges: np.ndarray) -> np.ndarray:
    """Sort each row ``u < v``, then lexsort rows — one canonical order."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if not len(e):
        return e
    e = np.sort(e, axis=1)
    return e[np.lexsort((e[:, 1], e[:, 0]))]


class ScenarioScheduler:
    """Stateful interpreter: world mutations + maintenance cycles.

    Two usage modes share one engine:

    * :meth:`run_plan` consumes an embedded :class:`ScenarioPlan`
      (what the registered ``MAINT`` workload does);
    * the incremental API (:meth:`crash`/:meth:`join`/:meth:`leave`/
      :meth:`move`/:meth:`checkpoint`) lets the fuzz world drive several
      backends through the *same* event sequence in lockstep.
    """

    def __init__(
        self,
        points: np.ndarray,
        *,
        radius_const: float = PAPER_GHS_RADIUS_CONST,
        power: PathLossModel | None = None,
        rx_cost: float = 0.0,
        kernel_cls: type[SynchronousKernel] = SynchronousKernel,
        faults: FaultPlan | None = None,
        recover: bool = True,
    ) -> None:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ExperimentError(f"points must have shape (n, 2), got {pts.shape}")
        if faults is not None and (faults.crashes or faults.link_loss):
            raise ExperimentError(
                "scenario runs cannot compose with FaultPlan crashes/link_loss: "
                "node ids are re-compacted every cycle (schedule crashes as "
                "scenario events instead; drop/dup/seed compose fine)"
            )
        self.n0 = len(pts)
        self.positions = pts.copy()
        self.alive = np.ones(self.n0, dtype=bool)
        self.tree = np.empty((0, 2), dtype=np.int64)
        self.clock = 0
        self.cycle = 0
        self.radius_const = float(radius_const)
        self.power = power
        self.rx_cost = float(rx_cost)
        self.kernel_cls = kernel_cls
        self.faults = faults
        self.recover = bool(recover)
        # Pending transient-crash windows for the next cycle: gid -> rounds.
        self._transients: dict[int, int] = {}
        # Merged-stats accumulators (cycle order — see module docstring).
        self._energy_total = 0.0
        self._messages_total = 0
        self._rx_energy_total = 0.0
        self._receptions_total = 0
        self._energy_by_kind: dict[str, float] = {}
        self._messages_by_kind: dict[str, int] = {}
        self._energy_by_stage: dict[str, float] = {}
        self._messages_by_stage: dict[str, int] = {}
        self._drops_by_kind: dict[str, int] = {}
        self._dups_by_kind: dict[str, int] = {}
        self._crash_drops_by_kind: dict[str, int] = {}
        self._energy_node: dict[int, float] = {}
        self._rx_energy_node: dict[int, float] = {}
        self._phases_total = 0
        self._cycles: list[dict] = []
        self._energy_by_cycle_kind: dict[str, float] = {}
        self._event_counts: dict[str, int] = {}

    # ------------------------------------------------------------ mutations

    def _require_alive(self, node: int, what: str) -> int:
        gid = int(node)
        if not 0 <= gid < len(self.positions) or not self.alive[gid]:
            raise ExperimentError(f"{what} targets node {gid}, which is not alive")
        return gid

    def _record(self, kind: str, **fields) -> None:
        self._event_counts[kind] = self._event_counts.get(kind, 0) + 1
        if trace.enabled:
            trace.emit(
                "scenario/event", event=kind, round=self.clock, cycle=self.cycle, **fields
            )

    def crash(self, node: int, duration: int | None = None) -> None:
        """Crash ``node``: permanently (``None``) or for ``duration`` rounds."""
        gid = self._require_alive(node, "crash")
        if duration is None:
            self.alive[gid] = False
            self._transients.pop(gid, None)
            self._record("crash", node=gid)
        else:
            d = int(duration)
            if d < 1:
                raise ExperimentError(f"transient crash duration must be >= 1, got {d}")
            self._transients[gid] = d
            self._record("crash", node=gid, duration=d)

    def join(self, x: float, y: float) -> int:
        """A new node appears at ``(x, y)``; returns its (global) id."""
        x, y = float(x), float(y)
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            raise ExperimentError(f"join position ({x}, {y}) outside the unit square")
        gid = len(self.positions)
        self.positions = np.vstack([self.positions, [[x, y]]])
        self.alive = np.append(self.alive, True)
        self._record("join", node=gid, x=x, y=y)
        return gid

    def leave(self, node: int) -> None:
        """Node departs gracefully (ledgered separately from crashes)."""
        gid = self._require_alive(node, "leave")
        self.alive[gid] = False
        self._transients.pop(gid, None)
        self._record("leave", node=gid)

    def move(self, node: int, x: float, y: float) -> None:
        """Relocate ``node`` to ``(x, y)`` — one waypoint step."""
        gid = self._require_alive(node, "move")
        x, y = float(x), float(y)
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            raise ExperimentError(f"move position ({x}, {y}) outside the unit square")
        self.positions[gid] = (x, y)
        self._record("move", node=gid, x=x, y=y)

    def apply_event(self, ev: ScenarioEvent) -> None:
        """Apply one non-checkpoint plan event to the world."""
        if ev.kind == "crash":
            self.crash(ev.node, ev.duration)
        elif ev.kind == "join":
            self.join(ev.x, ev.y)
        elif ev.kind == "leave":
            self.leave(ev.node)
        elif ev.kind == "move":
            self.move(ev.node, ev.x, ev.y)
        else:
            raise ExperimentError(f"{ev.kind} is a checkpoint, not a world event")

    # --------------------------------------------------------------- cycles

    def alive_ids(self) -> np.ndarray:
        """Global ids of currently-alive nodes (sorted)."""
        return np.flatnonzero(self.alive).astype(np.int64)

    def build(self) -> None:
        """Run the initial construction cycle (full MGHS, empty forest)."""
        if self.cycle != 0:
            raise ExperimentError("build() must be the first cycle")
        self._run_cycle("build", at_round=0)

    def checkpoint(self, kind: str, at_round: int | None = None) -> None:
        """Run a maintenance cycle of ``kind`` (``repair``/``rebuild``)."""
        if kind not in CHECKPOINT_KINDS:
            raise ExperimentError(f"unknown checkpoint kind {kind!r}")
        if self.cycle == 0:
            raise ExperimentError("call build() before the first checkpoint")
        self._run_cycle(kind, at_round=at_round)

    def _cycle_faults(self, g2l: dict[int, int], idle: int) -> FaultPlan | None:
        crashes = []
        for gid in sorted(self._transients):
            li = g2l.get(gid)
            if li is None:
                continue
            d = self._transients[gid]
            crashes.append((li, idle, idle + d))
        self._transients.clear()
        base = self.faults
        base_live = base is not None and not base.is_null
        if not crashes and not base_live:
            return None
        seed = base.seed if base is not None else 0
        return FaultPlan(
            seed=(seed ^ (self.cycle * _SEED_MIX)) & _M63,
            drop_rate=base.drop_rate if base is not None else 0.0,
            dup_rate=base.dup_rate if base is not None else 0.0,
            crashes=tuple(crashes),
        )

    def _run_cycle(self, kind: str, at_round: int | None) -> None:
        ids = self.alive_ids()
        m = int(ids.size)
        if m == 0:
            raise ExperimentError(f"{kind} checkpoint with no alive nodes")
        target = self.clock if at_round is None else max(int(at_round), self.clock)
        idle = target - self.clock
        g2l = {int(g): i for i, g in enumerate(ids)}
        sub_pts = self.positions[ids]
        # max(m, 2): the n=1 connectivity radius is 0, which is not a
        # legal kernel power cap; a singleton still needs a radio.
        r = connectivity_radius(max(m, 2), self.radius_const)

        plan = self._cycle_faults(g2l, idle)
        reliable = plan is not None and not plan.is_null and self.recover
        kwargs = {"faults": plan} if plan is not None else {}
        kernel = self.kernel_cls(
            sub_pts, max_radius=r, power=self.power, rx_cost=self.rx_cost, **kwargs
        )
        kernel.add_nodes(
            lambda i, ctx: GHSNode(
                i, ctx, use_tests=False, announce=True, reliable=reliable
            )
        )
        nodes = kernel.nodes

        # Seed the surviving forest (repair only): drop edges with a dead
        # endpoint or longer than the new operating radius, install the
        # remainder as fragment structure with max-id leaders — the same
        # conservative charging as repair_after_failures().
        fragments = m
        if kind == "repair" and len(self.tree):
            e = self.tree
            keep = self.alive[e[:, 0]] & self.alive[e[:, 1]]
            e = e[keep]
            if len(e):
                span = self.positions[e[:, 0]] - self.positions[e[:, 1]]
                e = e[np.hypot(span[:, 0], span[:, 1]) <= r]
            old_to_new = np.full(len(self.positions), -1, dtype=np.int64)
            old_to_new[ids] = np.arange(m)
            forest = old_to_new[e]
            uf = UnionFind(m)
            for u, v in forest:
                nodes[int(u)].tree_edges.add(int(v))
                nodes[int(v)].tree_edges.add(int(u))
                uf.union(int(u), int(v))
            leader_of: dict[int, int] = {}
            for i in range(m):
                root = uf.find(i)
                leader_of[root] = max(leader_of.get(root, -1), i)
            leaders = set(leader_of.values())
            for nd in nodes:
                nd.leader = nd.id in leaders
                nd.fid = leader_of[uf.find(nd.id)]
            fragments = len(leaders)

        recovery = (
            GHSRecovery(kernel, nodes, verify_fids=True) if reliable else None
        )
        kernel.start()
        clock0 = self.clock
        kernel.set_round_hook(lambda rounds: setattr(self, "clock", clock0 + rounds))
        for _ in range(idle):
            kernel.tick()
        kernel.set_stage(f"{kind}:hello")
        hello_round(kernel, r, recovery=recovery)
        kernel.set_stage(f"{kind}:ghs")
        phases = run_ghs_phases(kernel, nodes, recovery=recovery)
        kernel.set_round_hook(None)

        edges_local = collect_tree_edges((nd.id, nd.tree_edges) for nd in nodes)
        self.tree = _canonical_edges(ids[edges_local]) if len(edges_local) else (
            np.empty((0, 2), dtype=np.int64)
        )
        st = kernel.stats()
        self.clock = clock0 + st.rounds
        self._merge_stats(st, ids)
        self._phases_total += phases
        self._energy_by_cycle_kind[kind] = (
            self._energy_by_cycle_kind.get(kind, 0.0) + st.energy_total
        )
        row = {
            "cycle": self.cycle,
            "kind": kind,
            "round_start": clock0,
            "round_end": self.clock,
            "idle": idle,
            "alive": m,
            "radius": r,
            "initial_fragments": fragments,
            "phases": phases,
            "rounds": st.rounds,
            "energy": st.energy_total,
            "messages": st.messages_total,
            "tree_edges": int(len(self.tree)),
        }
        self._cycles.append(row)
        if trace.enabled:
            trace.emit("repair/summary", **row)
        self.cycle += 1

    def _merge_stats(self, st: SimStats, ids: np.ndarray) -> None:
        self._energy_total += st.energy_total
        self._messages_total += st.messages_total
        self._rx_energy_total += st.rx_energy_total
        self._receptions_total += st.receptions_total
        for merged, part in (
            (self._energy_by_kind, st.energy_by_kind),
            (self._messages_by_kind, st.messages_by_kind),
            (self._energy_by_stage, st.energy_by_stage),
            (self._messages_by_stage, st.messages_by_stage),
            (self._drops_by_kind, st.drops_by_kind),
            (self._dups_by_kind, st.dup_deliveries_by_kind),
            (self._crash_drops_by_kind, st.crash_drops_by_kind),
        ):
            for k, v in part.items():
                merged[k] = merged.get(k, type(v)(0)) + v
        for li, gid in enumerate(ids):
            gid = int(gid)
            self._energy_node[gid] = self._energy_node.get(gid, 0.0) + float(
                st.energy_by_node[li]
            )
            if st.rx_energy_by_node is not None and len(st.rx_energy_by_node):
                self._rx_energy_node[gid] = self._rx_energy_node.get(gid, 0.0) + float(
                    st.rx_energy_by_node[li]
                )

    # --------------------------------------------------------------- results

    def stats(self) -> SimStats:
        """Merged stats over all cycles, indexed by *global* node id."""
        n = len(self.positions)
        energy_by_node = np.zeros(n, dtype=float)
        for gid, e in self._energy_node.items():
            energy_by_node[gid] = e
        rx_by_node = np.zeros(n, dtype=float)
        for gid, e in self._rx_energy_node.items():
            rx_by_node[gid] = e
        return SimStats(
            energy_total=self._energy_total,
            messages_total=self._messages_total,
            rounds=self.clock,
            energy_by_kind=dict(self._energy_by_kind),
            messages_by_kind=dict(self._messages_by_kind),
            energy_by_stage=dict(self._energy_by_stage),
            messages_by_stage=dict(self._messages_by_stage),
            energy_by_node=energy_by_node,
            rx_energy_total=self._rx_energy_total,
            receptions_total=self._receptions_total,
            rx_energy_by_node=rx_by_node,
            drops_by_kind=dict(self._drops_by_kind),
            dup_deliveries_by_kind=dict(self._dups_by_kind),
            crash_drops_by_kind=dict(self._crash_drops_by_kind),
        )

    def result(self) -> AlgorithmResult:
        """Merged :class:`AlgorithmResult` over the whole scenario."""
        alive_ids = self.alive_ids()
        ledger = {
            f"{k}_energy": self._energy_by_cycle_kind.get(k, 0.0)
            for k in ("build", "repair", "rebuild")
        }
        return AlgorithmResult(
            name="MAINT",
            n=len(self.positions),
            tree_edges=self.tree,
            stats=self.stats(),
            phases=self._phases_total,
            extras={
                "n_initial": self.n0,
                "n_alive": int(alive_ids.size),
                "n_cycles": self.cycle,
                "survivor_ids": [int(g) for g in alive_ids],
                "events": dict(sorted(self._event_counts.items())),
                "cycles": list(self._cycles),
                **ledger,
            },
        )

    def run_plan(self, plan: ScenarioPlan | None) -> AlgorithmResult:
        """Interpret a full plan: build, apply events, checkpoint, merge."""
        self.build()
        dirty = False
        for ev in (plan.events if plan is not None else ()):
            if ev.kind in CHECKPOINT_KINDS:
                self.checkpoint(ev.kind, at_round=ev.round)
                dirty = False
            else:
                self.apply_event(ev)
                dirty = True
        if dirty:
            # Trailing events without a checkpoint get an implicit repair.
            self.checkpoint("repair")
        return self.result()
