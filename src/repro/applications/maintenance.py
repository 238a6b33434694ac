"""Incremental MST maintenance under node churn.

The paper's introduction motivates energy-efficiency with dynamics: "the
topology of these networks can change frequently due to mobility or node
failures".  Once EOPT has paid O(log n) to build the MST, a handful of
node failures should not force a full rebuild — the surviving forest is
almost the new MST already.

:func:`repair_after_failures` reuses the GHS machinery for exactly this:

1. failed nodes vanish (their tree edges die with them), leaving a
   spanning forest of the survivors;
2. each surviving fragment elects its maximum-id member as leader (one
   broadcast/convergecast over the fragment — charged like the size
   census);
3. the modified GHS resumes from that forest at the connectivity radius:
   only the Borůvka phases needed to reconnect the few fragments run.

The result is the exact MST of the survivor RGG *restricted to keeping
the surviving forest edges* — which differs from the from-scratch MST
only in the rare case where a failure un-blocks a cheaper edge elsewhere
(the repair is a 1-competitive reconnection of the given forest; the
quality gap is measured by the MAINT bench and is typically < 1%).

:func:`run_maintenance` is the registry-registered ``MAINT`` workload on
top of the same machinery: it hands an entire
:class:`~repro.scenario.plan.ScenarioPlan` (crash/join/leave/move events
punctuated by repair/rebuild checkpoints) to the
:class:`~repro.scenario.scheduler.ScenarioScheduler` and returns one
merged result with a repair-vs-rebuild energy ledger.  Dynamic runs are
therefore ordinary specs: hashable, cacheable, servable.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import AlgorithmResult, collect_tree_edges
from repro.algorithms.ghs.driver import hello_round, run_ghs_phases
from repro.algorithms.ghs.node import GHSNode
from repro.ds.unionfind import UnionFind
from repro.errors import ExperimentError, GraphError
from repro.geometry.radius import PAPER_GHS_RADIUS_CONST, connectivity_radius
from repro.runspec.registry import register_algorithm
from repro.scenario.plan import ScenarioPlan
from repro.sim.faults import FaultPlan
from repro.sim.kernel import SynchronousKernel
from repro.sim.power import PathLossModel


def surviving_forest(
    n: int, tree_edges: np.ndarray, failed: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Remove ``failed`` nodes from a tree; relabel survivors densely.

    Returns ``(survivor_ids, old_to_new, forest_edges_new_labels)`` where
    ``old_to_new[v] = -1`` for failed nodes.
    """
    failed = np.asarray(failed, dtype=np.int64)
    if failed.size and (failed.min() < 0 or failed.max() >= n):
        raise GraphError("failed node id out of range")
    alive_mask = np.ones(n, dtype=bool)
    alive_mask[failed] = False
    survivors = np.nonzero(alive_mask)[0]
    old_to_new = np.full(n, -1, dtype=np.int64)
    old_to_new[survivors] = np.arange(len(survivors))
    e = np.asarray(tree_edges, dtype=np.int64).reshape(-1, 2)
    keep = alive_mask[e[:, 0]] & alive_mask[e[:, 1]]
    forest = old_to_new[e[keep]]
    return survivors, old_to_new, forest


def repair_after_failures(
    points: np.ndarray,
    tree_edges: np.ndarray,
    failed: np.ndarray,
    *,
    radius: float | None = None,
    radius_const: float = PAPER_GHS_RADIUS_CONST,
    power: PathLossModel | None = None,
) -> AlgorithmResult:
    """Reconnect the surviving forest after ``failed`` nodes die.

    Parameters
    ----------
    points:
        Original ``(n, 2)`` coordinates (all nodes, including failed).
    tree_edges:
        The spanning tree/forest built before the failures.
    failed:
        Ids of nodes that died.
    radius / radius_const / power:
        Operating radius for the repair (default: the survivor count's
        connectivity radius) and energy model.

    Returns an :class:`AlgorithmResult` over the *survivors*.  Node ids
    in the result are re-labelled densely; ``extras["survivor_ids"]`` is
    the explicit mapping back (``survivor_ids[new_id] = original_id``),
    with ``extras["survivors"]`` kept as its historical alias.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    survivors, _, forest = surviving_forest(n, tree_edges, failed)
    m = len(survivors)
    sub_pts = pts[survivors]
    r = connectivity_radius(m, radius_const) if radius is None else float(radius)

    kernel = SynchronousKernel(sub_pts, max_radius=r, power=power)
    kernel.add_nodes(lambda i, ctx: GHSNode(i, ctx, use_tests=False, announce=True))
    kernel.start()
    nodes = kernel.nodes

    # Install the surviving forest as pre-existing fragment structure.
    uf = UnionFind(m)
    for u, v in forest:
        nodes[int(u)].tree_edges.add(int(v))
        nodes[int(v)].tree_edges.add(int(u))
        uf.union(int(u), int(v))
    # Leader = max id per fragment (locally electable by a fragment-wide
    # max-convergecast; we charge nothing here, conservatively favouring
    # the *rebuild* side of the comparison).
    leader_of: dict[int, int] = {}
    for i in range(m):
        root = uf.find(i)
        leader_of[root] = max(leader_of.get(root, -1), i)
    leaders = set(leader_of.values())
    for nd in nodes:
        nd.leader = nd.id in leaders
        nd.fid = leader_of[uf.find(nd.id)]

    kernel.set_stage("repair:hello")
    hello_round(kernel, r)
    kernel.set_stage("repair:ghs")
    phases = run_ghs_phases(kernel, nodes)

    edges = collect_tree_edges((nd.id, nd.tree_edges) for nd in nodes)
    stats = kernel.stats()
    return AlgorithmResult(
        name="MGHS-repair",
        n=m,
        tree_edges=edges,
        stats=stats,
        phases=phases,
        extras={
            "radius": r,
            "survivors": survivors,
            "survivor_ids": survivors.copy(),
            "n_failed": n - m,
            "initial_fragments": len(leaders),
        },
    )


def run_maintenance(
    points: np.ndarray,
    *,
    scenario: ScenarioPlan | None = None,
    radius_const: float = PAPER_GHS_RADIUS_CONST,
    power: PathLossModel | None = None,
    rx_cost: float = 0.0,
    kernel_cls: type[SynchronousKernel] = SynchronousKernel,
    faults: FaultPlan | None = None,
    recover: bool = True,
) -> AlgorithmResult:
    """Run the ``MAINT`` workload: build the MST, then live the scenario.

    The scheduler builds the initial MST over ``points`` (one full MGHS
    cycle), applies the plan's events between checkpoints, and runs one
    incremental ``repair`` (or from-scratch ``rebuild``) cycle per
    checkpoint.  A ``None``/empty scenario degenerates to the build
    cycle alone.  See :mod:`repro.scenario` and ``docs/scenarios.md``.

    ``faults`` may carry drop/dup noise (it composes with the schedule's
    own transient-crash windows every cycle); fault-plan *crashes* and
    per-link loss are rejected — node ids are re-compacted every cycle,
    so those must be scheduled as scenario events instead.
    """
    from repro.scenario.scheduler import ScenarioScheduler

    sched = ScenarioScheduler(
        points,
        radius_const=radius_const,
        power=power,
        rx_cost=rx_cost,
        kernel_cls=kernel_cls,
        faults=faults,
        recover=recover,
    )
    return sched.run_plan(scenario)


# -- runspec registration -----------------------------------------------------

def _maint_adapter(points, spec):
    from repro.runspec.spec import kernel_class

    if spec.faults is not None and (spec.faults.crashes or spec.faults.link_loss):
        raise ExperimentError(
            "MAINT composes with drop/dup fault noise only; schedule "
            "crashes as scenario events (fault-plan crash windows and "
            "link_loss name node ids that re-compact every cycle)"
        )
    return run_maintenance(
        points,
        scenario=spec.scenario,
        radius_const=spec.ghs_radius_const,
        rx_cost=spec.rx_cost,
        kernel_cls=kernel_class(spec.kernel),
        faults=spec.faults,
        recover=spec.recover,
    )


register_algorithm(
    "MAINT",
    runner=run_maintenance,
    adapter=_maint_adapter,
    order=10,
    summary="incremental MST maintenance under a scenario plan (churn/mobility)",
    supports_faults=True,
    supports_kernel_mode=True,
    supports_scenario=True,
)
