"""The two-step energy-optimal MST algorithm (paper Sec. V).

Step 1 — every node limits its radius to ``r1 = c1 sqrt(1/n)`` and the
modified GHS runs to completion.  By Thm 5.2 this leaves, whp, one giant
fragment of Θ(n) nodes plus small fragments trapped in regions of at most
``beta log^2 n`` nodes.

Interlude — every fragment counts itself (broadcast + convergecast over
its tree); a fragment larger than ``beta log^2 n`` declares itself the
giant and goes passive.

Step 2 — radii rise to ``r2 = c2 sqrt(log n / n)`` (the connectivity
regime), everyone re-runs HELLO discovery at the new radius, and the
modified GHS resumes over the remaining fragments only.  The giant accepts
CONNECTs by absorbing the connecting fragment under its own id, so its
Θ(n) members never announce id changes — the two tricks that bring the
expected energy down to O(log n) (Sec. V-C).

Robustness beyond the paper (both events are whp-impossible but reachable
at small ``n``; the result records them in ``extras``):

* **no giant** — if no fragment clears the threshold, step 2 simply runs
  with every fragment active: correctness is unaffected, only the energy
  bound degrades toward plain modified GHS.
* **multiple giants** — if several fragments clear the threshold, only the
  largest stays passive; the rest are demoted to active (two passive
  fragments could otherwise never join).  This arbitration is the one
  place the harness, not the protocol, decides; see DESIGN.md.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms.base import AlgorithmResult, collect_tree_edges
from repro.algorithms.ghs.driver import (
    GHSRecovery,
    active_leaders,
    fragment_histogram,
    hello_round,
    run_ghs_phases,
)
from repro.algorithms.ghs.node import GHSNode
from repro.errors import ProtocolError
from repro.geometry.radius import (
    PAPER_EOPT_STEP1_CONST,
    PAPER_GHS_RADIUS_CONST,
    connectivity_radius,
    giant_radius,
)
from repro.perf import perf
from repro.runspec.registry import register_algorithm
from repro.sim.faults import FaultPlan
from repro.sim.kernel import SynchronousKernel
from repro.sim.power import PathLossModel
from repro.trace import trace


def giant_size_threshold(n: int, beta: float = 1.0) -> float:
    """The ``beta log^2 n`` size bar above which a fragment is the giant."""
    if n < 2:
        return 1.0
    return beta * math.log(n) ** 2


def run_eopt(
    points: np.ndarray,
    *,
    c1: float = PAPER_EOPT_STEP1_CONST,
    c2: float = PAPER_GHS_RADIUS_CONST,
    beta: float = 1.0,
    power: PathLossModel | None = None,
    rx_cost: float = 0.0,
    kernel_cls: type[SynchronousKernel] = SynchronousKernel,
    faults: FaultPlan | None = None,
    recover: bool = True,
    audit: bool = False,
) -> AlgorithmResult:
    """Run EOPT on ``points``; returns the exact MST of the radius-``r2`` RGG.

    Parameters
    ----------
    points:
        ``(n, 2)`` node coordinates in the unit square.
    c1:
        Step-1 radius constant: ``r1 = c1 sqrt(1/n)`` (paper: 1.4).
    c2:
        Step-2 radius constant: ``r2 = c2 sqrt(ln n / n)`` (paper: 1.6).
    beta:
        Giant-declaration threshold multiplier for ``beta log^2 n``.
    power:
        Path-loss model; defaults to ``a=1, alpha=2``.
    kernel_cls:
        Kernel implementation (benchmarks pass
        :class:`~repro.sim.legacy.LegacyKernel` for the pre-PR baseline).
    faults:
        Optional :class:`~repro.sim.faults.FaultPlan`; see
        :func:`repro.algorithms.ghs.runner.run_ghs` for the matching
        ``recover``/``audit`` knobs.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    r1 = giant_radius(n, c1)
    r2 = connectivity_radius(n, c2)
    if r1 > r2:
        # Tiny n: the "sub-connectivity" radius isn't sub anything; clamp so
        # step 2 still raises power rather than lowering it.
        r1 = r2

    kwargs = {}
    if faults is not None:
        kwargs["faults"] = faults
    kernel = kernel_cls(pts, max_radius=r1, power=power, rx_cost=rx_cost, **kwargs)
    reliable = faults is not None and not faults.is_null and recover
    kernel.add_nodes(
        lambda i, ctx: GHSNode(
            i, ctx, use_tests=False, announce=True, reliable=reliable
        )
    )
    kernel.start()
    nodes = kernel.nodes
    recovery = (
        GHSRecovery(kernel, nodes, verify_fids=True, audit=audit)
        if reliable
        else None
    )
    fp = kernel.faults
    if trace.enabled:
        trace.emit("run_start", alg="EOPT", n=n, r1=r1, r2=r2)

    # ---- Step 1: modified GHS at the giant-component radius -----------------
    kernel.set_stage("step1:hello")
    with perf.timed("eopt.step1.hello"):
        hello_round(kernel, r1, recovery=recovery)
    kernel.set_stage("step1:ghs")
    with perf.timed("eopt.step1.phases"):
        phases1 = run_ghs_phases(kernel, nodes, recovery=recovery)

    # ---- Interlude: fragment size census + giant declaration ----------------
    kernel.set_stage("step2:size")
    with perf.timed("eopt.census"):
        if recovery is None:
            leaders = [nd.id for nd in nodes if nd.leader]
            kernel.wake(leaders, "size")
            kernel.run_until_quiescent()
        else:
            # Census under faults: SIZE traffic is reliable, so one
            # settled wake per leader suffices — but a leader inside a
            # crash window can't hear the wake yet.  Loop until every
            # surviving leader has a size (never-started nodes and
            # permanently dead leaders are not counted; their fragments
            # aren't part of the surviving topology).
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
                raise ProtocolError(
                    "EOPT census did not complete under fault recovery"
                )
    threshold = giant_size_threshold(n, beta)
    giant_leaders = [
        nd
        for nd in nodes
        if nd.leader and nd.fragment_size is not None and nd.fragment_size > threshold
    ]
    demoted = 0
    if len(giant_leaders) > 1:
        giant_leaders.sort(key=lambda nd: (-nd.fragment_size, nd.id))
        demoted = len(giant_leaders) - 1
        giant_leaders = giant_leaders[:1]
    giant_size = 0
    if giant_leaders:
        g = giant_leaders[0]
        giant_size = int(g.fragment_size)
        if recovery is None:
            kernel.wake([g.id], "declare_giant")
            kernel.run_until_quiescent()
        else:
            waited = 0
            while fp.crashed(g.id, kernel.rounds):
                kernel.tick()
                waited += 1
                if waited > recovery.max_iters:
                    raise ProtocolError(
                        "giant leader's crash window did not expire"
                    )
            kernel.wake([g.id], "declare_giant")
            recovery.settle()
    if trace.enabled:
        # The Thm 5.2 observable: after step 1 the size histogram must
        # show one giant entry above the threshold and small ones below.
        fragments, sizes = fragment_histogram(nodes)
        trace.emit(
            "census",
            round=kernel.rounds,
            threshold=threshold,
            fragments=fragments,
            sizes=sizes,
            giant_size=giant_size,
            demoted=demoted,
        )

    # ---- Step 2: raise power, rediscover, resume over small fragments -------
    kernel.set_max_radius(r2)
    kernel.set_stage("step2:hello")
    with perf.timed("eopt.step2.hello"):
        hello_round(kernel, r2, recovery=recovery)
    kernel.set_stage("step2:ghs")
    if recovery is None:
        small_leaders = [nd.id for nd in nodes if nd.leader and not nd.passive]
        kernel.wake(small_leaders, "activate")
    else:
        # ``activate`` is a local flag flip; just outlast crash windows.
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
                break
            alive = [i for i in todo if not fp.crashed(i, rnd)]
            if alive:
                kernel.wake(alive, "activate")
            else:
                kernel.tick()
        else:
            raise ProtocolError(
                "EOPT step-2 activation did not complete under fault recovery"
            )
    with perf.timed("eopt.step2.phases"):
        phases2 = run_ghs_phases(
            kernel, nodes, start_phase=phases1 + 1, recovery=recovery
        )

    remaining = active_leaders(nodes)
    if remaining and fp is not None and fp.has_crashes:
        rnd = kernel.rounds
        remaining = [i for i in remaining if not fp.gone_forever(i, rnd)]
    if remaining:  # pragma: no cover - defensive
        raise ProtocolError("EOPT finished with active fragments remaining")

    edges = collect_tree_edges((nd.id, nd.tree_edges) for nd in nodes)
    stats = kernel.stats()
    fragments = {nd.fid for nd in nodes}
    if trace.enabled:
        trace.emit(
            "run_end",
            alg="EOPT",
            round=kernel.rounds,
            phases=phases1 + phases2,
            fragments=len(fragments),
        )
    step1_energy = sum(
        e for s, e in stats.energy_by_stage.items() if s.startswith("step1")
    )
    step2_energy = sum(
        e for s, e in stats.energy_by_stage.items() if s.startswith("step2")
    )
    return AlgorithmResult(
        name="EOPT",
        n=n,
        tree_edges=edges,
        stats=stats,
        phases=phases1 + phases2,
        extras={
            "r1": r1,
            "r2": r2,
            "phases_step1": phases1,
            "phases_step2": phases2,
            "giant_size": giant_size,
            "giant_found": bool(giant_leaders),
            "giants_demoted": demoted,
            "size_threshold": threshold,
            "n_fragments_final": len(fragments),
            "step1_energy": step1_energy,
            "step2_energy": step2_energy,
        },
    )


# -- runspec registration -----------------------------------------------------

def _eopt_adapter(points, spec):
    from repro.runspec.spec import kernel_class

    kwargs = {
        "c1": spec.eopt_c1,
        "c2": spec.eopt_c2,
        "beta": spec.eopt_beta,
        "rx_cost": spec.rx_cost,
        "kernel_cls": kernel_class(spec.kernel),
        "recover": spec.recover,
    }
    if spec.faults is not None:
        kwargs["faults"] = spec.faults
    return run_eopt(points, **kwargs)


register_algorithm(
    "EOPT",
    runner=run_eopt,
    adapter=_eopt_adapter,
    order=2,
    summary="two-step energy-optimal MST - exact MST, O(log n) expected energy",
)
