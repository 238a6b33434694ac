"""The two-step energy-optimal MST algorithm (paper Sec. V).

Step 1 — every node limits its radius to ``r1 = c1 sqrt(1/n)`` and the
modified GHS runs to completion.  By Thm 5.2 this leaves, whp, one giant
fragment of Θ(n) nodes plus small fragments trapped in regions of at most
``beta log^2 n`` nodes.

Interlude — every fragment counts itself (broadcast + convergecast over
its tree); a fragment larger than ``beta log^2 n`` declares itself the
giant and goes passive.  The ``eopt.census`` timer covers both waves.

An engine-eligible run (:func:`repro.algorithms.ghs.turbo.engine_eligible`:
default kernel, no fault plan, no reception cost, and step 2's table
within the density gate too) keeps its whole state in one
:class:`~repro.algorithms.ghs.turbo.TurboPhaseEngine`: step 1, the census
and the GIANT flood (one array pass each over the fragment forest), the
``activate`` flip and step 2, whose second HELLO rebinds the same engine
to the radius-``r2`` table.  Census sizes, the giant and the final tree
are read off its arrays; no node object is built.  The legacy and
contention kernels and fault-recovery runs build
:class:`~repro.algorithms.ghs.node.GHSNode` objects and take their
per-message handlers.

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

from repro.algorithms.base import AlgorithmResult
from repro.algorithms.ghs.driver import fragment_histogram, start_run
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
from repro.sim.kernel import SynchronousKernel, table_within_budget
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
    if trace.enabled:
        trace.emit("run_start", alg="EOPT", n=n, r1=r1, r2=r2)

    # ---- Step 1: modified GHS at the giant-component radius -----------------
    kernel.set_stage("step1:hello")
    with perf.timed("eopt.step1.hello"):
        # The engine holds the run from the first HELLO to the result, so
        # step 2's table must pass the density gate too.
        run = start_run(
            kernel,
            tests=False,
            recover=recover,
            audit=audit,
            engine=table_within_budget(n, r2),
        )
        run.hello(r1)
    kernel.set_stage("step1:ghs")
    with perf.timed("eopt.step1.phases"):
        phases1 = run.run()

    # ---- Interlude: fragment size census + giant declaration ----------------
    kernel.set_stage("step2:size")
    threshold = giant_size_threshold(n, beta)
    with perf.timed("eopt.census"):
        leaders, sizes = run.census()
        big = sizes > threshold
        demoted = max(int(np.count_nonzero(big)) - 1, 0)
        giant_size = 0
        if big.any():
            # The largest fragment stays the giant (ties: the least leader
            # id, leaders being ascending); any other is demoted.
            i = int(np.argmax(np.where(big, sizes, -1)))
            giant_size = int(sizes[i])
            run.declare_giant(int(leaders[i]))
    if trace.enabled:
        # The Thm 5.2 observable: after step 1 the size histogram must
        # show one giant entry above the threshold and small ones below.
        fragments, hist = fragment_histogram(run.fid)
        trace.emit(
            "census",
            round=kernel.rounds,
            threshold=threshold,
            fragments=fragments,
            sizes=hist,
            giant_size=giant_size,
            demoted=demoted,
        )

    # ---- Step 2: raise power, rediscover, resume over small fragments -------
    kernel.set_max_radius(r2)
    kernel.set_stage("step2:hello")
    with perf.timed("eopt.step2.hello"):
        run.hello(r2)
    kernel.set_stage("step2:ghs")
    run.activate()
    with perf.timed("eopt.step2.phases"):
        phases2 = run.run(phases1 + 1)

    if len(run.active_leaders()):  # pragma: no cover - defensive
        raise ProtocolError("EOPT finished with active fragments remaining")

    edges = run.tree_edges()
    stats = kernel.stats()
    fragments = len(np.unique(run.fid))
    if trace.enabled:
        trace.emit(
            "run_end",
            alg="EOPT",
            round=kernel.rounds,
            phases=phases1 + phases2,
            fragments=fragments,
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
            "giant_found": bool(big.any()),
            "giants_demoted": demoted,
            "size_threshold": threshold,
            "n_fragments_final": fragments,
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
