"""Top-level runners for plain GHS and modified GHS.

Both operate at the connectivity radius ``r = c sqrt(ln n / n)`` (paper
Sec. VII uses ``c = 1.6``) and produce the exact MST of the RGG at that
radius — a spanning forest if the RGG happens to be disconnected.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import AlgorithmResult
from repro.algorithms.ghs.driver import start_run
from repro.geometry.radius import PAPER_GHS_RADIUS_CONST, connectivity_radius
from repro.perf import perf
from repro.runspec.registry import register_algorithm
from repro.sim.faults import FaultPlan
from repro.trace import trace
from repro.sim.kernel import SynchronousKernel
from repro.sim.power import PathLossModel


def _run_family(
    points: np.ndarray,
    *,
    name: str,
    use_tests: bool,
    radius: float | None,
    radius_const: float,
    power: PathLossModel | None,
    rx_cost: float = 0.0,
    kernel_cls: type[SynchronousKernel] = SynchronousKernel,
    faults: FaultPlan | None = None,
    recover: bool = True,
    audit: bool = False,
) -> AlgorithmResult:
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    r = connectivity_radius(n, radius_const) if radius is None else float(radius)
    kwargs = {}
    if faults is not None:
        kwargs["faults"] = faults
    kernel = kernel_cls(pts, max_radius=r, power=power, rx_cost=rx_cost, **kwargs)
    if trace.enabled:
        trace.emit("run_start", alg=name, n=n, radius=r)
    kernel.set_stage("hello")
    tag = name.lower()
    with perf.timed(f"{tag}.hello"):
        run = start_run(kernel, tests=use_tests, recover=recover, audit=audit)
        run.hello(r)
    kernel.set_stage("phases")
    with perf.timed(f"{tag}.phases"):
        phases = run.run()
    edges = run.tree_edges()
    stats = kernel.stats()
    fragments = len(np.unique(run.fid))
    if trace.enabled:
        trace.emit(
            "run_end",
            alg=name,
            round=kernel.rounds,
            phases=phases,
            fragments=fragments,
        )
    return AlgorithmResult(
        name=name,
        n=n,
        tree_edges=edges,
        stats=stats,
        phases=phases,
        extras={
            "radius": r,
            "n_fragments_final": fragments,
            "rejected_probes": stats.messages_by_kind.get("REJECT", 0),
        },
    )


def run_ghs(
    points: np.ndarray,
    *,
    radius: float | None = None,
    radius_const: float = PAPER_GHS_RADIUS_CONST,
    power: PathLossModel | None = None,
    rx_cost: float = 0.0,
    kernel_cls: type[SynchronousKernel] = SynchronousKernel,
    faults: FaultPlan | None = None,
    recover: bool = True,
    audit: bool = False,
) -> AlgorithmResult:
    """Run the original GHS algorithm (with TEST probing) on ``points``.

    This is the paper's baseline: message-optimal but energy-suboptimal —
    Θ(log² n) expected energy on uniform points at the connectivity radius,
    dominated by the Θ(|E|) TEST/REJECT probes at distance ≈ r.

    Parameters
    ----------
    points:
        ``(n, 2)`` node coordinates in the unit square.
    radius:
        Transmission radius; defaults to
        ``radius_const * sqrt(ln n / n)``.
    radius_const:
        Multiplier for the default radius (paper experiments: 1.6).
    power:
        Path-loss model; defaults to ``a=1, alpha=2``.
    kernel_cls:
        Kernel implementation (benchmarks pass
        :class:`~repro.sim.legacy.LegacyKernel` for the pre-PR baseline).
    faults:
        Optional :class:`~repro.sim.faults.FaultPlan` injecting message
        loss, duplication and crash windows.
    recover:
        Enable the reliable-unicast + settle/repair recovery layer when
        faults are injected (default).  ``False`` runs the unprotected
        protocol against the faults — useful only for demonstrating why
        recovery is needed.
    audit:
        Assert fragment-invariant safety (``audit_recovery``) after
        every recovery settle point.
    """
    return _run_family(
        points,
        name="GHS",
        use_tests=True,
        radius=radius,
        radius_const=radius_const,
        power=power,
        rx_cost=rx_cost,
        kernel_cls=kernel_cls,
        faults=faults,
        recover=recover,
        audit=audit,
    )


def run_modified_ghs(
    points: np.ndarray,
    *,
    radius: float | None = None,
    radius_const: float = PAPER_GHS_RADIUS_CONST,
    power: PathLossModel | None = None,
    rx_cost: float = 0.0,
    kernel_cls: type[SynchronousKernel] = SynchronousKernel,
    faults: FaultPlan | None = None,
    recover: bool = True,
    audit: bool = False,
) -> AlgorithmResult:
    """Run the modified GHS (neighbour caches + ANNOUNCE) on ``points``.

    Same MST as :func:`run_ghs`, but MOE search is a local lookup: total
    messages drop to O(n·phases).  Used standalone for the ABL-G ablation
    and as the engine inside both EOPT steps.
    """
    return _run_family(
        points,
        name="MGHS",
        use_tests=False,
        radius=radius,
        radius_const=radius_const,
        power=power,
        rx_cost=rx_cost,
        kernel_cls=kernel_cls,
        faults=faults,
        recover=recover,
        audit=audit,
    )


# -- runspec registration -----------------------------------------------------

def _spec_kwargs(spec) -> dict:
    """Shared RunSpec -> GHS-family runner kwargs mapping."""
    from repro.runspec.spec import kernel_class

    kwargs = {
        "radius_const": spec.ghs_radius_const,
        "rx_cost": spec.rx_cost,
        "kernel_cls": kernel_class(spec.kernel),
        "recover": spec.recover,
    }
    if spec.faults is not None:
        kwargs["faults"] = spec.faults
    return kwargs


def _ghs_adapter(points, spec):
    return run_ghs(points, **_spec_kwargs(spec))


def _mghs_adapter(points, spec):
    return run_modified_ghs(points, **_spec_kwargs(spec))


register_algorithm(
    "GHS",
    runner=run_ghs,
    adapter=_ghs_adapter,
    order=0,
    summary="classical GHS with TEST probing - exact MST, Theta(log^2 n) energy",
)
register_algorithm(
    "MGHS",
    runner=run_modified_ghs,
    adapter=_mghs_adapter,
    order=1,
    summary="modified GHS (neighbour caches + ANNOUNCE) - exact MST, fewer messages",
)
