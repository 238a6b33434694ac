"""One driver for the NNT protocols: Co-NNT and Rand-NNT.

All still-searching nodes probe in lock-step: phase ``i`` is one
``probe`` wake (REQUEST broadcast, REPLY unicasts) followed by a
``decide`` wake (CONNECTION or continue).  The phase cap
``ceil(log2(2 n)) + 1`` guarantees the final probe radius reaches the
unit-square diameter, so termination is unconditional.

:meth:`NNTRun.steps` is the whole driver as a generator that yields once
per probe phase or idle tick.  :func:`run_nnt` drains it; the Co-NNT
fuzz world (:mod:`repro.fuzz.connt_world`) steps it between its own
fault rules, so the fuzzer always exercises this loop.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

import numpy as np

from repro.algorithms.base import AlgorithmResult, collect_tree_edges
from repro.algorithms.connt.node import NNTNode, diagonal_rank
from repro.errors import ProtocolError
from repro.runspec.registry import register_algorithm
from repro.sim.faults import FaultPlan, drain_reliable
from repro.sim.kernel import SynchronousKernel
from repro.sim.power import PathLossModel
from repro.trace import trace

#: Re-probe rounds (every stranded node probes once per round) the
#: driver runs before it gives up.  Idle ticks spent waiting out crash
#: windows do not count against it.
MAX_REPROBES = 200

#: Idle ticks one driver stage may spend waiting out crash windows.
MAX_IDLE_TICKS = 1_000_000


class NNTRun:
    """The driver state of one NNT run over a started kernel of
    :class:`NNTNode` processes."""

    def __init__(self, name: str, kernel: SynchronousKernel, *, reliable: bool) -> None:
        self.name = name
        self.kernel = kernel
        self.nodes = kernel.nodes
        self.reliable = reliable
        self.max_phase = int(math.ceil(math.log2(2.0 * max(kernel.n, 2)))) + 1
        #: Probe phases run so far (idle ticks and re-probes excluded).
        self.phase = 0
        self.max_probe_radius = 0.0

    def _settle(self) -> None:
        self.kernel.run_until_quiescent()
        if self.reliable:
            drain_reliable(self.kernel, self.nodes)

    def _probe_and_decide(self, groups: dict[int, list[int]], alive: list[int]) -> None:
        kernel = self.kernel
        for ph in sorted(groups):
            kernel.wake(groups[ph], "probe", (ph,))
        self._settle()
        kernel.wake(alive, "decide")
        self._settle()

    def _idle(self, waited: int) -> None:
        """Tick the clock once while every searcher sits in a crash window."""
        if waited > MAX_IDLE_TICKS:
            raise ProtocolError(f"{self.name} stalled waiting out crash windows")
        self.kernel.tick()

    def steps(self) -> Iterator[None]:
        """Run the protocol to termination, one yield per probe phase or
        idle tick; in reliable mode, then re-probe stranded nodes."""
        kernel, nodes, fp = self.kernel, self.nodes, self.kernel.faults
        waited = 0
        while True:
            rnd = kernel.rounds
            active = [
                nd.id
                for nd in nodes
                if not nd.done and (fp is None or not fp.gone_forever(nd.id, rnd))
            ]
            if not active:
                break
            alive = active if fp is None else [i for i in active if not fp.crashed(i, rnd)]
            if not alive:
                # Every remaining searcher is inside a transient crash
                # window: idle the clock until one comes back.
                waited += 1
                self._idle(waited)
                yield
                continue
            self.phase += 1
            if self.phase > self.max_phase + 1 and not self.reliable:
                raise ProtocolError(
                    f"{self.name} did not terminate within {self.max_phase} probe phases"
                )
            if self.phase > 4 * (self.max_phase + 1):
                # Even with crash windows, a node that probed at the capped
                # sqrt(2) radius must have decided; this many phases means
                # the recovery layer is looping, not progressing.
                raise ProtocolError(f"{self.name} did not terminate under fault recovery")
            if trace.enabled:
                trace.emit(
                    "probe_phase", phase=self.phase, round=rnd, searching=len(alive)
                )
            # A node that slept through earlier wakes (crash window) resumes
            # at its own next radius, so probes stay a doubling sequence
            # per node even when the global phase counter has moved on.
            groups: dict[int, list[int]] = {}
            for i in alive:
                groups.setdefault(min(nodes[i]._phase + 1, self.phase), []).append(i)
            self._probe_and_decide(groups, alive)
            self.max_probe_radius = max(
                self.max_probe_radius, max(nodes[i].last_radius for i in alive)
            )
            yield
        if self.reliable:
            yield from self._reprobe_steps()

    def _reprobe_steps(self) -> Iterator[None]:
        """Re-probe nodes stranded by lost REQUEST floods (reliable mode).

        A searcher whose every REQUEST copy was dropped in the phase where
        its radius first reached its cutoff hears silence and wrongly
        concludes it is top-ranked.  REPLY/CONNECTION are reliable, so
        this is the *only* way a non-top node can end unconnected.  The
        fix is pure retry: wake each such node for a fresh full-radius
        probe (fresh round => fresh loss draws) until only the true
        top-ranked survivor remains unconnected.
        """
        kernel, nodes, fp = self.kernel, self.nodes, self.kernel.faults
        rnd = kernel.rounds
        live = [nd for nd in nodes if fp is None or not fp.gone_forever(nd.id, rnd)]
        if not live:
            return
        top = max(live, key=lambda nd: nd.key).id
        waited = probes = 0
        # ``attempt`` numbers every iteration, idle ticks included.
        for attempt in itertools.count():
            rnd = kernel.rounds
            stranded = [
                nd.id
                for nd in nodes
                if nd.connected_to is None
                and nd.id != top
                and (fp is None or not fp.gone_forever(nd.id, rnd))
            ]
            if not stranded:
                return
            if probes == MAX_REPROBES:
                raise ProtocolError(
                    f"{self.name} re-probe did not connect all stranded nodes "
                    f"in {MAX_REPROBES} probes"
                )
            alive = [i for i in stranded if fp is None or not fp.crashed(i, rnd)]
            if not alive:
                waited += 1
                self._idle(waited)
                yield
                continue
            if trace.enabled:
                trace.emit("reprobe", round=rnd, attempt=attempt, nodes=len(alive))
            for i in alive:
                nodes[i].done = False
            probes += 1
            # A phase index beyond max_phase caps the radius at sqrt(2):
            # the probe covers the whole square, and bumping it per attempt
            # keeps each probe a genuinely new phase (fresh reply list).
            self._probe_and_decide({self.max_phase + 2 + attempt: alive}, alive)
            yield


def run_nnt(
    points: np.ndarray,
    name: str,
    rank,
    *,
    power: PathLossModel | None = None,
    rx_cost: float = 0.0,
    faults: FaultPlan | None = None,
    recover: bool = True,
) -> AlgorithmResult:
    """Run the NNT protocol under one rank rule and drain its driver."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    reliable = faults is not None and not faults.is_null and recover
    kernel = SynchronousKernel(
        pts,
        max_radius=math.sqrt(2.0),
        power=power,
        # Only the diagonal rule reads coordinates; Rand-NNT runs blind.
        expose_coordinates=rank is diagonal_rank,
        rx_cost=rx_cost,
        faults=faults,
    )
    kernel.add_nodes(lambda i, ctx: NNTNode(i, ctx, rank=rank, reliable=reliable))
    kernel.start()
    if trace.enabled:
        trace.emit("run_start", alg=name, n=n)
    run = NNTRun(name, kernel, reliable=reliable)
    for _ in run.steps():
        pass

    nodes = kernel.nodes
    edges = collect_tree_edges((nd.id, nd.tree_edges) for nd in nodes)
    unconnected = [nd.id for nd in nodes if nd.connected_to is None]
    if trace.enabled:
        trace.emit(
            "run_end",
            alg=name,
            round=kernel.rounds,
            phases=run.phase,
            unconnected=len(unconnected),
        )
    return AlgorithmResult(
        name=name,
        n=n,
        tree_edges=edges,
        stats=kernel.stats(),
        phases=run.phase,
        extras={
            "max_probe_radius": run.max_probe_radius,
            # Whp exactly one: the globally highest-ranked node.
            "unconnected_nodes": unconnected,
        },
    )


def run_connt(
    points: np.ndarray,
    *,
    power: PathLossModel | None = None,
    rx_cost: float = 0.0,
    faults: FaultPlan | None = None,
    recover: bool = True,
) -> AlgorithmResult:
    """Run Co-NNT on ``points``; returns the diagonal-ranking NNT.

    Energy is O(1) in expectation and messages O(n) (paper Thm 6.2); the
    tree is a constant-factor approximation to the MST (Thm 6.1).

    Parameters
    ----------
    points:
        ``(n, 2)`` node coordinates in the unit square.
    power:
        Path-loss model; defaults to ``a=1, alpha=2``.
    faults:
        Optional seeded :class:`FaultPlan`.  With ``recover=True`` the
        REPLY/CONNECTION unicasts turn reliable (ACK/retry) and the
        driver re-probes nodes stranded by lost REQUEST floods, so the
        run terminates with a symmetric spanning structure over the
        surviving nodes.  Lost REQUEST copies may still redirect a node
        to a farther (still higher-ranked) neighbour — the output stays
        a valid rank-monotone NNT, not necessarily the fault-free one.
    """
    return run_nnt(
        points,
        "Co-NNT",
        diagonal_rank,
        power=power,
        rx_cost=rx_cost,
        faults=faults,
        recover=recover,
    )


# -- runspec registration -----------------------------------------------------

def _connt_adapter(points, spec):
    kwargs = {"rx_cost": spec.rx_cost, "recover": spec.recover}
    if spec.faults is not None:
        kwargs["faults"] = spec.faults
    return run_connt(points, **kwargs)


register_algorithm(
    "Co-NNT",
    runner=run_connt,
    adapter=_connt_adapter,
    order=3,
    summary="coordinate-based NNT - O(1) expected energy, constant-factor tree",
    supports_kernel_mode=False,
)
