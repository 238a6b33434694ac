"""Step-wise GHS-family execution for the fuzzing worlds.

The production runners drain the phase driver's stepping generators
(:func:`~repro.algorithms.ghs.driver.hello_round_steps`,
:func:`~repro.algorithms.ghs.driver.ghs_phase_steps`) inside one call.
:class:`StepHarness` advances the *same* generators from the outside,
one advanced round per step, so a fuzzer can interleave fault mutations
between kernel rounds.  Because equivalent configurations advance their
rounds bit-identically (the kernel equivalence contract pinned by
``tests/test_hotpath_equivalence.py``), several harnesses driven with
the same step counts stay in lockstep — which is what lets
:class:`repro.fuzz.world.GHSFuzzWorld` cross-check every kernel
mode against every other after every rule.

The harness owns only the controls: stepping, the power cap, the
barrier count and the state audit at every barrier.  The whole-round
phase engine is not reachable from here (only the runners start it,
through :func:`~repro.algorithms.ghs.driver.start_run`): the harness
builds the per-message :class:`~repro.algorithms.ghs.driver.NodeRun`
state and always drives the per-message loop, which every kernel
backend supports.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import collect_tree_edges
from repro.algorithms.ghs.audit import audit_ghs_state, audit_recovery
from repro.algorithms.ghs.driver import (
    BARRIER,
    NodeRun,
    ghs_phase_steps,
    hello_round_steps,
)
from repro.errors import ProtocolError
from repro.runspec.spec import kernel_class

__all__ = ["StepHarness"]


class StepHarness:
    """One GHS-family run, advanced round by round from the outside.

    Parameters mirror the runner (:func:`~repro.algorithms.ghs.runner.
    run_modified_ghs`): ``use_tests`` selects original GHS over modified,
    ``faults`` engages the reliable/recovery layer exactly like the
    runner does, ``max_radius`` sets the kernel power cap (the protocol
    still floods at ``radius``; a larger cap gives the fuzzer legal room
    to shrink/grow the cap mid-run without invalidating the neighbor
    table).  ``audit_barriers`` runs the state auditor at every settle
    barrier the run crosses.
    """

    def __init__(
        self,
        points,
        *,
        radius: float,
        kernel_mode: str = "fast",
        use_tests: bool = False,
        faults=None,
        rx_cost: float = 0.0,
        max_radius: float | None = None,
        audit_barriers: bool = True,
    ) -> None:
        pts = np.asarray(points, dtype=float)
        kwargs = {}
        if faults is not None:
            kwargs["faults"] = faults
        self.kernel = kernel_class(kernel_mode)(
            pts, max_radius=float(max_radius or radius), rx_cost=rx_cost, **kwargs
        )
        self.radius = float(radius)
        # The runners' per-message state: recovery only when faults are
        # actually injected.
        state = NodeRun(self.kernel, tests=use_tests)
        self.nodes, self.recovery = state.nodes, state.recovery
        self.audit_barriers = audit_barriers
        self.barriers = 0
        self.finished = False
        self._gen = self._drive()

    # -- outside controls ---------------------------------------------------

    @property
    def rounds(self) -> int:
        return self.kernel.rounds

    def set_cap(self, cap: float) -> None:
        """Move the kernel power cap (must stay >= the protocol radius)."""
        if cap < self.radius:
            raise ProtocolError(
                f"power cap {cap} below the protocol radius {self.radius}"
            )
        self.kernel.set_max_radius(float(cap))

    def advance(self, steps: int = 1) -> int:
        """Advance up to ``steps`` rounds; returns how many actually ran
        (fewer only when the run finishes mid-way)."""
        done = 0
        while done < steps and not self.finished:
            try:
                step = next(self._gen)
            except StopIteration:
                self.finished = True
                break
            if step is BARRIER:
                self._on_barrier()
            else:
                done += 1
        return done

    def run_to_completion(self, max_steps: int = 500_000) -> None:
        for _ in range(max_steps):
            if self.finished:
                return
            self.advance(1024)
        raise ProtocolError(f"run did not finish within {max_steps} windows")

    def result(self):
        """``(tree_edges, stats)`` after the run finished."""
        if not self.finished:
            raise ProtocolError("result() before the run finished")
        edges = collect_tree_edges((nd.id, nd.tree_edges) for nd in self.nodes)
        return edges, self.kernel.stats()

    # -- the production driver, stepped --------------------------------------

    def _drive(self):
        kernel = self.kernel
        kernel.set_stage("hello")
        yield from hello_round_steps(kernel, self.radius, recovery=self.recovery)
        kernel.set_stage("phases")
        yield from ghs_phase_steps(kernel, self.nodes, recovery=self.recovery)

    def _on_barrier(self) -> None:
        self.barriers += 1
        if self.audit_barriers:
            if self.recovery is not None:
                audit_recovery(self.nodes, kernel=self.kernel)
            else:
                audit_ghs_state(self.nodes, strict_fids=False)
