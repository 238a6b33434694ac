"""Step-wise GHS-family execution for the fuzzing worlds.

The production drivers (:mod:`repro.algorithms.ghs.driver`) run each
stage to quiescence inside one call — correct for runners, useless for a
fuzzer that wants to interleave fault mutations *between* kernel rounds.
:class:`StepHarness` re-expresses the exact driver loop (hello round,
Borůvka phases, fault-recovery settle barriers) as a generator that
yields after every ``kernel.step()`` / ``kernel.tick()``, so one yield
== one advanced round.  Because equivalent configurations advance their
rounds bit-identically (the kernel equivalence contract pinned by
``tests/test_hotpath_equivalence.py``), several harnesses driven with
the same yield counts stay in lockstep — which is what lets
:class:`repro.fuzz.world.GHSFuzzWorld` cross-check every registered
backend against every other after every rule.

The loop body deliberately mirrors :func:`~repro.algorithms.ghs.driver.
hello_round`, :func:`~repro.algorithms.ghs.driver.run_ghs_phases` and
:meth:`~repro.algorithms.ghs.driver.GHSRecovery.settle` statement for
statement (reusing the recovery repair primitives rather than copying
them); ``tests/test_fuzz.py`` pins the harness against the production
runner bit-for-bit, with and without faults.  The whole-round phase
engine is intentionally bypassed: the harness always drives the
scalar loop, which every kernel backend supports.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms.base import collect_tree_edges
from repro.algorithms.ghs.audit import audit_ghs_state, audit_recovery
from repro.algorithms.ghs.driver import GHSRecovery, active_leaders
from repro.algorithms.ghs.node import GHSNode
from repro.algorithms.ghs.plane import FloodCache
from repro.errors import ProtocolError
from repro.sim.backends import kernel_class
from repro.trace import trace

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
        planes: bool = True,
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
        self.kernel_mode = kernel_mode
        self.planes = planes
        self.radius = float(radius)
        self.use_tests = use_tests
        # Same engagement rule as the runner: recovery only when faults
        # are actually injected.
        reliable = faults is not None and not faults.is_null
        self.reliable = reliable
        self.kernel.add_nodes(
            lambda i, ctx: GHSNode(
                i, ctx, use_tests=use_tests, announce=not use_tests, reliable=reliable
            )
        )
        self.nodes = self.kernel.nodes
        self.recovery = (
            GHSRecovery(self.kernel, self.nodes, verify_fids=not use_tests)
            if reliable
            else None
        )
        self.audit_barriers = audit_barriers
        self.phases = 0
        self.barriers = 0
        self.finished = False
        self.at_barrier = False
        self.kernel.start()
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
        for _ in range(int(steps)):
            if self.finished:
                break
            try:
                next(self._gen)
            except StopIteration:
                self.finished = True
                break
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

    # -- the driver loop, one yield per round --------------------------------

    def _drive(self):
        kernel, nodes = self.kernel, self.nodes
        r = self.radius
        fp = kernel.faults

        # --- hello round (mirrors driver.hello_round) ---
        kernel.set_stage("hello")
        if trace.enabled:
            trace.emit("hello", round=kernel.rounds, radius=r)
        cache = None
        if self.planes and nodes:
            cache = FloodCache.ensure(kernel)
        if cache is not None:
            kernel.set_plane_handler(cache.on_plane)
            for nd in nodes:
                nd.attach_cache(cache)
            for nd in nodes:
                nd.radio_radius = r
            senders = np.arange(kernel.n, dtype=np.intp)
            if fp is not None and fp.has_crashes:
                senders = senders[~fp.crashed_mask(senders, kernel.rounds)]
            fids = np.fromiter(
                (nodes[i].fid for i in senders), dtype=np.int64, count=len(senders)
            )
            if len(senders) and not kernel.broadcast_plane(senders, r, "HELLO", fids):
                cache = None
        if cache is None:
            kernel.set_plane_handler(None)
            for nd in nodes:
                nd.attach_cache(None)
                nd.radio_radius = r
            kernel.wake(range(kernel.n), "hello", (r,))
        if self.recovery is not None:
            self.recovery._radius = r
        yield from self._settle(None)

        # --- Borůvka phases (mirrors driver.run_ghs_phases, scalar loop) ---
        kernel.set_stage("phases")
        n = max(len(nodes), 2)
        max_phases = 2 * int(math.log2(n)) + 20
        phase = 0
        while True:
            leaders = yield from self._live_leaders()
            if not leaders:
                return
            phase += 1
            self.phases += 1
            if self.phases > max_phases:
                raise ProtocolError(
                    f"GHS did not terminate within {max_phases} phases "
                    f"({len(leaders)} active fragments remain)"
                )
            if trace.enabled:
                trace.emit(
                    "phase_start", phase=phase, round=kernel.rounds, active=len(leaders)
                )
            kernel.wake(leaders, "initiate", (phase,))
            yield from self._settle(None)
            participants = [
                nd.id for nd in nodes if nd.cur_phase == phase and not nd.passive
            ]
            if fp is not None and fp.has_crashes:
                rnd = kernel.rounds
                participants = [i for i in participants if not fp.crashed(i, rnd)]
            cache_now = nodes[0].cache if nodes else None
            if participants and cache_now is not None and not self.use_tests:
                pids = np.asarray(participants, dtype=np.intp)
                fids = np.fromiter(
                    (nodes[i].fid for i in participants),
                    dtype=np.int64,
                    count=len(participants),
                )
                cand, kdist, klo, khi = cache_now.moe_batch(pids, fids)
                cand_l = cand.tolist()
                kd_l = kdist.tolist()
                klo_l = klo.tolist()
                khi_l = khi.tolist()
                for idx, i in enumerate(participants):
                    nd = nodes[i]
                    if nd.cur_phase == phase and not nd.passive:
                        nd.apply_moe(cand_l[idx], kd_l[idx], klo_l[idx], khi_l[idx])
            else:
                kernel.wake(participants, "find_moe", (phase,))
            yield from self._settle(phase)

    def _live_leaders(self):
        """Generator twin of ``driver._live_leaders`` (ticks yield)."""
        kernel, nodes = self.kernel, self.nodes
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
                continue
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

    def _settle(self, phase):
        """Generator twin of ``GHSRecovery.settle`` (steps/ticks yield)."""
        kernel = self.kernel
        self.at_barrier = False
        recovery = self.recovery
        if recovery is None:
            while kernel.in_flight:
                kernel.step()
                yield
        else:
            fp = kernel.faults
            nodes = self.nodes
            for _ in range(recovery.max_iters):
                while kernel.in_flight:
                    kernel.step()
                    yield
                rnd = kernel.rounds
                holders = [
                    nd.id for nd in nodes if nd.retry is not None and nd.retry.pending
                ]
                if holders:
                    live = [i for i in holders if not fp.gone_forever(i, rnd)]
                    if not live:
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
                            kernel.tick()
                            yield
                    else:
                        kernel.tick()
                        yield
                    continue
                ready, blocked = recovery._stale_floods(rnd)
                if ready:
                    if trace.enabled:
                        trace.emit("rehello", round=rnd, nodes=len(ready))
                    kernel.wake(ready, "rehello")
                    if not kernel.in_flight:
                        blocked = True
                    else:
                        continue
                if blocked:
                    kernel.tick()
                    yield
                    continue
                if phase is not None:
                    todo, waiting = recovery._unsearched(phase, rnd)
                    if todo:
                        if trace.enabled:
                            trace.emit(
                                "rewake", round=rnd, phase=phase, nodes=len(todo)
                            )
                        kernel.wake(todo, "find_moe", (phase,))
                        continue
                    if waiting:
                        kernel.tick()
                        yield
                        continue
                break
            else:
                raise ProtocolError(
                    f"fault recovery did not settle in {recovery.max_iters} "
                    "iterations (permanently crashed peer mid-protocol?)"
                )
            if trace.enabled:
                trace.emit("settle", round=kernel.rounds)
        self.at_barrier = True
        self.barriers += 1
        if self.audit_barriers:
            if self.recovery is not None:
                audit_recovery(self.nodes, kernel=kernel)
            else:
                audit_ghs_state(self.nodes, strict_fids=False)
