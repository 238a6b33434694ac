"""Multi-backend lockstep world for GHS-family fuzzing.

A :class:`GHSFuzzWorld` holds one :class:`~repro.fuzz.harness.
StepHarness` per kernel mode (``fast`` and ``legacy``)
over the *same* instance and fault plan, and applies
every fuzz rule — advance N rounds, open a transient crash window, move
the power cap — to all of them.  Because equivalent configurations are
bit-identical round for round (the kernel equivalence contract), the
harnesses stay aligned; :meth:`check_alignment` asserts it after every
rule, and :meth:`finish` asserts the full endgame: identical trees and
stats across backends, the oracle MST/forest of the surviving topology,
a final state audit, and scalar-vs-vectorized fate determinism on the
exact batches each run produced.

Every mutation is recorded in ``self.ops`` so a failing interleaving
replays exactly (:mod:`repro.fuzz.corpus`) and exports as a
:class:`~repro.runspec.spec.RunSpec` (:meth:`to_runspec`): mid-run
transient windows are representable as ordinary ``FaultPlan`` crash
entries because the world only ever opens them at the current round —
never retroactively — which is also what keeps post-run fate
verification sound.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ProtocolError
from repro.fuzz.harness import StepHarness
from repro.fuzz.recorder import RecordingFaultPlane, verify_fate_determinism
from repro.geometry.radius import connectivity_radius
from repro.experiments.instances import get_points
from repro.mst.kruskal import kruskal_mst
from repro.mst.quality import same_tree
from repro.perf import perf
from repro.rgg.build import build_rgg
from repro.runspec.spec import KERNEL_MODES
from repro.sim.faults import FaultPlan

__all__ = ["GHSFuzzWorld", "default_configs"]


def default_configs() -> list[str]:
    """Every kernel mode."""
    return list(KERNEL_MODES)


class GHSFuzzWorld:
    """One fuzz scenario driven across every kernel configuration."""

    def __init__(
        self,
        *,
        n: int,
        seed: int,
        algorithm: str = "MGHS",
        fault_seed: int = 0,
        drop_rate: float = 0.0,
        dup_rate: float = 0.0,
        link_loss: tuple = (),
        dead_nodes: tuple = (),
        cap_slack: float = 1.0,
        configs: list[str] | None = None,
        audit_barriers: bool = True,
        record_fates: bool = True,
    ) -> None:
        if algorithm not in ("GHS", "MGHS"):
            raise ProtocolError(f"unknown fuzz algorithm {algorithm!r}")
        self.n = int(n)
        self.seed = int(seed)
        self.algorithm = algorithm
        self.fault_seed = int(fault_seed)
        self.drop_rate = float(drop_rate)
        self.dup_rate = float(dup_rate)
        self.link_loss = tuple(((int(u), int(v)), float(p)) for (u, v), p in link_loss)
        self.dead_nodes = tuple(sorted(int(d) for d in dead_nodes))
        self.cap_slack = float(cap_slack)
        self.points = get_points(self.n, self.seed)
        self.radius = connectivity_radius(self.n)
        self.cap_max = self.radius * self.cap_slack
        crashes = tuple((d, 0, None) for d in self.dead_nodes)
        plan = FaultPlan(
            seed=self.fault_seed,
            drop_rate=self.drop_rate,
            dup_rate=self.dup_rate,
            link_loss=self.link_loss,
            crashes=crashes,
        )
        self.plan = None if plan.is_null else plan
        #: Grows as mid-run windows open; feeds to_runspec()/to_scenario().
        self.plan_crashes: list[tuple] = list(crashes)
        self.crashed_nodes: set[int] = set(self.dead_nodes)
        self.configs = list(configs) if configs is not None else default_configs()
        self.ops: list[list] = []
        self.finished = False
        self.failed = False
        self.harnesses = [
            StepHarness(
                self.points,
                radius=self.radius,
                kernel_mode=mode,
                use_tests=(algorithm == "GHS"),
                faults=self.plan,
                max_radius=self.cap_max,
                audit_barriers=audit_barriers,
            )
            for mode in self.configs
        ]
        for h in self.harnesses:
            # Build the neighbor table at the widest cap now, so later cap
            # moves within [radius, cap_max] never invalidate it (an
            # invalidation mid-run would — correctly — fault plane-mode
            # runs with a stale-table error; that contract is EOPT's, and
            # re-helloing after every cap move is not what we fuzz here).
            h.kernel.neighbor_table()
            if record_fates and h.kernel.faults is not None:
                h.kernel.faults = RecordingFaultPlane(h.kernel.faults)

    # -- helpers -------------------------------------------------------------

    def _fail(self, exc: Exception) -> Exception:
        self.failed = True
        return exc

    def common_round(self) -> int:
        rounds = {h.kernel.rounds for h in self.harnesses}
        if len(rounds) != 1:
            raise self._fail(
                ProtocolError(
                    "backends lost lockstep: rounds "
                    + ", ".join(
                        f"{m}: {h.kernel.rounds}"
                        for m, h in zip(self.configs, self.harnesses)
                    )
                )
            )
        return rounds.pop()

    def _inner_plane(self, harness: StepHarness):
        fp = harness.kernel.faults
        return fp.inner if isinstance(fp, RecordingFaultPlane) else fp

    def check_alignment(self) -> None:
        """Cross-backend lockstep: rounds, cumulative stats, barrier count."""
        self.common_round()
        ref = None
        for mode, h in zip(self.configs, self.harnesses):
            st = h.kernel.stats()
            key = (st.messages_total, st.energy_total, h.finished, h.barriers)
            if ref is None:
                ref = key
                ref_label = mode
            elif key != ref:
                raise self._fail(
                    ProtocolError(
                        f"backends diverged: {ref_label} has "
                        f"(messages, energy, finished, barriers)={ref} but "
                        f"{mode} has {key}"
                    )
                )

    # -- rules (each records an op for exact replay) -------------------------

    def advance(self, steps: int) -> None:
        self.ops.append(["advance", int(steps)])
        try:
            for h in self.harnesses:
                h.advance(int(steps))
            self.check_alignment()
        except Exception as exc:
            raise self._fail(exc)

    def crash(self, node: int, duration: int, expect_start: int | None = None) -> int:
        """Open a transient crash window ``[now, now + duration)``.

        Windows always open at the current round — the fault hash is a
        pure function of the round, so an already-evaluated fate is never
        rewritten.  Returns the start round (recorded for replay drift
        detection).  One window per node, mirroring ``FaultPlan``.
        """
        node = int(node)
        duration = int(duration)
        if self.plan is None:
            raise ProtocolError("crash rule needs a non-null fault plan")
        if node in self.crashed_nodes:
            raise ProtocolError(f"node {node} already has a crash window")
        if duration < 1:
            raise ProtocolError(f"crash duration must be >= 1, got {duration}")
        start = self.common_round()
        if expect_start is not None and start != int(expect_start):
            raise self._fail(
                ProtocolError(
                    f"scenario drift: crash({node}) expected to open at round "
                    f"{expect_start} but the replay reached round {start}"
                )
            )
        for h in self.harnesses:
            fp = self._inner_plane(h)
            fp._cstart[node] = start
            fp._cend[node] = start + duration
            fp.has_crashes = True
        self.crashed_nodes.add(node)
        self.plan_crashes.append((node, start, start + duration))
        self.ops.append(["crash", node, duration, start])
        return start

    def set_cap(self, frac: float) -> None:
        """Move the power cap inside the legal band ``[radius, cap_max]``."""
        frac = min(1.0, max(0.0, float(frac)))
        cap = self.radius + frac * (self.cap_max - self.radius)
        self.ops.append(["set_cap", frac])
        try:
            for h in self.harnesses:
                h.set_cap(cap)
        except Exception as exc:
            raise self._fail(exc)

    def finish(self) -> None:
        """Run every backend to quiescence and check the full endgame."""
        if self.finished:
            return
        self.ops.append(["finish"])
        try:
            for h in self.harnesses:
                h.run_to_completion()
            self.finished = True
            self.check_alignment()
            self.check_final()
        except Exception as exc:
            raise self._fail(exc)

    # -- endgame invariants ---------------------------------------------------

    def oracle_forest(self) -> np.ndarray:
        """Kruskal MST/forest of the RGG minus never-started nodes."""
        g = build_rgg(self.points, self.radius)
        edges, lengths = g.edges, g.lengths
        if self.dead_nodes:
            dead = set(self.dead_nodes)
            keep = [
                i
                for i, (u, v) in enumerate(np.asarray(edges))
                if u not in dead and v not in dead
            ]
            edges, lengths = edges[keep], lengths[keep]
        return kruskal_mst(g.n, edges, lengths)[0]

    @staticmethod
    def _check_same(ref, other, ref_label: str, label: str) -> None:
        """Same tree and headline stats, or a :class:`ProtocolError`."""
        (ref_edges, ref_stats), (edges, stats) = ref, other
        if not same_tree(edges, ref_edges):
            raise ProtocolError(
                f"backends computed different trees: {ref_label} vs {label}"
            )
        mismatched = [
            name
            for name in ("energy_total", "messages_total", "rounds", "messages_by_kind")
            if getattr(ref_stats, name) != getattr(stats, name)
        ]
        if mismatched:
            raise ProtocolError(
                f"backend stats diverged ({ref_label} vs {label}): "
                + ", ".join(mismatched)
            )

    def engine_result(self):
        """``(tree_edges, stats)`` of the production GHS runner on the
        default kernel, which must take the whole-round phase engine."""
        from repro.algorithms.ghs import run_ghs

        with perf.isolated() as cap:
            res = run_ghs(self.points, radius=self.radius)
        if not cap.data["counters"].get("kernel.turbo_engine_rounds", 0):
            raise ProtocolError("fault-free GHS did not engage the whole-round engine")
        return res.tree_edges, res.stats

    def check_final(self) -> None:
        results = [h.result() for h in self.harnesses]
        ref_edges, ref_stats = results[0]
        ref_label = self.configs[0]
        for mode, res in zip(self.configs[1:], results[1:]):
            self._check_same(results[0], res, ref_label, mode)
        # The harnesses always drive the per-message phase loop; a
        # fault-free GHS world also pins the engine against them.
        # (Cap moves are result-neutral but out of the runner's reach.)
        if (
            self.algorithm == "GHS"
            and self.effective_plan() is None
            and not any(op[0] == "set_cap" for op in self.ops)
        ):
            self._check_same(results[0], self.engine_result(), ref_label, "engine")
        oracle = self.oracle_forest()
        if not same_tree(ref_edges, oracle):
            raise ProtocolError(
                "run did not recover the oracle MST of the surviving topology "
                f"({len(np.asarray(ref_edges))} vs {len(np.asarray(oracle))} edges)"
            )
        for h in self.harnesses:
            fp = h.kernel.faults
            if isinstance(fp, RecordingFaultPlane):
                verify_fate_determinism(fp)

    # -- artifacts ------------------------------------------------------------

    def effective_plan(self) -> FaultPlan | None:
        """The fault plan including every window opened mid-run."""
        if self.plan is None and not self.plan_crashes:
            return None
        plan = FaultPlan(
            seed=self.fault_seed,
            drop_rate=self.drop_rate,
            dup_rate=self.dup_rate,
            link_loss=self.link_loss,
            crashes=tuple(self.plan_crashes),
        )
        return None if plan.is_null else plan

    def to_runspec(self):
        """The nearest declarative artifact: a replayable RunSpec.

        Captures instance, algorithm and the *effective* fault plan
        (initial plus mid-run windows, which are ordinary crash entries
        because they were only ever opened at the then-current round).
        Cap moves are omitted: the cap never drops below the protocol
        radius, so they are semantically result-neutral.
        """
        from repro.runspec.spec import RunSpec

        return RunSpec(
            algorithm=self.algorithm,
            n=self.n,
            seed=self.seed,
            kernel="fast",
            recover=True,
            faults=self.effective_plan(),
        )

    def to_scenario(self) -> dict:
        """Exact-replay payload for the corpus (see repro.fuzz.corpus)."""
        return {
            "schema_version": 1,
            "kind": "fuzz_scenario",
            "machine": "ghs",
            "params": {
                "n": self.n,
                "seed": self.seed,
                "algorithm": self.algorithm,
                "fault_seed": self.fault_seed,
                "drop_rate": self.drop_rate,
                "dup_rate": self.dup_rate,
                "link_loss": [[u, v, p] for (u, v), p in self.link_loss],
                "dead_nodes": list(self.dead_nodes),
                "cap_slack": self.cap_slack,
            },
            "ops": [list(op) for op in self.ops],
        }
