"""Multi-backend lockstep world for scenario-plane (MAINT) fuzzing.

A :class:`ScenarioFuzzWorld` holds one :class:`~repro.scenario.scheduler.
ScenarioScheduler` per registered kernel configuration over the *same*
instance, and applies every fuzz rule — crash (permanent or transient),
join, leave, move, repair/rebuild checkpoints — to all of them.  This is
the headroom the step harness deliberately leaves on the table: the
harness drives only the scalar loop, while a fault-free maintenance
cycle on the fast kernel with planes on satisfies the whole-round phase
engine's eligibility, so every checkpoint here runs the engine in
lockstep with the scalar paths (fast with planes off, and legacy).

Endgame invariants (:meth:`check_final`):

* every configuration produced the identical tree, merged stats and
  global clock;
* the final tree is a spanning forest of the final alive RGG: every
  edge is a legal radio edge at the final operating radius, the edge
  count is ``m - #components``, and the tree's connectivity partition
  equals the RGG's.  (No global-MST oracle: incremental repair is
  *forest-constrained* — it keeps surviving tree edges a from-scratch
  MST might not, so exact-MST is deliberately not an invariant here;
  the quality gap is what ``bench_maintenance`` measures.)

Every mutation is recorded in ``self.ops`` so a failing interleaving
replays exactly through :mod:`repro.fuzz.corpus` (machine ``"maint"``),
and exports as a ``MAINT`` :class:`~repro.runspec.spec.RunSpec` whose
embedded :class:`~repro.scenario.plan.ScenarioPlan` carries the events
at the global rounds they actually fired at.
"""

from __future__ import annotations

import numpy as np

from repro.ds.unionfind import UnionFind
from repro.errors import ProtocolError
from repro.experiments.instances import get_points
from repro.fuzz.world import default_configs
from repro.geometry.radius import connectivity_radius
from repro.rgg.build import build_rgg
from repro.scenario.plan import CHECKPOINT_KINDS, ScenarioEvent
from repro.scenario.scheduler import ScenarioScheduler
from repro.sim.backends import kernel_class

__all__ = ["ScenarioFuzzWorld"]


class ScenarioFuzzWorld:
    """One scenario event sequence driven across every kernel config."""

    def __init__(
        self,
        *,
        n: int,
        seed: int,
        configs: list[tuple[str, bool]] | None = None,
    ) -> None:
        self.n = int(n)
        self.seed = int(seed)
        self.points = get_points(self.n, self.seed)
        self.configs = list(configs) if configs is not None else default_configs()
        self.scheds = [
            ScenarioScheduler(
                self.points, kernel_cls=kernel_class(mode), planes=planes
            )
            for mode, planes in self.configs
        ]
        self.ops: list[list] = []
        #: Events recorded at their global firing round -> to_runspec().
        self.events: list[ScenarioEvent] = []
        self.finished = False
        self.failed = False
        self.dirty = False
        try:
            for s in self.scheds:
                s.build()
            self.check_alignment()
        except Exception as exc:
            raise self._fail(exc)

    # -- helpers -------------------------------------------------------------

    @property
    def ref(self) -> ScenarioScheduler:
        return self.scheds[0]

    def _fail(self, exc: Exception) -> Exception:
        self.failed = True
        return exc

    def _label(self, i: int) -> str:
        mode, planes = self.configs[i]
        return f"{mode}/planes={planes}"

    def alive_nodes(self) -> list[int]:
        return [int(g) for g in self.ref.alive_ids()]

    def common_clock(self) -> int:
        clocks = {s.clock for s in self.scheds}
        if len(clocks) != 1:
            raise self._fail(
                ProtocolError(
                    "backends lost lockstep: clocks "
                    + ", ".join(
                        f"{self._label(i)}: {s.clock}"
                        for i, s in enumerate(self.scheds)
                    )
                )
            )
        return clocks.pop()

    def check_alignment(self) -> None:
        """Cross-backend lockstep: clock, cumulative stats, current tree."""
        self.common_clock()
        ref = self.ref
        for i, s in enumerate(self.scheds[1:], start=1):
            key = (s._energy_total, s._messages_total, s.cycle, len(s.tree))
            ref_key = (ref._energy_total, ref._messages_total, ref.cycle, len(ref.tree))
            if key != ref_key:
                raise self._fail(
                    ProtocolError(
                        f"backends diverged: {self._label(0)} has "
                        f"(energy, messages, cycles, tree)={ref_key} but "
                        f"{self._label(i)} has {key}"
                    )
                )
            if not np.array_equal(s.tree, ref.tree):
                raise self._fail(
                    ProtocolError(
                        f"backends computed different trees: "
                        f"{self._label(0)} vs {self._label(i)}"
                    )
                )

    def _apply(self, op: list, fn) -> None:
        self.ops.append(op)
        try:
            for s in self.scheds:
                fn(s)
            self.check_alignment()
        except Exception as exc:
            raise self._fail(exc)

    # -- rules (each records an op for exact replay) -------------------------

    def crash(
        self, node: int, duration: int | None = None, expect_start=None
    ) -> None:
        """Crash ``node`` everywhere (``expect_start`` ignored: events
        fire between cycles, so there is no round drift to detect)."""
        node = int(node)
        duration = None if duration is None else int(duration)
        clock = self.common_clock()
        self._apply(["crash", node, duration], lambda s: s.crash(node, duration))
        self.events.append(
            ScenarioEvent(round=clock, kind="crash", node=node, duration=duration)
        )
        self.dirty = True

    def join(self, x: float, y: float) -> None:
        x, y = float(x), float(y)
        clock = self.common_clock()
        self._apply(["join", x, y], lambda s: s.join(x, y))
        self.events.append(ScenarioEvent(round=clock, kind="join", x=x, y=y))
        self.dirty = True

    def leave(self, node: int) -> None:
        node = int(node)
        clock = self.common_clock()
        self._apply(["leave", node], lambda s: s.leave(node))
        self.events.append(ScenarioEvent(round=clock, kind="leave", node=node))
        self.dirty = True

    def move(self, node: int, x: float, y: float) -> None:
        node = int(node)
        x, y = float(x), float(y)
        clock = self.common_clock()
        self._apply(["move", node, x, y], lambda s: s.move(node, x, y))
        self.events.append(
            ScenarioEvent(round=clock, kind="move", node=node, x=x, y=y)
        )
        self.dirty = True

    def checkpoint(self, kind: str, delay: int = 0) -> None:
        """Run a maintenance cycle on every backend.

        ``delay > 0`` schedules the checkpoint ``delay`` rounds past the
        current clock, exercising the idle-to-round path (the kernel
        ticks to the target on every backend before repairing).
        """
        if kind not in CHECKPOINT_KINDS:
            raise ProtocolError(f"unknown checkpoint kind {kind!r}")
        delay = int(delay)
        if delay < 0:
            raise ProtocolError(f"checkpoint delay must be >= 0, got {delay}")
        at = self.common_clock() + delay
        self._apply(
            ["checkpoint", kind, delay], lambda s: s.checkpoint(kind, at_round=at)
        )
        self.events.append(ScenarioEvent(round=at, kind=kind))
        self.dirty = False

    def finish(self) -> None:
        """Flush pending events through a final repair, then check."""
        if self.finished:
            return
        self.ops.append(["finish"])
        try:
            if self.dirty:
                at = self.common_clock()
                for s in self.scheds:
                    s.checkpoint("repair", at_round=at)
                self.events.append(ScenarioEvent(round=at, kind="repair"))
                self.dirty = False
            self.finished = True
            self.check_alignment()
            self.check_final()
        except Exception as exc:
            raise self._fail(exc)

    # -- endgame invariants ---------------------------------------------------

    def check_final(self) -> None:
        ref = self.ref
        for i, s in enumerate(self.scheds[1:], start=1):
            a, b = ref.stats(), s.stats()
            mismatched = [
                name
                for name, x, y in (
                    ("energy_total", a.energy_total, b.energy_total),
                    ("messages_total", a.messages_total, b.messages_total),
                    ("rounds", a.rounds, b.rounds),
                    ("messages_by_kind", a.messages_by_kind, b.messages_by_kind),
                )
                if x != y
            ]
            if mismatched:
                raise ProtocolError(
                    f"backend stats diverged ({self._label(0)} vs "
                    f"{self._label(i)}): " + ", ".join(mismatched)
                )
        self._check_spanning_forest()

    def _check_spanning_forest(self) -> None:
        """The final tree spans each component of the final alive RGG."""
        ref = self.ref
        ids = ref.alive_ids()
        m = int(ids.size)
        g2l = {int(g): i for i, g in enumerate(ids)}
        r = connectivity_radius(max(m, 2), ref.radius_const)
        tree = ref.tree
        pos = ref.positions
        for u, v in tree:
            u, v = int(u), int(v)
            if u not in g2l or v not in g2l:
                raise ProtocolError(f"tree edge ({u}, {v}) touches a dead node")
            if float(np.hypot(*(pos[u] - pos[v]))) > r * (1 + 1e-12):
                raise ProtocolError(
                    f"tree edge ({u}, {v}) is longer than the operating radius"
                )
        g = build_rgg(pos[ids], r)
        uf_rgg = UnionFind(m)
        for u, v in np.asarray(g.edges):
            uf_rgg.union(int(u), int(v))
        uf_tree = UnionFind(m)
        for u, v in tree:
            uf_tree.union(g2l[int(u)], g2l[int(v)])
        components = len({uf_rgg.find(i) for i in range(m)})
        if len(tree) != m - components:
            raise ProtocolError(
                f"tree has {len(tree)} edges over {m} alive nodes but the "
                f"RGG has {components} component(s): not a spanning forest"
            )
        parts_rgg = {}
        parts_tree = {}
        for i in range(m):
            parts_rgg.setdefault(uf_rgg.find(i), set()).add(i)
            parts_tree.setdefault(uf_tree.find(i), set()).add(i)
        if sorted(map(sorted, parts_rgg.values())) != sorted(
            map(sorted, parts_tree.values())
        ):
            raise ProtocolError(
                "tree connectivity partition differs from the RGG's "
                "(some component is split or bridged)"
            )

    # -- artifacts ------------------------------------------------------------

    def to_runspec(self):
        """The declarative artifact: a MAINT spec with the recorded plan.

        Event rounds are the common global clock at firing time, which is
        monotone, so the recorded list is a valid (non-decreasing) plan;
        replaying it through ``run_plan`` applies the same mutations at
        the same checkpoints.
        """
        from repro.runspec.spec import RunSpec
        from repro.scenario.plan import ScenarioPlan

        return RunSpec(
            algorithm="MAINT",
            n=self.n,
            seed=self.seed,
            kernel="fast",
            planes=True,
            scenario=ScenarioPlan(events=tuple(self.events)),
        )

    def to_scenario(self) -> dict:
        """Exact-replay payload for the corpus (see repro.fuzz.corpus)."""
        return {
            "schema_version": 1,
            "kind": "fuzz_scenario",
            "machine": "maint",
            "params": {"n": self.n, "seed": self.seed},
            "ops": [list(op) for op in self.ops],
        }
