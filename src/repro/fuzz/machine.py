"""Hypothesis state machines over the fuzz worlds, plus the entry point.

Four machines:

* :class:`GHSFuzzMachine` — one :class:`~repro.fuzz.world.GHSFuzzWorld`
  per example: advance by partial rounds, open transient crash windows,
  move the power cap, finish; the world checks backend lockstep after
  every rule and the full endgame (cross-backend trees/stats, oracle
  MST, state audit, fate determinism) at finish.
* :class:`RetryFuzzMachine` — one :class:`~repro.fuzz.retry_world.
  RetryFuzzWorld`: reliable sends, adversarial retry ticks, transient
  and permanent crashes, then a ``drain_reliable`` settle whose
  invariants are the reliable layer's contract.
* :class:`ConntFuzzMachine` — one :class:`~repro.fuzz.connt_world.
  ConntRetryWorld`: the same reliable layer embedded in real Co-NNT
  REPLY/CONNECTION traffic, phase steps interleaved with crash windows
  and retry bursts, finishing through the runner's stranded re-probe.
* :class:`MaintFuzzMachine` — one :class:`~repro.fuzz.maint_world.
  ScenarioFuzzWorld`: scenario-plane churn (crash/join/leave/move
  events punctuated by repair/rebuild checkpoints) driven across every
  backend; fault-free cycles run the whole-round phase engine in
  lockstep with the scalar paths, closing the harness's deliberate
  scalar-only gap.

When a sequence fails, hypothesis shrinks it to a minimal rule list;
:func:`run_fuzz` then exports the shrunk world as a replayable scenario
+ RunSpec + trace-diff report via :mod:`repro.fuzz.repro_export`.

Determinism: profiles run with ``derandomize=True`` (CI never flakes);
``--seed`` varies the explored scenarios anyway because the machine's
``SEED_OFFSET`` is mixed into every drawn instance/fault seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.fuzz import strategies as fst
from repro.fuzz.connt_world import ConntRetryWorld
from repro.fuzz.maint_world import ScenarioFuzzWorld
from repro.fuzz.retry_world import RetryFuzzWorld
from repro.fuzz.world import GHSFuzzWorld

__all__ = [
    "GHSFuzzMachine",
    "RetryFuzzMachine",
    "ConntFuzzMachine",
    "MaintFuzzMachine",
    "FuzzOutcome",
    "make_machine",
    "fuzz_settings",
    "run_fuzz",
]

#: The world of the most recently torn-down example — after a failing
#: run this is the *shrunk* counterexample, ready for export.
_LAST: dict = {"world": None}


def fuzz_settings(*, examples: int, steps: int, derandomize: bool = True) -> settings:
    """The fixed fuzz profile: bounded, deadline-free, deterministic."""
    return settings(
        max_examples=int(examples),
        stateful_step_count=int(steps),
        deadline=None,
        derandomize=derandomize,
        suppress_health_check=list(HealthCheck),
    )


class GHSFuzzMachine(RuleBasedStateMachine):
    SEED_OFFSET = 0
    CONFIGS = None  # None -> every registered backend configuration

    def __init__(self) -> None:
        super().__init__()
        self.world: GHSFuzzWorld | None = None

    def _running(self) -> bool:
        w = self.world
        return w is not None and not w.finished and not w.failed

    @initialize(params=fst.ghs_instances)
    def init(self, params):
        n = params["n"]
        kwargs = dict(
            n=n,
            seed=(params["seed"] + 10 * self.SEED_OFFSET) % 1000,
            algorithm=params["algorithm"],
            fault_seed=(params["fault_seed"] + 1000 * self.SEED_OFFSET) % 100_000,
            drop_rate=params["drop_rate"],
            dup_rate=params["dup_rate"],
            link_loss=tuple(
                ((u % n, v % n), p)
                for (u, v), p in params["link_loss"]
                if u % n != v % n
            ),
            dead_nodes=tuple({d % n for d in params["dead_nodes"]}),
            cap_slack=params["cap_slack"],
        )
        if self.CONFIGS is not None:
            kwargs["configs"] = self.CONFIGS
        self.world = GHSFuzzWorld(**kwargs)
        _LAST["world"] = self.world

    # No precondition beyond "example is alive": hypothesis needs at
    # least one enabled rule at every step, including after finish.
    @precondition(lambda self: self.world is not None and not self.world.failed)
    @rule(steps=st.integers(1, 40))
    def advance(self, steps):
        if not self.world.finished:
            self.world.advance(steps)

    @precondition(
        lambda self: self._running()
        and self.world.plan is not None
        and len(self.world.crashed_nodes) < self.world.n - 2
    )
    @rule(data=st.data(), duration=st.integers(1, 25))
    def crash(self, data, duration):
        candidates = [
            i for i in range(self.world.n) if i not in self.world.crashed_nodes
        ]
        node = data.draw(st.sampled_from(candidates), label="crash_node")
        self.world.crash(node, duration)

    @precondition(lambda self: self._running() and self.world.cap_slack > 1.0)
    @rule(frac=st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    def set_cap(self, frac):
        self.world.set_cap(frac)

    @precondition(_running)
    @rule()
    def finish(self):
        self.world.finish()

    @invariant()
    def backends_aligned(self):
        w = getattr(self, "world", None)
        if w is not None and not w.finished and not w.failed:
            w.check_alignment()

    def teardown(self):
        w = self.world
        try:
            # Every passing example must reach the endgame invariants; a
            # failed one must not mask its error with a second failure.
            if w is not None and not w.failed and not w.finished:
                w.finish()
        finally:
            _LAST["world"] = w


class RetryFuzzMachine(RuleBasedStateMachine):
    SEED_OFFSET = 0

    def __init__(self) -> None:
        super().__init__()
        self.world: RetryFuzzWorld | None = None

    def _running(self) -> bool:
        w = self.world
        return w is not None and not w.failed

    @initialize(params=fst.retry_instances)
    def init(self, params):
        n = params["n"]
        crashes = []
        if params["dead_node"] is not None:
            crashes.append((params["dead_node"] % n, 0, None))
        if params["window"] is not None:
            node, start, dur = params["window"]
            node %= n
            if all(c[0] != node for c in crashes):
                crashes.append((node, start, start + dur))
        self.world = RetryFuzzWorld(
            n=n,
            fault_seed=(params["fault_seed"] + 1000 * self.SEED_OFFSET) % 100_000,
            drop_rate=params["drop_rate"],
            dup_rate=params["dup_rate"],
            link_loss=tuple(
                ((u % n, v % n), p)
                for (u, v), p in params["link_loss"]
                if u % n != v % n
            ),
            crashes=tuple(crashes),
        )
        _LAST["world"] = self.world

    @precondition(lambda self: self._running() and self.world.sendable_pairs())
    @rule(data=st.data())
    def send(self, data):
        pair = data.draw(
            st.sampled_from(self.world.sendable_pairs()), label="send_pair"
        )
        self.world.send(*pair)

    @precondition(_running)
    @rule(k=st.integers(1, 12))
    def run_rounds(self, k):
        self.world.run_rounds(k)

    @precondition(_running)
    @rule()
    def retry_tick(self):
        self.world.retry_tick()

    @precondition(
        lambda self: self._running()
        and len(self.world.windowed) < self.world.n - 1
    )
    @rule(data=st.data(), duration=st.integers(1, 10))
    def crash(self, data, duration):
        candidates = [
            i for i in range(self.world.n) if i not in self.world.windowed
        ]
        node = data.draw(st.sampled_from(candidates), label="crash_node")
        self.world.crash(node, duration)

    @precondition(lambda self: self._running() and self._killable())
    @rule(data=st.data())
    def crash_forever(self, data):
        node = data.draw(st.sampled_from(self._killable()), label="kill_node")
        self.world.crash_forever(node)

    def _killable(self) -> list[int]:
        w = self.world
        return [
            i
            for i in range(w.n)
            if i not in w.windowed
            and len(w.windowed) < w.n - 1
            and not w.pending_to(i)
        ]

    @precondition(_running)
    @rule()
    def drain(self):
        self.world.drain()

    def teardown(self):
        w = self.world
        try:
            if w is not None and not w.failed and not w.drained:
                w.drain()
        finally:
            _LAST["world"] = w


class ConntFuzzMachine(RuleBasedStateMachine):
    SEED_OFFSET = 0

    def __init__(self) -> None:
        super().__init__()
        self.world: ConntRetryWorld | None = None

    def _running(self) -> bool:
        w = self.world
        return w is not None and not w.failed and not w.finished

    @initialize(params=fst.connt_instances)
    def init(self, params):
        n = params["n"]
        crashes = []
        if params["dead_node"] is not None:
            crashes.append((params["dead_node"] % n, 0, None))
        if params["window"] is not None:
            node, start, dur = params["window"]
            node %= n
            if all(c[0] != node for c in crashes):
                crashes.append((node, start, start + dur))
        self.world = ConntRetryWorld(
            n=n,
            seed=(params["seed"] + 10 * self.SEED_OFFSET) % 1000,
            fault_seed=(params["fault_seed"] + 1000 * self.SEED_OFFSET)
            % 100_000,
            drop_rate=params["drop_rate"],
            dup_rate=params["dup_rate"],
            link_loss=tuple(
                ((u % n, v % n), p)
                for (u, v), p in params["link_loss"]
                if u % n != v % n
            ),
            crashes=tuple(crashes),
        )
        _LAST["world"] = self.world

    # No precondition beyond "example is alive": hypothesis needs at
    # least one enabled rule at every step, including after finish.
    @precondition(lambda self: self.world is not None and not self.world.failed)
    @rule()
    def probe_step(self):
        if not self.world.finished:
            self.world.probe_step()

    @precondition(_running)
    @rule(k=st.integers(1, 10))
    def run_rounds(self, k):
        self.world.run_rounds(k)

    @precondition(_running)
    @rule()
    def retry_tick(self):
        self.world.retry_tick()

    @precondition(
        lambda self: self._running()
        and len(self.world.windowed) < self.world.n - 1
    )
    @rule(data=st.data(), duration=st.integers(1, 8))
    def crash(self, data, duration):
        candidates = [
            i for i in range(self.world.n) if i not in self.world.windowed
        ]
        node = data.draw(st.sampled_from(candidates), label="crash_node")
        self.world.crash(node, duration)

    @precondition(_running)
    @rule()
    def finish(self):
        self.world.finish()

    def teardown(self):
        w = self.world
        try:
            if w is not None and not w.failed and not w.finished:
                w.finish()
        finally:
            _LAST["world"] = w


class MaintFuzzMachine(RuleBasedStateMachine):
    SEED_OFFSET = 0
    CONFIGS = None  # None -> every registered backend configuration

    #: Scenario worlds build their initial MST up front, so instances
    #: stay small; the interesting state space is the event schedule.
    _instances = st.fixed_dictionaries(
        {"n": st.integers(8, 18), "seed": st.integers(0, 99)}
    )

    def __init__(self) -> None:
        super().__init__()
        self.world: ScenarioFuzzWorld | None = None

    def _running(self) -> bool:
        w = self.world
        return w is not None and not w.finished and not w.failed

    @initialize(params=_instances)
    def init(self, params):
        kwargs = dict(
            n=params["n"],
            seed=(params["seed"] + 10 * self.SEED_OFFSET) % 1000,
        )
        if self.CONFIGS is not None:
            kwargs["configs"] = self.CONFIGS
        self.world = ScenarioFuzzWorld(**kwargs)
        _LAST["world"] = self.world

    def _mutable(self) -> list[int]:
        """Alive nodes, only while enough remain to stay interesting."""
        w = self.world
        alive = w.alive_nodes()
        return alive if len(alive) > 5 else []

    @precondition(lambda self: self._running() and self._mutable())
    @rule(data=st.data(), duration=st.one_of(st.none(), st.integers(2, 10)))
    def crash(self, data, duration):
        node = data.draw(st.sampled_from(self._mutable()), label="crash_node")
        self.world.crash(node, duration)

    @precondition(lambda self: self._running() and self._mutable())
    @rule(data=st.data())
    def leave(self, data):
        node = data.draw(st.sampled_from(self._mutable()), label="leave_node")
        self.world.leave(node)

    @precondition(
        lambda self: self._running()
        and len(self.world.ref.positions) < self.world.n + 8
    )
    @rule(x=st.floats(0.0, 1.0), y=st.floats(0.0, 1.0))
    def join(self, x, y):
        self.world.join(x, y)

    @precondition(lambda self: self._running() and self.world.alive_nodes())
    @rule(data=st.data(), x=st.floats(0.0, 1.0), y=st.floats(0.0, 1.0))
    def move(self, data, x, y):
        node = data.draw(
            st.sampled_from(self.world.alive_nodes()), label="move_node"
        )
        self.world.move(node, x, y)

    @precondition(_running)
    @rule(
        kind=st.sampled_from(["repair", "rebuild"]),
        delay=st.integers(0, 3),
    )
    def checkpoint(self, kind, delay):
        self.world.checkpoint(kind, delay)

    # No precondition beyond "example is alive": hypothesis needs at
    # least one enabled rule at every step, including after finish
    # (world.finish is an idempotent no-op once finished).
    @precondition(lambda self: self.world is not None and not self.world.failed)
    @rule()
    def finish(self):
        self.world.finish()

    @invariant()
    def backends_aligned(self):
        w = getattr(self, "world", None)
        if w is not None and not w.finished and not w.failed:
            w.check_alignment()

    def teardown(self):
        w = self.world
        try:
            if w is not None and not w.failed and not w.finished:
                w.finish()
        finally:
            _LAST["world"] = w


_MACHINES = {
    "ghs": GHSFuzzMachine,
    "retry": RetryFuzzMachine,
    "connt": ConntFuzzMachine,
    "maint": MaintFuzzMachine,
}


def make_machine(machine: str = "ghs", *, seed: int = 0, configs=None):
    """A machine subclass with the seed offset (and configs) baked in."""
    base = _MACHINES[machine]
    attrs: dict = {"SEED_OFFSET": int(seed)}
    if configs is not None and machine in ("ghs", "maint"):
        attrs["CONFIGS"] = list(configs)
    return type(f"{base.__name__}_seed{seed}", (base,), attrs)


@dataclass
class FuzzOutcome:
    """Result of one :func:`run_fuzz` campaign."""

    machine: str
    ok: bool
    error: str | None = None
    artifacts: dict = field(default_factory=dict)


def run_fuzz(
    machine: str = "ghs",
    *,
    examples: int = 20,
    steps: int = 30,
    seed: int = 0,
    export_dir=None,
) -> FuzzOutcome:
    """Run one fuzz campaign; on failure, export the shrunk scenario.

    Never raises for a found counterexample — the failure (with artifact
    paths, when ``export_dir`` is given) comes back in the outcome so
    the CLI can render it and exit nonzero.
    """
    if machine not in _MACHINES:
        raise ValueError(f"unknown fuzz machine {machine!r}")
    cls = make_machine(machine, seed=seed)
    _LAST["world"] = None
    try:
        run_state_machine_as_test(
            cls, settings=fuzz_settings(examples=examples, steps=steps)
        )
    except Exception as exc:  # the shrunk counterexample
        artifacts = {}
        world = _LAST.get("world")
        if export_dir is not None and world is not None:
            from repro.fuzz.repro_export import export_failure

            try:
                artifacts = export_failure(world, error=exc, outdir=export_dir)
            except Exception as export_exc:  # never mask the finding
                artifacts = {"export_error": str(export_exc)}
        return FuzzOutcome(
            machine=machine,
            ok=False,
            error=f"{type(exc).__name__}: {exc}",
            artifacts=artifacts,
        )
    return FuzzOutcome(machine=machine, ok=True)
