"""Frozen, hashable scenario plans: timed event schedules over a run.

A :class:`ScenarioPlan` is the scenario-plane twin of
:class:`~repro.sim.faults.FaultPlan`: a frozen value object that lives
inside a ``RunSpec``, serializes to canonical JSON, and therefore hashes
into ``spec_hash``/``result_key``.  It is pure data — interpretation
belongs to :class:`~repro.scenario.scheduler.ScenarioScheduler`.

Event model
-----------

Each :class:`ScenarioEvent` carries a ``round`` (a *minimum* global
round at which it may take effect), a ``kind``, and kind-specific
payload fields:

``crash``
    Node ``node`` fails.  ``duration is None`` means permanent;
    ``duration >= 1`` means the node is down for that many rounds from
    the start of the next maintenance cycle and then recovers
    (exercising the reliable-retry layer + ``GHSRecovery``).
``join``
    A brand-new node appears at ``(x, y)`` in the unit square.  Ids are
    assigned deterministically: the j-th join in the plan becomes node
    ``n0 + j`` where ``n0`` is the initial instance size.
``leave``
    Node ``node`` departs gracefully (same world effect as a permanent
    crash, but recorded separately in the ledger/trace).
``move``
    Node ``node`` relocates to ``(x, y)`` — one waypoint step of the
    mobility model.
``repair`` / ``rebuild``
    Maintenance checkpoints: all pending events are applied to the
    world, then the spanning structure is reconnected incrementally
    from the surviving forest (``repair``) or recomputed from scratch
    (``rebuild``).  A plan whose trailing events lack a checkpoint gets
    an implicit final ``repair``.

Rounds must be non-decreasing so that equal schedules have equal
canonical encodings (hash stability).  Fields that a kind does not use
must hold their defaults — again so that one semantic schedule has
exactly one encoding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import ExperimentError

SCHEMA_VERSION = 1

#: Recognized event kinds, in canonical order.
EVENT_KINDS = ("crash", "join", "leave", "move", "repair", "rebuild")

#: Kinds that are maintenance checkpoints rather than world mutations.
CHECKPOINT_KINDS = ("repair", "rebuild")


@dataclass(frozen=True)
class ScenarioEvent:
    """One timed event.  See the module docstring for the kind table."""

    round: int
    kind: str
    node: int = -1
    x: float = 0.0
    y: float = 0.0
    duration: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.round, int) or isinstance(self.round, bool):
            raise ExperimentError(f"event round must be an int, got {self.round!r}")
        if self.round < 0:
            raise ExperimentError(f"event round must be >= 0, got {self.round}")
        if self.kind not in EVENT_KINDS:
            raise ExperimentError(
                f"unknown event kind {self.kind!r}; expected one of {EVENT_KINDS}"
            )
        if not isinstance(self.node, int) or isinstance(self.node, bool):
            raise ExperimentError(f"event node must be an int, got {self.node!r}")
        needs_node = self.kind in ("crash", "leave", "move")
        if needs_node and self.node < 0:
            raise ExperimentError(f"{self.kind} event needs node >= 0, got {self.node}")
        if not needs_node and self.node != -1:
            raise ExperimentError(
                f"{self.kind} event must leave node at -1, got {self.node}"
            )
        has_pos = self.kind in ("join", "move")
        for name, v in (("x", self.x), ("y", self.y)):
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ExperimentError(f"event {name} must be a number, got {v!r}")
            if has_pos and not 0.0 <= float(v) <= 1.0:
                raise ExperimentError(
                    f"{self.kind} event {name}={v!r} outside the unit square"
                )
            if not has_pos and float(v) != 0.0:
                raise ExperimentError(
                    f"{self.kind} event must leave {name} at 0.0, got {v!r}"
                )
        if self.duration is not None:
            if self.kind != "crash":
                raise ExperimentError(f"{self.kind} event cannot carry a duration")
            if not isinstance(self.duration, int) or isinstance(self.duration, bool):
                raise ExperimentError(
                    f"crash duration must be an int or None, got {self.duration!r}"
                )
            if self.duration < 1:
                raise ExperimentError(
                    f"transient crash duration must be >= 1, got {self.duration}"
                )
        # Canonicalize x/y to float so (0 vs 0.0) cannot split the hash.
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))

    def to_row(self) -> list:
        """Compact row encoding: ``[round, kind, node, x, y, duration]``."""
        return [self.round, self.kind, self.node, self.x, self.y, self.duration]

    @classmethod
    def from_row(cls, row) -> "ScenarioEvent":
        if not isinstance(row, (list, tuple)) or len(row) != 6:
            raise ExperimentError(f"scenario event row must have 6 fields, got {row!r}")
        rnd, kind, node, x, y, duration = row
        return cls(round=rnd, kind=kind, node=node, x=x, y=y, duration=duration)


@dataclass(frozen=True)
class ScenarioPlan:
    """An ordered, frozen schedule of :class:`ScenarioEvent`\\ s."""

    events: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        events = tuple(self.events)
        prev = 0
        for ev in events:
            if not isinstance(ev, ScenarioEvent):
                raise ExperimentError(
                    f"ScenarioPlan events must be ScenarioEvent, got {type(ev).__name__}"
                )
            if ev.round < prev:
                raise ExperimentError(
                    "scenario events must have non-decreasing rounds "
                    f"(round {ev.round} after {prev})"
                )
            prev = ev.round
        object.__setattr__(self, "events", events)

    @property
    def is_null(self) -> bool:
        """True when the plan schedules nothing."""
        return not self.events

    def max_node(self) -> int:
        """Largest node id referenced by any event (-1 if none)."""
        return max((ev.node for ev in self.events), default=-1)

    # ---------------------------------------------------------------- JSON

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "scenario_plan",
            "events": [ev.to_row() for ev in self.events],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioPlan":
        if not isinstance(payload, dict):
            raise ExperimentError(f"scenario plan payload must be a dict, got {payload!r}")
        data = dict(payload)
        version = data.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ExperimentError(f"unsupported scenario_plan schema_version {version!r}")
        kind = data.pop("kind", "scenario_plan")
        if kind != "scenario_plan":
            raise ExperimentError(f"expected kind 'scenario_plan', got {kind!r}")
        rows = data.pop("events", [])
        if data:
            raise ExperimentError(
                f"unknown scenario_plan fields: {sorted(data.keys())}"
            )
        if not isinstance(rows, (list, tuple)):
            raise ExperimentError("scenario_plan events must be a list of rows")
        return cls(events=tuple(ScenarioEvent.from_row(row) for row in rows))

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioPlan":
        return cls.from_dict(json.loads(text))


def scenarioplan_to_dict(plan: "ScenarioPlan | None") -> dict | None:
    """Serialize for embedding in a RunSpec payload (None passes through)."""
    if plan is None:
        return None
    return plan.to_dict()


def scenarioplan_from_dict(payload) -> "ScenarioPlan | None":
    """Inverse of :func:`scenarioplan_to_dict` (idempotent on plans/None)."""
    if payload is None or isinstance(payload, ScenarioPlan):
        return payload
    return ScenarioPlan.from_dict(payload)
