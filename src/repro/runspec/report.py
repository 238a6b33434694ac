"""The run-report side of the engine: results plus instrumentation.

A :class:`RunReport` bundles everything one executed
:class:`~repro.runspec.spec.RunSpec` produced: the
:class:`~repro.algorithms.base.AlgorithmResult` (tree + full statistics),
the isolated ``repro.perf`` snapshot and ``repro.trace`` event stream
(when the spec asked for them), and the fault-plane outcome table.  Like
the spec, a report is JSON-round-trippable, so a run's complete record
can be archived, diffed against a golden, or shipped back from a worker
on another host.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.algorithms.base import AlgorithmResult
from repro.errors import ExperimentError
from repro.runspec.spec import SCHEMA_VERSION, RunSpec, _canonical_hash, jsonable
from repro.sim.energy import SimStats

__all__ = ["RunReport", "result_to_dict", "result_from_dict"]


def result_to_dict(result: AlgorithmResult) -> dict:
    """Serialize one algorithm run (tree + stats) to plain JSON data."""
    s = result.stats
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "algorithm_result",
        "name": result.name,
        "n": result.n,
        "phases": result.phases,
        "tree_edges": result.tree_edges.tolist(),
        "extras": jsonable(result.extras),
        "stats": {
            "energy_total": s.energy_total,
            "messages_total": int(s.messages_total),
            "rounds": int(s.rounds),
            "energy_by_kind": jsonable(s.energy_by_kind),
            "messages_by_kind": jsonable(s.messages_by_kind),
            "energy_by_stage": jsonable(s.energy_by_stage),
            "messages_by_stage": jsonable(s.messages_by_stage),
            "energy_by_node": s.energy_by_node.tolist(),
            "rx_energy_total": s.rx_energy_total,
            "receptions_total": int(s.receptions_total),
            "rx_energy_by_node": s.rx_energy_by_node.tolist(),
            "drops_by_kind": jsonable(s.drops_by_kind),
            "dup_deliveries_by_kind": jsonable(s.dup_deliveries_by_kind),
            "crash_drops_by_kind": jsonable(s.crash_drops_by_kind),
        },
    }


def result_from_dict(data: dict) -> AlgorithmResult:
    """Inverse of :func:`result_to_dict`."""
    if data.get("kind") != "algorithm_result":
        raise ExperimentError(
            f"not an algorithm_result payload: {data.get('kind')!r}"
        )
    s = data["stats"]
    stats = SimStats(
        energy_total=float(s["energy_total"]),
        messages_total=int(s["messages_total"]),
        rounds=int(s["rounds"]),
        energy_by_kind=dict(s.get("energy_by_kind", {})),
        messages_by_kind=dict(s.get("messages_by_kind", {})),
        energy_by_stage=dict(s.get("energy_by_stage", {})),
        messages_by_stage=dict(s.get("messages_by_stage", {})),
        energy_by_node=np.asarray(s.get("energy_by_node", ()), dtype=float),
        rx_energy_total=float(s.get("rx_energy_total", 0.0)),
        receptions_total=int(s.get("receptions_total", 0)),
        rx_energy_by_node=np.asarray(s.get("rx_energy_by_node", ()), dtype=float),
        drops_by_kind=dict(s.get("drops_by_kind", {})),
        dup_deliveries_by_kind=dict(s.get("dup_deliveries_by_kind", {})),
        crash_drops_by_kind=dict(s.get("crash_drops_by_kind", {})),
    )
    edges = np.asarray(data["tree_edges"], dtype=np.int64)
    if edges.size == 0:
        edges = np.zeros((0, 2), dtype=np.int64)
    return AlgorithmResult(
        name=data["name"],
        n=int(data["n"]),
        tree_edges=edges,
        stats=stats,
        phases=int(data["phases"]),
        extras=dict(data.get("extras", {})),
    )


@dataclass(frozen=True)
class RunReport:
    """Everything one executed spec produced.

    Attributes
    ----------
    spec:
        The spec that was executed (instance coordinates included, so the
        report is self-describing and replayable).
    result:
        The runner's :class:`~repro.algorithms.base.AlgorithmResult`.
    perf:
        Isolated :meth:`repro.perf.PerfRegistry.snapshot` of the run, or
        ``None`` when ``spec.perf`` was off.
    trace:
        Isolated :meth:`repro.trace.TraceRegistry.snapshot` event list,
        or ``None`` when ``spec.trace`` was off.
    """

    spec: RunSpec
    result: AlgorithmResult
    perf: dict | None = None
    trace: list[dict] | None = None

    # -- headline stats (the sweep tensors are built from these) -------------

    @property
    def energy(self) -> float:
        return self.result.energy

    @property
    def messages(self) -> int:
        return self.result.messages

    @property
    def rounds(self) -> int:
        return self.result.rounds

    def fault_table(self) -> list[tuple[str, int, int, int]]:
        """The fault-plane outcome rows (empty when faults never engaged)."""
        return self.result.stats.fault_table()

    # -- JSON round trip -----------------------------------------------------

    def to_dict(self) -> dict:
        """Plain JSON-serializable payload (inverse: :meth:`from_dict`).

        ``spec_hash`` is stamped in (derived from the spec, so the
        payload stays a pure function of the report's contents): a
        stored payload and a freshly computed one are diffable by key
        without re-deriving the hash.
        """
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "run_report",
            "spec_hash": self.spec.spec_hash(),
            "spec": self.spec.to_dict(),
            "result": result_to_dict(self.result),
            "perf": self.perf,
            "trace": self.trace,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        """Rebuild a report from :meth:`to_dict` output."""
        if data.get("kind") != "run_report":
            raise ExperimentError(f"not a run_report payload: {data.get('kind')!r}")
        version = data.get("schema_version", data.get("schema"))
        if version != SCHEMA_VERSION:
            raise ExperimentError(f"unsupported run_report schema version {version!r}")
        spec = RunSpec.from_dict(data["spec"])
        stamp = data.get("spec_hash")
        # The stamp addresses the payload as written: a spec stored under
        # a kernel alias (``"turbo"``) loads as its canonical spec.
        if stamp is not None and stamp != _canonical_hash(data["spec"]):
            raise ExperimentError(
                "run_report spec_hash stamp does not match its spec payload"
            )
        return cls(
            spec=spec,
            result=result_from_dict(data["result"]),
            perf=data.get("perf"),
            trace=data.get("trace"),
        )

    def to_json(self, *, indent: int | None = 1) -> str:
        """The report as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        """Inverse of :meth:`to_json`."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ExperimentError(f"run report is not valid JSON: {exc}") from exc
        return cls.from_dict(data)
