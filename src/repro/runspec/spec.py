"""Declarative run descriptions: :class:`RunSpec` and JSON helpers.

A :class:`RunSpec` is a frozen, JSON-round-trippable value describing one
algorithm run completely: algorithm label, instance coordinates
``(n, seed)``, the paper's radii constants, kernel mode flags, an
optional :class:`~repro.sim.faults.FaultPlan`, and the perf/trace
instrumentation switches.  Because a spec is *data*, not call-site code,
a run request can be saved, diffed, queued, shipped to another process or
host, and replayed — the precondition for sharded multi-host sweeps.

:func:`jsonable` is the one canonical normalizer from numpy-contaminated
result payloads (``AlgorithmResult.extras`` and friends) to plain JSON
types; every writer in :mod:`repro.experiments.io` and
:mod:`repro.runspec.report` goes through it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Any

import numpy as np

from repro.errors import ExperimentError
from repro.geometry.radius import PAPER_EOPT_STEP1_CONST, PAPER_GHS_RADIUS_CONST
from repro.scenario.plan import ScenarioPlan, scenarioplan_from_dict, scenarioplan_to_dict
from repro.sim.backends import canonical_kernel
from repro.sim.faults import FaultPlan

__all__ = [
    "SCHEMA_VERSION",
    "KERNEL_MODES",
    "RunSpec",
    "jsonable",
    "kernel_class",
    "faultplan_to_dict",
    "faultplan_from_dict",
    "scenarioplan_to_dict",
    "scenarioplan_from_dict",
]

#: Schema stamp written into every spec / report / sweep JSON payload.
SCHEMA_VERSION = 1


def _kernel_modes() -> tuple[str, ...]:
    """Registered kernel modes (lazy: the registry imports kernel modules)."""
    from repro.sim.backends import kernel_names

    return kernel_names()


class _KernelModes(tuple):
    """A tuple view over the kernel registry, resolved on first use.

    ``KERNEL_MODES`` predates the registry and is imported by the CLI and
    external callers as a plain tuple (argparse choices, membership
    tests).  Keeping the name while sourcing it from
    :mod:`repro.sim.backends` needs one indirection: this subclass defers
    the registry import until the tuple is actually *used*, so importing
    :mod:`repro.runspec.spec` stays cheap.
    """

    _resolved: tuple[str, ...] | None = None

    @classmethod
    def _get(cls) -> tuple[str, ...]:
        if cls._resolved is None:
            cls._resolved = _kernel_modes()
        return cls._resolved

    def __iter__(self):
        return iter(self._get())

    def __len__(self):
        return len(self._get())

    def __getitem__(self, i):
        return self._get()[i]

    def __contains__(self, item):
        return item in self._get()

    def __eq__(self, other):
        return self._get() == other

    def __ne__(self, other):
        return self._get() != other

    def __hash__(self):
        return hash(self._get())

    def __repr__(self):
        return repr(self._get())


#: Registered kernel implementations, in registry order: the optimized
#: kernel and the frozen pre-optimization reference (benchmarks only).
#: Sourced from the kernel-backend registry (:mod:`repro.sim.backends`);
#: resolves lazily on first use.  Aliases (``"turbo"``) are accepted by
#: :class:`RunSpec` but not listed here.
KERNEL_MODES = _KernelModes()


def jsonable(obj: Any) -> Any:
    """Normalize ``obj`` to plain JSON-serializable Python types.

    Handles the numpy leakage every runner produces: scalars
    (``np.int64``/``np.float64``/``np.bool_``), arrays (to nested lists),
    containers (dicts, lists, tuples, sets) and non-string dict keys.
    Anything already JSON-native passes through unchanged.
    """
    if isinstance(obj, dict):
        return {_json_key(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _canonical_hash(data: dict) -> str:
    """sha256 hex digest of ``data`` rendered as canonical JSON.

    Canonical = sorted keys, compact separators: the rendering is unique
    for a given payload, so the digest is a content address.
    """
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _json_key(key: Any) -> Any:
    """Dict keys: numpy scalars become native so ``json.dumps`` accepts them."""
    if isinstance(key, np.bool_):
        return bool(key)
    if isinstance(key, np.generic):
        return key.item()
    return key


def kernel_class(mode: str):
    """Resolve a kernel-mode label via the kernel-backend registry.

    Kept as a public re-export (callers predate the registry); unknown
    labels raise with the registered names listed.
    """
    from repro.sim.backends import kernel_class as _kernel_class

    return _kernel_class(mode)


def faultplan_to_dict(plan: FaultPlan | None) -> dict | None:
    """Serialize a :class:`FaultPlan` to plain JSON data (``None`` passes)."""
    if plan is None:
        return None
    return {
        "seed": plan.seed,
        "drop_rate": plan.drop_rate,
        "dup_rate": plan.dup_rate,
        "link_loss": [[int(u), int(v), p] for (u, v), p in plan.link_loss],
        "crashes": [
            [node, start, end] for node, start, end in plan.crashes
        ],
    }


def faultplan_from_dict(data: dict | None) -> FaultPlan | None:
    """Inverse of :func:`faultplan_to_dict`."""
    if data is None:
        return None
    try:
        return FaultPlan(
            seed=int(data.get("seed", 0)),
            drop_rate=float(data.get("drop_rate", 0.0)),
            dup_rate=float(data.get("dup_rate", 0.0)),
            link_loss=tuple(
                ((int(u), int(v)), float(p)) for u, v, p in data.get("link_loss", ())
            ),
            crashes=tuple(
                (node, start, end) for node, start, end in data.get("crashes", ())
            ),
        )
    except (TypeError, ValueError) as exc:
        raise ExperimentError(f"malformed fault plan payload: {exc}") from exc


@dataclass(frozen=True)
class RunSpec:
    """One declarative run request.

    Attributes
    ----------
    algorithm:
        Registered algorithm label (see :mod:`repro.runspec.registry`).
    n / seed:
        Instance coordinates: the uniform point set is
        ``uniform_points(n, seed=seed)`` via the shared per-process cache.
    ghs_radius_const / eopt_c1 / eopt_c2 / eopt_beta:
        The paper's experimental constants (Sec. VII); only the ones an
        algorithm consumes matter to it.
    rx_cost:
        Optional constant reception cost (Sec. VIII extension).
    kernel:
        A registered kernel mode: ``"fast"`` (default: the optimized
        kernel, whole-round phase engine included) or ``"legacy"`` (the
        frozen pre-optimization reference used by equivalence
        benchmarks).  The alias ``"turbo"`` is accepted and stored as
        ``"fast"``, so both labels share one ``spec_hash``.
    planes:
        Flood-plane fast path for HELLO/ANNOUNCE (bit-identical either way).
    recover:
        Enable the reliable-unicast recovery layer when faults are injected.
    faults:
        Optional seeded :class:`~repro.sim.faults.FaultPlan`.
    scenario:
        Optional :class:`~repro.scenario.plan.ScenarioPlan` — a timed
        event schedule (churn/mobility/maintenance checkpoints) for
        algorithms that support the scenario plane (currently
        ``MAINT``).  Serialized inside the spec payload and therefore
        part of ``spec_hash``/``result_key``; omitted entirely when
        ``None`` so scenario-free specs keep their historical hashes.
    perf / trace:
        Instrumentation: when set, :func:`repro.runspec.engine.execute`
        records an isolated perf/trace snapshot into the returned
        :class:`~repro.runspec.report.RunReport`.
    """

    algorithm: str
    n: int
    seed: int = 0
    ghs_radius_const: float = PAPER_GHS_RADIUS_CONST
    eopt_c1: float = PAPER_EOPT_STEP1_CONST
    eopt_c2: float = PAPER_GHS_RADIUS_CONST
    eopt_beta: float = 1.0
    rx_cost: float = 0.0
    kernel: str = "fast"
    planes: bool = True
    recover: bool = True
    faults: FaultPlan | None = field(default=None)
    scenario: ScenarioPlan | None = field(default=None)
    perf: bool = False
    trace: bool = False

    def __post_init__(self) -> None:
        if not self.algorithm:
            raise ExperimentError("spec needs an algorithm label")
        if self.n < 2:
            raise ExperimentError(f"spec needs n >= 2, got {self.n}")
        object.__setattr__(self, "kernel", canonical_kernel(self.kernel))
        if self.kernel not in KERNEL_MODES:
            raise ExperimentError(
                f"unknown kernel mode {self.kernel!r}; registered kernels: "
                + ", ".join(KERNEL_MODES)
            )
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ExperimentError(
                f"faults must be a FaultPlan or None, got {type(self.faults).__name__}"
            )
        if self.scenario is not None and not isinstance(self.scenario, ScenarioPlan):
            raise ExperimentError(
                "scenario must be a ScenarioPlan or None, got "
                f"{type(self.scenario).__name__}"
            )

    # -- derived -------------------------------------------------------------

    @property
    def cell(self) -> str:
        """The sweep-cell key this spec occupies (trace source stamp)."""
        return f"{self.algorithm}:n{self.n}:s{self.seed}"

    def spec_hash(self) -> str:
        """Content address of this spec: sha256 over the canonical JSON dict.

        Two specs hash equal iff they are equal (the dict is the full
        field set, the JSON rendering is canonical — sorted keys, no
        whitespace — and the ``schema_version`` stamp is part of the
        hashed payload, so a schema bump can never alias an old key).
        """
        return _canonical_hash(self.to_dict())

    def result_key(self) -> str:
        """Content address of this spec's *result*.

        Like :meth:`spec_hash` but with the perf/trace instrumentation
        switches excluded: instrumentation observes a run without
        changing its outcome, so an instrumented and a bare run of the
        same configuration share one
        :class:`~repro.store.ResultStore` entry.
        """
        data = self.to_dict()
        del data["perf"], data["trace"]
        return _canonical_hash(data)

    def with_(self, **changes: Any) -> "RunSpec":
        """A copy with ``changes`` applied (frozen-dataclass ``replace``)."""
        return replace(self, **changes)

    # -- JSON round trip -----------------------------------------------------

    def to_dict(self) -> dict:
        """Plain JSON-serializable payload (inverse: :meth:`from_dict`).

        The ``scenario`` key is present only when a plan is attached:
        scenario-free specs must keep the exact payload (and therefore
        ``spec_hash``/``result_key``) they had before the scenario plane
        existed, so stored reports and caches stay addressable.
        """
        data = {
            "schema_version": SCHEMA_VERSION,
            "kind": "run_spec",
            "algorithm": self.algorithm,
            "n": self.n,
            "seed": self.seed,
            "ghs_radius_const": self.ghs_radius_const,
            "eopt_c1": self.eopt_c1,
            "eopt_c2": self.eopt_c2,
            "eopt_beta": self.eopt_beta,
            "rx_cost": self.rx_cost,
            "kernel": self.kernel,
            "planes": self.planes,
            "recover": self.recover,
            "faults": faultplan_to_dict(self.faults),
            "perf": self.perf,
            "trace": self.trace,
        }
        if self.scenario is not None:
            data["scenario"] = scenarioplan_to_dict(self.scenario)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        """Rebuild a spec from :meth:`to_dict` output (strict: typos fail)."""
        if not isinstance(data, dict):
            raise ExperimentError(f"run spec payload must be an object, got {type(data).__name__}")
        kind = data.get("kind", "run_spec")
        if kind != "run_spec":
            raise ExperimentError(f"not a run_spec payload: {kind!r}")
        version = data.get("schema_version", data.get("schema", SCHEMA_VERSION))
        if version != SCHEMA_VERSION:
            raise ExperimentError(f"unsupported run_spec schema version {version!r}")
        known = {f.name for f in fields(cls)}
        payload = {
            k: v for k, v in data.items() if k not in ("schema_version", "schema", "kind")
        }
        unknown = set(payload) - known
        if unknown:
            raise ExperimentError(
                f"run_spec payload has unknown fields: {sorted(unknown)}"
            )
        if "algorithm" not in payload or "n" not in payload:
            raise ExperimentError("run_spec payload needs 'algorithm' and 'n'")
        payload["faults"] = faultplan_from_dict(payload.get("faults"))
        payload["scenario"] = scenarioplan_from_dict(payload.get("scenario"))
        return cls(**payload)

    def to_json(self, *, indent: int | None = 1) -> str:
        """The spec as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        """Inverse of :meth:`to_json`."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ExperimentError(f"run spec is not valid JSON: {exc}") from exc
        return cls.from_dict(data)
