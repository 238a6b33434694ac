"""Seeded sweep execution on top of the runspec engine.

An algorithm label resolves through the algorithm registry
(:mod:`repro.runspec.registry`) — the accepted labels are whatever is
registered, in canonical order.  ``sweep_energy`` runs a full
(algorithm x n x seed) grid by generating one :class:`RunSpec` per cell
entry and feeding them to :func:`repro.runspec.engine.execute_batch`,
then folding the reports into the energy tensor plus means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.experiments.config import SweepConfig
from repro.perf import perf
from repro.runspec.engine import execute_batch
from repro.runspec.report import RunReport
from repro.runspec.spec import RunSpec
from repro.trace import trace


def spec_from_config(
    name: str,
    cfg: SweepConfig,
    *,
    n: int,
    seed: int = 0,
    perf: bool = False,
    trace: bool = False,
) -> RunSpec:
    """Build the :class:`RunSpec` for ``name`` with the sweep's constants."""
    return RunSpec(
        algorithm=name,
        n=n,
        seed=seed,
        ghs_radius_const=cfg.ghs_radius_const,
        eopt_c1=cfg.eopt_c1,
        eopt_c2=cfg.eopt_c2,
        eopt_beta=cfg.eopt_beta,
        perf=perf,
        trace=trace,
    )


@dataclass(frozen=True)
class EnergySweep:
    """Result of one (algorithm x n x seed) sweep.

    ``energy[alg]`` has shape ``(len(ns), len(seeds))``; ``messages`` and
    ``rounds`` likewise.  Means are over seeds.
    """

    config: SweepConfig
    energy: dict[str, np.ndarray]
    messages: dict[str, np.ndarray]
    rounds: dict[str, np.ndarray]

    @property
    def ns(self) -> np.ndarray:
        return np.asarray(self.config.ns, dtype=np.int64)

    def mean_energy(self, alg: str) -> np.ndarray:
        """Seed-mean energy per n for ``alg``."""
        return self.energy[alg].mean(axis=1)

    def mean_messages(self, alg: str) -> np.ndarray:
        """Seed-mean message count per n for ``alg``."""
        return self.messages[alg].mean(axis=1)


def sweep_specs(
    config: SweepConfig | None = None,
    *,
    perf_enabled: bool | None = None,
    trace_enabled: bool | None = None,
) -> list[RunSpec]:
    """The sweep grid as specs, cell-major ((n, seed) outer, algorithm inner).

    Cell-major ordering keeps all algorithms of one (n, seed) cell
    adjacent, so a process-pool chunk aligned to ``len(cfg.algorithms)``
    shares one cached instance build per cell, and merged traces
    interleave cells exactly as the serial sweep runs them.

    ``perf_enabled`` / ``trace_enabled`` set the specs' instrumentation
    switches; they default to the *ambient* registry state, so an
    instrumented session (``--perf`` / ``--trace``) transparently gets
    per-cell snapshots merged back by :func:`sweep_from_reports`.
    """
    cfg = config or SweepConfig()
    want_perf = perf.enabled if perf_enabled is None else perf_enabled
    want_trace = trace.enabled if trace_enabled is None else trace_enabled
    return [
        spec_from_config(
            alg, cfg, n=n, seed=seed, perf=want_perf, trace=want_trace
        )
        for n in cfg.ns
        for seed in cfg.seeds
        for alg in cfg.algorithms
    ]


def sweep_from_reports(
    cfg: SweepConfig,
    specs: Sequence[RunSpec],
    reports: Iterable[RunReport],
) -> EnergySweep:
    """Fold per-spec reports into the sweep tensors.

    Reports must arrive in spec order (``execute_batch`` guarantees it).
    Instrumentation snapshots carried by the reports merge into the
    ambient registries here — traces gain a ``src`` stamp naming the
    sweep cell, identical for the serial and process backends.
    """
    shape = (len(cfg.ns), len(cfg.seeds))
    energy = {a: np.zeros(shape) for a in cfg.algorithms}
    messages = {a: np.zeros(shape, dtype=np.int64) for a in cfg.algorithms}
    rounds = {a: np.zeros(shape, dtype=np.int64) for a in cfg.algorithms}
    n_index = {n: i for i, n in enumerate(cfg.ns)}
    s_index = {s: j for j, s in enumerate(cfg.seeds)}
    for spec, report in zip(specs, reports):
        i, j = n_index[spec.n], s_index[spec.seed]
        energy[spec.algorithm][i, j] = report.energy
        messages[spec.algorithm][i, j] = report.messages
        rounds[spec.algorithm][i, j] = report.rounds
        if report.perf is not None:
            perf.merge(report.perf)
        if report.trace is not None:
            trace.merge(report.trace, source=spec.cell)
    return EnergySweep(config=cfg, energy=energy, messages=messages, rounds=rounds)


def sweep_energy(config: SweepConfig | None = None) -> EnergySweep:
    """Run the full sweep; every (n, seed) uses one shared point set.

    Sharing the point set across algorithms matches the paper's setup
    (all three algorithms measured on the same random instances) and
    removes cross-algorithm sampling noise from the comparison.  The grid
    goes through :func:`repro.runspec.engine.execute_batch` with the
    serial backend — the same path the process-parallel sweep fans out.
    """
    cfg = config or SweepConfig()
    specs = sweep_specs(cfg)
    reports = execute_batch(specs, backend="serial")
    return sweep_from_reports(cfg, specs, reports)
