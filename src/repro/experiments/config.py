"""Sweep configuration shared by benches, examples and tests.

The paper's experiments vary n from 50 to 5000 uniform nodes (Sec. VII).
``PAPER_NS`` mirrors that grid; ``BENCH_NS`` is the default for the
pytest-benchmark harness (full shape, tractable wall-clock); ``SMOKE_NS``
keeps CI-style test runs fast.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ExperimentError

#: The paper's n-grid (Sec. VII: "the number of nodes varies from 50 to 5000").
PAPER_NS: tuple[int, ...] = (50, 100, 250, 500, 1000, 1500, 2000, 2500, 3000, 4000, 5000)

#: Default grid for the benchmark harness: same dynamic range, fewer points.
BENCH_NS: tuple[int, ...] = (50, 100, 250, 500, 1000, 2000, 4000)

#: Fast grid for tests.
SMOKE_NS: tuple[int, ...] = (50, 100, 200)

#: Algorithms of Fig. 3, by label used throughout.
FIG3_ALGORITHMS: tuple[str, ...] = ("GHS", "EOPT", "Co-NNT")


@dataclass(frozen=True)
class SweepConfig:
    """One energy-sweep specification.

    Attributes
    ----------
    ns:
        Node counts to sweep.
    seeds:
        Seeds; each (n, seed) pair is one independent uniform instance.
    algorithms:
        Registered algorithm labels (:func:`repro.runspec.registry.names`).
    ghs_radius_const / eopt_c1 / eopt_c2 / eopt_beta:
        The paper's experimental constants (Sec. VII).
    """

    ns: tuple[int, ...] = BENCH_NS
    seeds: tuple[int, ...] = (0, 1, 2)
    algorithms: tuple[str, ...] = FIG3_ALGORITHMS
    ghs_radius_const: float = 1.6
    eopt_c1: float = 1.4
    eopt_c2: float = 1.6
    eopt_beta: float = 1.0

    def __post_init__(self) -> None:
        if not self.ns:
            raise ExperimentError("sweep needs at least one n")
        if any(n < 2 for n in self.ns):
            raise ExperimentError("all n must be >= 2")
        if not self.seeds:
            raise ExperimentError("sweep needs at least one seed")
        if not self.algorithms:
            raise ExperimentError("sweep needs at least one algorithm")
