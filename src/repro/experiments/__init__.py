"""Experiment harness: seeded sweeps and per-figure/table generators.

Every artifact of the paper's evaluation section maps to one generator
here (see the experiment index in DESIGN.md):

* FIG1  — :func:`~repro.experiments.figures.fig1_percolation`
* FIG2  — :func:`~repro.experiments.figures.fig2_potential`
* FIG3a — :func:`~repro.experiments.figures.fig3a_energy`
* FIG3b — :func:`~repro.experiments.figures.fig3b_slopes`
* TAB1  — :func:`~repro.experiments.tables.tab1_quality`
* THM52 — :func:`~repro.experiments.tables.thm52_giant`
* LB    — :func:`~repro.experiments.tables.lower_bound_table`

The benchmark files under ``benchmarks/`` are thin wrappers that call
these generators and print the rows, so a bench run regenerates the
paper's numbers verbatim.
"""

from repro.experiments.config import SweepConfig, PAPER_NS, SMOKE_NS, BENCH_NS
from repro.experiments.instances import cache_info, clear_cache, get_points
from repro.experiments.runner import sweep_energy, EnergySweep
from repro.experiments.parallel import sweep_energy_parallel
from repro.experiments.figures import (
    fig1_percolation,
    fig2_potential,
    fig3a_energy,
    fig3b_slopes,
)
from repro.experiments.tables import tab1_quality, thm52_giant, lower_bound_table
from repro.experiments.ascii_plot import ascii_xy, ascii_grid
from repro.experiments.report import format_table

__all__ = [
    "SweepConfig",
    "PAPER_NS",
    "SMOKE_NS",
    "BENCH_NS",
    "sweep_energy",
    "sweep_energy_parallel",
    "EnergySweep",
    "get_points",
    "cache_info",
    "clear_cache",
    "fig1_percolation",
    "fig2_potential",
    "fig3a_energy",
    "fig3b_slopes",
    "tab1_quality",
    "thm52_giant",
    "lower_bound_table",
    "ascii_xy",
    "ascii_grid",
    "format_table",
]
