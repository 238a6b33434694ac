"""Tests for the experiment harness: config, runner, figures, tables, report."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments.ascii_plot import ascii_grid, ascii_xy
from repro.experiments.config import BENCH_NS, PAPER_NS, SweepConfig
from repro.experiments.figures import (
    fig1_percolation,
    fig2_potential,
    fig3a_plot,
    fig3a_rows,
    fig3b_plot,
    fig3b_slopes,
)
from repro.experiments.report import format_table
from repro.experiments.runner import sweep_energy
from repro.experiments.tables import (
    PAPER_TAB1_EDGE_SUMS,
    lower_bound_table,
    tab1_quality,
    thm52_giant,
)
from repro.runspec import RunSpec, execute


SMALL = SweepConfig(ns=(50, 100, 200), seeds=(0,))


@pytest.fixture(scope="module")
def small_sweep():
    return sweep_energy(SMALL)


class TestConfig:
    def test_paper_grid_range(self):
        assert PAPER_NS[0] == 50 and PAPER_NS[-1] == 5000

    def test_defaults_valid(self):
        cfg = SweepConfig()
        assert cfg.ns == BENCH_NS
        assert cfg.ghs_radius_const == 1.6
        assert cfg.eopt_c1 == 1.4

    def test_validation(self):
        with pytest.raises(ExperimentError):
            SweepConfig(ns=())
        with pytest.raises(ExperimentError):
            SweepConfig(ns=(1, 100))
        with pytest.raises(ExperimentError):
            SweepConfig(seeds=())
        with pytest.raises(ExperimentError):
            SweepConfig(algorithms=())


class TestRunner:
    def test_dispatch_labels(self):
        for label in ("GHS", "MGHS", "EOPT", "Co-NNT"):
            res = execute(RunSpec(algorithm=label, n=60)).result
            assert res.n == 60

    def test_unknown_label(self):
        with pytest.raises(ExperimentError):
            execute(RunSpec(algorithm="FOO", n=10))

    def test_sweep_shapes(self, small_sweep):
        for alg in SMALL.algorithms:
            assert small_sweep.energy[alg].shape == (3, 1)
            assert small_sweep.messages[alg].shape == (3, 1)
        assert list(small_sweep.ns) == [50, 100, 200]

    def test_sweep_means(self, small_sweep):
        m = small_sweep.mean_energy("GHS")
        assert m.shape == (3,)
        assert (m > 0).all()

    def test_expected_energy_ordering(self, small_sweep):
        """GHS > EOPT > Co-NNT at every sweep point (the paper's Fig 3a)."""
        g = small_sweep.mean_energy("GHS")
        e = small_sweep.mean_energy("EOPT")
        c = small_sweep.mean_energy("Co-NNT")
        assert (g > e).all()
        assert (e > c).all()


class TestFigures:
    def test_fig1(self):
        r = fig1_percolation(n=600, seed=0)
        assert 0.5 < r.giant_fraction <= 1.0
        assert "#" in r.good_cluster_picture

    def test_fig2_lemma_checks(self):
        r = fig2_potential(n=800, seed=0)
        assert r.min_potential_angle >= 0.5
        assert r.n * r.mean_sq_connect_distance <= 4.0  # Thm 6.1
        assert r.mean_sq_connect_distance <= r.expected_sq_bound  # Lemma 6.2
        assert r.lemma63_constant < 3.0  # Lemma 6.3

    def test_fig2_validation(self):
        with pytest.raises(ExperimentError):
            fig2_potential(n=1)

    def test_fig3a_rows(self, small_sweep):
        rows = fig3a_rows(small_sweep)
        assert len(rows) == 3
        assert rows[0][0] == 50
        assert len(rows[0]) == 1 + len(SMALL.algorithms)

    def test_fig3b_slopes_ordering(self, small_sweep):
        fits = fig3b_slopes(small_sweep, min_n=50)
        assert fits["GHS"].slope > fits["EOPT"].slope > fits["Co-NNT"].slope - 0.5

    def test_fig3b_min_n_guard(self, small_sweep):
        with pytest.raises(ExperimentError):
            fig3b_slopes(small_sweep, min_n=10_000)

    def test_plots_render(self, small_sweep):
        assert "Fig 3(a)" in fig3a_plot(small_sweep)
        assert "loglog n" in fig3b_plot(small_sweep, min_n=50)


class TestTables:
    def test_tab1_close_to_paper(self):
        """The measured Sec. VII numbers land near the published ones."""
        rows = tab1_quality(ns=(1000,), seed=0)
        row = rows[0]
        paper_connt, paper_mst = PAPER_TAB1_EDGE_SUMS[1000]
        assert row.connt_edge_sum == pytest.approx(paper_connt, rel=0.10)
        assert row.mst_edge_sum == pytest.approx(paper_mst, rel=0.10)
        assert row.connt_sq_sum < 1.0
        assert 1.0 <= row.length_ratio < 1.25

    def test_thm52_rows(self):
        rows = thm52_giant(ns=(400, 800), seed=0)
        assert [r.n for r in rows] == [400, 800]
        for r in rows:
            assert 0 < r.giant_fraction <= 1
            assert r.second_component < 400

    def test_lower_bound_rows(self):
        rows = lower_bound_table(ns=(500,), seed=0)
        assert rows[0].l_mst > 0.1
        assert rows[0].lemma41_b > 0
        with pytest.raises(ExperimentError):
            lower_bound_table(ns=(4,))


class TestAsciiPlot:
    def test_xy_basic(self):
        out = ascii_xy({"s": ([1, 2, 3], [1, 4, 9])}, title="T")
        assert "T" in out and "o=s" in out

    def test_xy_multi_series_glyphs(self):
        out = ascii_xy({"a": ([0, 1], [0, 1]), "b": ([0, 1], [1, 0])})
        assert "o=a" in out and "x=b" in out

    def test_xy_empty_rejected(self):
        with pytest.raises(ExperimentError):
            ascii_xy({})

    def test_grid_renders(self):
        out = ascii_grid(np.eye(4, dtype=int))
        assert out.count("#") == 4

    def test_grid_downsamples(self):
        out = ascii_grid(np.ones((200, 200), dtype=int), max_side=50)
        assert len(out.splitlines()) <= 70

    def test_grid_validation(self):
        with pytest.raises(ExperimentError):
            ascii_grid(np.zeros(5))


class TestReport:
    def test_plain_table(self):
        out = format_table(["a", "bb"], [[1, 2.5], [10, 0.125]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "bb" in lines[0]

    def test_markdown_table(self):
        out = format_table(["x"], [[1]], markdown=True)
        assert out.startswith("| x")
        assert "|-" in out.splitlines()[1]

    def test_width_mismatch(self):
        with pytest.raises(ExperimentError):
            format_table(["a"], [[1, 2]])

    def test_empty_headers(self):
        with pytest.raises(ExperimentError):
            format_table([], [])

    def test_float_formatting(self):
        out = format_table(["v"], [[0.000012345]])
        assert "1.23e-05" in out
