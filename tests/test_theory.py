"""Tests for the theory toolkit: bounds, tail bounds, scaling fits."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ExperimentError, GeometryError
from repro.geometry.points import uniform_points
from repro.theory.bounds import (
    knn_energy_need,
    korach_message_bound,
    mst_energy_lower_bound,
    spanning_tree_energy_lower_bound,
)
from repro.theory.chernoff import chernoff_upper_tail, poisson_upper_tail
from repro.theory.scaling import fit_loglog_slope, fit_power_law


class TestBounds:
    def test_l_mst_theta_one(self):
        """sum d^2 over the EMST is Theta(1): stable across n."""
        vals = [
            mst_energy_lower_bound(uniform_points(n, seed=0)) for n in (500, 2000)
        ]
        assert 0.2 < vals[0] < 1.5
        assert 0.2 < vals[1] < 1.5

    def test_l_mst_alpha_one_grows(self):
        """sum d over the EMST is Theta(sqrt n) by Steele's theorem."""
        a = mst_energy_lower_bound(uniform_points(400, seed=1), alpha=1.0)
        b = mst_energy_lower_bound(uniform_points(1600, seed=1), alpha=1.0)
        assert 1.5 < b / a < 2.7  # ideal ratio: 2

    def test_l_mst_trivial(self):
        assert mst_energy_lower_bound(np.zeros((0, 2))) == 0.0
        assert mst_energy_lower_bound(np.array([[0.1, 0.1]])) == 0.0

    def test_knn_energy_scale(self):
        """Lemma 4.1: min-over-nodes k-NN energy is about k/(b n) with a
        moderate constant b."""
        n, k = 2000, 8
        need = knn_energy_need(uniform_points(n, seed=2), k)
        b = k / (n * float(need.min()))
        assert 1.0 < b < 50.0

    def test_korach_curve(self):
        assert korach_message_bound(1) == 0.0
        assert korach_message_bound(100) == pytest.approx(100 * math.log(100))
        with pytest.raises(GeometryError):
            korach_message_bound(0)

    def test_energy_lower_bound_curve(self):
        assert spanning_tree_energy_lower_bound(1) == 0.0
        v = spanning_tree_energy_lower_bound(1000)
        assert v == pytest.approx(math.log(1000) / math.pi)

    def test_algorithms_respect_lower_bounds(self):
        """Measured energies sit above both lower-bound curves: Omega(log n)
        without coordinates (GHS/EOPT), Omega(L_MST) with (Co-NNT)."""
        from repro.algorithms.connt import run_connt
        from repro.algorithms.eopt import run_eopt

        n = 500
        pts = uniform_points(n, seed=3)
        assert run_eopt(pts).energy > spanning_tree_energy_lower_bound(n)
        assert run_connt(pts).energy > mst_energy_lower_bound(pts)


class TestChernoff:
    def test_vacuous_below_mean(self):
        assert chernoff_upper_tail(10.0, 5.0) == 1.0

    def test_decreasing_in_k(self):
        vals = [chernoff_upper_tail(10.0, k) for k in (15, 20, 30, 50)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_in_unit_interval(self):
        for k in (0.0, 5.0, 20.0, 100.0):
            assert 0.0 <= chernoff_upper_tail(7.0, k) <= 1.0

    def test_zero_mean(self):
        assert chernoff_upper_tail(0.0, 1.0) == 0.0
        assert chernoff_upper_tail(0.0, 0.0) == 1.0

    def test_bounds_empirical_poisson_tail(self):
        """The bound really bounds: empirical Poisson tail <= Chernoff."""
        rng = np.random.default_rng(0)
        mu, k = 4.0, 12
        samples = rng.poisson(mu, size=200_000)
        empirical = float((samples >= k).mean())
        assert empirical <= chernoff_upper_tail(mu, k)
        assert empirical <= poisson_upper_tail(mu, k)

    def test_lemma_4_1_shape(self):
        """With mu = k/b the bound decays like (e/b)^k as the lemma states."""
        b = 10.0
        for k in (10, 20, 40):
            bound = poisson_upper_tail(k / b, k)
            assert bound <= (math.e / b) ** k * 1.001

    def test_validation(self):
        with pytest.raises(GeometryError):
            chernoff_upper_tail(-1.0, 2.0)
        with pytest.raises(GeometryError):
            poisson_upper_tail(1.0, -2.0)


class TestScaling:
    def test_recovers_known_log_power(self):
        ns = np.array([100, 300, 1000, 3000, 10000])
        for b in (0.0, 1.0, 2.0):
            w = 3.0 * np.log(ns) ** b if b else np.full(len(ns), 3.0)
            fit = fit_loglog_slope(ns, w)
            assert fit.slope == pytest.approx(b, abs=1e-9)
            assert fit.r_squared > 0.999 or b == 0.0

    def test_recovers_power_law(self):
        ns = np.array([10, 100, 1000])
        fit = fit_power_law(ns, 5.0 * ns**1.5)
        assert fit.slope == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            fit_loglog_slope(np.array([2, 10]), np.array([1.0, 2.0]))  # n <= e
        with pytest.raises(ExperimentError):
            fit_loglog_slope(np.array([10, 100]), np.array([0.0, 1.0]))
        with pytest.raises(ExperimentError):
            fit_power_law(np.array([10]), np.array([1.0]))
        with pytest.raises(ExperimentError):
            fit_power_law(np.array([10, 20]), np.array([1.0]))

    @given(
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=0.1, max_value=10),
    )
    def test_property_exact_recovery(self, slope, scale):
        """Noise-free power-law data is recovered exactly."""
        ns = np.array([10.0, 50.0, 250.0, 1250.0])
        fit = fit_power_law(ns, scale * ns**slope)
        assert fit.slope == pytest.approx(slope, abs=1e-6)
