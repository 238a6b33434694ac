"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib
import os

import numpy as np
import pytest
from hypothesis import settings

from repro.geometry.points import uniform_points

# Tier-1 is deterministic: the default ``ci`` profile derandomizes every
# property test and keeps no example database, so the verdict never
# depends on what a local ``.hypothesis/`` directory holds.  Randomized
# search, with the database, is opt-in: ``HYPOTHESIS_PROFILE=explore``
# (see docs/fuzzing.md, "Determinism and budgets").
settings.register_profile("ci", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_points():
    """A fixed 60-node uniform instance (connected at the default radius)."""
    return uniform_points(60, seed=42)


@pytest.fixture
def medium_points():
    """A fixed 200-node uniform instance."""
    return uniform_points(200, seed=7)


@contextlib.contextmanager
def per_message_floods():
    """HELLO/ANNOUNCE as per-message floods on the fast kernel.

    ``FloodCache.ensure`` declines, exactly as it does when the density
    gate rejects the neighbor table: nodes keep their dict caches and
    the whole-round phase engine stays off.
    """
    from repro.algorithms.ghs.plane import FloodCache

    ensure = FloodCache.__dict__["ensure"]
    FloodCache.ensure = classmethod(lambda cls, kernel: None)
    try:
        yield
    finally:
        FloodCache.ensure = ensure


def brute_force_mst_cost(points: np.ndarray) -> float:
    """O(n^2) reference MST length via networkx, for cross-checks."""
    import networkx as nx

    pts = np.asarray(points, dtype=float)
    g = nx.Graph()
    n = len(pts)
    g.add_nodes_from(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.hypot(*(pts[i] - pts[j])))
            g.add_edge(i, j, weight=d)
    t = nx.minimum_spanning_tree(g)
    return sum(d["weight"] for _, _, d in t.edges(data=True))
