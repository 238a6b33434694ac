"""Boundary property tests for the closed forms outside ``geometry/potential``.

The radius laws (``geometry/radius.py``), the lower-bound quantities
(``theory/bounds.py``) and the percolation cell grid
(``percolation/cells.py``) are checked on the inputs uniform sampling
almost never produces: points on the unit square's edges and corners,
coincident points, and the smallest instances n ∈ {2, 3}.  Each property
carries explicit ``@example``s for those cases, so the derandomized
``ci`` profile always runs them.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.geometry.radius import connectivity_radius, giant_radius
from repro.mst.delaunay import euclidean_mst
from repro.percolation.cells import expected_cell_count, good_cell_mask, occupancy_grid
from repro.rgg import build_rgg
from repro.rgg.components import connected_components
from repro.theory.bounds import (
    knn_energy_need,
    korach_message_bound,
    mst_energy_lower_bound,
    spanning_tree_energy_lower_bound,
)

CORNERS = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]

unit = st.floats(0.0, 1.0, allow_nan=False)
#: A point on the square's boundary: a corner, or one coordinate at 0 or 1.
edge_point = st.one_of(
    st.sampled_from(CORNERS),
    st.tuples(st.sampled_from([0.0, 1.0]), unit),
    st.tuples(unit, st.sampled_from([0.0, 1.0])),
)


@st.composite
def boundary_sets(draw, min_size=2, max_size=8):
    """Boundary points, some of them repeated (coincident)."""
    pts = draw(st.lists(edge_point, min_size=1, max_size=max_size))
    reps = draw(st.lists(st.sampled_from(pts), max_size=3))
    pts = pts + reps
    if len(pts) < min_size:
        pts = pts + [pts[0]] * (min_size - len(pts))
    return np.array(pts[: max(max_size, min_size)], dtype=float)


def _brute_mst_sum(pts: np.ndarray, alpha: float) -> float:
    """Prim on the complete graph: Σ over MST edges of d^alpha."""
    n = len(pts)
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    best = d[0].copy()
    done = np.zeros(n, dtype=bool)
    done[0] = True
    total = 0.0
    for _ in range(n - 1):
        j = int(np.argmin(np.where(done, np.inf, best)))
        total += best[j] ** alpha
        done[j] = True
        best = np.minimum(best, d[j])
    return total


# -- geometry/radius.py -------------------------------------------------------


class TestRadiusLaws:
    @given(st.integers(2, 10**7), st.floats(0.01, 50.0))
    @example(2, 1.6)
    @example(3, 1.6)
    @example(2, 50.0)
    @example(3, 50.0)
    def test_connectivity_radius_closed_form(self, n, c):
        r = connectivity_radius(n, c)
        assert 0.0 < r <= math.sqrt(2.0)
        assert r == min(c * math.sqrt(math.log(n) / n), math.sqrt(2.0))

    @given(st.integers(1, 10**7), st.floats(0.01, 50.0))
    @example(1, 1.4)
    @example(2, 1.4)
    @example(3, 1.4)
    @example(2, 50.0)
    def test_giant_radius_closed_form(self, n, c):
        r = giant_radius(n, c)
        assert 0.0 < r <= math.sqrt(2.0)
        assert r == min(c * math.sqrt(1.0 / n), math.sqrt(2.0))

    @pytest.mark.parametrize("law", [connectivity_radius, giant_radius])
    @given(pts=boundary_sets(min_size=2, max_size=3))
    @example(pts=np.array([[0.0, 0.0], [1.0, 1.0]]))
    @example(pts=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
    @example(pts=np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    def test_capped_radius_spans_the_diagonal(self, law, pts):
        # At the cap the radius is the square's diameter: even opposite
        # corners are within range (a closed ball), so every instance is
        # one component.
        r = law(len(pts), 1e6)
        assert r == math.sqrt(2.0)
        assert math.hypot(1.0, 1.0) <= r
        g = build_rgg(pts, r)
        assert len(connected_components(g)) == 1

    def test_degenerate_n(self):
        assert connectivity_radius(0) == connectivity_radius(1) == math.sqrt(2.0)
        assert giant_radius(0) == math.sqrt(2.0)
        # n = 2, 3: the law itself, below the cap.
        assert connectivity_radius(2) == 1.6 * math.sqrt(math.log(2) / 2)
        assert connectivity_radius(3) == 1.6 * math.sqrt(math.log(3) / 3)
        assert giant_radius(2) == 1.4 * math.sqrt(1 / 2)


# -- theory/bounds.py ---------------------------------------------------------


class TestBoundsAtTheBoundary:
    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @given(pts=boundary_sets())
    @example(pts=np.array([[0.0, 0.0], [1.0, 1.0]]))
    @example(pts=np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]]))
    @example(pts=np.array([[1.0, 1.0], [1.0, 1.0]]))
    @example(pts=np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]))
    @example(pts=np.array(CORNERS))
    @example(pts=np.array(CORNERS + CORNERS))
    @example(pts=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.44394937e-305, 0.0]]))
    def test_mst_lower_bound_matches_complete_graph(self, alpha, pts):
        got = mst_energy_lower_bound(pts, alpha)
        assert got == pytest.approx(_brute_mst_sum(pts, alpha), rel=1e-12, abs=1e-15)

    @given(pts=boundary_sets())
    @example(pts=np.array([[0.0, 0.0], [0.0, 0.0]]))
    @example(pts=np.array(CORNERS + CORNERS))
    @example(pts=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.5, 0.0]]))
    @example(pts=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.44394937e-305, 0.0]]))
    def test_euclidean_mst_spans_coincident_points(self, pts):
        # A spanning tree has n - 1 edges even when points coincide,
        # exactly or numerically (Qhull leaves such points out of the
        # triangulation).
        edges, lengths = euclidean_mst(pts)
        n = len(pts)
        assert edges.shape == (n - 1, 2) and len(lengths) == n - 1
        assert (edges[:, 0] < edges[:, 1]).all()
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for u, v in edges.tolist():
            parent[find(u)] = find(v)
        assert len({find(i) for i in range(n)}) == 1

    @given(pts=boundary_sets(), k=st.integers(1, 3))
    @example(pts=np.array([[0.0, 0.0], [1.0, 1.0]]), k=1)
    @example(pts=np.array([[0.5, 1.0], [0.5, 1.0], [0.5, 1.0]]), k=2)
    @example(pts=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]), k=1)
    def test_knn_energy_need_is_sorted_distance(self, pts, k):
        n = len(pts)
        if k >= n:
            return
        need = knn_energy_need(pts, k)
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
        for i in range(n):
            others = np.sort(np.delete(d[i], i))
            assert need[i] == pytest.approx(others[k - 1] ** 2, abs=1e-15)
        assert (need >= 0).all()

    @given(st.integers(1, 10**6))
    @example(1)
    @example(2)
    @example(3)
    def test_message_and_energy_curves(self, n):
        kmz = korach_message_bound(n)
        curve = spanning_tree_energy_lower_bound(n)
        assert kmz == (0.0 if n == 1 else n * math.log(n))
        assert curve == (0.0 if n == 1 else math.log(n) / math.pi)
        assert korach_message_bound(n + 1) > kmz >= 0.0
        assert spanning_tree_energy_lower_bound(n + 1) > curve >= 0.0


# -- percolation/cells.py -----------------------------------------------------


class TestCellGridAtTheBoundary:
    @given(pts=boundary_sets(), radius=st.floats(0.01, 3.0))
    @example(pts=np.array(CORNERS), radius=0.2)
    @example(pts=np.array(CORNERS), radius=2.0)
    @example(pts=np.array([[1.0, 1.0], [1.0, 1.0]]), radius=2 / 3)
    @example(pts=np.array([[1.0, 0.3], [0.7, 1.0], [0.0, 0.6]]), radius=0.2)
    @example(pts=np.array([[1.0, 1.0], [0.0, 0.0]]), radius=0.2 / 3)
    def test_every_point_in_a_cell_that_covers_it(self, pts, radius):
        grid = occupancy_grid(pts, radius)
        side, m = grid.side, grid.m
        assert side == min(radius / 2, 1.0) and m == math.ceil(1 / side)
        assert int(grid.counts.sum()) == len(pts)
        for p, (x, y) in enumerate(pts.tolist()):
            i, j = grid.cell_of(p)
            assert 0 <= i < m and 0 <= j < m
            assert p in grid.points_in_cell(i, j).tolist()
            # Cell (i, j) covers [i·side, (i+1)·side) per axis; the last
            # row and column absorb the x == 1 / y == 1 edge.
            for c, v in ((i, x), (j, y)):
                assert c * side <= v + 1e-12
                assert v < (c + 1) * side + 1e-12 or c == m - 1
        # Corners land in the grid's corner cells.
        for p, (x, y) in enumerate(pts.tolist()):
            if (x, y) in CORNERS:
                assert grid.cell_of(p) == (
                    0 if x == 0.0 else m - 1,
                    0 if y == 0.0 else m - 1,
                )

    @given(corner=st.sampled_from(CORNERS), n=st.integers(2, 40), radius=st.floats(0.02, 2.0))
    @example(corner=(1.0, 1.0), n=2, radius=0.1)
    @example(corner=(0.0, 1.0), n=3, radius=0.1)
    @example(corner=(1.0, 0.0), n=3, radius=2.0)
    def test_coincident_points_make_one_good_cell(self, corner, n, radius):
        grid = occupancy_grid(np.array([corner] * n), radius)
        good = good_cell_mask(grid)
        assert int(good.sum()) == 1
        assert grid.counts[good].tolist() == [n]

    @given(pts=boundary_sets(min_size=2, max_size=3), radius=st.floats(0.01, 2.0))
    @example(pts=np.array([[0.0, 0.0], [1.0, 1.0]]), radius=0.1)
    @example(pts=np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.5]]), radius=0.5)
    @example(pts=np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]), radius=1.75)
    def test_small_n_good_cell_threshold(self, pts, radius):
        # The default threshold is half the expected occupancy n (r/2)²,
        # clamped to one node: for n ≤ 3 and r ≤ 2·sqrt(2/3) every
        # occupied cell is good.
        n = len(pts)
        grid = occupancy_grid(pts, radius)
        expected = expected_cell_count(n, radius)
        assert expected == n * grid.side**2
        good = good_cell_mask(grid)
        np.testing.assert_array_equal(good, grid.counts >= max(expected / 2, 1.0))
        if expected / 2 <= 1.0:
            np.testing.assert_array_equal(good, grid.counts >= 1)
