"""The radix-placed CSR neighbor table, pinned bit for bit to a two-sort reference.

:func:`repro.sim.kernel.neighbor_csr_arrays` builds ``(indptr, ids,
dists, rev)`` by listing the directed entries in global rank order and
placing them with one stable bucket by source
(:func:`~repro.sim.kernel.radix_argsort`: one 16-bit pass up to 65,536
nodes, two above), and reads ``rev`` off the inverse permutation.  The
reference below is the direct formula: a ``lexsort((dist, src))`` over
the ``[i->j | j->i]`` concatenation of the ``query_pairs`` output, then
two more lexsorts for the reverse permutation.  Every array must match
it exactly on uniform instances, exact-distance ties, coincident
points, degenerate sizes, both radix paths and the density gate's
threshold.  ``indptr`` and ``dists`` keep the reference's int64 and
float64; ``ids`` and ``rev`` hold the same values in the int32 slot
dtype (:func:`~repro.sim.kernel.slot_dtype`).  A tracemalloc guard
bounds the build's peak bytes per directed entry.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.geometry.points import uniform_points
from repro.geometry.radius import connectivity_radius, giant_radius
from repro.sim import SynchronousKernel
from repro.sim import kernel as kernel_mod
from repro.sim.kernel import (
    neighbor_csr_arrays,
    radix_argsort,
    slot_dtype,
    table_within_budget,
)

#: Dtypes of ``(indptr, ids, dists, rev)`` for every table these tests build.
TABLE_DTYPES = (np.int64, np.int32, np.float64, np.int32)


def reference_csr(points, radius):
    """The reference build: ``(indptr, ids, dists, rev, half)``.

    ``half[e]`` is True where table entry ``e`` came from the ``j -> i``
    half of the concatenation (used to show that ties span both halves).
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    pairs = cKDTree(pts).query_pairs(radius, output_type="ndarray")
    if len(pairs):
        src = np.concatenate([pairs[:, 0], pairs[:, 1]])
        dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
        diff = pts[src] - pts[dst]
        dx, dy = diff[:, 0], diff[:, 1]
        dist = np.sqrt(dx * dx + dy * dy)
        order = np.lexsort((dist, src))
        src, dst, dist = src[order], dst[order], dist[order]
        half = order >= len(pairs)
    else:
        src = np.zeros(0, dtype=np.int64)
        dst = np.zeros(0, dtype=np.int64)
        dist = np.zeros(0)
        half = np.zeros(0, dtype=bool)
    indptr = np.searchsorted(src, np.arange(n + 1)).astype(np.int64)
    ids = dst.astype(np.int64, copy=False)
    rows = np.repeat(np.arange(n, dtype=np.intp), np.diff(indptr))
    fwd = np.lexsort((ids, rows))
    bwd = np.lexsort((rows, ids))
    rev = np.empty(len(ids), dtype=np.intp)
    rev[fwd] = bwd
    return indptr, ids, dist, rev, half


def assert_pinned(points, radius):
    """The radix-placed build equals the reference, value for value."""
    got = neighbor_csr_arrays(points, radius)
    want = reference_csr(points, radius)
    assert len(got) == 4
    names = ("indptr", "ids", "dists", "rev")
    for name, g, w, dt in zip(names, got, want, TABLE_DTYPES):
        assert g.dtype == dt, name
        np.testing.assert_array_equal(g, w, err_msg=name)
    return want


@pytest.fixture
def tie_calls(monkeypatch):
    """Count calls of the sparse tie fix-up."""
    calls = []
    real = kernel_mod._rank_ties

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(kernel_mod, "_rank_ties", spy)
    return calls


@pytest.mark.parametrize("n", [300, 2000])
@pytest.mark.parametrize("seed", [0, 5])
def test_uniform_at_eopt_radii(n, seed):
    pts = uniform_points(n, seed=seed)
    for r in (giant_radius(n), connectivity_radius(n, 1.6)):
        assert_pinned(pts, r)


@pytest.mark.parametrize("side, radius", [(9, 1.0), (12, 2.0), (7, 3.5)])
def test_lattice_ties_span_both_halves(side, radius, tie_calls):
    g = np.arange(side, dtype=float)
    pts = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2) / (side - 1)
    indptr, _, dists, _, half = assert_pinned(pts, radius / (side - 1) + 1e-9)
    assert tie_calls, "the tie fix-up never ran"
    # Some row holds two equal distances from different halves, so the
    # half-then-pair-index order is actually exercised.
    row = np.repeat(np.arange(len(pts)), np.diff(indptr))
    same = (row[1:] == row[:-1]) & (dists[1:] == dists[:-1])
    assert (same & (half[1:] != half[:-1])).any()


def test_coincident_points(tie_calls):
    pts = np.repeat(uniform_points(40, seed=3), 3, axis=0)
    pts = np.vstack([pts, np.zeros((4, 2))])
    _, _, dists, _, _ = assert_pinned(pts, 0.12)
    assert (dists == 0.0).any()
    assert tie_calls


@pytest.mark.parametrize("n", [0, 1, 2])
def test_tiny_n(n):
    pts = uniform_points(n, seed=1) if n else np.zeros((0, 2))
    for r in (0.01, 2.0):
        assert_pinned(pts, r)


def test_radius_with_zero_pairs():
    pts = uniform_points(50, seed=4)
    ids = assert_pinned(pts, 1e-6)[1]
    assert len(ids) == 0


def test_radius_at_density_gate_threshold():
    n = 2000
    budget = max(kernel_mod._TABLE_MIN_BUDGET, kernel_mod._TABLE_DEGREE_BUDGET * n)
    r = math.sqrt(budget / (n * (n - 1) * math.pi))
    while not table_within_budget(n, r):
        r = np.nextafter(r, 0.0)
    while table_within_budget(n, np.nextafter(r, 1.0)):
        r = np.nextafter(r, 1.0)
    assert not table_within_budget(n, np.nextafter(r, 1.0))
    assert_pinned(uniform_points(n, seed=2), r)


def test_kernel_table_carries_the_build():
    """The kernel's table wraps exactly the payload arrays, ``rev`` included."""
    pts = uniform_points(500, seed=6)
    r = connectivity_radius(500, 1.6)
    tbl = SynchronousKernel(pts, max_radius=r).neighbor_table()
    assert tbl is not None
    indptr, ids, dists, rev, _ = reference_csr(pts, r)
    np.testing.assert_array_equal(tbl.indptr_arr, indptr)
    assert tbl.indptr == indptr.tolist()
    got = (tbl.ids, tbl.dists, tbl.rev)
    for g, w, dt in zip(got, (ids, dists, rev), TABLE_DTYPES[1:]):
        assert g.dtype == dt
        np.testing.assert_array_equal(g, w)


def test_two_pass_radix_above_65536_nodes():
    """Node ids past 16 bits take the two-pass placement; still pinned."""
    n = 70_000
    # About 10^4 pairs: P ~ n^2 pi r^2 / 2.
    r = math.sqrt(2e4 / (math.pi * n * n))
    pts = uniform_points(n, seed=8)
    indptr, ids, _, _, _ = assert_pinned(pts, r)
    assert 5_000 < len(ids) // 2 < 20_000
    # Rows above the 16-bit boundary are populated, and ids cross it.
    assert indptr[-1] > indptr[1 << 16]
    assert (ids >= 1 << 16).any() and (ids < 1 << 16).any()


@pytest.mark.parametrize("bound", [1, 2, 1 << 16, (1 << 16) + 1, 1 << 20, 1 << 31])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_radix_argsort_is_the_stable_argsort(bound, dtype):
    rng = np.random.default_rng(bound)
    # Few distinct keys spread over the whole range: long runs of equal
    # keys whose order only a stable sort keeps.
    pool = rng.integers(0, bound, size=min(bound, 97), dtype=np.int64)
    keys = rng.choice(pool, size=20_000).astype(dtype)
    keys[:2] = (0, bound - 1)
    np.testing.assert_array_equal(
        radix_argsort(keys, bound), np.argsort(keys, kind="stable")
    )


def test_radix_argsort_empty():
    assert len(radix_argsort(np.zeros(0, dtype=np.int32), 0)) == 0


def test_slot_dtype_at_the_int32_boundary():
    top = 2**31
    assert slot_dtype(0, 0) == np.int32
    assert slot_dtype(top - 1, top - 1) == np.int32
    assert slot_dtype(top, 0) == np.int64
    assert slot_dtype(10, top) == np.int64
    assert slot_dtype(top, top) == np.int64


def test_build_peak_memory_per_entry():
    """tracemalloc peak of one build, per directed entry.

    The int64 build (one argsort over ``src * 2P + rank`` keys) peaked at
    40 bytes per entry; the int32 radix build peaks at 28.  The bound
    leaves room for one more 4-byte array, not for an 8-byte one.
    """
    n = 20_000
    pts = uniform_points(n, seed=0)
    r = connectivity_radius(n, 1.6)
    tree = cKDTree(pts)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = neighbor_csr_arrays(pts, r, tree=tree)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_entry = peak / len(out[1])
    assert per_entry < 33, per_entry
